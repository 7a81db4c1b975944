(** Deterministic steady-state analysis of a timed event graph.

    This is the `scscyc` role of the ERS toolbox in the paper: compute the
    period of the net as the maximum cycle ratio
    (Σ firing times / Σ tokens) over its cycles (§4). *)

type analysis = {
  period : float;  (** time between two successive firings of any transition *)
  critical : Graphs.Digraph.edge list;
      (** a critical cycle; [Graphs.Digraph.edge.tag] is the place index, nodes
          are transition indices *)
}

val analyse : Teg.t -> analysis option
(** [None] for an acyclic net (unbounded rate).  Raises
    [Graphs.Cycle_ratio.Unbounded] on a deadlocked net (a cycle of places
    without a token), and [Supervise.Error.Solver_error (No_convergence _)]
    if the policy iteration of {!Graphs.Cycle_ratio.max_cycle_ratio} does
    not settle within its pass cap.  The critical cycle starts at its
    smallest transition index. *)

val period : Teg.t -> float
(** Shortcut; 0 for an acyclic net. *)

val maxplus_period_estimate : ?iterations:int -> Teg.t -> float
(** Independent estimate through the (max,+) recurrence of {!Teg.to_maxplus}
    — iterates the daters and measures their growth rate.  Only valid for
    0/1-token nets; used by the test-suite to cross-check {!analyse}. *)
