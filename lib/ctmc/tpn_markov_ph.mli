(** The general method of §5.1 extended to phase-type firing times.

    The marking process alone is not Markov once firing times are not
    exponential; augmenting the state with the current phase of every
    enabled transition restores the Markov property exactly (phase-type
    laws are absorption times of small CTMCs, and the event-graph
    property guarantees firings never disable other enabled transitions,
    so phases are never discarded).  A transition completes when its PH
    law absorbs; transitions becoming enabled draw their starting phase
    from the law's initial distribution.

    This computes the *exact* throughput for Erlang, hyperexponential,
    Coxian, … operation times — in particular exact values *below* the
    exponential bound of Theorem 7 for D.F.R. laws.  The state space is
    the marking space times the product of the enabled phases; keep the
    laws small.  It is a product over the packed marking graph, solved on
    {!Ctmc.stationary_supervised}'s ladder. *)

type t

val analyse :
  ?cap:int -> ?budget:Supervise.Budget.t -> ph_of:(int -> Ph.t) -> Petrinet.Teg.t -> t
(** [cap] (default 500_000) bounds the number of (marking, phases)
    states.  Raises [Supervise.Error.Solver_error]:
    [State_space_exceeded _] beyond the cap and [Non_ergodic _] if the
    chain does not have a unique recurrent class.  The [budget] tightens
    the cap, its wall deadline is polled during construction, and it
    bounds the ladder. *)

val n_states : t -> int

val provenance : t -> Supervise.Provenance.t
(** The ladder's record of the stationary solve: which rung answered,
    and the failures before it. *)

val completion_rate : t -> int -> float
(** Stationary rate of completions (absorptions) of one transition. *)

val throughput_of : t -> int list -> float
(** Sum of the completion rates of the listed transitions. *)
