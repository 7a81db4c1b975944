(** Running-time study of the compact state-space kernel: per-stage cold
    timings (marking-graph construction, recurrent-class isolation,
    stationary solve), the rotation-quotient solve (exact lumping over the
    pattern's u·v-fold symmetry) and warm-path timings over a ladder of
    u×v patterns and Erlang phase counts.  Run by
    [bench/main.exe -- --statespace], which writes the results to
    BENCH_statespace.json ([--big] adds the million-state rung); a
    two-rung smoke version runs in the test suite. *)

type rung = {
  r_u : int;
  r_v : int;
  r_phases : int;
  r_states : int;  (** reachable markings *)
  r_edges : int;  (** marking-graph edges *)
  r_recurrent : int;  (** states of the recurrent class *)
  r_explore_s : float;  (** net, Erlang expansion and serial BFS of the marking graph *)
  r_structure_s : float;  (** SCC / recurrent-class isolation *)
  r_solve_s : float;  (** CTMC build + stationary distribution, unlumped *)
  r_lump_classes : int;  (** orbits of the rotation quotient *)
  r_lump_solve_s : float;  (** quotient build + supervised solve + lift *)
  r_rung : string;  (** ladder rung that solved the quotient *)
  r_warm_s : float;  (** same query answered by the pattern-solve memo *)
  r_throughput : float;
}

val ladder : (int * int) list
(** The default (u, v) rungs, u·v increasing from 9 to 36. *)

val phase_counts : int list
(** Erlang phase counts measured per rung (1, 2, 3). *)

val pattern_net : u:int -> v:int -> phases:int -> Petrinet.Teg.t
(** The u×v pattern net with unit transfer times, or its expansion into
    [phases] Erlang phases per transfer when [phases > 1]. *)

val study : ?ladder:(int * int) list -> ?phases:int list -> unit -> rung list
(** Measure every (rung, phase count) combination.  Clears the pattern
    caches before and after, so timings are cold-path and the process-wide
    caches are left empty.  Raises [Supervise.Error.Solver_error
    (Numerical _)] if a rung's lumped solve diverges from the full one. *)

val print : Format.formatter -> rung list -> unit

type big = {
  b_u : int;
  b_v : int;
  b_phases : int;
  b_cap : int;  (** state-cap handed to the exploration *)
  b_wall_budget_s : float;  (** cooperative wall deadline of the whole run *)
  b_domains : int;  (** pool size of the sharded exploration *)
  b_states : int;
  b_edges : int;
  b_explore_s : float;  (** sharded exploration + recurrent-class isolation *)
  b_lumped_solve_s : float;  (** orbit partition, quotient build, ladder, lift *)
  b_lump_classes : int;
  b_rung : string;  (** ladder rung that solved the quotient *)
  b_throughput : float;
  b_total_s : float;
}

val big_study :
  ?u:int ->
  ?v:int ->
  ?phases:int ->
  ?cap:int ->
  ?wall_budget_s:float ->
  ?domains:int ->
  unit ->
  big
(** One cold solve of a pattern in the millions of states — default
    (11,12), whose 7 759 752 markings the BFS sharded over a pool of
    [domains] explores — under a wall budget, followed by the exact
    rotation-quotient solve.  Raises
    [Supervise.Error.Solver_error (Budget_exhausted _)] if the budget
    expires mid-run. *)

val print_big : Format.formatter -> big -> unit

val write_json : ?big:big -> header:string -> path:string -> rung list -> unit
(** Writes the record to [path]; [header] holds its leading JSON members
    (the commit, [nproc] and OCaml version), rendered without braces. *)
