(** The u×v communication pattern of §5.2.

    A replicated communication between a team of [R_i] senders and a team
    of [R_{i+1}] receivers splits into [g = gcd(R_i, R_{i+1})] connected
    components; each component is a chain of copies of a pattern with
    [u = R_i/g] senders and [v = R_{i+1}/g] receivers (so gcd(u,v) = 1).
    The pattern has u*v transitions — transition [k] is the transfer on
    the component's k-th row, performed by sender [k mod u] towards
    receiver [k mod v] — plus one serialisation ring per sender (one-port
    out) and per receiver (one-port in), each with a single token on its
    wrap-around place.

    The *inner throughput* of the component is its stationary number of
    transfers per time unit in isolation (inputs always available). *)

val build : u:int -> v:int -> time:(sender:int -> receiver:int -> float) -> Petrinet.Teg.t
(** Raises [Invalid_argument] unless u,v ≥ 1 and gcd(u,v) = 1. *)

val transition_of : u:int -> v:int -> int -> int * int
(** [transition_of ~u ~v k] = (sender slot, receiver slot) of transition k. *)

val young_graph :
  ?cap:int -> ?budget:Supervise.Budget.t -> u:int -> v:int -> unit -> Petrinet.Marking.graph option
(** Direct enumeration of the reachable marking graph of {!build}'s net:
    a marking is the token position in each of the u+v serialisation
    rings (a pair of Young-diagram paths, Theorem 3), and the enumerator
    walks those position tuples combinatorially instead of firing the
    generic breadth-first search.  The result — codec (one bit per
    place), packed codes, discovery order and edge lists — is identical to
    [Petrinet.Marking.explore_graph (build ~u ~v ...)].  Returns [None]
    when the position tuple would not pack into one machine int (the
    caller then falls back to the generic exploration).  Raises
    [Supervise.Error.Solver_error (State_space_exceeded _)] beyond [cap]
    states, tightened by the [budget]'s state ceiling, and
    [Budget_exhausted] once the budget's wall deadline has passed, polled
    every {!Petrinet.Marking.budget_poll_stride} registered states as in
    the generic explorer. *)

(** {1 Rotation symmetry}

    The shift [k ↦ k+1 (mod u·v)] of the transition indices is an
    automorphism of the pattern: sender ring [s] maps onto ring [s+1]
    (ring [u-1] wraps onto ring [0] advanced one slot) and receiver rings
    likewise.  When the transfer rates are invariant under the [d]-step
    shift for a divisor [d] of [u·v], the orbit partition of the reachable
    markings under that shift is exactly lumpable and the stationary
    vector is constant on orbits, so the CTMC can be solved on a quotient
    up to [u·v] times smaller with zero loss of accuracy
    ({!Markov.Tpn_markov.analyse_with_lumped}). *)

val rotation_perms : u:int -> v:int -> phases:int -> shift:int -> int array * int array
(** [(place_perm, trans_perm)] of the [shift]-step rotation on the pattern
    net — on {!build}'s net for [phases = 1], on its Erlang expansion
    ([Petrinet.Expand.erlang] with uniform [phases]) otherwise.
    [place_perm.(p)] / [trans_perm.(k)] are the images of place [p] and
    transition [k].  Raises [Invalid_argument] unless
    [1 <= shift <= u·v]. *)

val invariant_shift : u:int -> v:int -> float array -> int
(** The smallest divisor [d] of [u·v] such that the base rate vector
    (length [u·v], indexed by transition) satisfies
    [rates.((k+d) mod u·v) = rates.(k)] for all [k] — under {e exact}
    float equality, because lumpability tolerates no rate error.  Returns
    [u·v] (the identity shift) when no proper symmetry holds; homogeneous
    rates give 1. *)

val deterministic_inner_throughput : u:int -> v:int -> time:(sender:int -> receiver:int -> float) -> float
(** [u * v / period] where the period is the critical cycle of the pattern:
    data sets per time unit with constant transfer times.  For homogeneous
    time d this equals [min(u,v)/d].  No {!Petrinet.Teg.t} is built: the
    pattern's ring edges go as flat arrays straight into
    {!Graphs.Cycle_ratio.max_cycle_ratio_flat}, and the value is bit for
    bit the one {!Petrinet.Cycle_time.analyse} gives on {!build}'s net.
    Raises [Invalid_argument] unless u,v ≥ 1 and gcd(u,v) = 1, or when a
    time is negative. *)

val exponential_inner_throughput :
  ?cap:int -> u:int -> v:int -> rate:(sender:int -> receiver:int -> float) -> unit -> float
(** Exact stationary transfer rate with exponential times (sum of the
    stationary firing rates of the u·v transitions), through the marking
    CTMC of Theorem 3.  The chain has S(u,v) states. *)

val homogeneous_inner_throughput : u:int -> v:int -> lambda:float -> float
(** Theorem 4's closed form u*v*lambda / (u+v-1). *)

val erlang_inner_throughput :
  ?cap:int -> phases:int -> u:int -> v:int -> rate:(sender:int -> receiver:int -> float) -> unit -> float
(** Exact stationary transfer rate when every link time is
    Erlang([phases]) with mean 1/rate: the pattern is expanded into
    exponential phases (which preserves the event-graph property) and the
    marking CTMC is solved.  [phases = 1] coincides with
    {!exponential_inner_throughput}; as [phases] grows the value increases
    towards {!deterministic_inner_throughput} — an exact interpolation of
    the Theorem 7 sandwich. *)

(** {1 Pattern-solve caches}

    The reachable marking graph of a [u x v] pattern depends only on the
    shape, so {!exponential_inner_throughput} and
    {!erlang_inner_throughput} keep two process-wide caches: the explored
    structure per [(u, v, phases, cap)], and the solved throughput per
    [(u, v, phases, cap, rate matrix)], where the key holds each rate's
    IEEE-754 bits, so only bit-identical rates share a solve.  The result
    memo holds at most {!result_capacity} entries: an insertion that would
    pass it first empties the memo.  Both are thread-safe (shared by the
    {!Parallel.Pool} domains) and purely an optimisation: cached and
    uncached calls return identical floats. *)

val result_capacity : int
(** The most solved throughputs the result memo holds (4 096). *)

type cache_stats = {
  hits : int;  (** result-memo lookups answered from the cache *)
  misses : int;  (** result-memo lookups that had to solve *)
  structures : int;  (** cached per-shape marking structures *)
  results : int;  (** cached solved throughputs *)
}

val cache_stats : unit -> cache_stats

val clear_caches : unit -> unit
(** Drop both caches and reset the counters (used by tests and by the
    cold/warm benchmark). *)

type supervised_result = {
  throughput : float;  (** stationary data sets per time unit *)
  provenance : Supervise.Provenance.t;  (** ladder attempts of the solve *)
  states : int;  (** reachable markings explored *)
  edges : int;  (** marking-graph edges *)
  lump : Markov.Tpn_markov.lump_stats option;
      (** quotient size when the rotation lumping was applied, [None] when
          the chain was solved unlumped *)
}

val supervised_inner_throughput :
  ?cap:int ->
  ?budget:Supervise.Budget.t ->
  ?pool:Parallel.Pool.t ->
  ?lump:bool ->
  phases:int ->
  u:int ->
  v:int ->
  rate:(sender:int -> receiver:int -> float) ->
  unit ->
  supervised_result
(** The million-state entry point: budgeted exploration (sharded over
    [pool] when given), exact rotation lumping when the rates allow it
    ([lump], default [true], applies the {!invariant_shift} quotient
    whenever the shift is proper), and the
    {!Markov.Tpn_markov.analyse_with_supervised} escalation ladder on
    whichever chain — quotient or full — is solved.  [phases = 1] is the
    exponential pattern; [phases >= 2] the Erlang expansion.  The
    throughput equals {!exponential_inner_throughput} /
    {!erlang_inner_throughput} on the same instance.  Results are never
    memoised (the provenance describes an actual solve), but the explored
    structure still lands in the shape cache. *)

val ph_inner_throughput :
  ?cap:int -> u:int -> v:int -> ph:(sender:int -> receiver:int -> Markov.Ph.t) -> unit -> float
(** Exact stationary transfer rate for arbitrary phase-type link times,
    through the phase-augmented marking chain
    ({!Markov.Tpn_markov_ph}).  Hyperexponential laws (D.F.R.) yield
    exact values *below* the exponential bound; Erlang laws match
    {!erlang_inner_throughput}. *)
