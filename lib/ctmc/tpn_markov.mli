(** The "general method" of §5.1: the marking process of a timed event
    graph with exponential firing times is a CTMC.

    States are the reachable markings; from a marking, every enabled
    transition [v] fires at its rate [rates v] (race semantics — valid
    because exponential laws are memoryless) leading to the marking after
    firing.  The stationary firing rate of a transition [v] is
    [rates v] times the stationary probability that v is enabled, and the throughput of the system is the sum
    of the stationary firing rates of its output transitions. *)

type t

type structure
(** The rate-independent part of the analysis: reachable markings, the
    marking graph and its unique recurrent class.  It depends only on the
    net structure, so one [structure] can be reused across any number of
    rate assignments, on any net with the same transitions, places and
    tokens (and shared between domains — it is never mutated after
    construction).  It keeps the net's transition count, not the net. *)

val structure :
  ?cap:int -> ?budget:Supervise.Budget.t -> ?pool:Parallel.Pool.t -> Petrinet.Teg.t -> structure
(** Explores the reachable markings (raising [Supervise.Error.Solver_error
    (State_space_exceeded _)] on a token-unbounded net) and isolates the
    recurrent class.  Raises [Supervise.Error.Solver_error (Non_ergodic _)]
    — carrying the recurrent/transient state counts — if the marking chain
    does not have a unique recurrent class.  The [budget] bounds the
    exploration (state ceiling and wall deadline).  A [pool] of size >= 2
    runs the exploration sharded over its domains with byte-identical
    output (see {!Petrinet.Marking.explore_graph}). *)

val recurrent_class : row_ptr:int array -> succ:int array -> int array * int array
(** The unique bottom SCC of a graph in CSR form (one Tarjan pass), as
    [(recurrent, local)]: its states in increasing order, and per state its
    index there or [-1].  Raises [Non_ergodic] unless exactly one exists. *)

val structure_of_graph : Petrinet.Teg.t -> Petrinet.Marking.graph -> structure
(** Builds the rate-independent structure from an already-explored marking
    graph (same contract as {!structure}), for callers that time or check
    the exploration on its own. *)

val structure_states : structure -> int
(** Number of reachable markings of the structure. *)

val structure_edges : structure -> int
(** Number of edges of the marking graph (one per enabled firing). *)

val analyse_with : structure -> rates:(int -> float) -> t
(** Builds and solves the CTMC of a structure under the given rates, on
    the ladder's first rung alone ({!Ctmc.stationary}).  [rates v] must be
    positive for every transition. *)

val analyse_with_supervised :
  ?budget:Supervise.Budget.t ->
  ?ladder:Ctmc.rung list ->
  structure ->
  rates:(int -> float) ->
  t * Supervise.Provenance.t
(** As {!analyse_with}, but solves the chain through
    {!Ctmc.stationary_supervised}'s escalation ladder and reports the
    provenance of the result. *)

(** {1 Symmetry quotients (exact lumping)}

    A net automorphism — a place permutation that maps the reachable
    marking graph onto itself, together with a transition permutation that
    preserves rates — makes the orbit partition of the recurrent class
    exactly lumpable, and the stationary distribution constant on each
    orbit.  The quotient chain is then solved instead of the full one and
    the result lifted back exactly.  [Young.Pattern] supplies the rotation
    automorphism of the u×v Overlap pattern. *)

val state_permutation : structure -> place_perm:int array -> int array
(** The permutation of global state ids induced by the place permutation
    (marking [m] maps to [m ∘ place_perm⁻¹], i.e. place [p]'s tokens move
    to place [place_perm.(p)]).  Raises [Supervise.Error.Solver_error
    (Numerical _)] if some permuted marking is not itself reachable — the
    given permutation is then not an automorphism of the marking graph. *)

val orbit_partition : structure -> state_perm:int array -> int array * int
(** Orbits of the recurrent class under the state permutation, as
    [(classes, n_classes)] with [classes] indexed by recurrent-local state
    id.  Classes are numbered in order of their lowest member.  Raises
    [Numerical] if an orbit leaves the recurrent class (it cannot, for a
    genuine automorphism). *)

type lump_stats = { lump_states : int; lump_classes : int }
(** Size of the lumped solve: recurrent states in, quotient classes out. *)

val analyse_with_lumped :
  ?budget:Supervise.Budget.t ->
  ?ladder:Ctmc.rung list ->
  structure ->
  rates:(int -> float) ->
  place_perm:int array ->
  trans_perm:int array ->
  t * Supervise.Provenance.t * lump_stats
(** As {!analyse_with_supervised}, but solves the orbit quotient of the
    automorphism [(place_perm, trans_perm)] and lifts the stationary
    vector back (exactly — see the section preamble).  The quotient
    generator is read off one representative CSR row per orbit, so the
    full recurrent chain is never materialised.  Raises [Numerical] if the
    rates are not invariant under [trans_perm] or [place_perm] is not an
    automorphism of the marking graph.  The result's chain is the quotient:
    {!expected_firings} (transient analysis) is unavailable on it, while
    all stationary queries — {!enabled_probability}, {!firing_rate},
    {!throughput_of}, {!stationary_distribution} — are over the full
    recurrent class as usual. *)

val analyse_supervised :
  ?cap:int ->
  ?budget:Supervise.Budget.t ->
  ?ladder:Ctmc.rung list ->
  rates:(int -> float) ->
  Petrinet.Teg.t ->
  t * Supervise.Provenance.t
(** [analyse_with_supervised ?budget ?ladder (structure ?cap ?budget teg)
    ~rates]: budgeted exploration followed by the escalation ladder. *)

val n_markings : t -> int
(** Number of reachable markings (including transient ones). *)

val n_recurrent : t -> int

val firing_rate : t -> int -> float
(** Stationary firing rate of one transition. *)

val throughput_of : t -> int list -> float
(** Sum of the firing rates of the listed transitions. *)

val enabled_probability : t -> int -> float
(** Stationary probability that the transition is enabled. *)

val stationary_distribution : t -> float array
(** Copy of the stationary distribution over the recurrent class, indexed
    like the recurrent states (increasing global state id).  For a lumped
    analysis this is the exactly lifted vector. *)

val expected_firings : ?tol:float -> t -> horizon:float -> int list -> float
(** Expected number of firings of the listed transitions during
    [0, horizon], starting from the initial marking, by uniformisation
    (exact transient counterpart of {!throughput_of}: their ratio tends to
    the stationary throughput as the horizon grows).  Raises
    [Invalid_argument] if the initial marking is not recurrent. *)

(** {1 The shape cache}

    A {!structure} depends on the net's places and tokens, never on its
    firing times, and two solvers meet the same nets again and again: the
    u×v patterns of [Young.Pattern], and the Strict net [Streaming.Tpn]
    builds, whose places and tokens come from the replication vector
    (R_1 … R_N) alone.  One process-wide table keeps their completed
    walks, keyed on the net's shape.  It is thread-safe, and a stored walk
    is the value a fresh walk of the same net would return, so cached and
    uncached solves give the same floats. *)

type net =
  | Pattern of { u : int; v : int }  (** [Young.Pattern.build]'s u×v pattern *)
  | Strict of int array
      (** the Strict net [Streaming.Tpn.build] makes for this replication
          vector *)

type shape = {
  structure : structure;
  expansion : Petrinet.Expand.t option;
      (** the Erlang expansion the structure was walked on; [None] for the
          net itself (one phase) *)
}

val shape_capacity_words : int
(** The bound on the words the table holds, headers included: 8 Mi words
    (64 MiB on a 64-bit host).  An entry's words are measured once, when it
    is stored; storing evicts the least recently used entries until the new
    one fits, and a walk larger than the whole bound is not stored. *)

val walk_shape :
  ?cap:int -> ?budget:Supervise.Budget.t -> ?pool:Parallel.Pool.t -> Petrinet.Teg.t -> phases:int -> shape
(** The walk of a net ([phases = 1]) or of its expansion into [phases]
    Erlang phases per transition, under {!structure}'s contract. *)

val shape_rates : shape -> original_rate:(int -> float) -> int list -> (int -> float) * int list
(** [shape_rates shape ~original_rate outputs] is the chain's rate of each
    transition of the walked net, and the transitions whose firings count
    the completions of [outputs], given the rates and outputs of the
    unexpanded net.  On the net itself they are [original_rate] and
    [outputs]; on an Erlang expansion, each phase of [v] fires at
    [phases · original_rate v] ({!Petrinet.Expand.phase_rates}) and an
    output completes at its last phase. *)

val cached_shape :
  ?cap:int ->
  ?budget:Supervise.Budget.t ->
  net ->
  phases:int ->
  walk:(unit -> shape) ->
  shape
(** [cached_shape net ~phases ~walk] is the stored walk of [net] expanded
    into [phases] Erlang phases ([1] for the net itself), or else
    [walk ()], which is stored once it returns.  [walk] must explore that
    net under the same [cap] and [budget]; a walk that raises stores
    nothing.  A stored walk answers only when its reachable markings fit
    the cap the walk would run under ({!Petrinet.Marking.effective_cap});
    otherwise [walk] runs and raises the walk's own
    [State_space_exceeded].  A stored walk that answers checks the
    budget's wall deadline once, as a walk does at its first state
    ([Budget_exhausted]). *)

type shape_stats = {
  entries : int;  (** walks held *)
  words : int;  (** their words, at most {!shape_capacity_words} *)
  hits : int;  (** lookups a stored walk answered (process lifetime) *)
  misses : int;  (** lookups that walked *)
  evictions : int;  (** walks dropped to make room *)
}
(** The counts are also the [shape_cache_hits_total],
    [shape_cache_misses_total] and [shape_cache_evictions_total] counters
    and the [shape_cache_words] gauge of {!Obs.Metrics.default}. *)

val shape_stats : unit -> shape_stats

val clear_shapes : unit -> unit
(** Drop every stored walk (the counters keep counting). *)
