(** Throughput with I.I.D. exponential computation and communication times
    (§5).  Rates are the inverses of the nominal (mean) durations of the
    mapping. *)

val overlap_throughput :
  ?pool:Parallel.Pool.t -> ?pattern_cap:int -> ?closed_form_only:bool -> Mapping.t -> float
(** Theorem 3's per-column decomposition for the Overlap model.
    Each communication component is analysed through its pattern CTMC
    (S(u,v) states), except that components with homogeneous link times use
    Theorem 4's closed form u*v*lambda/(u+v-1) directly.  A heterogeneous
    pattern is solved only when it can set a row's rate
    ({!Columns.fold_pruned}): when Theorem 4's closed form at its slowest
    link, a lower bound, is below the upper bound on its input that the
    deterministic values propagate.  A skipped pattern still walks its
    shape (or finds it in the shape cache), so one past [pattern_cap]
    raises as its solve would; skips count in
    [pattern_solves_skipped_total{law="exponential"}], and the result is
    the float solving every pattern gives.  With [closed_form_only]
    (default false), a heterogeneous component raises [Invalid_argument]
    instead of building the CTMC — this is the polynomial-time algorithm of
    Theorem 4. *)

val strict_throughput : ?cap:int -> Mapping.t -> float
(** Theorem 2's general method on the Strict TPN: reachable markings →
    CTMC (on the escalation ladder) → firing rate of the last column.  The Strict TPN is
    covered by token-invariant cycles, so its marking space is finite; the
    cost is exponential in the replication factors.  The value of
    {!strict_throughput_supervised} without a budget or a DES rung, on the
    same walk from the shape cache. *)

val strict_throughput_supervised :
  ?cap:int ->
  ?budget:Supervise.Budget.t ->
  ?simulate:(unit -> float * float) ->
  Mapping.t ->
  float * Supervise.Provenance.t
(** {!strict_throughput} under supervision: exploration respects [cap] and
    the [budget]'s state ceiling / wall deadline, and its walk is taken
    from the shape cache ({!Markov.Tpn_markov.cached_shape}), keyed on the
    replication vector, whose places and tokens the Strict net comes from;
    a stored walk whose states do not fit the cap walks again and raises
    as a walk does.  The stationary solve
    climbs {!Markov.Ctmc.stationary_supervised}'s ladder, and the returned
    provenance records every attempt.  If the whole exact/iterative
    pipeline fails and [simulate] is supplied (the escalation ladder's
    last rung, {!Des.Pipeline_sim.estimate}), its [(estimate, ci)] result
    is returned as a degraded [Simulated] value instead of raising;
    without [simulate] the final [Supervise.Error.Solver_error]
    propagates. *)

val general_throughput : ?cap:int -> ?buffer:int -> Mapping.t -> Model.t -> float
(** The general method on the full TPN of either model.  The Overlap TPN
    has unbounded forward places, so for [Model.Overlap] the row places
    are bounded by back-places holding [buffer] tokens (default 4) —
    a finite blocking approximation that converges to the true throughput
    from below as [buffer] grows.  For [Model.Strict] this is exact and
    [buffer] is ignored.  The net is walked afresh, never taken from the
    shape cache. *)

val overlap_throughput_erlang :
  ?pool:Parallel.Pool.t -> ?pattern_cap:int -> phases:int -> Mapping.t -> float
(** Exact throughput when every operation time is Erlang([phases]) with
    the nominal means (Overlap model): same per-column decomposition as
    {!overlap_throughput}, with each communication pattern analysed
    through its phase-expanded marking CTMC.  [phases = 1] is the
    exponential case; increasing [phases] interpolates monotonically
    towards the deterministic case — an exact refinement of the Theorem 7
    sandwich for Erlang laws (which are N.B.U.E.).  Computation
    components are insensitive (a saturated serial server produces at
    rate 1/mean under any law).  As in {!overlap_throughput}, a pattern —
    homogeneous ones included, since each takes a CTMC here — is solved
    only when Theorem 4's closed form at its slowest link, which bounds
    every N.B.U.E. law from below, leaves it able to set a row's rate
    (skips count in [pattern_solves_skipped_total{law="erlang:K"}]). *)

val strict_throughput_erlang_supervised :
  ?cap:int -> ?budget:Supervise.Budget.t -> phases:int -> Mapping.t -> float * Supervise.Provenance.t
(** The general method on the phase-expanded Strict TPN: Erlang
    throughput, at a marking-space cost growing quickly with [phases].
    Exploration (through the shape cache, keyed on the replication vector
    and [phases]) and ladder run under [cap] and [budget] as in
    {!strict_throughput_supervised}, with no DES rung.  [phases = 1] is
    the exponential chain itself, the float an expansion into one phase
    gives. *)

val overlap_throughput_ph :
  ?pool:Parallel.Pool.t -> ?pattern_cap:int -> ph:(Resource.t -> Markov.Ph.t) -> Mapping.t -> float
(** Exact throughput for arbitrary phase-type operation times (Overlap
    model), through the phase-augmented marking chains of
    {!Markov.Tpn_markov_ph}.  The law of each resource must have the
    resource's nominal mean (use {!Markov.Ph.with_mean}); computation
    components are rate-insensitive, communication patterns are solved
    exactly.  Hyperexponential (D.F.R.) laws give exact values *below*
    the exponential bound of Theorem 7. *)

val strict_throughput_ph_supervised :
  ?cap:int ->
  ?budget:Supervise.Budget.t ->
  ph:(Resource.t -> Markov.Ph.t) ->
  Mapping.t ->
  float * Supervise.Provenance.t
(** The phase-augmented general method on the Strict TPN: exact throughput
    for arbitrary phase-type operation times, with the ladder's
    provenance.  State space = markings × enabled phases ([cap] default
    500_000); keep laws and replication small. *)
