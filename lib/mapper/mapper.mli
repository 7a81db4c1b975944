(** Mapping heuristics — the future work announced in the paper's
    conclusion: now that the throughput of a given one-to-many mapping can
    be evaluated (deterministically via critical cycles, probabilistically
    via Theorems 3/4), use it to *choose* a mapping.

    Finding the optimal mapping is NP-complete even deterministically and
    without communications, so these are heuristics over the Overlap
    model:

    - {!baseline_fastest} maps each stage to one processor (fastest
      processors to heaviest stages) — the no-replication reference;
    - {!greedy} starts from that baseline and repeatedly gives one more
      processor to whichever stage improves the objective most;
    - {!exhaustive} scores every composition of the pool into team sizes
      (processors assigned to stages in a fixed speed-vs-work order) —
      exponential in the number of stages, for small instances and for
      calibrating the greedy heuristic. *)

open Streaming

type metric =
  | Deterministic  (** constant times: polynomial, cheap *)
  | Exponential
      (** exponential times (Theorem 3/4 machinery): the robust choice
          when operation times fluctuate; costlier on heterogeneous
          networks (pattern CTMCs) *)

val evaluate : metric -> Mapping.t -> float
(** Throughput of a mapping under the metric (Overlap model), from
    {!Throughput.solve} with a pattern cap of 200_000.  Returns 0 when the
    evaluation is intractable for this mapping — precisely, when it fails
    with a {e recoverable} typed solver error
    (see {!Supervise.Error.is_recoverable}): state space over the cap,
    stalled iteration, exhausted budget, elimination past its fill
    bound.  Any other failure —
    [Non_ergodic], [Numerical], [Invalid_argument] — propagates: a
    programming error never scores as a worthless mapping. *)

val compositions : int -> int -> int list list
(** [compositions total parts] is every way of writing [total] as an
    ordered sum of [parts] positive integers — the team-size search space
    of {!exhaustive} — and [[]] when [total < parts] or [parts <= 0].
    There are C(total-1, parts-1) of them. *)

val baseline_fastest : app:Application.t -> platform:Platform.t -> ?pool:int list -> unit -> Mapping.t
(** One processor per stage: sort the stages by work and the pool by
    speed, pair them up.  Raises [Invalid_argument] if the pool is smaller
    than the number of stages. *)

val greedy : ?metric:metric -> app:Application.t -> platform:Platform.t -> ?pool:int list -> unit -> Mapping.t
(** Hill climbing from {!baseline_fastest}: unused processors are placed
    one at a time (fastest first) on the team that maximises the
    objective, accepting neutral moves so that plateaus are crossed; the
    best mapping encountered is returned, so the result's throughput is
    never below the baseline's.  Default metric: {!Exponential}. *)

val exhaustive : ?metric:metric -> app:Application.t -> platform:Platform.t -> ?pool:int list -> unit -> Mapping.t
(** Best composition of the pool into positive team sizes under a fixed
    processor-assignment rule (heaviest per-processor stage load gets the
    fastest processors).  Cost grows as C(pool-1, stages-1); use on small
    instances.  Raises [Supervise.Error.Solver_error (Numerical _)] if
    the search space is empty (no composition at all). *)
