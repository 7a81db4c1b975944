(** The optimizer's search rungs, all driving one shared {!state}.

    Determinism contract: for a fixed seed and settings, every rung
    visits, evaluates and ranks candidates in an order that depends only
    on the instance — never on the domain-pool size or the scheduling of
    the parallel batches.  Candidate batches are fanned out over the
    [lib/parallel] pool (results land at their input index); incumbents
    update only between batches; ties break on batch index; annealing
    randomness comes from [Prng.stream]s indexed by the proposal's round
    and slot.  Consequently the engine's output is bit-identical for any
    [--domains] value. *)

open Streaming

type settings = {
  pool : Parallel.Pool.t;  (** evaluation fan-out *)
  objective : Objective.t;
  procs : int list;  (** processor pool of the platform to search over *)
  seed : int;  (** annealing PRNG stream family *)
  local_max_iters : int;  (** local-search step ceiling *)
  first_improvement : bool;
      (** take the first improving neighbour (chunked scan) instead of
          the steepest *)
  anneal_rounds : int;
  anneal_batch : int;
      (** proposals per annealing round — a fixed constant, {e not} the
          pool size, to keep the schedule pool-independent *)
  anneal_t0 : float;  (** initial temperature, relative-delta units *)
  anneal_alpha : float;  (** geometric cooling factor per round *)
  evaluator : (Mapping.t list -> Objective.outcome list) option;
      (** override the in-process solve for a whole (already
          bound-pruned) batch — the daemon batch path; [None] evaluates
          locally over [pool].  Must return one outcome per input, in
          order, and only [Evaluated]/[Failed]. *)
}

val default_settings :
  pool:Parallel.Pool.t -> objective:Objective.t -> procs:int list -> settings

type attempt = {
  rung : string;
  candidate : string;  (** {!Candidate.key} *)
  outcome : Objective.outcome;
}

(** Shared accumulator across rungs: incumbent, counters, and the
    attempt list (every typed failure, every new incumbent). *)
type state

val init : app:Application.t -> platform:Platform.t -> settings -> state

val best : state -> (Candidate.t * float) option

val candidates : state -> int
(** generated (incl. pruned/failed/dedup'd) *)

val evaluated : state -> int
val pruned : state -> int
val failed : state -> int

val attempts : state -> attempt list
(** in chronological order *)

val run_greedy : state -> unit
(** Repaired greedy: from the one-processor-per-stage baseline, place
    every remaining processor on the stage that scores best, accepting
    neutral moves (plateaus), tracking the best mapping seen.  Failures
    are recorded, never scored as [0.0]. *)

val run_local : state -> unit
(** Hill climbing over the Grow/Shrink/Move/Swap neighbourhood from the
    current incumbent (or the baseline when none): steepest ascent, or
    first-improvement when [first_improvement] is set.  Neighbours whose
    deterministic bound cannot beat the current point are pruned without
    paying for a solve. *)

val run_anneal : state -> unit
(** Batched simulated annealing with bound-gated Metropolis acceptance:
    each round draws [anneal_batch] proposals from per-(round,slot) PRNG
    streams, evaluates the ones whose bound survives an optimistic
    acceptance test, and accepts the first passing proposal.  A proposal
    whose acceptance coin rejects even the optimistic bound-delta is
    pruned without a solve (rejecting the true, smaller delta a
    fortiori). *)

val run_exhaustive : state -> unit
(** Score every composition of the pool into positive team sizes with
    bound-pruning and pool fan-out — [Mapper.exhaustive]'s compositions,
    but with id-sorted teams (see {!Candidate.of_composition}), so the
    optima can differ.  Cost grows as C(pool-1, stages-1). *)
