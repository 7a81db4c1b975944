(** What the search maximizes, and what one evaluation may cost.

    Every candidate carries a cheap deterministic critical-cycle value —
    by Theorem 7 (N.B.U.E. sandwich) an {e upper bound} on the
    exponential-law throughput of the same mapping — so a candidate whose
    bound cannot beat the incumbent is {e pruned} before paying for the
    exponential solve.  A candidate that fails its solve with a typed
    [Supervise.Error] is {e demoted with provenance}: the failure is
    recorded in the search's attempt list and the candidate scores as
    unusable, but it is never silently converted into a [0.0] that the
    climbs would route around.  Any non-typed exception (for instance an
    [Invalid_argument] from a genuine programming error) propagates out
    of the whole search. *)

open Streaming

type metric =
  | Deterministic
      (** constant operation times: the critical-cycle value itself is
          the objective — polynomial, no prune/solve split *)
  | Exponential
      (** I.I.D. exponential times, Overlap model: Theorem 3/4 per-column
          decomposition through the pattern CTMCs and the [lib/young]
          caches *)
  | Strict
      (** I.I.D. exponential times, Strict model: the full supervised
          ladder with the DES rung ({!Des.Pipeline_sim.estimate}), so the
          evaluation itself never raises for solver reasons *)
  | Custom of {
      name : string;
      bound : Mapping.t -> float;  (** must upper-bound [value] *)
      value : Mapping.t -> float;
    }  (** test hook: inject arbitrary objective/bound pairs *)

val metric_name : metric -> string

val row : metric -> Model.t * Throughput.law * bool
(** The metric's row of {!Throughput.solve}'s table: execution model,
    law, and whether the DES rung may answer.  {!bound} solves the
    [Deterministic] law on that model, {!value} the row itself, and the
    [Remote] batch path sends it to the daemon.  Raises
    [Invalid_argument] on [Custom]: custom objectives are local-only. *)

type t
(** A configured objective: metric + per-candidate resource policy. *)

val create :
  ?cap:int ->
  ?sweeps:int ->
  ?states:int ->
  ?wall:float ->
  ?seed:int ->
  metric ->
  t
(** [cap] bounds each pattern/marking exploration (default 200_000);
    [sweeps]/[states]/[wall] build a fresh [Supervise.Budget] per
    candidate ([wall] breaks bit-identity across pool sizes — leave it
    unset when determinism matters); [seed] feeds the DES rung of
    {!Strict} (default 1). *)

val metric : t -> metric

(** {2 Resource-policy accessors} — mirrored into daemon requests by the
    [Remote] batch path. *)

val cap : t -> int
val sweeps : t -> int option
val states : t -> int option
val wall : t -> float option
val seed : t -> int

val bound : t -> Mapping.t -> float
(** The deterministic upper bound (critical-cycle throughput).  Cheap —
    polynomial — and exact for {!Deterministic}. *)

val value : t -> Mapping.t -> float
(** The objective value: {!row} solved under [cap] and a fresh budget
    from [sweeps]/[states]/[wall] (the budget's state ceiling tightens
    the pattern cap too).  May raise [Supervise.Error.Solver_error]. *)

(** The outcome of one candidate under {!evaluate}. *)
type outcome =
  | Evaluated of float
  | Pruned of float
      (** not solved: the carried upper bound cannot beat the incumbent *)
  | Failed of Supervise.Error.t
      (** typed solver failure — search-space information, never [0.0] *)

val outcome_to_string : outcome -> string

val evaluate : t -> incumbent:float -> Mapping.t -> outcome
(** Prune against [incumbent] (a candidate with [bound <= incumbent]
    cannot improve on it), else solve.  [incumbent = neg_infinity]
    disables the prune. *)
