(** A search point: one one-to-many replicated mapping, represented as
    the per-stage processor teams.

    Candidates keep each team sorted ascending: the search dedups visited
    points by {!key}, and every neighbourhood enumeration is in a fixed
    deterministic order — stage-major, then processor id — which is what
    makes the whole engine bit-identical for any domain pool size.  The
    sorted form is not canonical: a team's order is its round-robin
    order, and teams [0,1 | 3,2] and [0,1 | 2,3] can have different
    throughputs, yet both are ["0,1|2,3"]. *)

open Streaming

type t = private int array array
(** [t.(stage)] is the sorted team of the stage; never empty. *)

val of_teams : int array array -> t
(** Sort each team (a copy), dropping its round-robin order.  Raises
    [Invalid_argument] on an empty team. *)

val teams : t -> int array array
(** A copy, safe to mutate. *)

val key : t -> string
(** Rendering of the sorted teams, e.g. ["0,3|1|2,4"] — equal iff the
    candidates assign the same processor sets to each stage. *)

val sizes : t -> int array
(** Replication factor of each stage. *)

val mapping : app:Application.t -> platform:Platform.t -> t -> Mapping.t

val baseline : app:Application.t -> platform:Platform.t -> pool:int list -> t
(** One processor per stage: fastest processors to heaviest stages —
    the classical no-replication starting point (ties broken by lower
    processor id / lower stage index).  Raises [Invalid_argument] when
    the pool is smaller than the number of stages. *)

val of_composition :
  app:Application.t -> platform:Platform.t -> pool:int list -> int list -> t
(** Candidate for one composition of the pool into team sizes, under the
    fixed assignment rule of [Mapper.exhaustive]: stages ranked by
    per-processor load [work/size] get the fastest processors first, but
    sorted by id where [Mapper.exhaustive] keeps them in speed order. *)

val unused : pool:int list -> t -> int list
(** Pool processors not in any team, ascending. *)

(** One elementary edit.  [Grow] places an unused processor on a stage;
    [Shrink] returns a team member to the free pool; [Move] transfers a
    processor between stages; [Swap] exchanges two processors across
    stages (only meaningful on heterogeneous platforms). *)
type edit =
  | Grow of { stage : int; proc : int }
  | Shrink of { stage : int; proc : int }
  | Move of { src : int; dst : int; proc : int }
  | Swap of { s1 : int; p1 : int; s2 : int; p2 : int }

val edit_to_string : edit -> string

val apply : t -> edit -> t option
(** [None] when the edit is infeasible (team would empty, processor not
    where the edit expects it). *)

val neighbors : pool:int list -> t -> (edit * t) list
(** Every feasible Grow/Shrink/Move/Swap neighbour, in a fixed
    deterministic order. *)

val random_edit : Prng.t -> pool:int list -> t -> (edit * t) option
(** One feasible random edit drawn from the given generator — the
    simulated-annealing proposal.  [None] only when the candidate has no
    neighbour at all. *)
