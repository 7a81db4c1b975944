(** A fully heterogeneous target platform (§2.1): [M] processors with
    individual speeds, pairwise connected by (possibly logical) links with
    individual bandwidths. *)

type t

val create : speeds:float array -> bandwidth:float array array -> t
(** [bandwidth.(p).(q)] is the bandwidth of the link p → q in bytes/s; it
    must be positive for p ≠ q (the diagonal is ignored).  Raises
    [Invalid_argument] on dimension mismatch or non-positive entries.  The
    platform keeps copies, so the caller may reuse its arrays. *)

val create_owned : speeds:float array -> bandwidth:float array array -> t
(** {!create} without the copies, for arrays no one else holds (the
    instance parser's): the platform keeps [speeds] and [bandwidth]
    themselves, so the caller must not write to them afterwards.  The same
    checks, in the same order, with the same messages. *)

val fully_connected : speeds:float array -> bw:float -> t
(** All links share the same bandwidth — the homogeneous-network case of
    Theorem 4. *)

val of_link_function : n:int -> speeds:float array -> bw:(int -> int -> float) -> t

val n_processors : t -> int
val speed : t -> int -> float
val bandwidth : t -> src:int -> dst:int -> float
val pp : Format.formatter -> t -> unit
