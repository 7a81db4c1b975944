(** Theorem 7: for arbitrary I.I.D. N.B.U.E. computation and communication
    times, the throughput is sandwiched between the exponential case
    (lower bound) and the deterministic case (upper bound), both taken
    with the same means. *)

type t = {
  lower : float;  (** throughput with exponential times of the same means *)
  upper : float;  (** throughput with constant times equal to the means *)
}

val compute : ?cap:int -> Mapping.t -> Model.t -> t
(** Exact bounds: the {!Throughput.solve} table's [Deterministic] value
    above, its [Exponential] value below.  [cap] (default
    {!Throughput.default_cap}) bounds the exponential solve's pattern or
    marking exploration. *)

val contains : ?slack:float -> t -> float -> bool
(** [contains b rho] with a multiplicative [slack] (default 2%) to absorb
    simulation noise. *)

val width : t -> float
(** Relative width [(upper - lower) / upper]. *)
