(** Where a numeric answer came from, and how hard it was to get.

    Every supervised solve returns its value together with a provenance:
    the quality of the winning method and the ordered list of ladder
    rungs attempted before it (each with its typed failure).  A result
    that did not come from the first rung at nominal tolerance — or that
    came from simulation — is flagged [degraded], so a sweep can report
    exactly which points are softer than the rest. *)

type quality =
  | Exact  (** closed form or GTH elimination *)
  | Iterative of { residual : float }  (** sparse sweep, achieved L1 residual *)
  | Simulated of { ci : float }  (** DES estimate, batch-means 95% half-width *)

type attempt = { rung : string; outcome : (quality, Error.t) result }

type t = {
  quality : quality;
  degraded : bool;
      (** true when an earlier rung failed first, or the value is simulated *)
  attempts : attempt list;  (** in the order tried; the last one succeeded *)
}

val exact : t
(** A first-time exact answer with no ladder behind it — closed forms,
    critical cycles and memoised pattern solves.  {!describe} gives
    ["exact"]. *)

val solved : rung:string -> prior:attempt list -> quality -> t
(** [solved ~rung ~prior quality] is the provenance of a solve won by
    [rung] after the failed attempts [prior] (in order). *)

val quality_to_string : quality -> string

val describe : t -> string
(** One line: winning quality, then every attempt with its outcome. *)
