(** NDJSON framing shared by the daemon and the cluster router: byte
    stream in, frame events out, oversized frames skipped to the next
    newline without damaging the connection. *)

type t
(** Per-connection framing state. *)

type event =
  | Line of string  (** one complete frame, newline stripped *)
  | Oversized
      (** the current frame just crossed [max_frame]; its remaining
          bytes are being discarded up to the next newline *)

val create : max_frame:int -> t

val feed : t -> bytes -> int -> (event -> unit) -> unit
(** Process the first [n] bytes of the buffer, invoking the callback for
    each event in order.  Raises [Invalid_argument] if [n] is negative
    or past the end of the buffer. *)

val pending : t -> bool
(** True when a partial frame is buffered — at EOF this is a truncated
    frame the peer should be told about. *)
