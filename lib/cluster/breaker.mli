(** Per-worker circuit breaker: after [failures] consecutive failures
    the worker is shed for [cooldown] seconds, then offered a single
    half-open probe whose outcome decides between recovery and another
    cooldown.

    Every operation takes the clock as an explicit [~now] argument
    (seconds on the monotonic {!Obs.Clock} in production) so tests can
    replay exact scenarios without sleeping. *)

type config = { failures : int; cooldown : float }

val default_config : config
(** 5 consecutive failures, 1 s cooldown. *)

type state = Closed | Open | Half_open

val state_to_string : state -> string

type t

val create : ?config:config -> unit -> t

val state : t -> now:float -> state

val allow : t -> now:float -> bool
(** Whether a request may be offered to the worker now.  In [Half_open]
    exactly one caller is allowed through as the probe; the rest are
    refused until {!success} or {!failure} settles it. *)

val success : t -> unit
(** The offered request completed: close and reset. *)

val failure : t -> now:float -> unit
(** The offered request failed at the transport level.  Failing the
    half-open probe, or the [failures]-th consecutive time, opens the
    breaker until [now + cooldown]. *)

val opened_total : t -> int
(** How many times the breaker has tripped, for stats. *)
