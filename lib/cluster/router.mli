(** The cluster front door: an NDJSON endpoint indistinguishable from a
    single query daemon, backed by a supervised fleet.

    Solves route by their canonical cache key ({!Service.Engine.prepare})
    over a consistent-hash ring, concentrating each key on one worker's
    LRU; a batch is split into one sub-batch per ring owner of its items'
    keys.  Transport failures fall down the key's
    preference list (solves are idempotent, so re-sending after a torn
    reply is safe), whole passes retry on the Backoff policy until the
    per-request deadline, per-worker circuit breakers shed failing
    workers, and when no worker can answer the client gets a typed
    retriable [unavailable] reply, never a hang.

    Observability: [metrics] with ["fleet":true] federates every Up
    worker's exposition under a [worker="i"] label behind the router's
    own; when {!Obs.Trace} is enabled the router adopts (or mints) a
    trace context per request, records a [router:*] span tagged with the
    trace id, and splices the context into the forwarded bytes so worker
    spans join the same trace — with tracing off, client bytes are
    forwarded verbatim, untouched. *)

type config = {
  max_frame : int;  (** request line byte limit (default 1 MiB) *)
  request_deadline : float;  (** per-request budget, seconds (default 30) *)
  retry : Supervise.Backoff.policy;  (** pass-level retry schedule *)
  breaker : Breaker.config;
  vnodes : int;  (** ring points per worker (default 64) *)
  drain_grace : float;  (** SIGTERM→SIGKILL grace on fleet shutdown *)
  log : Format.formatter;
}

val default_config : unit -> config

type t

val create : config -> Supervisor.t -> t
(** The router does not own the supervisor's lifetime until {!serve}
    drains: creating a router is side-effect-free beyond its metric
    registry. *)

val metrics_registry : t -> Obs.Metrics.registry

val requests_total : t -> string -> int
(** Requests seen for one [cmd] label, for tests and stats. *)

val stats_json : t -> Service.Json.t

val respond : t -> Service.Client.t option array -> string -> string * [ `Continue | `Shutdown ]
(** One request line in, one reply line out, over a caller-owned
    per-connection array of cached worker connections
    ([Array.make (Supervisor.size sup) None]).  Exposed so routing
    semantics are testable without the router's own socket. *)

val request_stop : t -> unit
(** Ask a running {!serve} to drain; idempotent, signal-safe. *)

val serve : t -> Service.Protocol.addr -> unit
(** Binds and serves until {!request_stop}, SIGTERM/SIGINT or a
    [shutdown] request; then drains client connections, SIGTERMs the
    fleet through {!Supervisor.shutdown} and returns. *)
