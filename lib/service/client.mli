(** Blocking NDJSON client for the query daemon and the cluster router:
    one connection, one request line out, one reply line back, in order.

    Every operation takes an optional [?deadline] — an absolute
    [Unix.gettimeofday] instant — so a hung peer can never block the
    caller forever: connect, write and read all give up with [Timeout]
    once it passes.  Transport failures are typed ({!error}); SIGPIPE is
    ignored process-wide on first use, so a peer closing mid-reply is a
    [Closed] error, not a dead process. *)

type t

type error = Sockets.error =
  | Refused of string  (** connect refused / socket absent *)
  | Timeout of string  (** deadline exceeded *)
  | Closed of string  (** peer EOF, reset, or torn frame *)
  | Transport of string  (** any other socket-level failure *)
  | Bad_reply of string  (** reply line that does not parse *)

val error_message : error -> string

val retriable : error -> bool
(** Everything but [Bad_reply]: solve requests are idempotent (keyed by
    their canonical cache key, rendered deterministically), so a fresh
    attempt is always safe. *)

val connect : ?deadline:float -> Protocol.addr -> (t, error) result
val close : t -> unit

val rpc : ?deadline:float -> t -> Json.t -> (Json.t, error) result
(** Sends one request object, reads one reply line.  [Error] means a
    transport problem — protocol-level failures come back as [Ok]
    replies with [ok:false]. *)

val rpc_raw : ?deadline:float -> t -> string -> (string, error) result
(** Same, without encoding/decoding — the load paths use this to keep
    client-side JSON cost out of the measured latency. *)

(* ---- reply helpers ---- *)

val reply_ok : Json.t -> bool
(** The [ok] field (false when missing). *)

val reply_error_kind : Json.t -> string option
(** [error.kind] of an [ok:false] reply. *)

val reply_retriable : Json.t -> bool
(** [ok:false] with [error.retriable:true] — the daemon itself invites a
    retry (busy admission, router shedding). *)

val reply_result : Json.t -> Json.t option

(* ---- requests ---- *)

val request : ?id:Json.t -> ?obs:string * string -> string -> (string * Json.t) list -> Json.t
(** [request cmd fields] is the envelope every request shares: [v], [cmd],
    the optional [id] and ["obs"] context, then [fields]. *)

val ping : ?deadline:float -> t -> (Json.t, error) result
val stats : ?deadline:float -> t -> (Json.t, error) result
val shutdown : ?deadline:float -> t -> (Json.t, error) result

val fresh_obs : unit -> string * string
(** A fresh [(trace_id, span_id)] pair for the [?obs] argument below —
    mint one per logical operation so router and worker spans correlate
    under a single trace id. *)

val solve_request :
  ?id:Json.t ->
  ?obs:string * string ->
  ?cmd:string ->
  ?model:Streaming.Model.t ->
  ?law:Engine.law ->
  ?cap:int ->
  ?wall:float ->
  ?sweeps:int ->
  ?states:int ->
  ?simulate:bool ->
  instance:string ->
  unit ->
  Json.t
(** The request object for one solve; omitted fields are left to the
    daemon's defaults.  [?obs] is a [(trace_id, parent_span_id)] context
    carried in the optional ["obs"] envelope (outside the cache key).
    [?cmd] (default ["solve"]) names the command: ["solve_multi"] and
    ["admit"] take the same fields, with a multi-tenant file as the
    instance.  Compose with {!rpc}, or wrap a list of solves as a batch
    with {!batch_request}. *)

val batch_request : ?id:Json.t -> ?obs:string * string -> Json.t list -> Json.t
(** Wraps solve request objects (their [cmd]/[v] fields are ignored by
    the daemon) into one [batch] request. *)

val metrics_request : ?fleet:bool -> unit -> Json.t
(** The [metrics] request; [~fleet:true] asks a cluster router to
    federate every Up worker's registry behind its own. *)

val metrics_text : Json.t -> string option
(** The Prometheus exposition text a [metrics] reply carries
    ([result.text]). *)
