(** The wire protocol of the throughput query service.

    Version 1, newline-delimited JSON: each request is one JSON object on
    one line, each reply one object on one line, in request order.

    Requests: [{"v":1, "id":..., "cmd":"solve"|"batch"|"stats"|"metrics"|
    "ping"|"shutdown", ...}].  ["v"] defaults to 1 when absent; any other
    value is a [version_mismatch].  ["id"] is an arbitrary JSON value
    echoed verbatim in the reply (absent → omitted).  [metrics] answers
    with [{"format":"prometheus-text","text":...}] — the full metric
    registry in the Prometheus text exposition format.

    [solve] fields: ["instance"] (string, {!Streaming.Instance_io}
    format, required), ["model"] ("overlap", default | "strict"),
    ["law"] ("deterministic" | "exponential", default | "erlang:K"),
    ["cap"], ["wall"], ["sweeps"], ["states"], ["simulate"] (bool).
    [batch] carries ["requests"], a list of solve-field objects.

    Replies: [{"v":1, "id":..., "ok":true, "cached":bool, "result":{...}}]
    or [{"v":1, "id":..., "ok":false, "error":{"kind":..., "message":...,
    "retriable":bool, ...}}].  Solver failures keep their typed payload
    ([budget_exhausted] carries ["elapsed_s"], [state_space_exceeded]
    carries ["cap"]/["explored"], [fill_exceeded] carries
    ["entries"]/["bound"], ...). *)

val version : int

val max_batch : int
(** Largest [batch] request the daemon accepts (64 items); clients chunk
    larger fan-outs. *)

(** Typed reasons a request is answered with [ok:false]. *)
type error =
  | Parse_error of string  (** the line is not a JSON object *)
  | Version_mismatch of { got : string }
  | Unknown_command of string
  | Bad_request of string  (** well-formed JSON, invalid fields/instance *)
  | Oversized_frame of { limit : int }
  | Busy of { inflight : int; limit : int }  (** backpressure; retriable *)
  | Unavailable of { reason : string }
      (** the cluster router shedding: every candidate worker is down or
          breaker-open; retriable *)
  | Admission_rejected of { tenant : string; victim : string; floor : float; bound : float }
      (** per-tenant admission control said no: [victim]'s admission
          [bound] under the proposed mix falls below its declared
          [floor].  For the static [solve_multi] check [tenant = victim];
          in a sequential [admit] audit [tenant] is the newcomer whose
          arrival hurt [victim].  Not retriable — the mix itself is
          infeasible. *)
  | Solver of Supervise.Error.t
  | Internal of string

val error_kind : error -> string
(** The stable [kind] string of the reply ([parse_error], [busy],
    [budget_exhausted], ...). *)

val error_json : error -> Json.t
(** The ["error"] object: kind, message, retriable, typed extras. *)

val solver_error_of_json : Json.t -> Supervise.Error.t option
(** The inverse of {!error_json} on [Solver _]: rebuild the typed solver
    failure from an ["error"] object's kind and extras; [None] when the
    kind is not a solver kind.  A NaN residual, rendered as [null],
    comes back as NaN. *)

type request =
  | Ping
  | Stats
  | Metrics of { fleet : bool }
      (** ["cmd":"metrics"]; the optional ["fleet":true] flag asks the
          cluster router to additionally scrape every Up worker and merge
          the expositions under a [worker="i"] label (a single daemon
          ignores the flag) *)
  | Shutdown
  | Solve of Engine.query
  | Solve_multi of Engine.multi_query
      (** ["cmd":"solve_multi"]: instance is a multi-tenant block
          ([tenancy 1] header); fields model/law/cap/wall as for solve *)
  | Admit of Engine.multi_query
      (** ["cmd":"admit"]: sequential admission audit over the same
          multi-tenant block, no exact solves *)
  | Batch of (Engine.query, error) result list

val parse_request : Json.t -> (Json.t option * request, Json.t option * error) result
(** Decodes one request object; the first component is the echoed [id].
    A [Batch] keeps per-item decode errors in place so one bad item does
    not poison its siblings. *)

val query_json : Engine.query -> Json.t
(** Re-render a decoded solve query as a request object (sans [v]/[cmd]/
    [id]); [decode_query] of the result round-trips.  The router uses it
    to re-issue batch items split by shard owner. *)

val decode_query : Json.t -> (Engine.query, error) result
val decode_multi_query : Json.t -> (Engine.multi_query, error) result

(* ---- trace-context envelope ---- *)

val obs_context : Json.t -> (string * string) option
(** [obs_context request] reads the optional ["obs"] envelope —
    [{"trace":"<id>","span":"<parent span id>"}] — from a request object:
    [(trace_id, parent_span_id)], the span id defaulting to [""].
    [decode_query] ignores unknown members, so the envelope never reaches
    the cache key and legacy daemons simply skip it. *)

val obs_field : trace:string -> span:string -> string * Json.t
(** The [("obs", {...})] member for building a traced request object. *)

val with_obs : string -> trace:string -> span:string -> string
(** [with_obs line ~trace ~span] splices an ["obs"] envelope into an
    already-rendered request line (inserted before the final closing
    brace, leaving every other byte untouched) — how the router tags the
    verbatim client bytes it forwards. Returns [line] unchanged when it
    does not end in ['}']. *)

val ok_reply : id:Json.t option -> ?cached:bool -> result:string -> unit -> string
(** Assembles an [ok:true] reply line around an already-rendered
    [result] object, splicing it verbatim — the cache's byte-identical
    replay depends on this. *)

val error_reply : id:Json.t option -> error -> string

(* ---- service addresses ---- *)

type addr = Unix_domain of string | Tcp of string * int

val addr_of_string : string -> (addr, string) result
(** ["unix:PATH"], ["tcp:HOST:PORT"], or a bare path (→ Unix domain). *)

val addr_to_string : addr -> string
val sockaddr_of : addr -> Unix.sockaddr
