(** Structured JSONL event log.

    One logger per component ([comp]); each call emits a single-line JSON
    object to the logger's sink. Events carry a wall-clock timestamp, a
    level, an optional trace id (correlating the log line with {!Trace}
    spans), and free-form string attributes.

    Noise control: events below the logger's level are dropped, and each
    distinct event name is rate-limited to [rate] emissions per second —
    when the limit bites, the first emission of the next window carries a
    ["suppressed"] count so nothing is lost silently.

    A process-wide tap (see {!set_tap}) observes {e every} event before
    level and rate filtering — the flight recorder uses it to keep a ring
    of recent events even at [Debug] granularity. *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string

val level_of_string : string -> level option

type event = {
  lg_ts : float;  (** Unix wall-clock seconds *)
  lg_level : level;
  lg_comp : string;
  lg_event : string;  (** short machine-readable event name, e.g. ["worker_up"] *)
  lg_trace : string option;  (** trace id correlating with {!Trace} spans *)
  lg_attrs : (string * string) list;
  lg_suppressed : int;
      (** events of this name dropped by rate-limiting since the last
          emission; 0 on the common path *)
}

val to_json : event -> string
(** One-line JSON object:
    [{"ts":…,"level":"…","comp":"…","event":"…","pid":…,…}]. *)

val add_json_escaped : Buffer.t -> string -> unit
(** Append a string escaped for embedding inside JSON double quotes:
    double quote, backslash, newline, return and tab as two-character
    escapes, every other byte below 0x20 as [\u00XX], every other byte
    verbatim.  The one JSON string escaper: the wire codec, the journal,
    the Chrome trace export and the log lines all use it. *)

val json_escape : string -> string
(** {!add_json_escaped} into a fresh string. *)

type sink = string -> unit

val stderr_sink : sink
(** Write the line to stderr and flush. *)

val formatter_sink : Format.formatter -> sink
(** Write the line (newline-terminated, flushed) to a formatter — used to
    route daemon logs through an existing [config.log].  Writes are
    serialised, so threads on several domains may share the formatter. *)

val null_sink : sink

type t

val create : ?level:level -> ?rate:int -> ?sink:sink -> comp:string -> unit -> t
(** [create ~comp ()] makes a logger for component [comp]. [level] defaults
    to [Info]; [rate] is the per-event-name emission budget per second
    (default 20, [<= 0] disables rate limiting). *)

val log :
  t ->
  ?now:float ->
  ?trace:string ->
  ?attrs:(string * string) list ->
  level ->
  string ->
  unit
(** [log t lvl event] emits one event. [?now] overrides the wall clock
    (deterministic tests). The tap, if installed, sees the event even when
    level or rate filtering drops it. *)

val debug : t -> ?trace:string -> ?attrs:(string * string) list -> string -> unit
val info : t -> ?trace:string -> ?attrs:(string * string) list -> string -> unit
val warn : t -> ?trace:string -> ?attrs:(string * string) list -> string -> unit
val error : t -> ?trace:string -> ?attrs:(string * string) list -> string -> unit

val set_tap : (event -> unit) option -> unit
(** Install (or remove, with [None]) the process-wide tap. The tap runs on
    the caller's thread for every event of every logger, before filtering;
    exceptions it raises are swallowed. *)
