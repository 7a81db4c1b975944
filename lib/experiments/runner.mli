(** Crash-safe resumable execution of experiment points.

    Experiments are decomposed into [point]s, each rendering one fragment
    of the experiment's output; the concatenation of a task's fragments
    (plus a blank separator line) is byte-identical to the experiment's
    monolithic rendering.  The runner journals every completed point and,
    on resume, replays journaled fragments verbatim instead of re-solving
    them. *)

type outcome = {
  status : Supervise.Journal.status;
  detail : string;  (** human-readable provenance / error note *)
  output : string;  (** the rendered fragment, emitted verbatim *)
}

type point = { key : string; solve : ?budget:Supervise.Budget.t -> unit -> outcome }
(** [solve] renders the fragment; it may raise
    [Supervise.Error.Solver_error], in which case the runner retries once
    with a freshly restarted budget before recording the point as
    failed. *)

type task = { exp : string; points : point list }

type health = { exact : int; degraded : int; failed : int; reused : int }
(** Per-point tallies of a run; [reused] counts the points replayed from
    the journal (also counted under their status). *)

type inject = exp:string -> point:string -> attempt:int -> unit
(** Fault-injection hook, called before every solve attempt; raising
    [Supervise.Error.Solver_error] simulates that attempt failing. *)

val inject_of_rules : (string * string) list -> inject option
(** The hook for this layer's [SUPERVISE_INJECT] rules
    ([Supervise.Inject.of_env]): [fail=EXP[:POINT]] fails every attempt
    at that point (every point of [EXP] without [:POINT]), and
    [flaky=EXP[:POINT]] (alias [degrade]) fails the first attempt only.
    Other kinds are ignored; [None] when no rule is this layer's. *)

val ok : ?status:Supervise.Journal.status -> ?detail:string -> string -> outcome

val render : (Format.formatter -> unit) -> string
(** Render into a fresh buffer and return the text. *)

val run_tasks :
  ?quick:bool ->
  ?journal:string ->
  ?resume:bool ->
  ?point_budget:Supervise.Budget.t ->
  ?inject:inject ->
  ?err:Format.formatter ->
  task list ->
  Format.formatter ->
  health
(** Runs the tasks' points in order, writing fragments to the given
    formatter and a health summary to [err] (default stderr — the output
    stream stays byte-identical to the unjournalled run).  With [journal],
    every completed point appends a record and the whole journal is
    rewritten atomically (tmp + rename); with [resume], points already
    journaled as exact or degraded are replayed verbatim, while failed
    points are re-queued.  A journal whose meta record does not match
    [quick] is ignored (fresh start).  [point_budget] is restarted
    ([Supervise.Budget.restart]) for every attempt. *)
