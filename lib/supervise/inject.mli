(** The [SUPERVISE_INJECT] fault-injection grammar.

    One environment variable drives every deterministic fault in the
    repo. Its value is a comma-separated list of [kind=arg] rules. This
    module splits it; each layer interprets the kinds it knows and
    ignores the rest, so one spec can fault the experiment runner
    ([Experiments.Runner.inject_of_rules]) and a service worker
    ([Service.Server]) at once. The kinds are listed in EXPERIMENTS.md. *)

val var : string
(** ["SUPERVISE_INJECT"]. *)

val parse : string -> (string * string) list
(** [(kind, arg)] per rule, in order. A rule is split at its first ['='];
    a rule with no ['='] is dropped. *)

val of_env : unit -> (string * string) list
(** [parse] of the variable's value; [[]] when it is unset. *)

val is_binding : string -> bool
(** Whether a [NAME=VALUE] environment entry sets the variable itself
    (and not merely a variable whose name starts with it). *)
