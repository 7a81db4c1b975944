(** Daemon-backed candidate evaluation — the optimizer's batch path.

    {!evaluator} turns a connected {!Service.Client} into the
    [Search.settings.evaluator] hook: each (already bound-pruned) batch
    of mappings is rendered in the [Instance_io] text format, shipped as
    protocol [batch] requests (chunked to [Protocol.max_batch] items)
    and the replies decoded back into {!Objective.outcome}s.  Typed
    solver failures are reconstructed from the reply's [kind] + extras,
    so the daemon path and the in-process path are observationally
    identical — up to the DES tie-break seed of the {e Strict} metric's
    last ladder rung, which is the daemon's, not the objective's.

    Transport failures and non-solver protocol errors ([bad_request],
    [busy], ...) raise [Failure]: they mean the daemon or the wiring is
    broken, not that the candidate is. *)

open Streaming

val evaluator :
  Service.Client.t -> objective:Objective.t -> Mapping.t list -> Objective.outcome list
(** May raise [Failure] (transport/protocol) or [Invalid_argument] when
    the objective's metric is [Custom] — custom objectives are local by
    definition. *)
