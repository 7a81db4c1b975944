(** The solve table: one throughput per pair of operation-time law and
    execution model, and the one place that picks the solver for it.

    {v
                   Overlap                          Strict
    Deterministic  per-column critical cycles (§4)  critical cycles (§4)
    Exponential    patterns, Theorems 3–4           marking CTMC, Theorem 2
    Erlang k       phase-expanded patterns (§6)     phase-expanded marking CTMC
    Ph law         phase-augmented patterns         phase-augmented marking CTMC
    v}

    Every caller — the daemon's engine, the optimizer's objective, the
    mapping heuristics, the tenancy layer, the Theorem 7 bounds and the
    command line — goes through {!solve}. *)

type law =
  | Deterministic  (** constant times equal to the nominal means *)
  | Exponential  (** I.I.D. exponential times of the nominal means *)
  | Erlang of int  (** Erlang([k]) times of the nominal means, [k >= 1] *)
  | Ph of Markov.Ph.t  (** a phase-type law, rescaled to each resource's nominal mean *)

val law_of_string : string -> (law, string) result
(** The wire grammar: ["deterministic"], ["exponential"], ["erlang:K"]
    with [K >= 1].  Phase-type laws have no wire form. *)

val law_to_string : law -> string
(** Inverse of {!law_of_string} on its image.  A [Ph] law renders every
    rate's IEEE-754 bits (["ph:…"], not parsed back), so two laws share a
    rendering — and a cache key — only when they are the same law. *)

val default_cap : int
(** 500_000. *)

val solve :
  ?cap:int ->
  ?budget:Supervise.Budget.t ->
  ?simulate:(unit -> float * float) ->
  law ->
  Model.t ->
  Mapping.t ->
  float * Supervise.Provenance.t
(** [solve law model mapping] is the throughput of [mapping] under
    [model] when every operation time follows [law] with the mapping's
    nominal means, with the provenance of the answer.

    - [Deterministic] ({!Deterministic.throughput}) takes no cap or
      budget and reads no clock.
    - Overlap with a random law runs the per-column decomposition of
      {!Expo}.  The pattern cap is [cap] (default {!default_cap}),
      tightened by the budget's state ceiling after one check of its
      wall deadline.
    - Strict with a random law runs the supervised general method under
      [cap] and [budget].  Only the exponential arm takes [simulate], the
      escalation ladder's DES rung
      ({!Expo.strict_throughput_supervised}).

    Closed forms, critical cycles and pattern solves return
    {!Supervise.Provenance.exact}.  Raises
    [Supervise.Error.Solver_error] when a cap or budget is exceeded or
    the ladder fails (and, for Strict exponential, no [simulate] is
    given), and [Invalid_argument] on an invalid law or mapping. *)
