(** Query dispatch: one parsed [solve] request in, one solved (or typed
    failure) out.  This is the seam between the wire protocol and the
    paper's machinery — everything socket-shaped stays in {!Server},
    everything solver-shaped is reached from here.

    A query names an instance (in the {!Streaming.Instance_io} textual
    format), an execution model, an operation-time law and optional
    bounds.  Dispatch:

    - [Deterministic] → critical-cycle analysis (§4), both models;
    - [Exponential], Overlap → Theorem 3/4 per-column decomposition
      (sharing the process-wide pattern caches);
    - [Exponential], Strict → the supervised general method: marking
      exploration under [cap], the GTH → Gauss–Seidel → power ladder
      under the request's budget, and optionally (with [simulate]) the
      DES final rung;
    - [Erlang k] → the phase-expanded exact solvers of §6.

    Budgets are per-request: the wall clock starts when the solve is
    dispatched, never when the daemon starts. *)

type law = Deterministic | Exponential | Erlang of int

val law_of_string : string -> (law, string) result
(** ["deterministic"], ["exponential"], ["erlang:K"] with [K >= 1]. *)

val law_to_string : law -> string

type query = {
  instance : string;  (** instance text, [Instance_io] format *)
  model : Streaming.Model.t;
  law : law;
  cap : int;  (** marking-exploration bound for the Strict solvers *)
  wall : float option;  (** per-request wall-clock budget, seconds *)
  sweeps : int option;  (** iterative-sweep budget *)
  states : int option;  (** explored-state budget *)
  simulate : bool;  (** allow the degraded DES rung (Strict+Exponential) *)
}

val default_cap : int

type prepared = { key : string; mapping : Streaming.Mapping.t }

val prepare : query -> (prepared, string) result
(** Validates the instance through the hardened parser and derives the
    cache key from the parsed values: [key] is a text header naming every
    solve-relevant parameter (model, law, cap, simulate; budgets are
    excluded, because they bound effort, not the value) followed by the
    binary {!Streaming.Instance_io.add_key} encoding of the mapping.  Two
    requests share a key exactly when their parameters agree and their
    parsed mappings render identically through
    {!Streaming.Instance_io.to_string} — so textually different
    descriptions of the same solve share one cache entry — but the
    instance is never re-rendered to get there.  The key is binary: hash
    and compare it, do not print it. *)

type outcome = {
  throughput : float;
  quality : string;  (** ["exact"] | ["iterative"] | ["simulated"] *)
  degraded : bool;
  provenance : string;  (** the attempt trail, human-oriented *)
  pattern_states : int;
      (** state-space-size proxy: sum of S(u,v) over the instance's
          communication patterns *)
}

val solve : prepared -> query -> (outcome, Supervise.Error.t) result
(** Runs the dispatch above under a fresh budget built from the query.
    [Invalid_argument] from a model constructor is mapped to a
    [Numerical] solver error; no exception escapes for solver reasons. *)

val outcome_json : outcome -> Json.t
(** The [result] object of a [solve] reply; rendering it is what the
    cache stores and replays byte-identically. *)

val pattern_state_count : Streaming.Mapping.t -> int

(** {1 Multi-tenant queries}

    A multi query names a whole tenant mix (the versioned
    [Instance_io.parse_multi] block) instead of a single mapping.
    Admission runs {e first} on the cheap deterministic bounds of the
    scaled mappings (Theorem 7 makes them admissible upper bounds for
    the exponential throughput); only an all-clear pays for the exact
    per-tenant solves. *)

type multi_query = {
  m_instance : string;  (** multi-tenant text, [Instance_io.parse_multi] format *)
  m_model : Streaming.Model.t;
  m_law : law;
  m_cap : int;
  m_wall : float option;
      (** whole-request wall budget; split across tenants by weight *)
}

type prepared_multi = { m_key : string; m_share : Tenancy.Platform_share.t }

val prepare_multi : multi_query -> (prepared_multi, string) result
(** Parse, build the contention structure, derive the key.  Like
    {!prepare}, the key is a header of every value-relevant parameter
    (model, law, cap) followed by the parsed mix's
    {!Streaming.Instance_io.add_multi_key} encoding, so texts that
    {!Streaming.Instance_io.multi_to_string} renders identically share a
    cache entry. *)

type tenant_outcome = {
  t_id : string;
  t_weight : float;
  t_floor : float;
  t_bound : float;  (** admission bound of the scaled mapping *)
  t_wall : float option;  (** the weighted-fair slice this tenant got *)
  t_outcome : outcome;
}

type multi_error =
  | Rejected of { tenant : string; victim : string; floor : float; bound : float }
      (** static admission failure: [victim]'s bound under the full mix
          fell below its [floor] (here [tenant = victim]) *)
  | Solver_failed of Supervise.Error.t

val solve_multi : prepared_multi -> multi_query -> (tenant_outcome list, multi_error) result
(** Admission first, then one exact solve per tenant on its scaled
    mapping.  [m_wall] (when present) is divided between tenants in
    proportion to their weights — the weighted-fair budget accounting. *)

val multi_result_json : multi_query -> tenant_outcome list -> Json.t
(** The [result] object of a [solve_multi] reply. *)

val admit : prepared_multi -> multi_query -> (Tenancy.Admission.step list, string) result
(** The sequential admission audit (declaration order), no solves. *)
