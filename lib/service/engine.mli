(** Query dispatch: one parsed [solve] request in, one solved (or typed
    failure) out.  This is the seam between the wire protocol and the
    paper's machinery — everything socket-shaped stays in {!Server},
    everything solver-shaped is reached from here.

    A query names an instance (in the {!Streaming.Instance_io} textual
    format), an execution model, an operation-time law and optional
    bounds.  {!solve} is one row of {!Streaming.Throughput.solve}'s table
    under the query's [cap] and a budget built from its [wall], [sweeps]
    and [states]; with [simulate], the Strict exponential row may answer
    from the DES rung ({!Des.Pipeline_sim.estimate}, seed
    20260706).  Every exploration, Overlap patterns included, is bounded
    by [cap] and the budget's state ceiling.

    Budgets are per-request: the wall clock starts when the solve is
    dispatched, never when the daemon starts. *)

type law = Streaming.Throughput.law =
  | Deterministic
  | Exponential
  | Erlang of int
  | Ph of Markov.Ph.t  (** in-process only: phase-type laws have no wire form *)

type query = {
  instance : string;  (** instance text, [Instance_io] format *)
  model : Streaming.Model.t;
  law : law;
  cap : int;  (** bound on every pattern and marking exploration *)
  wall : float option;  (** per-request wall-clock budget, seconds *)
  sweeps : int option;  (** iterative-sweep budget *)
  states : int option;  (** explored-state budget *)
  simulate : bool;  (** allow the degraded DES rung (Strict+Exponential) *)
}

val default_cap : int
(** {!Streaming.Throughput.default_cap}. *)

type prepared = { key : string; mapping : Streaming.Mapping.t }

val prepare : query -> (prepared, string) result
(** Validates the instance through the hardened parser and derives the
    cache key from the parsed values: [key] is a text header naming every
    solve-relevant parameter (model, law, cap, simulate; budgets are
    excluded, because they bound effort, not the value) followed by the
    binary {!Streaming.Instance_io.key} encoding of the mapping.  Two
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
(** One call to {!Streaming.Throughput.solve} under a fresh budget built
    from the query.  [Invalid_argument] from a model constructor is
    mapped to a [Numerical] solver error; no exception escapes for solver
    reasons. *)

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
    {!Streaming.Instance_io.multi_key} encoding, so texts that
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
(** Admission first, then one {!Streaming.Throughput.solve} per tenant
    on its scaled mapping.  [m_wall] (when present) is divided between tenants in
    proportion to their weights — the weighted-fair budget accounting. *)

val multi_result_json : multi_query -> tenant_outcome list -> Json.t
(** The [result] object of a [solve_multi] reply. *)

val admit : prepared_multi -> multi_query -> (Tenancy.Admission.step list, string) result
(** The sequential admission audit (declaration order), no solves. *)
