(** K concurrent applications on one shared platform.

    Each tenant brings its own pipeline mapped onto the {e shared}
    processors and links; contention is modelled by exact per-resource
    rate scaling with weighted reserved shares: a resource [r] used by
    tenants [U_r] serves tenant [t] at the fraction

    {v share_t(r) = w_t / sum of w_u over u in U_r v}

    of its nominal rate (a processor hosting teams from several tenants
    divides its speed by its aggregate load share; links likewise).
    Shares are reserved, not work-conserving, so tenants are decoupled:
    tenant [t]'s dynamics on the shared platform are exactly its own
    pipeline on a derated platform — the {e scaled mapping} — and every
    single-tenant solver of the paper applies per tenant unchanged.

    The deterministic critical-cycle value (§4) of the scaled mapping is
    the Theorem 7 upper bound on the tenant's exponential throughput, so
    it serves as a cheap, admissible admission bound ({!bound} ≥ exact,
    proven as a qcheck property in the test suite). *)

type t

val create : tenants:Streaming.Instance_io.tenant_decl list -> (t, string) result
(** Validates: at least one tenant, unique ids, finite positive weights,
    finite non-negative floors, and one structurally identical shared
    platform across all declarations. *)

val n_tenants : t -> int
val decl : t -> int -> Streaming.Instance_io.tenant_decl
val decls : t -> Streaming.Instance_io.tenant_decl list
val index_of : t -> string -> int option
val platform : t -> Streaming.Platform.t

val aggregate_weight : t -> Streaming.Resource.t -> float
(** Total weight of the tenants using the resource; 0.0 if unused. *)

val share : t -> tenant:int -> Streaming.Resource.t -> float
(** The tenant's reserved fraction of the resource's rate; 1.0 for a
    resource no other tenant touches, and for resources the tenant does
    not use at all (they are never exercised). *)

val scaled_mapping : t -> tenant:int -> Streaming.Mapping.t
(** The tenant's pipeline on the derated platform: speed and bandwidth of
    every resource the tenant uses multiplied by its share.  Computed
    once per tenant at {!create} time. *)

val bound : t -> tenant:int -> Streaming.Model.t -> float
(** Deterministic critical-cycle throughput of the scaled mapping — the
    cheap per-tenant admission bound (an upper bound on the N.B.U.E.
    throughput by Theorem 7).  The exact per-tenant throughput under any
    law is {!Streaming.Throughput.solve} on {!scaled_mapping}. *)
