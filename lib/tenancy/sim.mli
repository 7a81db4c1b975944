(** Interleaved-tenant DES validation of the sharing model.

    Reserved shares decouple tenants, so the discrete-event simulation of
    the shared platform factorizes: each tenant's completion process on
    the shared platform is exactly its pipeline's DES on the derated
    platform of {!Platform_share.scaled_mapping}.  This module runs the
    per-tenant simulations, merges their completion timelines into one
    interleaved, tenant-tagged event sequence, and estimates each
    tenant's steady-state throughput from the merged timeline — the
    cross-check that the share computation, the rate scaling and the
    per-tenant dynamics all agree with the exact solvers. *)

type event = { time : float; tenant : int  (** index into the share's decl order *) }

val interleaved_completions :
  Platform_share.t -> Streaming.Model.t -> seed:int -> data_sets:int -> event array
(** [data_sets] completions per tenant with I.I.D. exponential operation
    times (each tenant on its own deterministic stream derived from
    [seed]), merged and sorted by completion time. *)

type estimate = {
  id : string;
  des : float;  (** throughput measured on the interleaved timeline *)
  exact : float;
      (** {!Streaming.Throughput.solve} [Exponential] on the tenant's
          {!Platform_share.scaled_mapping} *)
  rel_err : float;  (** |des - exact| / exact *)
}

val cross_check :
  ?cap:int ->
  ?warmup_fraction:float ->
  Platform_share.t ->
  Streaming.Model.t ->
  seed:int ->
  data_sets:int ->
  estimate list
(** Per-tenant DES vs exact agreement ([cap] bounds the exact solve, as
    in {!Streaming.Throughput.solve}).  Events are counted on the common
    horizon (the earliest tenant's last completion) after discarding the
    warm-up prefix (default fraction 0.2), so every tenant is measured on
    an interval where all tenants are still active. *)
