(** Deterministic fixed-size domain pool.

    A pool owns [domains - 1] worker domains (the caller of {!map} is the
    last one) pulling tasks from a shared queue.  Work is distributed in
    contiguous index chunks and every result is written at the index of its
    input, so for a pure task function the output of {!map} is the same
    array — same floats, same ordering — for every pool size, including 1.
    Tasks that need randomness take their generator from
    {!Prng.stream}[ ~seed index] (see {!map_seeded}), which depends only on
    the task's index, never on the schedule; this is the determinism
    contract relied on by the experiment sweeps.

    Nested use is allowed: a task may itself call {!map} on the same pool.
    A caller waiting for its own tasks keeps executing whatever is queued,
    so nested maps cannot deadlock.  Exceptions raised by tasks are
    re-raised in the caller once the whole batch has finished. *)

type t

val create : domains:int -> t
(** [create ~domains] spawns [domains - 1] worker domains ([domains >= 1]);
    with [domains = 1] every map runs in the caller, with no domain
    spawned. *)

val shutdown : t -> unit
(** Drains the queue and the {!run_on} inboxes, terminates and joins the
    workers; joining a worker domain also waits for every thread started
    on it.  Idempotent and safe under concurrency: any number of callers,
    from any thread, may shut the same pool down — one of them joins the
    workers and the rest block until the join has finished, so every call
    returns with the workers gone.  A map in flight when shutdown starts
    completes normally (workers finish the queued tasks before exiting,
    and the mapping caller keeps executing its own tasks).  A map started {e
    after} shutdown still returns the right result: with the workers
    gone, the caller executes every task itself — the daemon's graceful
    drain relies on both properties. *)

val run_on : t -> int -> (unit -> unit) -> unit
(** [run_on pool d job] runs [job] on domain [d] of the pool: [0] is the
    calling domain, where [job] runs at once, and [1 .. size - 1] are the
    worker domains.  A worker takes [job] before any queued task, but only
    once the task it is running, if any, ends; [run_on] returns without
    waiting for that.  Once {!shutdown} has started, every [job] runs in
    the caller.  [job] must be short and must not wait, since it holds its
    worker: the service listener uses it to start a connection's thread
    on a chosen domain.  An exception escaping [job] reaches the caller
    when [job] ran there, and is discarded on a worker, which goes on.
    Raises [Invalid_argument] unless [0 <= d < size pool]. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] on a fresh pool and shuts it down
    afterwards, whether [f] returns or raises. *)

val size : t -> int
(** Number of domains the pool uses, caller included. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
val mapi : t -> (int -> 'a -> 'b) -> 'a array -> 'b array
val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

val map_result : t -> ('a -> 'b) -> 'a array -> ('b, exn) result array
(** Like {!map}, but a task that raises yields [Error exn] at its index
    instead of failing the whole batch: the other items still complete
    and return [Ok].  Determinism contract as in {!map}. *)

val map_list_result : t -> ('a -> 'b) -> 'a list -> ('b, exn) result list

val mapi_list_result : t -> (int -> 'a -> 'b) -> 'a list -> ('b, exn) result list
(** {!map_list_result} with the item's index — the optimizer hands each
    candidate its list position for deterministic tie-breaking and
    index-derived seeds, independent of the pool size. *)

val map_seeded : t -> seed:int -> (Prng.t -> 'a -> 'b) -> 'a list -> 'b list
(** [map_seeded pool ~seed f xs] runs [f g_i x_i] where [g_i] is the
    independent stream [Prng.stream ~seed i]: the i-th task always sees the
    same generator, whatever the pool size or schedule. *)

val init : t -> int -> (int -> 'a) -> 'a array

val run_all : t -> (unit -> unit) array -> unit
(** Low-level primitive behind [map]: run every task, caller
    participating, and return (or re-raise the first task exception) once
    all have completed. *)

(** {1 Global default pool}

    Library entry points that accept [?pool] fall back to this pool.  Its
    size comes from the [PAR_DOMAINS] environment variable when set to a
    positive integer, from [Domain.recommended_domain_count ()] otherwise.
    The pool is created on first use and shut down at exit. *)

val get : unit -> t
val set_domains : int -> unit
(** Replace the default pool with one of the given size (used by
    [bench/main.exe --domains N]). *)

val default_domains : unit -> int
(** The size {!get} would use for a fresh default pool. *)
