(** Bounded least-recently-used result cache, safe for concurrent use.

    Keys are the service's request keys (see {!Engine.prepare}), so two
    textually different requests that describe the same solve share one
    entry.  Values are immutable rendered replies; a hit returns the
    stored string verbatim, which is what makes repeated identical
    queries byte-identical.  All operations take an internal mutex —
    the daemon's connection threads and the batch pool insert
    concurrently. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity >= 1]; raises [Invalid_argument] otherwise. *)

val find : 'a t -> string -> 'a option
(** Looks up and promotes the entry to most-recently-used; counts a hit
    or a miss. *)

val hit : 'a t -> string -> 'a option
(** Like {!find} on a present key; an absent key returns [None] and counts
    nothing, so that a later {!find} settles the lookup as one hit or one
    miss. *)

val add : 'a t -> string -> 'a -> unit
(** Inserts (or refreshes) the entry as most-recently-used, evicting the
    least-recently-used one when the cache is full. *)

val mem : 'a t -> string -> bool
(** Membership without promotion and without touching the counters. *)

type stats = { hits : int; misses : int; entries : int; capacity : int; evictions : int }

val stats : 'a t -> stats
val clear : 'a t -> unit
(** Drops every entry and zeroes the hit/miss/eviction counters, so
    post-clear hit rates describe the cache's new life only. *)
