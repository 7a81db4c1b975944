(** The accept/frame/drain loop shared by the query daemon ({!Server})
    and the cluster router.

    One thread per accepted connection reads NDJSON frames ({!Frames})
    and answers them in order.  Frame faults get typed replies and the
    connection goes on: [oversized_frame] for a frame over [max_frame],
    [parse_error] for a tail that EOF truncated; blank lines get no
    reply.  {!request_stop}, SIGTERM, SIGINT or a [`Shutdown] verdict
    start a drain: accept no more, let each connection finish the
    request it is serving and close, and return once none is live.

    {b Where connections run.}  The accept loop runs in the caller of
    {!serve}, which counts as domain 0 of the pool.  Each accepted
    connection's thread starts ({!Parallel.Pool.run_on}) on the pool
    domain with the fewest live connections, the lowest-numbered on a
    tie, and stays there; so up to [Pool.size] connections run
    [respond] in parallel, and no domain is spawned beyond the pool's.
    With a pool of 1 every connection shares the caller's domain.  Two
    costs come with a worker domain:
    - a pool task running on worker domain [W] holds [W]'s runtime lock,
      so a connection thread placed on [W] waits until that task ends or
      the systhreads tick (50 ms) makes it yield, and the worker waits
      likewise for a connection thread that holds the lock;
    - the first thread started on a worker domain also starts that
      domain's tick thread, which OCaml 5.1 joins when the domain ends:
      {!Parallel.Pool.shutdown} (at exit for the default pool) then takes
      up to 50 ms longer. *)

type conn = {
  respond : string -> string * [ `Continue | `Shutdown ];
      (** one request line in, one reply line out *)
  close : unit -> unit;  (** runs once, when the connection ends *)
}

type t

val create : unit -> t

val request_stop : t -> unit
(** Ask {!serve} to drain and return; idempotent, safe from signal
    handlers and other threads.  Before {!serve}, it makes {!serve}
    return without accepting. *)

val stopping : t -> bool
(** Whether a drain has been asked for. *)

val live : t -> int
(** Connections accepted and not yet closed. *)

val serve :
  t ->
  ?pool:Parallel.Pool.t ->
  ?send:(Unix.file_descr -> string -> bool) ->
  ?on_frame_error:(string -> unit) ->
  log:Obs.Log.t ->
  listening:string * (string * string) list ->
  max_frame:int ->
  Protocol.addr ->
  (unit -> conn) ->
  unit
(** [serve t ~log ~listening:(event, attrs) ~max_frame addr make_conn]
    binds [addr] (replacing a stale Unix-domain socket file), logs
    [event] with [addr] and [attrs], and serves each connection with its
    own [make_conn ()], on a domain of [pool] (default
    {!Parallel.Pool.get}), until a drain, which it logs as ["draining"]
    with the live connection count.  [make_conn], [respond] and [close]
    therefore run on any of the pool's domains, several at once.
    SIGTERM/SIGINT handlers are installed for its duration.
    [send fd line] writes a reply and says whether the connection may go
    on (default {!Sockets.send_line}); [on_frame_error kind] hears of
    each oversized or truncated frame.  Raises [Unix.Unix_error] if the
    socket cannot be bound. *)
