type conn = {
  respond : string -> string * [ `Continue | `Shutdown ];
  close : unit -> unit;
}

type t = {
  stop : bool Atomic.t;
  mutable stop_pipe : (Unix.file_descr * Unix.file_descr) option;
  live_mutex : Mutex.t;
  idle : Condition.t;  (* signalled when [live] falls to 0 *)
  mutable live : int;
  mutable placed : int array;  (* live connections per pool domain *)
}

let create () =
  {
    stop = Atomic.make false;
    stop_pipe = None;
    live_mutex = Mutex.create ();
    idle = Condition.create ();
    live = 0;
    placed = [| 0 |];
  }

let request_stop t =
  if not (Atomic.exchange t.stop true) then
    match t.stop_pipe with
    | Some (_, wr) -> ( try ignore (Unix.write_substring wr "x" 0 1) with Unix.Unix_error _ -> ())
    | None -> ()

let stopping t = Atomic.get t.stop

let live t =
  Mutex.lock t.live_mutex;
  let n = t.live in
  Mutex.unlock t.live_mutex;
  n

(* A new connection goes to the domain with the fewest live ones, the
   lowest on a tie.  It is counted before its thread starts, so the drain
   cannot miss it. *)
let place t =
  Mutex.lock t.live_mutex;
  let d = ref 0 in
  Array.iteri (fun i n -> if n < t.placed.(!d) then d := i) t.placed;
  t.placed.(!d) <- t.placed.(!d) + 1;
  t.live <- t.live + 1;
  Mutex.unlock t.live_mutex;
  !d

let release t d =
  Mutex.lock t.live_mutex;
  t.placed.(d) <- t.placed.(d) - 1;
  t.live <- t.live - 1;
  if t.live = 0 then Condition.broadcast t.idle;
  Mutex.unlock t.live_mutex

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Wait until [fd] has data or the stop pipe fires; the stop byte is never
   consumed, so one write wakes every waiter, now and later. *)
let rec wait_readable fd stop_rd =
  match Unix.select [ fd; stop_rd ] [] [] (-1.0) with
  | readable, _, _ -> List.mem fd readable
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable fd stop_rd

(* One connection's thread.  Its cleanup runs even when [make_conn] or
   [respond] raises, so neither the socket nor the live count leaks. *)
let conn_loop t ~send ~on_frame_error ~max_frame stop_rd make_conn d fd =
  Fun.protect ~finally:(fun () ->
      close_quietly fd;
      release t d)
  @@ fun () ->
  let conn = make_conn () in
  Fun.protect ~finally:conn.close @@ fun () ->
  let chunk_len = 4096 in
  let chunk = Bytes.create chunk_len in
  let frames = Frames.create ~max_frame in
  let alive = ref true in
  let reject e =
    on_frame_error (Protocol.error_kind e);
    send fd (Protocol.error_reply ~id:None e)
  in
  let on_event = function
    | Frames.Oversized ->
        if not (reject (Protocol.Oversized_frame { limit = max_frame })) then alive := false
    | Frames.Line line ->
        (if String.trim line <> "" then begin
           let reply, k = conn.respond line in
           if not (send fd reply) then alive := false;
           match k with
           | `Shutdown ->
               request_stop t;
               alive := false
           | `Continue -> ()
         end);
        (* a drain lets the request that is already being served finish,
           then closes the connection instead of reading the next frame *)
        if Atomic.get t.stop then alive := false
  in
  while !alive do
    if not (wait_readable fd stop_rd) then alive := false
    else
      match Unix.read fd chunk 0 chunk_len with
      | 0 ->
          (* EOF: an unterminated tail is a truncated frame — answer it
             (best effort; the peer may be gone) and close *)
          if Frames.pending frames then
            ignore
              (reject (Protocol.Parse_error "truncated line: no newline before end of stream"));
          alive := false
      | n -> Frames.feed frames chunk n on_event
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> alive := false
  done

let serve t ?(pool = Parallel.Pool.get ())
    ?(send = fun fd line -> Result.is_ok (Sockets.send_line fd line)) ?(on_frame_error = ignore)
    ~log ~listening:(event, attrs) ~max_frame addr make_conn =
  Sockets.ignore_sigpipe ();
  t.placed <- Array.make (Parallel.Pool.size pool) 0;
  let stop_rd, stop_wr = Unix.pipe () in
  t.stop_pipe <- Some (stop_rd, stop_wr);
  if Atomic.get t.stop then ignore (Unix.write_substring stop_wr "x" 0 1);
  let on_signal = Sys.Signal_handle (fun _ -> request_stop t) in
  let old_term = Sys.signal Sys.sigterm on_signal in
  let old_int = Sys.signal Sys.sigint on_signal in
  let domain =
    match addr with Protocol.Unix_domain _ -> Unix.PF_UNIX | Protocol.Tcp _ -> Unix.PF_INET
  in
  let listen_fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  let cleanup_path () =
    match addr with
    | Protocol.Unix_domain path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Protocol.Tcp _ -> ()
  in
  let finally () =
    close_quietly listen_fd;
    cleanup_path ();
    t.stop_pipe <- None;
    close_quietly stop_rd;
    close_quietly stop_wr;
    ignore (Sys.signal Sys.sigterm old_term);
    ignore (Sys.signal Sys.sigint old_int)
  in
  Fun.protect ~finally @@ fun () ->
  (match addr with Protocol.Tcp _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true | _ -> ());
  cleanup_path ();
  Unix.bind listen_fd (Protocol.sockaddr_of addr);
  Unix.listen listen_fd 64;
  Obs.Log.info log ~attrs:(("addr", Protocol.addr_to_string addr) :: attrs) event;
  let rec accept_loop () =
    if not (Atomic.get t.stop) then
      if wait_readable listen_fd stop_rd then begin
        (match Sockets.accept listen_fd with
        | Ok (fd, _) ->
            let d = place t in
            (* the thread starts on domain [d]; one that cannot start is a
               refused connection *)
            Parallel.Pool.run_on pool d (fun () ->
                try
                  ignore
                    (Thread.create
                       (conn_loop t ~send ~on_frame_error ~max_frame stop_rd make_conn d)
                       fd)
                with _ ->
                  close_quietly fd;
                  release t d)
        | Error _ -> ());
        accept_loop ()
      end
  in
  accept_loop ();
  Obs.Log.info log ~attrs:[ ("connections", string_of_int (live t)) ] "draining";
  Mutex.lock t.live_mutex;
  while t.live > 0 do
    Condition.wait t.idle t.live_mutex
  done;
  Mutex.unlock t.live_mutex
