(* The query daemon under test, run as its own process
   ([streaming_cli serve]) so that the load generator never shares its
   OCaml runtime.  Every daemon this module starts is stopped again: by
   [stop] on the normal path, and by an at_exit hook otherwise. *)

type t = { pid : int; addr : Service.Protocol.addr }

let live : int list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ();
  live := List.filter (( <> ) pid) !live

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

let () = at_exit (fun () -> List.iter kill !live)

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

let fail fmt = Printf.ksprintf failwith fmt

(* [spawn ~exe ~work ~cache ~domains] starts a daemon listening on a
   Unix socket under [work] (a relative path, so the socket path stays
   short whatever the checkout's location) and returns once it answers a
   ping. *)
let spawn ~exe ~work ~cache ~domains =
  let sock = Filename.concat work (Printf.sprintf "d%d.sock" (Unix.getpid ())) in
  let env =
    Array.append
      [| Printf.sprintf "PAR_DOMAINS=%d" domains |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"PAR_DOMAINS=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let log =
    Unix.openfile (Filename.concat work "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let argv = [| exe; "serve"; "--socket"; "unix:" ^ sock; "--cache"; string_of_int cache; "--quiet" |] in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close log) @@ fun () ->
    Unix.create_process_env exe argv env Unix.stdin log log
  in
  live := pid :: !live;
  let addr = Service.Protocol.Unix_domain sock in
  let deadline = Quant.now_s () +. 30.0 in
  let rec ready () =
    if exited pid then begin
      live := List.filter (( <> ) pid) !live;
      fail "daemon exited during start-up (see %s)" (Filename.concat work "daemon.log")
    end
    else if Quant.now_s () > deadline then begin
      kill pid;
      fail "daemon did not answer within 30 s"
    end
    else
      match Service.Client.connect addr with
      | Error _ ->
          Unix.sleepf 0.005;
          ready ()
      | Ok c -> (
          let r = Service.Client.ping c in
          Service.Client.close c;
          match r with
          | Ok reply when Service.Client.reply_ok reply -> ()
          | _ ->
              Unix.sleepf 0.005;
              ready ())
  in
  ready ();
  { pid; addr }

let with_client d f =
  match Service.Client.connect d.addr with
  | Error e -> fail "connect: %s" (Service.Client.error_message e)
  | Ok c -> Fun.protect ~finally:(fun () -> Service.Client.close c) (fun () -> f c)

let rpc c line =
  match Service.Client.rpc_raw c line with
  | Ok reply -> reply
  | Error e -> fail "rpc: %s" (Service.Client.error_message e)

(* LRU counters of the daemon's result cache, from its [stats] command *)
type lru = { hits : int; misses : int; evictions : int }

let lru_stats d =
  with_client d @@ fun c ->
  let int_field k j = Option.value ~default:0 (Option.bind (Service.Json.member k j) Service.Json.to_int_opt) in
  match Service.Client.stats c with
  | Ok reply -> (
      match Option.bind (Service.Client.reply_result reply) (Service.Json.member "cache") with
      | Some cache ->
          { hits = int_field "hits" cache; misses = int_field "misses" cache;
            evictions = int_field "evictions" cache }
      | None -> fail "stats reply without cache counters")
  | Error e -> fail "stats: %s" (Service.Client.error_message e)

let peak_rss_mb d = Quant.peak_rss_mb d.pid

(* graceful stop: the shutdown command drains the daemon; a daemon that
   does not exit within 10 s is killed *)
let stop d =
  (match Service.Client.connect d.addr with
  | Ok c ->
      ignore (Service.Client.shutdown c);
      Service.Client.close c
  | Error _ -> ());
  let deadline = Quant.now_s () +. 10.0 in
  let rec wait () =
    if exited d.pid then live := List.filter (( <> ) d.pid) !live
    else if Quant.now_s () > deadline then kill d.pid
    else begin
      Unix.sleepf 0.01;
      wait ()
    end
  in
  wait ()

(* The [result] object of an [ok:true] reply, as the bytes the daemon
   spliced in ({!Service.Protocol.ok_reply} puts it last). *)
let result_bytes reply =
  let marker = "\"result\":" in
  let n = String.length reply and m = String.length marker in
  let rec find i =
    if i + m > n then None
    else if String.sub reply i m = marker then Some (String.sub reply (i + m) (n - i - m - 1))
    else find (i + 1)
  in
  if String.starts_with ~prefix:"{\"v\":1,\"ok\":true," reply then find 0 else None

let cached reply = String.starts_with ~prefix:"{\"v\":1,\"ok\":true,\"cached\":true," reply
