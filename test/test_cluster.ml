(* The fault-tolerant cluster: consistent-hash ring determinism and
   balance, circuit-breaker state machine on a synthetic clock, and the
   supervisor + router against real worker processes — including the
   chaos case: a worker killed mid-request must cost no acknowledged
   request and no byte of result fidelity, and must come back within the
   restart schedule's worst-case bound. *)

open Cluster
module Json = Service.Json
module Client = Service.Client
module Protocol = Service.Protocol

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* ---- ring ---- *)

let test_ring_deterministic () =
  let r = Ring.create 4 in
  let keys = List.init 50 (fun i -> Printf.sprintf "key-%d" i) in
  List.iter
    (fun key ->
      Alcotest.(check int) ("lookup stable for " ^ key) (Ring.lookup r key) (Ring.lookup r key);
      let pref = Ring.preference r key in
      Alcotest.(check int) "preference head is the owner" (Ring.lookup r key) (List.hd pref);
      Alcotest.(check (list int)) "preference is a permutation" [ 0; 1; 2; 3 ]
        (List.sort compare pref))
    keys;
  (* a second ring of the same size places identically: the layout is a
     pure function, shared across processes *)
  let r' = Ring.create 4 in
  List.iter
    (fun key -> Alcotest.(check int) "cross-instance agreement" (Ring.lookup r key) (Ring.lookup r' key))
    keys

let test_ring_balance () =
  let workers = 4 in
  let r = Ring.create workers in
  let counts = Array.make workers 0 in
  let n = 2000 in
  for i = 0 to n - 1 do
    let w = Ring.lookup r (Printf.sprintf "instance-%d" i) in
    counts.(w) <- counts.(w) + 1
  done;
  Array.iteri
    (fun w c ->
      Alcotest.(check bool)
        (Printf.sprintf "worker %d owns a fair share (%d/%d)" w c n)
        true
        (float_of_int c /. float_of_int n > 0.05))
    counts

(* ---- breaker ---- *)

let test_breaker_state_machine () =
  let b = Breaker.create ~config:{ Breaker.failures = 3; cooldown = 10.0 } () in
  Alcotest.(check bool) "closed allows" true (Breaker.allow b ~now:0.0);
  Breaker.failure b ~now:0.0;
  Breaker.failure b ~now:1.0;
  Alcotest.(check bool) "still closed under the threshold" true (Breaker.allow b ~now:1.5);
  Breaker.failure b ~now:2.0;
  Alcotest.(check bool) "opens at the threshold" true (Breaker.state b ~now:3.0 = Breaker.Open);
  Alcotest.(check bool) "open refuses" false (Breaker.allow b ~now:5.0);
  (* cooldown over: exactly one half-open probe gets through *)
  Alcotest.(check bool) "probe allowed" true (Breaker.allow b ~now:12.1);
  Alcotest.(check bool) "second probe refused" false (Breaker.allow b ~now:12.2);
  Breaker.failure b ~now:12.3;
  Alcotest.(check bool) "failed probe reopens" false (Breaker.allow b ~now:13.0);
  Alcotest.(check bool) "second cooldown over" true (Breaker.allow b ~now:22.4);
  Breaker.success b;
  Alcotest.(check bool) "successful probe closes" true (Breaker.state b ~now:22.5 = Breaker.Closed);
  Alcotest.(check int) "tripped twice" 2 (Breaker.opened_total b)

(* ---- supervisor and router against real workers ---- *)

let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/streaming_cli.exe"

let temp_socket () =
  let path = Filename.temp_file "test_cluster" ".sock" in
  Sys.remove path;
  path

let base_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv -> not (Supervise.Inject.is_binding kv))
  |> Array.of_list

let worker_spec ?inject () =
  let path = temp_socket () in
  let env =
    match inject with
    | Some spec -> Array.append (base_env ()) [| "SUPERVISE_INJECT=" ^ spec |]
    | None -> base_env ()
  in
  {
    Supervisor.argv = [| cli; "serve"; "--socket"; "unix:" ^ path; "--quiet"; "--cache"; "32" |];
    env;
    addr = Protocol.Unix_domain path;
  }

let parse_reply line =
  match Json.parse line with
  | Ok j -> j
  | Error msg -> Alcotest.fail (Printf.sprintf "unparsable reply %S: %s" line msg)

let instance_w w =
  Printf.sprintf
    "stages 2\nwork %d 1\nfiles 1\nprocessors 3\nspeeds 1 1 1\nbandwidth default 1\nteam 0\nteam 1 2\n"
    w

let solve_line w = Json.render (Client.solve_request ~instance:(instance_w w) ())

(* the canonical cache key the router shards on — the same pure
   function, so tests can predict placement *)
let canonical_key w =
  let query =
    {
      Service.Engine.instance = instance_w w;
      model = Streaming.Model.Overlap;
      law = Service.Engine.Exponential;
      cap = Service.Engine.default_cap;
      wall = None;
      sweeps = None;
      states = None;
      simulate = false;
    }
  in
  match Service.Engine.prepare query with
  | Ok p -> p.Service.Engine.key
  | Error msg -> Alcotest.fail msg

let forwarded_counts router workers =
  match Json.member "workers" (Router.stats_json router) with
  | Some (Json.List ws) when List.length ws = workers ->
      Array.of_list
        (List.map
           (fun w ->
             match Option.bind (Json.member "forwarded" w) Json.to_int_opt with
             | Some n -> n
             | None -> Alcotest.fail "worker stats entry has no forwarded counter")
           ws)
  | _ -> Alcotest.fail "router stats has no workers list"

(* the rendered "result" object of a reply — the [cached] flag
   legitimately differs between a fresh worker and a warm one, the
   result bytes never may *)
let result_bytes line =
  let marker = "\"result\":" in
  let ml = String.length marker and ll = String.length line in
  let rec find i =
    if i + ml > ll then Alcotest.fail ("reply has no result field: " ^ line)
    else if String.sub line i ml = marker then i + ml
    else find (i + 1)
  in
  let start = find 0 in
  String.sub line start (ll - start - 1)

let test_fleet_up_router_drain () =
  let specs = Array.init 2 (fun _ -> worker_spec ()) in
  let sup = Supervisor.start ~log:null_ppf specs in
  let finally () = Supervisor.shutdown ~grace:3.0 sup in
  Fun.protect ~finally @@ fun () ->
  Alcotest.(check bool) "fleet comes up" true
    (Supervisor.wait_up ~deadline:(Unix.gettimeofday () +. 20.0) sup);
  let router = Router.create { (Router.default_config ()) with log = null_ppf } sup in
  let conns = Array.make (Supervisor.size sup) None in
  (* local commands *)
  let reply, k = Router.respond router conns {|{"v":1,"cmd":"ping"}|} in
  Alcotest.(check bool) "router pong" true (Client.reply_ok (parse_reply reply));
  Alcotest.(check bool) "ping continues" true (k = `Continue);
  (* a forwarded solve, twice: the second must come from the owner's
     warm cache *)
  let line = solve_line 1 in
  let r1, _ = Router.respond router conns line in
  let r2, _ = Router.respond router conns line in
  Alcotest.(check bool) "solve ok" true (Client.reply_ok (parse_reply r1));
  Alcotest.(check bool) "repeat solve cached" true
    (Json.member "cached" (parse_reply r2) = Some (Json.Bool true));
  Alcotest.(check string) "cache replay byte-identical" (result_bytes r1) (result_bytes r2);
  (* stats sees the fleet *)
  let stats_reply, _ = Router.respond router conns {|{"v":1,"cmd":"stats"}|} in
  let stats = parse_reply stats_reply in
  (match Option.bind (Client.reply_result stats) (Json.member "workers") with
  | Some (Json.List ws) -> Alcotest.(check int) "stats lists every worker" 2 (List.length ws)
  | _ -> Alcotest.fail "no workers in router stats");
  (* shutdown verdict drains *)
  let reply, verdict = Router.respond router conns {|{"v":1,"cmd":"shutdown"}|} in
  Alcotest.(check bool) "shutdown acknowledged" true (Client.reply_ok (parse_reply reply));
  Alcotest.(check bool) "shutdown verdict" true (verdict = `Shutdown);
  Array.iter (function Some c -> Client.close c | None -> ()) conns;
  Supervisor.shutdown ~grace:3.0 sup;
  for i = 0 to 1 do
    Alcotest.(check bool)
      (Printf.sprintf "worker %d dead after drain" i)
      true
      (Supervisor.state sup i = Supervisor.Dead)
  done;
  Alcotest.(check int) "no restarts in a healthy run" 0 (Supervisor.restarts_total sup)

(* the router's own socket loop in front of one worker: a frame fault gets
   a typed reply and the connection goes on; every routed request is one
   [cluster_request_seconds] observation on the monotonic clock; and
   [shutdown] drains the router, then the fleet *)
let test_router_serve_socket () =
  let sup = Supervisor.start ~log:null_ppf [| worker_spec () |] in
  Fun.protect ~finally:(fun () -> Supervisor.shutdown ~grace:3.0 sup) @@ fun () ->
  Alcotest.(check bool) "fleet comes up" true
    (Supervisor.wait_up ~deadline:(Unix.gettimeofday () +. 20.0) sup);
  let multi cmd =
    Printf.sprintf
      {|{"v":1,"cmd":"%s","model":"overlap","law":"exponential","instance":"tenancy 1\nprocessors 2\nspeeds 1 1\nbandwidth default 1\ntenant a weight 1 floor 0.01\nstages 2\nwork 1 1\nfiles 1\nteam 0\nteam 1\n"}|}
      cmd
  in
  let requests = [ solve_line 1; solve_line 2; solve_line 3; multi "solve_multi"; multi "admit" ] in
  let longest = List.fold_left (fun n r -> max n (String.length r)) 0 requests in
  let router =
    Router.create
      { (Router.default_config ()) with max_frame = longest + 16; log = null_ppf }
      sup
  in
  let addr = Protocol.Unix_domain (temp_socket ()) in
  let returned = Atomic.make false in
  let serve () =
    Fun.protect ~finally:(fun () -> Atomic.set returned true) (fun () -> Router.serve router addr)
  in
  let thread = Thread.create serve () in
  Fun.protect ~finally:(fun () ->
      Router.request_stop router;
      Thread.join thread)
  @@ fun () ->
  let rec connect tries =
    match Client.connect addr with
    | Ok c -> c
    | Error e when tries = 0 -> Alcotest.fail (Client.error_message e)
    | Error _ ->
        Thread.delay 0.02;
        connect (tries - 1)
  in
  let client = connect 250 in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  let rpc request =
    match Client.rpc_raw client request with
    | Ok reply -> parse_reply reply
    | Error e -> Alcotest.fail (Client.error_message e)
  in
  Alcotest.(check (option string)) "oversized frame typed" (Some "oversized_frame")
    (Client.reply_error_kind (rpc (String.make (longest + 17) 'x')));
  let t0 = Obs.Clock.now_ns () in
  List.iter
    (fun request -> Alcotest.(check bool) "routed ok" true (Client.reply_ok (rpc request)))
    requests;
  let elapsed = Obs.Clock.ns_to_s (Obs.Clock.now_ns () - t0) in
  Alcotest.(check (list int)) "counted per command" [ 3; 1; 1 ]
    (List.map (Router.requests_total router) [ "solve"; "solve_multi"; "admit" ]);
  let latency =
    Obs.Metrics.Histogram.create ~registry:(Router.metrics_registry router) ~buckets:[| 1.0 |]
      "cluster_request_seconds"
  in
  let sum = Obs.Metrics.Histogram.sum latency in
  Alcotest.(check int) "one observation per routed request" 5 (Obs.Metrics.Histogram.count latency);
  Alcotest.(check bool)
    (Printf.sprintf "0 < sum %.6f <= elapsed %.6f" sum elapsed)
    true
    (sum > 0.0 && sum <= elapsed);
  Alcotest.(check bool) "shutdown acknowledged" true
    (Client.reply_ok (rpc {|{"v":1,"cmd":"shutdown"}|}));
  let deadline = Unix.gettimeofday () +. 20.0 in
  while not (Atomic.get returned) do
    if Unix.gettimeofday () > deadline then Alcotest.fail "Router.serve did not return";
    Thread.delay 0.01
  done;
  Alcotest.(check bool) "the fleet is dead" true (Supervisor.state sup 0 = Supervisor.Dead)

(* shard-aware batch splitting: a heterogeneous batch must fan out to
   each item's ring owner (one sub-batch per owner, results reassembled
   in request order), not go wholesale to one round-robin worker.  The
   per-worker forwarded counters are the witness: every owner with items
   answers exactly one sub-batch, idle workers answer nothing. *)
let test_batch_splits_by_ring_owner () =
  let workers = 3 in
  let specs = Array.init workers (fun _ -> worker_spec ()) in
  let sup = Supervisor.start ~log:null_ppf specs in
  Fun.protect ~finally:(fun () -> Supervisor.shutdown ~grace:3.0 sup) @@ fun () ->
  Alcotest.(check bool) "fleet comes up" true
    (Supervisor.wait_up ~deadline:(Unix.gettimeofday () +. 20.0) sup);
  let router = Router.create { (Router.default_config ()) with log = null_ppf } sup in
  let conns = Array.make (Supervisor.size sup) None in
  let ring = Ring.create workers in
  let ws = List.init 12 (fun i -> i + 1) in
  let expected_items = Array.make workers 0 in
  List.iter
    (fun w ->
      let o = Ring.lookup ring (canonical_key w) in
      expected_items.(o) <- expected_items.(o) + 1)
    ws;
  let owners_hit = Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0 expected_items in
  Alcotest.(check bool) "workload spans several owners" true (owners_hit >= 2);
  let before = forwarded_counts router workers in
  let line =
    Json.render
      (Client.batch_request (List.map (fun w -> Client.solve_request ~instance:(instance_w w) ()) ws))
  in
  let reply, _ = Router.respond router conns line in
  let json = parse_reply reply in
  Alcotest.(check bool) "batch ok" true (Client.reply_ok json);
  let after = forwarded_counts router workers in
  for i = 0 to workers - 1 do
    let want = if expected_items.(i) > 0 then 1 else 0 in
    Alcotest.(check int)
      (Printf.sprintf "worker %d answered %d sub-batch(es) for %d item(s)" i want
         expected_items.(i))
      want
      (after.(i) - before.(i))
  done;
  (* reassembly: in request order, every item ok, every result
     byte-identical to a single unfaulted daemon *)
  let reference =
    Service.Server.create
      {
        (Service.Server.default_config ()) with
        Service.Server.cache_capacity = 64;
        log = null_ppf;
      }
  in
  (match Option.bind (Client.reply_result json) (Json.member "results") with
  | Some (Json.List items) ->
      Alcotest.(check int) "one result per item" (List.length ws) (List.length items);
      List.iteri
        (fun i item ->
          let w = List.nth ws i in
          Alcotest.(check (option bool))
            (Printf.sprintf "item %d ok" i)
            (Some true)
            (Option.bind (Json.member "ok" item) Json.to_bool_opt);
          match Json.member "result" item with
          | None -> Alcotest.fail (Printf.sprintf "item %d has no result" i)
          | Some r ->
              let expected_reply, _ = Service.Server.respond reference (solve_line w) in
              Alcotest.(check string)
                (Printf.sprintf "item %d byte-identical to reference" i)
                (result_bytes expected_reply) (Json.render r))
        items
  | _ -> Alcotest.fail "batch reply has no results list");
  Array.iter (function Some c -> Client.close c | None -> ()) conns

(* a worker that can never start: the supervisor burns the restart
   budget, marks it dead, and the router sheds with a typed retriable
   reply instead of hanging *)
let test_crash_loop_marked_dead_and_shed () =
  (* a stale file at the worker's path stands for the socket a killed
     worker leaves behind: the supervisor removes it once the slot is dead *)
  let path = temp_socket () in
  Out_channel.with_open_bin path ignore;
  let spec =
    {
      Supervisor.argv = [| "/bin/sh"; "-c"; "exit 7" |];
      env = base_env ();
      addr = Protocol.Unix_domain path;
    }
  in
  let backoff =
    {
      Supervise.Backoff.base = 0.01;
      multiplier = 2.0;
      max_delay = 0.05;
      jitter = 0.0;
      max_attempts = 2;
    }
  in
  let sup = Supervisor.start ~backoff ~log:null_ppf [| spec |] in
  Fun.protect ~finally:(fun () -> Supervisor.shutdown ~grace:1.0 sup) @@ fun () ->
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait_dead () =
    if Supervisor.state sup 0 = Supervisor.Dead then ()
    else if Unix.gettimeofday () >= deadline then Alcotest.fail "crash loop never marked dead"
    else begin
      Thread.delay 0.02;
      wait_dead ()
    end
  in
  wait_dead ();
  Alcotest.(check int) "restart budget consumed" 2 (Supervisor.restarts sup 0);
  Alcotest.(check bool) "the dead worker's socket path is gone" false (Sys.file_exists path);
  let router =
    Router.create
      {
        (Router.default_config ()) with
        request_deadline = 2.0;
        retry = { Supervise.Backoff.default_retry with max_attempts = 1 };
        log = null_ppf;
      }
      sup
  in
  let conns = Array.make 1 None in
  let reply, _ = Router.respond router conns (solve_line 1) in
  let json = parse_reply reply in
  Alcotest.(check bool) "shed, not hung" false (Client.reply_ok json);
  Alcotest.(check (option string)) "typed unavailable" (Some "unavailable")
    (Client.reply_error_kind json);
  Alcotest.(check bool) "shed reply invites a retry" true (Client.reply_retriable json)

(* the chaos harness: worker 0 dies, unacknowledged, on its 4th solve.
   Every request routed through the cluster must still be acknowledged
   exactly once (re-routed to a live worker), every result must be
   byte-identical to a single unfaulted daemon, and the dead worker must
   be restarted within the schedule's worst-case bound. *)
let test_chaos_kill_worker_zero_lost_acks () =
  let specs =
    Array.init 3 (fun i -> if i = 0 then worker_spec ~inject:"kill-after=3" () else worker_spec ())
  in
  let sup = Supervisor.start ~heartbeat_period:0.5 ~log:null_ppf specs in
  Fun.protect ~finally:(fun () -> Supervisor.shutdown ~grace:3.0 sup) @@ fun () ->
  Alcotest.(check bool) "fleet comes up" true
    (Supervisor.wait_up ~deadline:(Unix.gettimeofday () +. 20.0) sup);
  let router =
    Router.create { (Router.default_config ()) with request_deadline = 15.0; log = null_ppf } sup
  in
  let conns = Array.make (Supervisor.size sup) None in
  (* an unfaulted single daemon as the fidelity reference *)
  let reference =
    Service.Server.create
      {
        (Service.Server.default_config ()) with
        Service.Server.cache_capacity = 64;
        log = null_ppf;
      }
  in
  (* pick instances whose canonical keys the ring demonstrably places on
     worker 0 (the faulted one) and on the others — the router's ring is
     the same pure function, so ≥ 6 worker-0 solves guarantee the
     kill-after=3 rule fires mid-run *)
  let ring = Ring.create 3 in
  let owner w = Ring.lookup ring (canonical_key w) in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  let ws = List.init 100 (fun i -> i + 1) in
  let on_zero = take 6 (List.filter (fun w -> owner w = 0) ws) in
  let on_others = take 10 (List.filter (fun w -> owner w <> 0) ws) in
  Alcotest.(check int) "found keys owned by the faulted worker" 6 (List.length on_zero);
  let workload = on_zero @ on_others in
  let lost = ref 0 and mismatched = ref 0 and sent = ref 0 in
  for round = 1 to 2 do
    ignore round;
    List.iter
      (fun w ->
        let line = solve_line w in
        incr sent;
        let reply, _ = Router.respond router conns line in
        let json = parse_reply reply in
        if not (Client.reply_ok json) then incr lost
        else begin
          let expected, _ = Service.Server.respond reference line in
          if result_bytes reply <> result_bytes expected then incr mismatched
        end)
      workload
  done;
  Alcotest.(check int) "every acknowledged request survived the kill" 0 !lost;
  Alcotest.(check int) "every result byte-identical to the reference" 0 !mismatched;
  Alcotest.(check int) "all requests sent" 32 !sent;
  (* the reap runs on the monitor's tick: give it a moment to register
     the death before asserting it happened *)
  let reap_deadline = Unix.gettimeofday () +. 5.0 in
  let rec wait_reaped () =
    if Supervisor.restarts sup 0 >= 1 then ()
    else if Unix.gettimeofday () >= reap_deadline then
      Alcotest.fail "the injected kill never fired"
    else begin
      Thread.delay 0.02;
      wait_reaped ()
    end
  in
  wait_reaped ();
  (* the dead worker comes back within the restart schedule's bound
     (plus heartbeat/ping slack) *)
  let bound = Supervise.Backoff.worst_case_total Supervise.Backoff.default_restart +. 5.0 in
  let deadline = Unix.gettimeofday () +. bound in
  let rec wait_back () =
    if Supervisor.alive sup 0 then ()
    else if Unix.gettimeofday () >= deadline then
      Alcotest.fail "killed worker not restarted within the backoff bound"
    else begin
      Thread.delay 0.05;
      wait_back ()
    end
  in
  wait_back ();
  Array.iter (function Some c -> Client.close c | None -> ()) conns

(* ---- fleet observability: metrics federation, trace propagation ---- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_fleet_metrics_federation () =
  let specs = Array.init 2 (fun _ -> worker_spec ()) in
  let sup = Supervisor.start ~log:null_ppf specs in
  Fun.protect ~finally:(fun () -> Supervisor.shutdown ~grace:3.0 sup) @@ fun () ->
  Alcotest.(check bool) "fleet up" true
    (Supervisor.wait_up ~deadline:(Unix.gettimeofday () +. 20.0) sup);
  let router = Router.create { (Router.default_config ()) with log = null_ppf } sup in
  let conns = Array.make (Supervisor.size sup) None in
  Fun.protect
    ~finally:(fun () -> Array.iter (function Some c -> Client.close c | None -> ()) conns)
  @@ fun () ->
  (* some routed work first so worker registries have real series *)
  ignore (Router.respond router conns (solve_line 1));
  let exposition line =
    let reply, _ = Router.respond router conns line in
    let j = parse_reply reply in
    Alcotest.(check bool) "metrics ok" true (Client.reply_ok j);
    match
      Client.reply_result j
      |> Fun.flip Option.bind (Json.member "text")
      |> Fun.flip Option.bind Json.to_string_opt
    with
    | Some t -> t
    | None -> Alcotest.fail "metrics reply has no text"
  in
  let fleet = exposition {|{"v":1,"cmd":"metrics","fleet":true}|} in
  (* every worker's registry behind the router's own, each series tagged *)
  Alcotest.(check bool) "router head series present" true
    (contains fleet {|cluster_worker_up{worker="0"} 1|});
  Alcotest.(check bool) "worker 0 scraped" true
    (contains fleet {|process_uptime_seconds{worker="0"}|});
  Alcotest.(check bool) "worker 1 scraped" true
    (contains fleet {|process_uptime_seconds{worker="1"}|});
  Alcotest.(check bool) "worker service series relabeled" true
    (contains fleet {|service_requests_total{worker=|});
  (* plain metrics stays router-local: no federated worker series *)
  let local = exposition {|{"v":1,"cmd":"metrics"}|} in
  Alcotest.(check bool) "plain metrics is router-only" false
    (contains local {|service_requests_total{worker=|})

let test_fleet_trace_propagation () =
  (* workers export their own span timelines; the router adopts/mints
     trace ids and splices them into forwarded requests, so the merged
     timelines correlate across processes *)
  let trace_files = Array.init 2 (fun _ -> Filename.temp_file "fleet_trace" ".json") in
  let finally_files () =
    Array.iter (fun p -> if Sys.file_exists p then Sys.remove p) trace_files
  in
  Fun.protect ~finally:finally_files @@ fun () ->
  let specs =
    Array.init 2 (fun i ->
        let spec = worker_spec () in
        {
          spec with
          Supervisor.argv = Array.append spec.Supervisor.argv [| "--trace"; trace_files.(i) |];
        })
  in
  let sup = Supervisor.start ~log:null_ppf specs in
  Fun.protect ~finally:(fun () -> Supervisor.shutdown ~grace:3.0 sup) @@ fun () ->
  Alcotest.(check bool) "fleet up" true
    (Supervisor.wait_up ~deadline:(Unix.gettimeofday () +. 20.0) sup);
  let router = Router.create { (Router.default_config ()) with log = null_ppf } sup in
  let conns = Array.make (Supervisor.size sup) None in
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true;
  let router_doc =
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.set_enabled false;
        Obs.Trace.clear ())
    @@ fun () ->
    (* a client-minted envelope: the router must adopt it verbatim *)
    let client_trace, client_span = Client.fresh_obs () in
    let enveloped =
      Json.render
        (Client.solve_request ~obs:(client_trace, client_span) ~instance:(instance_w 1) ())
    in
    let r1, _ = Router.respond router conns enveloped in
    Alcotest.(check bool) "enveloped solve ok" true (Client.reply_ok (parse_reply r1));
    (* a legacy request: the router must mint a fresh context *)
    let r2, _ = Router.respond router conns (solve_line 2) in
    Alcotest.(check bool) "legacy solve ok" true (Client.reply_ok (parse_reply r2));
    let ends =
      List.filter
        (fun e -> e.Obs.Trace.ev_name = "router:solve" && e.Obs.Trace.ev_ph = 'E')
        (Obs.Trace.events ())
    in
    Alcotest.(check int) "both solves spanned by the router" 2 (List.length ends);
    let ids = List.filter_map (fun e -> List.assoc_opt "trace_id" e.Obs.Trace.ev_args) ends in
    Alcotest.(check int) "every router span carries a trace id" 2 (List.length ids);
    Alcotest.(check bool) "client-minted id adopted" true (List.mem client_trace ids);
    Array.iter (function Some c -> Client.close c | None -> ()) conns;
    (* drain the fleet so the workers write their exports *)
    Supervisor.shutdown ~grace:5.0 sup;
    (ids, Obs.Trace.to_chrome_json ~pid:(Unix.getpid ()) ~process_name:"router" ())
  in
  let router_ids, router_export = router_doc in
  let worker_docs =
    Array.to_list trace_files
    |> List.filter_map (fun p ->
           match In_channel.with_open_text p In_channel.input_all with
           | doc when String.length doc > 0 -> Some doc
           | _ -> None
           | exception Sys_error _ -> None)
  in
  Alcotest.(check bool) "worker exports written on drain" true (worker_docs <> []);
  (* worker spans carry the router's trace ids *)
  let all_worker_text = String.concat "\n" worker_docs in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "trace id %s crosses into a worker" id)
        true (contains all_worker_text id))
    router_ids;
  (* and the merged document is one valid multi-process timeline *)
  let merged = Obs.Trace.merge_chrome (router_export :: worker_docs) in
  match Json.parse merged with
  | Error m -> Alcotest.fail ("merged trace not JSON: " ^ m)
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List evs) ->
          let pids =
            List.filter_map (fun e -> Option.bind (Json.member "pid" e) Json.to_int_opt) evs
            |> List.sort_uniq compare
          in
          Alcotest.(check bool) "at least router + one worker pid" true
            (List.length pids >= 2);
          let span_names =
            List.filter_map (fun e -> Option.bind (Json.member "name" e) Json.to_string_opt) evs
          in
          Alcotest.(check bool) "router and worker spans on one timeline" true
            (List.mem "router:solve" span_names && List.mem "service:solve" span_names)
      | _ -> Alcotest.fail "merged trace has no traceEvents")

let () =
  Alcotest.run "cluster"
    [
      ( "ring",
        [
          Alcotest.test_case "deterministic placement" `Quick test_ring_deterministic;
          Alcotest.test_case "balance" `Quick test_ring_balance;
        ] );
      ("breaker", [ Alcotest.test_case "state machine" `Quick test_breaker_state_machine ]);
      ( "fleet",
        [
          Alcotest.test_case "up, route, cache, drain" `Quick test_fleet_up_router_drain;
          Alcotest.test_case "router socket: frames, latency, shutdown" `Quick
            test_router_serve_socket;
          Alcotest.test_case "batch splits by ring owner" `Quick test_batch_splits_by_ring_owner;
          Alcotest.test_case "crash loop -> dead -> shed" `Quick
            test_crash_loop_marked_dead_and_shed;
          Alcotest.test_case "chaos: kill-after, zero lost acks" `Quick
            test_chaos_kill_worker_zero_lost_acks;
        ] );
      ( "observability",
        [
          Alcotest.test_case "metrics federation" `Quick test_fleet_metrics_federation;
          Alcotest.test_case "trace propagation across processes" `Quick
            test_fleet_trace_propagation;
        ] );
    ]
