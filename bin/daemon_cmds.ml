(* The daemon and its clients: serve, query, top, loadgen. *)

open Cmdliner
open Streaming
open Common

(* serve: the persistent throughput-query daemon *)

let serve_run addr cache_capacity max_inflight max_frame wall quiet flight trace =
  let default = Service.Server.default_config () in
  let config =
    {
      Service.Server.cache_capacity;
      max_inflight = (match max_inflight with Some m -> m | None -> default.Service.Server.max_inflight);
      max_frame;
      default_wall = wall;
      log = (if quiet then null_ppf else Format.err_formatter);
      flight;
    }
  in
  let server = Service.Server.create config in
  match with_trace ~per_process:true trace (fun () -> Service.Server.serve server addr) with
  | () -> 0
  | exception Unix.Unix_error (err, fn, arg) -> cannot_serve addr (err, fn, arg)

let serve_cmd =
  let cache =
    Arg.(value & opt int 256 & info [ "cache" ] ~docv:"N" ~doc:"LRU result-cache capacity.")
  in
  let max_inflight =
    Arg.(value & opt (some int) None & info [ "max-inflight" ] ~docv:"N"
           ~doc:"Concurrent solve/batch requests admitted before the daemon answers busy \
                 (default 4x the domain-pool size).")
  in
  let max_frame =
    Arg.(value & opt int (1 lsl 20) & info [ "max-frame" ] ~docv:"BYTES"
           ~doc:"Request line size limit; longer frames get an oversized_frame error.")
  in
  let wall =
    Arg.(value & opt (some float) None & info [ "wall" ] ~docv:"SECONDS"
           ~doc:"Server-side wall-clock budget applied to requests that carry none.")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No connection/drain log on stderr.") in
  let flight =
    Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE"
           ~doc:"Arm the crash flight recorder: recent spans and events are dumped to $(docv) \
                 atomically on exit, on a typed-error burst, and on an injected crash.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent throughput-query daemon (NDJSON over a socket; SIGTERM drains)")
    Term.(const serve_run $ addr_arg $ cache $ max_inflight $ max_frame $ wall $ quiet $ flight
          $ trace_arg)

(* query: the matching client *)

let query_run addr command instance model law cap wall simulate repeat fleet =
  with_client addr @@ fun client ->
  match command with
  | "ping" | "stats" | "shutdown" ->
      print_endline (rpc client (Service.Json.render (Service.Client.request command [])));
      0
  | "metrics" ->
      let line = rpc client (Service.Json.render (Service.Client.metrics_request ~fleet ())) in
      (* the reply wraps the exposition text in JSON; unwrap it so the
         output pipes straight into a Prometheus scrape file *)
      (match Option.bind (Result.to_option (Service.Json.parse line)) Service.Client.metrics_text with
      | Some text -> print_string text
      | None -> print_endline line);
      0
  | "solve" -> (
      match instance with
      | None -> die ~code:1 "solve needs an INSTANCE file (positional argument)"
      | Some path ->
          let line =
            Service.Json.render
              (Service.Client.solve_request ~model ~law ?cap ?wall ~simulate
                 ~instance:(read_text path) ())
          in
          for _ = 1 to repeat do
            print_endline (rpc client line)
          done;
          0)
  | cmd -> die ~code:1 (Printf.sprintf "unknown query command %S (ping|stats|metrics|solve|shutdown)" cmd)

let query_cmd =
  let command =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"COMMAND"
           ~doc:"One of ping, stats, metrics, solve, shutdown.  [metrics] prints the \
                 daemon's metric registry in the Prometheus text format.")
  in
  let instance =
    Arg.(value & pos 1 (some file) None & info [] ~docv:"INSTANCE"
           ~doc:"Instance file (for solve).")
  in
  let cap =
    Arg.(value & opt (some int) None & info [ "cap" ] ~doc:"Pattern and marking exploration bound.")
  in
  let wall =
    Arg.(value & opt (some float) None & info [ "wall" ] ~docv:"SECONDS"
           ~doc:"Per-request wall-clock budget.")
  in
  let simulate =
    Arg.(value & flag & info [ "simulate" ]
           ~doc:"Allow the degraded DES rung when the exact/iterative ladder fails.")
  in
  let repeat =
    Arg.(value & opt int 1 & info [ "repeat"; "n" ] ~docv:"N"
           ~doc:"Send the solve N times on one connection (cache/load study).")
  in
  let fleet =
    Arg.(value & flag & info [ "fleet" ]
           ~doc:"With metrics against a cluster router: federate every Up worker's registry \
                 behind the router's own, each worker's series relabeled with worker=\"i\".")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Query a running throughput daemon (NDJSON replies on stdout)")
    Term.(const query_run $ addr_arg $ command $ instance $ model_arg
          $ law_arg ~doc:"Law: deterministic, exponential or erlang:K." $ cap $ wall
          $ simulate $ repeat $ fleet)

(* top: a live fleet view over the federated metrics endpoint *)

let top_run addr interval count window plain =
  let metrics_req = Service.Json.render (Service.Client.metrics_request ~fleet:true ()) in
  let scrape () =
    let deadline = Unix.gettimeofday () +. 2.0 in
    match Service.Client.connect ~deadline addr with
    | Error e -> Error (Service.Client.error_message e)
    | Ok client -> (
        Fun.protect ~finally:(fun () -> Service.Client.close client) @@ fun () ->
        match Service.Client.rpc_raw ~deadline client metrics_req with
        | Error e -> Error (Service.Client.error_message e)
        | Ok line -> (
            match
              Option.bind (Result.to_option (Service.Json.parse line)) Service.Client.metrics_text
            with
            | Some text -> Ok text
            | None -> Error ("unexpected reply: " ^ line)))
  in
  let find samples name lbls =
    List.find_map
      (fun (n, ls, v) ->
        if n = name && List.for_all (fun (k, x) -> List.assoc_opt k ls = Some x) lbls then
          Some v
        else None)
      samples
  in
  let sum samples name =
    List.fold_left
      (fun acc (n, _, v) -> if n = name then acc +. v else acc)
      0.0 samples
  in
  (* one sliding window for the fleet, one per worker, fed with counter
     deltas between scrapes so the rate reflects the last W seconds *)
  let fleet_win = Obs.Window.create ~seconds:window () in
  let fleet_last = ref nan in
  let worker_wins : (string, Obs.Window.t * float ref) Hashtbl.t = Hashtbl.create 8 in
  let bump win last now total =
    if Float.is_nan !last then last := total
    else begin
      let d = int_of_float (Float.max 0.0 (total -. !last)) in
      last := total;
      Obs.Window.add ~n:d win ~now
    end;
    Obs.Window.rate win ~now
  in
  let ms v = match v with Some x when not (Float.is_nan x) -> Printf.sprintf "%8.2f" (1000.0 *. x) | _ -> "       -" in
  let failures = ref 0 and ticks = ref 0 in
  let tick () =
    incr ticks;
    let now = Unix.gettimeofday () in
    match scrape () with
    | Error msg ->
        incr failures;
        Printf.printf "top: scrape failed: %s\n%!" msg
    | Ok text ->
        let samples =
          String.split_on_char '\n' text |> List.filter_map Obs.Exposition.parse_line
        in
        let workers =
          List.filter_map
            (fun (n, ls, _) ->
              if n = "cluster_worker_up" then List.assoc_opt "worker" ls else None)
            samples
          |> List.sort_uniq (fun a b ->
                 compare (int_of_string_opt a) (int_of_string_opt b))
        in
        if not plain then print_string "\027[2J\027[H";
        let clock = Unix.localtime now in
        if workers = [] then begin
          (* single daemon: no fleet series, report its own registry *)
          let total = sum samples "service_requests_total" in
          let rate = bump fleet_win fleet_last now total in
          Printf.printf "daemon %s @ %02d:%02d:%02d   req/s %.1f (last %ds)   p50 %s ms   p99 %s ms\n%!"
            (Service.Protocol.addr_to_string addr) clock.Unix.tm_hour clock.Unix.tm_min
            clock.Unix.tm_sec rate window
            (String.trim (ms (find samples "service_latency_seconds_p50" [])))
            (String.trim (ms (find samples "service_latency_seconds_p99" [])))
        end
        else begin
          let total = sum samples "cluster_forwarded_total" in
          let rate = bump fleet_win fleet_last now total in
          Printf.printf "fleet %s @ %02d:%02d:%02d   %d worker(s)   fwd/s %.1f (last %ds)   shed %.0f\n"
            (Service.Protocol.addr_to_string addr) clock.Unix.tm_hour clock.Unix.tm_min
            clock.Unix.tm_sec (List.length workers) rate window
            (sum samples "cluster_shed_total");
          Printf.printf "%-8s %-5s %-8s %8s %8s %8s %9s\n" "worker" "up" "breaker" "fwd/s"
            "p50(ms)" "p99(ms)" "restarts";
          List.iter
            (fun w ->
              let lbl = [ ("worker", w) ] in
              let win, last =
                match Hashtbl.find_opt worker_wins w with
                | Some p -> p
                | None ->
                    let p = (Obs.Window.create ~seconds:window (), ref nan) in
                    Hashtbl.add worker_wins w p;
                    p
              in
              let fwd = Option.value ~default:0.0 (find samples "cluster_forwarded_total" lbl) in
              let wrate = bump win last now fwd in
              Printf.printf "%-8s %-5s %-8s %8.1f %s %s %9.0f\n" w
                (match find samples "cluster_worker_up" lbl with
                | Some 1.0 -> "up"
                | _ -> "DOWN")
                (match find samples "cluster_breaker_open" lbl with
                | Some 1.0 -> "open"
                | _ -> "closed")
                wrate
                (ms (find samples "service_latency_seconds_p50" lbl))
                (ms (find samples "service_latency_seconds_p99" lbl))
                (Option.value ~default:0.0 (find samples "cluster_worker_restarts" lbl)))
            workers;
          flush stdout
        end
  in
  let rec loop i =
    tick ();
    if count = 0 || i < count then begin
      Unix.sleepf interval;
      loop (i + 1)
    end
  in
  loop 1;
  if !failures = !ticks then 1 else 0

let top_cmd =
  let interval =
    Arg.(value & opt float 2.0 & info [ "interval"; "i" ] ~docv:"SECONDS"
           ~doc:"Seconds between scrapes.")
  in
  let count =
    Arg.(value & opt int 0 & info [ "count"; "n" ] ~docv:"N"
           ~doc:"Stop after N scrapes (0 = run until interrupted).")
  in
  let window =
    Arg.(value & opt int 10 & info [ "window" ] ~docv:"SECONDS"
           ~doc:"Sliding window, in seconds, for the req/s rates.")
  in
  let plain =
    Arg.(value & flag & info [ "plain" ]
           ~doc:"Append each refresh instead of redrawing the screen (for logs and CI).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live view of a cluster (or single daemon): per-worker request rates over a \
             sliding window, latency quantiles, breaker and supervision state, refreshed \
             from the federated metrics endpoint")
    Term.(const top_run $ addr_arg $ interval $ count $ window $ plain)

(* loadgen: concurrent load against a daemon or cluster *)

let loadgen_run addr instance_files connections duration stages law cap window out quiet =
  if connections < 1 then die ~code:1 "need at least one connection";
  if duration <= 0.0 then die ~code:1 "duration must be positive";
  let stages = max 1 (min stages connections) in
  let log = if quiet then null_ppf else Format.err_formatter in
  let instances =
    match instance_files with
    | [] ->
        [
          Instance_io.to_string Workload.Scenarios.example_a;
          Instance_io.to_string Workload.Scenarios.fig10_system;
          Instance_io.to_string (Workload.Scenarios.pattern_chain ~stages:3 ());
          Instance_io.to_string (Workload.Scenarios.pattern_chain ~stages:5 ());
        ]
    | files -> List.map read_text files
  in
  let request_lines =
    instances
    |> List.map (fun text ->
           Service.Json.render (Service.Client.solve_request ~law ?cap ~instance:text ()))
    |> Array.of_list
  in
  let registry = Obs.Metrics.create_registry () in
  let latency =
    Obs.Metrics.Histogram.create ~registry ~help:"client-observed request latency, seconds"
      ~buckets:[| 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0 |]
      "loadgen_request_seconds"
  in
  let win = Obs.Window.create ~seconds:window () in
  let ok = Atomic.make 0
  and errors = Atomic.make 0
  and transport = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let t_end = t0 +. duration in
  let stage_len = duration /. float_of_int stages in
  let stop = Atomic.make false in
  let worker i () =
    (* staged ramp: thread i joins at the start of its stage *)
    let stage = i * stages / connections in
    let start_at = t0 +. (float_of_int stage *. stage_len) in
    let now = Unix.gettimeofday () in
    if start_at > now then Thread.delay (start_at -. now);
    let conn = ref None in
    let rec get_conn attempt =
      if Atomic.get stop || Unix.gettimeofday () >= t_end then None
      else
        match !conn with
        | Some c -> Some c
        | None -> (
            match Service.Client.connect ~deadline:(Unix.gettimeofday () +. 2.0) addr with
            | Ok c ->
                conn := Some c;
                Some c
            | Error _ ->
                Atomic.incr transport;
                Thread.delay
                  (Supervise.Backoff.delay Supervise.Backoff.default_retry ~seed:i ~attempt:(min attempt 3));
                get_conn (attempt + 1))
    in
    let k = ref (i mod Array.length request_lines) in
    while (not (Atomic.get stop)) && Unix.gettimeofday () < t_end do
      match get_conn 0 with
      | None -> ()
      | Some c -> (
          let line = request_lines.(!k mod Array.length request_lines) in
          incr k;
          let before = Unix.gettimeofday () in
          match Service.Client.rpc_raw ~deadline:(before +. 5.0) c line with
          | Ok reply ->
              Obs.Metrics.Histogram.observe latency (Unix.gettimeofday () -. before);
              Obs.Window.add win ~now:(Unix.gettimeofday ());
              if Result.fold ~ok:Service.Client.reply_ok ~error:(fun _ -> false) (Service.Json.parse reply)
              then Atomic.incr ok
              else Atomic.incr errors
          | Error _ ->
              Atomic.incr transport;
              (match !conn with Some c -> Service.Client.close c | None -> ());
              conn := None)
    done;
    match !conn with Some c -> Service.Client.close c | None -> ()
  in
  let threads = List.init connections (fun i -> Thread.create (worker i) ()) in
  let peak = ref 0.0 in
  let rec report () =
    let now = Unix.gettimeofday () in
    if now < t_end then begin
      Thread.delay (Float.min 1.0 (t_end -. now));
      let now = Unix.gettimeofday () in
      let rate = Obs.Window.rate win ~now in
      if rate > !peak then peak := rate;
      let stage = min (stages - 1) (int_of_float ((now -. t0) /. stage_len)) in
      let active = (stage + 1) * connections / stages in
      Format.fprintf log
        "loadgen: t=%5.1fs stage %d/%d conns=%d rate=%8.1f req/s ok=%d err=%d transport=%d@."
        (now -. t0) (stage + 1) stages (max 1 active) rate (Atomic.get ok) (Atomic.get errors)
        (Atomic.get transport);
      report ()
    end
  in
  report ();
  Atomic.set stop true;
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  let total = Obs.Metrics.Histogram.count latency in
  let q p = Obs.Metrics.Histogram.quantile latency p in
  let num f = if Float.is_nan f then Service.Json.Null else Service.Json.Float f in
  let json =
    Service.Json.Obj
      [
        ("bench", Service.Json.String "cluster-loadgen");
        ("addr", Service.Json.String (Service.Protocol.addr_to_string addr));
        ("connections", Service.Json.Int connections);
        ("stages", Service.Json.Int stages);
        ("duration_s", Service.Json.Float elapsed);
        ("instances", Service.Json.Int (Array.length request_lines));
        ("requests", Service.Json.Int total);
        ("ok", Service.Json.Int (Atomic.get ok));
        ("errors", Service.Json.Int (Atomic.get errors));
        ("transport_failures", Service.Json.Int (Atomic.get transport));
        ("throughput_rps", num (float_of_int total /. elapsed));
        ("window_rps_peak", num !peak);
        ( "latency_s",
          Service.Json.Obj
            [
              ( "mean",
                num
                  (if total = 0 then Float.nan
                   else Obs.Metrics.Histogram.sum latency /. float_of_int total) );
              ("p50", num (q 0.50));
              ("p90", num (q 0.90));
              ("p99", num (q 0.99));
            ] );
      ]
  in
  let rendered = Service.Json.render json in
  (match out with
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc rendered;
          Out_channel.output_char oc '\n')
  | None -> ());
  print_endline rendered;
  Format.fprintf log "loadgen: %d requests in %.1f s (%.1f req/s), p50=%.4fs p99=%.4fs@." total
    elapsed
    (float_of_int total /. elapsed)
    (q 0.50) (q 0.99);
  if Atomic.get ok = 0 then 1 else 0

let loadgen_cmd =
  let instances =
    Arg.(value & opt_all file [] & info [ "instance"; "i" ] ~docv:"FILE"
           ~doc:"Instance file(s) to cycle through (repeatable; default: four built-in \
                 scenarios of increasing size).")
  in
  let connections =
    Arg.(value & opt int 8 & info [ "connections"; "c" ] ~docv:"N"
           ~doc:"Concurrent client connections at full ramp.")
  in
  let duration =
    Arg.(value & opt float 10.0 & info [ "duration"; "d" ] ~docv:"SECONDS" ~doc:"Total run time.")
  in
  let stages =
    Arg.(value & opt int 4 & info [ "stages" ] ~docv:"K"
           ~doc:"Ramp stages: connection K/N of the fleet joins at stage K.")
  in
  let cap =
    Arg.(value & opt (some int) None & info [ "cap" ] ~doc:"Pattern and marking exploration bound.")
  in
  let window =
    Arg.(value & opt int 5 & info [ "window" ] ~docv:"SECONDS"
           ~doc:"Sliding window of the live throughput readout.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Write the result JSON here as well as stdout (e.g. BENCH_cluster.json).")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No live readout on stderr.") in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Generate staged concurrent load against a daemon or cluster; report live \
             sliding-window throughput and exact latency quantiles")
    Term.(const loadgen_run $ addr_arg $ instances $ connections $ duration $ stages
          $ law_arg ~doc:"Law for the generated solve requests." $ cap $ window $ out $ quiet)
