(* cluster: router + supervised worker fleet *)

open Cmdliner
open Common

let cluster_run addr workers sock_dir injects cache max_inflight wall request_deadline heartbeat
    restarts quiet trace flight_dir =
  if workers < 1 then die ~code:1 "need at least one worker";
  let log = if quiet then null_ppf else Format.err_formatter in
  let dir = match sock_dir with Some d -> d | None -> Filename.get_temp_dir_name () in
  (match flight_dir with
  | Some d when not (Sys.file_exists d) -> (
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  | _ -> ());
  (* with --trace, each worker writes its own Chrome export on drain; the
     router merges them with its own after the fleet shuts down *)
  let worker_trace i =
    match trace with
    | None -> None
    | Some _ ->
        Some (Filename.concat dir (Printf.sprintf "cluster-w%d-%d.trace.json" (Unix.getpid ()) i))
  in
  let inject_tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      match String.index_opt s ':' with
      | Some i -> (
          match int_of_string_opt (String.sub s 0 i) with
          | Some idx when idx >= 0 && idx < workers ->
              Hashtbl.replace inject_tbl idx (String.sub s (i + 1) (String.length s - i - 1))
          | _ -> die ~code:1 (Printf.sprintf "--inject %S: index out of range" s))
      | None -> die ~code:1 (Printf.sprintf "--inject %S: expected IDX:SPEC (see EXPERIMENTS.md)" s))
    injects;
  (* workers inherit our environment minus any inject spec aimed at the
     experiments layer of this process; per-worker rules are appended *)
  let base_env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun kv -> not (Supervise.Inject.is_binding kv))
    |> Array.of_list
  in
  let self = Sys.executable_name in
  let specs =
    Array.init workers (fun i ->
        let path = Filename.concat dir (Printf.sprintf "cluster-w%d-%d.sock" (Unix.getpid ()) i) in
        let argv =
          List.concat
            [
              [ self; "serve"; "--socket"; "unix:" ^ path; "--cache"; string_of_int cache ];
              (match max_inflight with Some m -> [ "--max-inflight"; string_of_int m ] | None -> []);
              (match wall with Some w -> [ "--wall"; string_of_float w ] | None -> []);
              (match worker_trace i with Some p -> [ "--trace"; p ] | None -> []);
              (match flight_dir with
              | Some d -> [ "--flight"; Filename.concat d (Printf.sprintf "worker-%d.flight.json" i) ]
              | None -> []);
              (if quiet then [ "--quiet" ] else []);
            ]
          |> Array.of_list
        in
        let env =
          let env =
            match Hashtbl.find_opt inject_tbl i with
            | Some spec -> Array.append base_env [| Supervise.Inject.var ^ "=" ^ spec |]
            | None -> base_env
          in
          if trace = None then env
          else Array.append env [| Printf.sprintf "OBS_PROCESS_NAME=worker %d" i |]
        in
        { Cluster.Supervisor.argv; env; addr = Service.Protocol.Unix_domain path })
  in
  let backoff = { Supervise.Backoff.default_restart with max_attempts = restarts } in
  let sup = Cluster.Supervisor.start ~backoff ~heartbeat_period:heartbeat ~log specs in
  if not (Cluster.Supervisor.wait_up ~deadline:(Unix.gettimeofday () +. 15.0) sup) then
    Format.fprintf log "cluster: warning: not every worker is up yet; serving anyway@.";
  let config = { (Cluster.Router.default_config ()) with request_deadline; log } in
  let router = Cluster.Router.create config sup in
  if trace <> None then begin
    Obs.Trace.clear ();
    Obs.Trace.set_enabled true
  end;
  (* serve drains the fleet before returning, so the workers' per-process
     trace exports exist by the time we merge them with our own *)
  let merge_traces () =
    match trace with
    | None -> ()
    | Some path ->
        Obs.Trace.set_enabled false;
        let own = Obs.Trace.to_chrome_json ~pid:(Unix.getpid ()) ~process_name:"router" () in
        let worker_docs =
          List.init workers (fun i ->
              match worker_trace i with
              | None -> None
              | Some p -> (
                  match In_channel.with_open_text p In_channel.input_all with
                  | doc ->
                      (try Sys.remove p with Sys_error _ -> ());
                      Some doc
                  | exception Sys_error _ -> None))
          |> List.filter_map Fun.id
        in
        let merged = Obs.Trace.merge_chrome (own :: worker_docs) in
        Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc merged);
        Format.fprintf log "cluster: wrote merged trace (%d process(es)) to %s@."
          (1 + List.length worker_docs) path
  in
  match Cluster.Router.serve router addr with
  | () ->
      merge_traces ();
      0
  | exception Unix.Unix_error (err, fn, arg) ->
      Cluster.Supervisor.shutdown sup;
      merge_traces ();
      cannot_serve addr (err, fn, arg)

let cmd =
  let workers =
    Arg.(value & opt int 4 & info [ "workers"; "w" ] ~docv:"N" ~doc:"Worker processes to run.")
  in
  let sock_dir =
    Arg.(value & opt (some dir) None & info [ "socket-dir" ] ~docv:"DIR"
           ~doc:"Directory for the workers' Unix-domain sockets (default: \\$TMPDIR).")
  in
  let injects =
    Arg.(value & opt_all string [] & info [ "inject" ] ~docv:"IDX:SPEC"
           ~doc:"Set SUPERVISE_INJECT=SPEC for worker IDX (repeatable; grammar in \
                 EXPERIMENTS.md), e.g. 0:kill-after=25.")
  in
  let cache =
    Arg.(value & opt int 256 & info [ "cache" ] ~docv:"N" ~doc:"Per-worker LRU cache capacity.")
  in
  let max_inflight =
    Arg.(value & opt (some int) None & info [ "max-inflight" ] ~docv:"N"
           ~doc:"Per-worker concurrent-solve admission limit.")
  in
  let wall =
    Arg.(value & opt (some float) None & info [ "wall" ] ~docv:"SECONDS"
           ~doc:"Per-worker server-side wall budget for requests that carry none.")
  in
  let request_deadline =
    Arg.(value & opt float 30.0 & info [ "deadline" ] ~docv:"SECONDS"
           ~doc:"Router per-request budget: retries stop and the request is shed once it passes.")
  in
  let heartbeat =
    Arg.(value & opt float 1.0 & info [ "heartbeat" ] ~docv:"SECONDS"
           ~doc:"Worker health-check period.")
  in
  let restarts =
    Arg.(value & opt int 5 & info [ "max-restarts" ] ~docv:"N"
           ~doc:"Restart attempts before a crash-looping worker is marked dead.")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No supervision log on stderr.") in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Trace the whole fleet: the router records router:* spans, every request is \
                 forwarded with a trace context so worker spans share its trace id, and on \
                 drain the per-worker exports are merged with the router's into one \
                 Chrome-loadable $(docv).")
  in
  let flight_dir =
    Arg.(value & opt (some string) None & info [ "flight-dir" ] ~docv:"DIR"
           ~doc:"Arm each worker's crash flight recorder, dumping to \
                 $(docv)/worker-N.flight.json on death, exit or a typed-error burst.")
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Run a sharded fleet of query daemons behind one consistent-hashing router \
             (supervision, retries, circuit breaking; SIGTERM drains the whole fleet)")
    Term.(const cluster_run $ addr_arg $ workers $ sock_dir $ injects $ cache $ max_inflight
          $ wall $ request_deadline $ heartbeat $ restarts $ quiet $ trace $ flight_dir)
