(* Command-line front end: analyse instances, run simulations, regenerate
   the paper's experiments. *)

open Cmdliner
open Streaming

let model_conv =
  let parse = function
    | "overlap" -> Ok Model.Overlap
    | "strict" -> Ok Model.Strict
    | s -> Error (`Msg (Printf.sprintf "unknown model %S (use overlap|strict)" s))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Model.to_string m))

let model_arg =
  Arg.(value & opt model_conv Model.Overlap & info [ "model"; "m" ] ~docv:"MODEL"
         ~doc:"Execution model: overlap or strict.")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"INSTANCE" ~doc:"Instance file.")

let load path =
  match Instance_io.parse_file path with
  | Ok mapping -> mapping
  | Error msg ->
      Format.eprintf "error: %s@." msg;
      exit 2

(* --trace FILE: record span timelines for the run and export them as a
   Chrome trace_event file (chrome://tracing, Perfetto). *)

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record a span timeline of the run and write it to $(docv) in Chrome \
               trace_event JSON (open in chrome://tracing or Perfetto).")

let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
      Obs.Trace.clear ();
      Obs.Trace.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Obs.Trace.set_enabled false;
          Obs.Trace.write_chrome path;
          Format.eprintf "trace: wrote %d events to %s@."
            (List.length (Obs.Trace.events ())) path)
        f

(* analyze *)

(* Typed solver failures reach the user as one actionable line (exit 3),
   never as a raw exception backtrace. *)
let solver_error_exit ~cap err =
  Format.eprintf "error: %s@." (Supervise.Error.to_string err);
  (match err with
  | Supervise.Error.State_space_exceeded _ ->
      Format.eprintf
        "hint: the marking space does not fit the exploration bound; retry with a larger --cap \
         (currently %d), reduce the replication factors, or use the overlap model's per-column \
         decomposition@."
        cap
  | Supervise.Error.No_convergence _ ->
      Format.eprintf "hint: the iterative solver stalled; a looser tolerance may help@."
  | Supervise.Error.Non_ergodic _ ->
      Format.eprintf "hint: the marking chain has no unique recurrent class@."
  | Supervise.Error.Numerical _ | Supervise.Error.Budget_exhausted _ -> ());
  exit 3

let analyze_run path model cap with_expo with_utilization with_sensitivity =
  let mapping = load path in
  Format.printf "%a" Mapping.pp mapping;
  let a = Deterministic.analyse mapping model in
  Format.printf "model                 : %s@." (Model.to_string model);
  Format.printf "rows (paths)          : %d@." (Mapping.rows mapping);
  Format.printf "deterministic period  : %.6g per data set@." a.Deterministic.period;
  Format.printf "deterministic rate    : %.6g data sets per time unit@." a.Deterministic.throughput;
  Format.printf "max resource cycle    : %.6g (%s)@." a.Deterministic.mct a.Deterministic.bottleneck;
  if Deterministic.has_critical_resource a then
    Format.printf "critical resource     : yes (the bottleneck is a physical resource)@."
  else
    Format.printf "critical resource     : NO (gap %.2f%%: replication alone limits the rate)@."
      (100.0 *. Deterministic.critical_resource_gap a);
  if with_expo then begin
    let expo =
      try
        match model with
        | Model.Overlap -> Expo.overlap_throughput mapping
        | Model.Strict -> Expo.strict_throughput ~cap mapping
      with Supervise.Error.Solver_error err -> solver_error_exit ~cap err
    in
    Format.printf "exponential rate      : %.6g@." expo;
    Format.printf "N.B.U.E. bounds       : [%.6g, %.6g] (Theorem 7)@." expo
      a.Deterministic.throughput
  end;
  if with_utilization then begin
    Format.printf "-- resource utilization (deterministic steady state) --@.";
    Format.printf "%a" Utilization.pp (Utilization.analyse mapping model)
  end;
  if with_sensitivity then begin
    Format.printf "-- upgrade gains (each resource 25%% faster, deterministic) --@.";
    Format.printf "%a" Sensitivity.pp (Sensitivity.upgrade_gains mapping model)
  end;
  0

let analyze_cmd =
  let cap =
    Arg.(value & opt int 2_000_000 & info [ "cap" ]
           ~doc:"Marking exploration bound for the strict exponential analysis.")
  in
  let with_expo =
    Arg.(value & flag & info [ "exponential"; "e" ]
           ~doc:"Also compute the exponential-case throughput (may be expensive for strict).")
  in
  let with_utilization =
    Arg.(value & flag & info [ "utilization"; "u" ]
           ~doc:"Also report the busy fraction of every resource ring.")
  in
  let with_sensitivity =
    Arg.(value & flag & info [ "sensitivity"; "s" ]
           ~doc:"Also rank the resources by the throughput gain of a 25% speedup.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Deterministic (and optionally exponential) throughput of an instance")
    Term.(const analyze_run $ file_arg $ model_arg $ cap $ with_expo $ with_utilization
          $ with_sensitivity)

(* simulate *)

let law_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "deterministic" ] -> Ok `Deterministic
    | [ "exponential" ] -> Ok `Exponential
    | [ "uniform" ] -> Ok (`Uniform 0.5)
    | [ "uniform"; w ] -> (
        match float_of_string_opt w with
        | Some w when w > 0.0 && w <= 1.0 -> Ok (`Uniform w)
        | _ -> Error (`Msg "uniform:W needs a half-width W in (0,1]"))
    | [ "gamma"; k ] -> (
        match float_of_string_opt k with
        | Some k when k > 0.0 -> Ok (`Gamma k)
        | _ -> Error (`Msg "gamma:K needs a positive shape"))
    | [ "gauss"; sigma ] -> (
        match float_of_string_opt sigma with
        | Some s when s > 0.0 -> Ok (`Gauss s)
        | _ -> Error (`Msg "gauss:S needs a positive relative sigma"))
    | [ "erlang"; k ] -> (
        match int_of_string_opt k with
        | Some k when k >= 1 -> Ok (`Erlang k)
        | _ -> Error (`Msg "erlang:K needs a positive integer phase count"))
    | [ "hyperexp"; scv ] -> (
        match float_of_string_opt scv with
        | Some c when c > 1.0 -> Ok (`Hyperexp c)
        | _ -> Error (`Msg "hyperexp:SCV needs a squared coefficient of variation > 1"))
    | _ -> Error (`Msg (Printf.sprintf "unknown law %S" s))
  in
  let print ppf = function
    | `Deterministic -> Format.pp_print_string ppf "deterministic"
    | `Exponential -> Format.pp_print_string ppf "exponential"
    | `Uniform w -> Format.fprintf ppf "uniform:%g" w
    | `Gamma k -> Format.fprintf ppf "gamma:%g" k
    | `Gauss s -> Format.fprintf ppf "gauss:%g" s
    | `Erlang k -> Format.fprintf ppf "erlang:%d" k
    | `Hyperexp c -> Format.fprintf ppf "hyperexp:%g" c
  in
  Arg.conv (parse, print)

let family_of_law = function
  | `Deterministic -> fun mu -> Dist.Deterministic mu
  | `Exponential -> Dist.exponential_of_mean
  | `Uniform w -> fun mu -> Dist.Uniform ((1.0 -. w) *. mu, (1.0 +. w) *. mu)
  | `Gamma k -> fun mu -> Dist.with_mean (Dist.Gamma (k, 1.0)) mu
  | `Gauss s -> fun mu -> Dist.Normal_trunc (mu, s *. mu)
  | `Erlang k -> fun mu -> Dist.with_mean (Dist.Erlang (k, 1.0)) mu
  | `Hyperexp scv ->
      (* balanced two-branch hyperexponential with the requested variance *)
      let w = sqrt ((scv -. 1.0) /. (scv +. 1.0)) in
      let p = 0.5 *. (1.0 +. w) in
      fun mu -> Dist.with_mean (Dist.Hyperexp [ (p, 2.0 *. p); (1.0 -. p, 2.0 *. (1.0 -. p)) ]) mu

let simulate_run path model law data_sets seed engine =
  let mapping = load path in
  let family = family_of_law law in
  let laws = Laws.of_family mapping ~family in
  let rho =
    match engine with
    | `Des ->
        Des.Pipeline_sim.throughput mapping model ~timing:(Des.Pipeline_sim.Independent laws)
          ~seed ~data_sets
    | `Eg_sim -> Teg_sim.throughput mapping model ~laws ~seed ~data_sets
  in
  Format.printf "simulated throughput  : %.6g (%s, %d data sets, seed %d)@." rho
    (Model.to_string model) data_sets seed;
  let det = Deterministic.throughput mapping model in
  Format.printf "deterministic bound   : %.6g (ratio %.3f)@." det (rho /. det);
  0

let simulate_cmd =
  let law =
    Arg.(value & opt law_conv `Exponential & info [ "law"; "l" ] ~docv:"LAW"
           ~doc:"Law family: deterministic, exponential, uniform[:W], gamma:K, gauss:S, erlang:K, hyperexp:SCV.")
  in
  let data_sets =
    Arg.(value & opt int 20_000 & info [ "data-sets"; "n" ] ~doc:"Number of data sets.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let engine_conv =
    Arg.conv
      ( (function
        | "des" -> Ok `Des
        | "eg_sim" -> Ok `Eg_sim
        | s -> Error (`Msg (Printf.sprintf "unknown engine %S (des|eg_sim)" s))),
        fun ppf e -> Format.pp_print_string ppf (match e with `Des -> "des" | `Eg_sim -> "eg_sim")
      )
  in
  let engine =
    Arg.(value & opt engine_conv `Des & info [ "engine" ] ~doc:"Simulation engine: des or eg_sim.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Estimate the throughput of an instance by simulation")
    Term.(const simulate_run $ file_arg $ model_arg $ law $ data_sets $ seed $ engine)

(* bounds *)

let bounds_run path model =
  let mapping = load path in
  let b =
    try Bounds.compute ~strict_cap:2_000_000 mapping model
    with Supervise.Error.Solver_error err -> solver_error_exit ~cap:2_000_000 err
  in
  Format.printf "Theorem 7 bounds (%s model):@." (Model.to_string model);
  Format.printf "  deterministic upper bound : %.6g@." b.Bounds.upper;
  Format.printf "  exponential lower bound   : %.6g@." b.Bounds.lower;
  Format.printf "  relative width            : %.1f%%@." (100.0 *. Bounds.width b);
  Format.printf "Any N.B.U.E. operation-time law lands inside; exact Erlang values:@.";
  List.iter
    (fun k ->
      let v =
        try Throughput.evaluate ~cap:2_000_000 (Throughput.Erlang_times k) mapping model
        with Supervise.Error.Solver_error err -> solver_error_exit ~cap:2_000_000 err
      in
      Format.printf "  erlang-%d (scv %.2f)        : %.6g@." k (1.0 /. float_of_int k) v)
    [ 2; 4 ];
  0

let bounds_cmd =
  Cmd.v
    (Cmd.info "bounds" ~doc:"N.B.U.E. throughput bounds of an instance (Theorem 7)")
    Term.(const bounds_run $ file_arg $ model_arg)

(* experiment *)

let experiment_run id full trace =
  with_trace trace @@ fun () ->
  let quick = not full in
  match id with
  | "all" ->
      Experiments.Registry.run_all ~quick Format.std_formatter;
      0
  | id -> (
      match Experiments.Registry.find id with
      | Some e ->
          e.Experiments.Registry.run ~quick Format.std_formatter;
          0
      | None ->
          Format.eprintf "unknown experiment %S; try 'list'@." id;
          1)

let experiment_cmd =
  let id =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID"
           ~doc:"Experiment id (see 'list'), or 'all'.")
  in
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Run at full size (slower, closer to the paper).")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a table or figure of the paper")
    Term.(const experiment_run $ id $ full $ trace_arg)

(* experiments: the supervised, journaled, resumable runner *)

(* the experiments-layer SUPERVISE_INJECT rules (fail/flaky/degrade);
   the full grammar, shared with the service and cluster layers, is
   documented in EXPERIMENTS.md *)
let inject_of_env () =
  match Sys.getenv_opt "SUPERVISE_INJECT" with
  | None | Some "" -> None
  | Some spec ->
      let rules =
        String.split_on_char ',' spec
        |> List.filter_map (fun rule ->
               match String.index_opt rule '=' with
               | None -> None
               | Some i ->
                   let kind = String.sub rule 0 i in
                   let target = String.sub rule (i + 1) (String.length rule - i - 1) in
                   let exp, point =
                     match String.index_opt target ':' with
                     | None -> (target, None)
                     | Some j ->
                         ( String.sub target 0 j,
                           Some (String.sub target (j + 1) (String.length target - j - 1)) )
                   in
                   (match kind with
                   | "fail" -> Some (`Fail, exp, point)
                   | "flaky" | "degrade" -> Some (`Flaky, exp, point)
                   | _ -> None))
      in
      if rules = [] then None
      else
        Some
          (fun ~exp ~point ~attempt ->
            List.iter
              (fun (kind, e, p) ->
                if e = exp && (match p with None -> true | Some p -> p = point) then
                  if kind = `Fail || attempt = 0 then
                    Supervise.Error.raise_
                      (Supervise.Error.Numerical
                         { what = "injected fault"; where = exp ^ "/" ^ point }))
              rules)

let experiments_run ids all full journal resume wall trace =
  with_trace trace @@ fun () ->
  let quick = not full in
  if resume && journal = None then begin
    Format.eprintf "error: --resume requires --journal@.";
    exit 2
  end;
  let entries =
    if all then Experiments.Registry.all
    else
      List.map
        (fun id ->
          match Experiments.Registry.find id with
          | Some e -> e
          | None ->
              Format.eprintf "unknown experiment %S; try 'list'@." id;
              exit 2)
        ids
  in
  if entries = [] then begin
    Format.eprintf "error: no experiments selected (pass ids or --all)@.";
    exit 2
  end;
  let point_budget = Option.map (fun wall -> Supervise.Budget.create ~wall ()) wall in
  let health =
    Experiments.Registry.run_entries ~quick ?journal ~resume ?point_budget
      ?inject:(inject_of_env ()) entries Format.std_formatter
  in
  if health.Experiments.Runner.failed > 0 then begin
    Format.eprintf "error: %d point(s) failed for good; the journal keeps the completed ones@."
      health.Experiments.Runner.failed;
    1
  end
  else begin
    if health.Experiments.Runner.degraded > 0 then
      Format.eprintf "warning: %d point(s) solved degraded (see the journal for details)@."
        health.Experiments.Runner.degraded;
    0
  end

let experiments_cmd =
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (see 'list').")
  in
  let all = Arg.(value & flag & info [ "all"; "a" ] ~doc:"Run every registered experiment.") in
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Run at full size (slower, closer to the paper).")
  in
  let journal =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE"
           ~doc:"Journal each completed point to $(docv) (JSONL, atomically rewritten).")
  in
  let resume =
    Arg.(value & flag & info [ "resume" ]
           ~doc:"Replay points already journaled (requires --journal); failed points are re-run.")
  in
  let wall =
    Arg.(value & opt (some float) None & info [ "wall" ] ~docv:"SECONDS"
           ~doc:"Wall-clock budget per solve attempt.")
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Run experiments under supervision: journaled, resumable, with degraded retries")
    Term.(const experiments_run $ ids $ all $ full $ journal $ resume $ wall $ trace_arg)

(* profile: run one experiment under tracing and print the span tree *)

let profile_run id full trace =
  match Experiments.Registry.find id with
  | None ->
      Format.eprintf "unknown experiment %S; try 'list'@." id;
      1
  | Some e ->
      let quick = not full in
      let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
      Obs.Trace.clear ();
      Obs.Trace.set_enabled true;
      let t0 = Obs.Clock.now_ns () in
      let finish () =
        let wall_ns = Obs.Clock.now_ns () - t0 in
        Obs.Trace.set_enabled false;
        (wall_ns, Obs.Trace.events ())
      in
      (match Experiments.Registry.run_entries ~quick ~resume:false ~err:null_ppf [ e ] null_ppf with
      | (_ : Experiments.Runner.health) -> ()
      | exception exn ->
          ignore (finish ());
          raise exn);
      let wall_ns, events = finish () in
      Format.printf "profile: %s (%s), wall %.3f s@." id
        (if quick then "quick" else "full")
        (Obs.Clock.ns_to_s wall_ns);
      Obs.Profile.print ~wall_ns Format.std_formatter events;
      (match trace with
      | None -> ()
      | Some path ->
          Obs.Trace.write_chrome path;
          Format.printf "trace: wrote %d events to %s@." (List.length events) path);
      0

let profile_cmd =
  let id =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID"
           ~doc:"Experiment id to profile (see 'list').")
  in
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Profile the full-size run (slower).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run one experiment under tracing and print a nested wall-time profile tree")
    Term.(const profile_run $ id $ full $ trace_arg)

(* list *)

let list_run () =
  List.iter
    (fun e ->
      Format.printf "%-8s %s@." e.Experiments.Registry.id e.Experiments.Registry.title)
    Experiments.Registry.all;
  0

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List the reproducible tables and figures") Term.(const list_run $ const ())

(* dot *)

let dot_run path model =
  let mapping = load path in
  let tpn = Tpn.build mapping model in
  Format.printf "%a" (Petrinet.Dot.pp ?rankdir:None) (Tpn.teg tpn);
  0

let dot_cmd =
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Print the timed Petri net of an instance in Graphviz format (cf. paper Figs 2-3)")
    Term.(const dot_run $ file_arg $ model_arg)

(* serve: the persistent throughput-query daemon *)

let addr_conv =
  Arg.conv
    ( (fun s ->
        match Service.Protocol.addr_of_string s with
        | Ok addr -> Ok addr
        | Error msg -> Error (`Msg msg)),
      fun ppf addr -> Format.pp_print_string ppf (Service.Protocol.addr_to_string addr) )

let addr_arg =
  Arg.(
    required
    & opt (some addr_conv) None
    & info [ "socket"; "s" ] ~docv:"ADDR"
        ~doc:"Service address: unix:PATH, tcp:HOST:PORT, or a bare socket path.")

let serve_run addr cache_capacity max_inflight max_frame wall quiet flight trace =
  let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
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
  let run () =
    match Service.Server.serve server addr with
    | () -> 0
    | exception Unix.Unix_error (err, fn, arg) ->
        Format.eprintf "error: cannot serve on %s: %s (%s %s)@."
          (Service.Protocol.addr_to_string addr) (Unix.error_message err) fn arg;
        2
  in
  match trace with
  | None -> run ()
  | Some path ->
      (* per-process export with our pid and a human name, so a cluster's
         worker exports merge into one multi-process timeline *)
      Obs.Trace.clear ();
      Obs.Trace.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Obs.Trace.set_enabled false;
          let name =
            match Sys.getenv_opt "OBS_PROCESS_NAME" with
            | Some n -> n
            | None -> Printf.sprintf "serve pid %d" (Unix.getpid ())
          in
          Obs.Trace.write_chrome ~pid:(Unix.getpid ()) ~process_name:name path)
        run

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

let service_law_conv =
  Arg.conv
    ( (fun s ->
        match Service.Engine.law_of_string s with Ok l -> Ok l | Error msg -> Error (`Msg msg)),
      fun ppf l -> Format.pp_print_string ppf (Service.Engine.law_to_string l) )

let query_run addr command instance model law cap wall simulate repeat fleet =
  let fail msg =
    Format.eprintf "error: %s@." msg;
    exit 1
  in
  let client =
    match Service.Client.connect addr with
    | Ok c -> c
    | Error e -> fail (Service.Client.error_message e)
  in
  Fun.protect ~finally:(fun () -> Service.Client.close client) @@ fun () ->
  let print_reply = function
    | Ok line ->
        print_endline line;
        ()
    | Error e -> fail (Service.Client.error_message e)
  in
  match command with
  | "ping" | "stats" | "shutdown" ->
      let request =
        Service.Json.Obj
          [ ("v", Service.Json.Int Service.Protocol.version); ("cmd", Service.Json.String command) ]
      in
      print_reply (Service.Client.rpc_raw client (Service.Json.render request));
      0
  | "metrics" -> (
      let request =
        Service.Json.Obj
          ([ ("v", Service.Json.Int Service.Protocol.version);
             ("cmd", Service.Json.String "metrics") ]
          @ if fleet then [ ("fleet", Service.Json.Bool true) ] else [])
      in
      match Service.Client.rpc_raw client (Service.Json.render request) with
      | Error e -> fail (Service.Client.error_message e)
      | Ok line -> (
          (* the reply wraps the exposition text in JSON; unwrap it so the
             output pipes straight into a Prometheus scrape file *)
          match
            Result.to_option (Service.Json.parse line)
            |> Fun.flip Option.bind (Service.Json.member "result")
            |> Fun.flip Option.bind (Service.Json.member "text")
            |> Fun.flip Option.bind (fun t -> Service.Json.to_string_opt t)
          with
          | Some text ->
              print_string text;
              0
          | None ->
              print_endline line;
              0))
  | "solve" -> (
      match instance with
      | None -> fail "solve needs an INSTANCE file (positional argument)"
      | Some path ->
          let text =
            match In_channel.with_open_text path In_channel.input_all with
            | text -> text
            | exception Sys_error msg -> fail msg
          in
          let request =
            Service.Client.solve_request ~model ~law ?cap ?wall ~simulate ~instance:text ()
          in
          let line = Service.Json.render request in
          for _ = 1 to repeat do
            print_reply (Service.Client.rpc_raw client line)
          done;
          0)
  | cmd -> fail (Printf.sprintf "unknown query command %S (ping|stats|metrics|solve|shutdown)" cmd)

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
  let law =
    Arg.(value & opt service_law_conv Service.Engine.Exponential & info [ "law"; "l" ] ~docv:"LAW"
           ~doc:"Law: deterministic, exponential or erlang:K.")
  in
  let cap =
    Arg.(value & opt (some int) None & info [ "cap" ] ~doc:"Marking exploration bound (strict).")
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
    Term.(const query_run $ addr_arg $ command $ instance $ model_arg $ law $ cap $ wall
          $ simulate $ repeat $ fleet)

(* optimize: search for a high-throughput mapping *)

let optimize_metric_conv =
  let parse = function
    | "deterministic" -> Ok Optimize.Objective.Deterministic
    | "exponential" -> Ok Optimize.Objective.Exponential
    | "strict" -> Ok Optimize.Objective.Strict
    | s ->
        Error (`Msg (Printf.sprintf "unknown metric %S (deterministic|exponential|strict)" s))
  in
  Arg.conv
    (parse, fun ppf m -> Format.pp_print_string ppf (Optimize.Objective.metric_name m))

let rungs_conv =
  let parse s =
    let parts = String.split_on_char ',' s |> List.filter (fun p -> p <> "") in
    if parts = [] then Error (`Msg "empty rung list")
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | p :: rest -> (
            match Optimize.Engine.rung_of_string p with
            | Ok r -> go (r :: acc) rest
            | Error msg -> Error (`Msg msg))
      in
      go [] parts
  in
  Arg.conv
    ( parse,
      fun ppf rungs ->
        Format.pp_print_string ppf
          (String.concat "," (List.map Optimize.Engine.rung_to_string rungs)) )

let optimize_run instance_file random stages procs inst_seed homogeneous metric rungs seed cap
    wall domains socket check jsonl trace =
  with_trace trace @@ fun () ->
  let app, platform =
    match (instance_file, random) with
    | Some path, false ->
        let mapping = load path in
        (Mapping.app mapping, Mapping.platform mapping)
    | None, true when homogeneous ->
        (* identical processors and links, heterogeneous works: the regime
           where the exhaustive composition sweep is provably optimal *)
        let g = Prng.create ~seed:inst_seed in
        let app =
          Application.create
            ~work:(Array.init stages (fun _ -> Prng.uniform g 1.0 10.0))
            ~files:(Array.init (stages - 1) (fun _ -> Prng.uniform g 0.2 2.0))
        in
        (app, Platform.fully_connected ~speeds:(Array.make procs 1.0) ~bw:1.0)
    | None, true ->
        let params =
          {
            Workload.Gen.i_stages = stages;
            i_procs = procs;
            i_comp_range = (1.0, 10.0);
            i_comm_range = (0.2, 2.0);
          }
        in
        Workload.Gen.random_instance (Prng.create ~seed:inst_seed) params
    | Some _, true ->
        Format.eprintf "error: give an INSTANCE file or --random, not both@.";
        exit 2
    | None, false ->
        Format.eprintf "error: optimize needs an INSTANCE file or --random@.";
        exit 2
  in
  let pool, owned =
    match domains with
    | Some d -> (Parallel.Pool.create ~domains:d, true)
    | None -> (Parallel.Pool.get (), false)
  in
  Fun.protect ~finally:(fun () -> if owned then Parallel.Pool.shutdown pool) @@ fun () ->
  let objective = Optimize.Objective.create ~cap ?wall ~seed metric in
  let client =
    match socket with
    | None -> None
    | Some addr -> (
        match Service.Client.connect addr with
        | Ok c -> Some c
        | Error e ->
            Format.eprintf "error: cannot reach the daemon: %s@."
              (Service.Client.error_message e);
            exit 2)
  in
  Fun.protect ~finally:(fun () -> Option.iter Service.Client.close client) @@ fun () ->
  let settings =
    {
      (Optimize.Search.default_settings ~pool ~objective
         ~procs:(List.init (Platform.n_processors platform) Fun.id))
      with
      Optimize.Search.seed;
      evaluator = Option.map (fun c -> Optimize.Remote.evaluator c ~objective) client;
    }
  in
  let run rungs =
    try Optimize.Engine.run ~rungs ~app ~platform settings
    with Supervise.Error.Solver_error err -> solver_error_exit ~cap err
  in
  let report = run rungs in
  Format.printf "metric     : %s@." report.Optimize.Engine.metric;
  Format.printf "rungs      : %s@."
    (String.concat "," (List.map Optimize.Engine.rung_to_string rungs));
  Format.printf "search     : %d candidates, %d evaluated, %d pruned, %d failed@."
    report.Optimize.Engine.candidates report.Optimize.Engine.evaluated
    report.Optimize.Engine.pruned report.Optimize.Engine.failed;
  (match report.Optimize.Engine.best with
  | None -> Format.printf "best       : none found@."
  | Some (cand, rho) ->
      Format.printf "best       : %s@." (Optimize.Candidate.key cand);
      Format.printf "throughput : %.6g data sets per time unit@." rho);
  (match jsonl with
  | None -> print_endline (Optimize.Engine.report_to_string report)
  | Some path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc (Optimize.Engine.report_to_string report);
      output_char oc '\n';
      close_out oc;
      Format.printf "record     : appended to %s@." path);
  if not check then 0
  else begin
    (* agreement smoke: the requested ladder must reach the exhaustive
       composition optimum (equality on homogeneous platforms; on
       heterogeneous ones the ladder may legitimately exceed it) *)
    let reference = run [ Optimize.Engine.Exhaustive ] in
    match (report.Optimize.Engine.best, reference.Optimize.Engine.best) with
    | Some (_, got), Some (_, want) ->
        let tol = 1e-6 *. Float.max 1.0 (Float.abs want) in
        if got >= want -. tol then begin
          Format.printf "check      : ladder %.6g >= exhaustive %.6g (ok)@." got want;
          0
        end
        else begin
          Format.eprintf "check FAILED: ladder %.6g < exhaustive %.6g@." got want;
          4
        end
    | _ ->
        Format.eprintf "check FAILED: a search found no mapping@.";
        4
  end

let optimize_cmd =
  let instance =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"INSTANCE"
           ~doc:"Instance file; its application and platform are searched over (the mapping it \
                 carries is ignored).")
  in
  let random =
    Arg.(value & flag & info [ "random" ]
           ~doc:"Generate a random instance (see --stages, --procs, --inst-seed) instead of \
                 reading a file.")
  in
  let stages =
    Arg.(value & opt int 3 & info [ "stages" ] ~docv:"N" ~doc:"Stages of the random instance.")
  in
  let procs =
    Arg.(value & opt int 6 & info [ "procs" ] ~docv:"M" ~doc:"Processors of the random instance.")
  in
  let inst_seed =
    Arg.(value & opt int 1 & info [ "inst-seed" ] ~docv:"SEED"
           ~doc:"Seed of the random instance generation.")
  in
  let homogeneous =
    Arg.(value & flag & info [ "homogeneous" ]
           ~doc:"Identical processors and links for the random instance — the regime where the \
                 exhaustive rung is provably optimal, used by the --check smoke.")
  in
  let metric =
    Arg.(value & opt optimize_metric_conv Optimize.Objective.Exponential
         & info [ "metric" ] ~docv:"METRIC"
             ~doc:"Objective: deterministic (critical cycles), exponential (Theorem 3/4, Overlap) \
                   or strict (supervised ladder).")
  in
  let rungs =
    Arg.(value & opt rungs_conv Optimize.Engine.default_rungs & info [ "rungs" ] ~docv:"RUNGS"
           ~doc:"Comma-separated search ladder: greedy, local, anneal, exhaustive (in order, \
                 sharing one incumbent and memo).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Seed of the annealing PRNG streams (and the strict metric's DES rung).")
  in
  let cap =
    Arg.(value & opt int 200_000 & info [ "cap" ]
           ~doc:"Pattern/marking exploration bound per candidate evaluation.")
  in
  let wall =
    Arg.(value & opt (some float) None & info [ "wall" ] ~docv:"SECONDS"
           ~doc:"Wall-clock budget per candidate (breaks bit-identity across pool sizes).")
  in
  let domains =
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N"
           ~doc:"Domain-pool size for candidate fan-out (default: the global pool). The result \
                 is bit-identical for every value.")
  in
  let socket =
    Arg.(value & opt (some addr_conv) None & info [ "socket"; "s" ] ~docv:"ADDR"
           ~doc:"Evaluate candidates through a running throughput daemon (batch requests) \
                 instead of in-process.")
  in
  let check =
    Arg.(value & flag & info [ "check" ]
           ~doc:"After the ladder, run the exhaustive rung on a fresh state and fail (exit 4) if \
                 the ladder's best falls below the composition optimum.")
  in
  let jsonl =
    Arg.(value & opt (some string) None & info [ "jsonl" ] ~docv:"FILE"
           ~doc:"Append the deterministic result record to $(docv) instead of printing it.")
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Search one-to-many replicated mappings for maximum throughput (greedy, local \
             search, annealing, exhaustive — bound-pruned, parallel, deterministic)")
    Term.(const optimize_run $ instance $ random $ stages $ procs $ inst_seed $ homogeneous
          $ metric $ rungs $ seed $ cap $ wall $ domains $ socket $ check $ jsonl $ trace_arg)

(* statespace: the million-state kernel smoke — sharded exploration and
   rotation-quotient solve cross-checked against the serial, unlumped
   path.  Exit code 5 signals a divergence (a correctness failure of the
   parallel or lumped kernel), distinct from cmdliner's own codes. *)

let statespace_run u v phases cap wall domains check_serial =
  let rate ~sender:_ ~receiver:_ = 1.0 in
  let budget = Supervise.Budget.create ?wall ?states:cap () in
  let exit_divergence = 5 in
  Parallel.Pool.with_pool ~domains @@ fun pool ->
  let serial_ok =
    if not check_serial then true
    else begin
      let base = Young.Pattern.build ~u ~v ~time:(fun ~sender:_ ~receiver:_ -> 1.0) in
      let teg =
        if phases = 1 then base
        else Petrinet.Expand.teg (Petrinet.Expand.erlang ~phases:(fun _ -> phases) base)
      in
      let serial = Petrinet.Marking.explore_graph ?cap ~budget teg in
      let sharded = Petrinet.Marking.explore_graph ?cap ~budget ~pool teg in
      let same =
        Petrinet.Marking.words serial.Petrinet.Marking.codec
        = Petrinet.Marking.words sharded.Petrinet.Marking.codec
        && serial.Petrinet.Marking.codes = sharded.Petrinet.Marking.codes
        && serial.Petrinet.Marking.row_ptr = sharded.Petrinet.Marking.row_ptr
        && serial.Petrinet.Marking.succ = sharded.Petrinet.Marking.succ
        && serial.Petrinet.Marking.via = sharded.Petrinet.Marking.via
      in
      Format.printf "serial vs sharded (%d domains): %s (%d states, %d edges)@." domains
        (if same then "identical" else "DIVERGED")
        (Petrinet.Marking.n_states serial)
        (Array.length serial.Petrinet.Marking.succ);
      same
    end
  in
  let lumped =
    Young.Pattern.supervised_inner_throughput ?cap ~budget ~pool ~lump:true ~phases ~u ~v ~rate
      ()
  in
  let full =
    Young.Pattern.supervised_inner_throughput ?cap ~budget ~lump:false ~phases ~u ~v ~rate ()
  in
  let rel =
    abs_float (lumped.Young.Pattern.throughput -. full.Young.Pattern.throughput)
    /. abs_float full.Young.Pattern.throughput
  in
  let lump_ok = rel <= 1e-9 in
  Format.printf "%dx%d ph%d: %d states, %d edges@." u v phases lumped.Young.Pattern.states
    lumped.Young.Pattern.edges;
  (match lumped.Young.Pattern.lump with
  | Some ls ->
      Format.printf "rotation quotient: %d -> %d classes (%.1fx)@."
        ls.Markov.Tpn_markov.lump_states ls.Markov.Tpn_markov.lump_classes
        (float_of_int ls.Markov.Tpn_markov.lump_states
        /. float_of_int ls.Markov.Tpn_markov.lump_classes)
  | None -> Format.printf "rotation quotient: not applicable@.");
  Format.printf "lumped    %.12g  (%s)@." lumped.Young.Pattern.throughput
    (Supervise.Provenance.describe lumped.Young.Pattern.provenance);
  Format.printf "unlumped  %.12g  (%s)@." full.Young.Pattern.throughput
    (Supervise.Provenance.describe full.Young.Pattern.provenance);
  Format.printf "lumped vs unlumped: %s (rel %.3g)@."
    (if lump_ok then "agree" else "DIVERGED")
    rel;
  if serial_ok && lump_ok then 0 else exit_divergence

let statespace_cmd =
  let u =
    Arg.(value & opt int 5 & info [ "u" ] ~docv:"U" ~doc:"Sender count of the pattern.")
  in
  let v =
    Arg.(value & opt int 6 & info [ "v" ] ~docv:"V" ~doc:"Receiver count (coprime with $(b,--u)).")
  in
  let phases =
    Arg.(value & opt int 1 & info [ "phases" ] ~docv:"P" ~doc:"Erlang phase count per transfer.")
  in
  let cap =
    Arg.(value & opt (some int) None & info [ "cap" ] ~docv:"N" ~doc:"State-space cap.")
  in
  let wall =
    Arg.(value & opt (some float) None & info [ "wall" ] ~docv:"SECONDS"
           ~doc:"Wall-clock budget for the whole check.")
  in
  let domains =
    Arg.(value & opt int 2 & info [ "domains" ] ~docv:"D"
           ~doc:"Domain-pool size for the sharded exploration.")
  in
  let check_serial =
    Arg.(value & flag & info [ "check-serial" ]
           ~doc:"Also explore serially and require the sharded marking graph to be byte-identical.")
  in
  Cmd.v
    (Cmd.info "statespace"
       ~doc:"State-space kernel smoke: sharded exploration and rotation-quotient solve of a u×v \
             pattern, cross-checked against the serial, unlumped path (exit 5 on divergence)")
    Term.(const statespace_run $ u $ v $ phases $ cap $ wall $ domains $ check_serial)

(* template *)

let template_run () =
  Format.printf "%a" Instance_io.print Workload.Scenarios.example_a;
  0

let template_cmd =
  Cmd.v
    (Cmd.info "template" ~doc:"Print a sample instance file (Example A) to stdout")
    Term.(const template_run $ const ())

(* cluster: router + supervised worker fleet *)

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let cluster_run addr workers sock_dir injects cache max_inflight wall request_deadline heartbeat
    restarts quiet trace flight_dir =
  let fail msg =
    Format.eprintf "error: %s@." msg;
    exit 1
  in
  if workers < 1 then fail "need at least one worker";
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
          | _ -> fail (Printf.sprintf "--inject %S: index out of range" s))
      | None -> fail (Printf.sprintf "--inject %S: expected IDX:SPEC (see EXPERIMENTS.md)" s))
    injects;
  (* workers inherit our environment minus any inject spec aimed at the
     experiments layer of this process; per-worker rules are appended *)
  let base_env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun kv -> not (String.length kv >= 16 && String.sub kv 0 16 = "SUPERVISE_INJECT"))
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
            | Some spec -> Array.append base_env [| "SUPERVISE_INJECT=" ^ spec |]
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
      Format.eprintf "error: cannot serve on %s: %s (%s %s)@."
        (Service.Protocol.addr_to_string addr) (Unix.error_message err) fn arg;
      2

let cluster_cmd =
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

(* top: a live fleet view over the federated metrics endpoint *)

let top_run addr interval count window plain =
  let metrics_req =
    Service.Json.render
      (Service.Json.Obj
         [
           ("v", Service.Json.Int Service.Protocol.version);
           ("cmd", Service.Json.String "metrics");
           ("fleet", Service.Json.Bool true);
         ])
  in
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
              Result.to_option (Service.Json.parse line)
              |> Fun.flip Option.bind (Service.Json.member "result")
              |> Fun.flip Option.bind (Service.Json.member "text")
              |> Fun.flip Option.bind Service.Json.to_string_opt
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
  let fail msg =
    Format.eprintf "error: %s@." msg;
    exit 1
  in
  if connections < 1 then fail "need at least one connection";
  if duration <= 0.0 then fail "duration must be positive";
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
    | files ->
        List.map
          (fun path ->
            match In_channel.with_open_text path In_channel.input_all with
            | text -> text
            | exception Sys_error msg -> fail msg)
          files
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
  and transport = Atomic.make 0
  and retried = Atomic.make 0 in
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
              if
                String.length reply >= 1
                && Service.Client.reply_ok
                     (match Service.Json.parse reply with Ok j -> j | Error _ -> Service.Json.Null)
              then Atomic.incr ok
              else begin
                Atomic.incr errors;
                Atomic.incr retried
              end
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
  let law =
    Arg.(value & opt service_law_conv Service.Engine.Exponential & info [ "law"; "l" ] ~docv:"LAW"
           ~doc:"Law for the generated solve requests.")
  in
  let cap =
    Arg.(value & opt (some int) None & info [ "cap" ] ~doc:"Marking exploration bound (strict).")
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
    Term.(const loadgen_run $ addr_arg $ instances $ connections $ duration $ stages $ law $ cap
          $ window $ out $ quiet)

(* tenants: the multi-tenant shared-platform tier *)

let load_multi path =
  match Instance_io.parse_multi_file path with
  | Ok decls -> decls
  | Error msg ->
      Format.eprintf "error: %s@." msg;
      exit 2

let multi_request ~cmd ~instance ~model ~law ~cap ~wall =
  Service.Json.Obj
    ([
       ("v", Service.Json.Int Service.Protocol.version);
       ("cmd", Service.Json.String cmd);
       ("instance", Service.Json.String instance);
       ("model", Service.Json.String (Model.to_string model));
       ("law", Service.Json.String (Service.Engine.law_to_string law));
     ]
    @ (match cap with Some c -> [ ("cap", Service.Json.Int c) ] | None -> [])
    @ match wall with Some w -> [ ("wall", Service.Json.Float w) ] | None -> [])

(* one multi-tenant RPC: prints the raw reply line, returns the parsed
   JSON so callers can turn typed outcomes into exit codes *)
let multi_rpc addr request =
  let fail msg =
    Format.eprintf "error: %s@." msg;
    exit 1
  in
  let client =
    match Service.Client.connect addr with
    | Ok c -> c
    | Error e -> fail (Service.Client.error_message e)
  in
  Fun.protect ~finally:(fun () -> Service.Client.close client) @@ fun () ->
  match Service.Client.rpc_raw client (Service.Json.render request) with
  | Error e -> fail (Service.Client.error_message e)
  | Ok line -> (
      print_endline line;
      match Service.Json.parse line with Ok j -> j | Error msg -> fail msg)

let tenants_generate_run tenants procs stage_range team_range floor_frac seed over_budget model
    out =
  if tenants < 1 then begin
    Format.eprintf "error: need at least one tenant@.";
    exit 1
  end;
  let p =
    {
      Workload.Gen.default_mix with
      Workload.Gen.mix_tenants = tenants;
      mix_procs = procs;
      mix_stage_range = stage_range;
      mix_team_range = team_range;
      mix_floor_frac = floor_frac;
    }
  in
  let g = Prng.create ~seed in
  let decls = Workload.Gen.random_tenant_mix ~model g p in
  let decls = if over_budget then Workload.Gen.with_over_budget ~model decls else decls in
  let text = Instance_io.multi_to_string decls in
  (match out with
  | Some path -> Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text)
  | None -> print_string text);
  0

let tenants_solve_run path model law cap wall socket check_des seed data_sets =
  match socket with
  | Some addr ->
      let instance =
        match In_channel.with_open_text path In_channel.input_all with
        | text -> text
        | exception Sys_error msg ->
            Format.eprintf "error: %s@." msg;
            exit 1
      in
      let reply =
        multi_rpc addr
          (multi_request ~cmd:"solve_multi" ~instance ~model ~law ~cap ~wall)
      in
      if Service.Client.reply_ok reply then 0
      else if Service.Client.reply_error_kind reply = Some "admission_rejected" then 5
      else 1
  | None -> (
      let decls = load_multi path in
      match Tenancy.Platform_share.create ~tenants:decls with
      | Error msg ->
          Format.eprintf "error: %s@." msg;
          exit 2
      | Ok ps ->
          let k = Tenancy.Platform_share.n_tenants ps in
          let cap = Option.value cap ~default:Service.Engine.default_cap in
          Format.printf "%-10s %8s %10s %12s %12s@." "tenant" "weight" "floor" "bound"
            "exponential";
          let violated = ref [] in
          for i = 0 to k - 1 do
            let d = Tenancy.Platform_share.decl ps i in
            let bound = Tenancy.Platform_share.bound ps ~tenant:i model in
            let expo = Tenancy.Platform_share.exponential_throughput ~cap ps ~tenant:i model in
            if bound < d.Instance_io.floor then
              violated := d.Instance_io.tenant_id :: !violated;
            Format.printf "%-10s %8.4f %10.6g %12.6g %12.6g%s@." d.Instance_io.tenant_id
              d.Instance_io.weight d.Instance_io.floor bound expo
              (if bound < d.Instance_io.floor then "  (floor violated)" else "")
          done;
          (match !violated with
          | [] -> ()
          | ids ->
              Format.printf "floor violations      : %s@." (String.concat ", " (List.rev ids)));
          (match check_des with
          | None -> if !violated = [] then () else exit 5
          | Some tol ->
              let estimates =
                Tenancy.Sim.cross_check ~cap ps model ~seed ~data_sets
              in
              Format.printf "-- DES cross-check (seed %d, %d data sets per tenant) --@." seed
                data_sets;
              let worst = ref 0.0 in
              List.iter
                (fun e ->
                  if e.Tenancy.Sim.rel_err > !worst then worst := e.Tenancy.Sim.rel_err;
                  Format.printf "%-10s des %12.6g exact %12.6g rel.err %6.2f%%@."
                    e.Tenancy.Sim.id e.Tenancy.Sim.des e.Tenancy.Sim.exact
                    (100.0 *. e.Tenancy.Sim.rel_err))
                estimates;
              if !worst > tol then begin
                Format.eprintf
                  "error: DES and exact per-tenant throughput diverge: %.2f%% > %.2f%%@."
                  (100.0 *. !worst) (100.0 *. tol);
                exit 6
              end;
              if !violated <> [] then exit 5);
          0)

let tenants_admit_run path model law socket expect_reject =
  let finish ~rejected =
    if expect_reject && not rejected then begin
      Format.eprintf "error: expected at least one rejection; every tenant was admitted@.";
      4
    end
    else 0
  in
  match socket with
  | Some addr ->
      let instance =
        match In_channel.with_open_text path In_channel.input_all with
        | text -> text
        | exception Sys_error msg ->
            Format.eprintf "error: %s@." msg;
            exit 1
      in
      let reply =
        multi_rpc addr (multi_request ~cmd:"admit" ~instance ~model ~law ~cap:None ~wall:None)
      in
      if not (Service.Client.reply_ok reply) then 1
      else
        let rejected =
          match
            Option.bind (Service.Client.reply_result reply) (Service.Json.member "steps")
          with
          | Some (Service.Json.List steps) ->
              List.exists
                (fun s ->
                  match Service.Json.member "admitted" s with
                  | Some (Service.Json.Bool b) -> not b
                  | _ -> false)
                steps
          | _ -> false
        in
        finish ~rejected
  | None -> (
      let decls = load_multi path in
      match Tenancy.Admission.sequence ~model decls with
      | Error msg ->
          Format.eprintf "error: %s@." msg;
          exit 2
      | Ok steps ->
          List.iter
            (fun (s : Tenancy.Admission.step) ->
              let id = s.Tenancy.Admission.decl.Instance_io.tenant_id in
              match s.Tenancy.Admission.rejection with
              | None ->
                  Format.printf "%-10s admitted  (bounds: %s)@." id
                    (String.concat ", "
                       (List.map
                          (fun (t, b) -> Printf.sprintf "%s=%.6g" t b)
                          s.Tenancy.Admission.bounds))
              | Some r ->
                  Format.printf "%-10s REJECTED  victim %s: bound %.6g < floor %.6g@." id
                    r.Tenancy.Admission.victim r.Tenancy.Admission.bound
                    r.Tenancy.Admission.floor)
            steps;
          let admitted = Tenancy.Admission.admitted steps in
          Format.printf "admitted              : %s@."
            (String.concat ", "
               (List.map (fun d -> d.Instance_io.tenant_id) admitted));
          finish
            ~rejected:(List.exists (fun (s : Tenancy.Admission.step) -> not s.Tenancy.Admission.admitted) steps))

let tenants_cmd =
  let multi_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"MIX"
           ~doc:"Multi-tenant instance file ([tenancy 1] block).")
  in
  let socket_opt =
    Arg.(value & opt (some addr_conv) None & info [ "socket"; "s" ] ~docv:"ADDR"
           ~doc:"Send the request to a running daemon or cluster instead of solving locally.")
  in
  let law =
    Arg.(value & opt service_law_conv Service.Engine.Exponential & info [ "law"; "l" ] ~docv:"LAW"
           ~doc:"Law for the daemon-side solve: deterministic, exponential or erlang:K.")
  in
  let generate =
    let tenants =
      Arg.(value & opt int 3 & info [ "tenants"; "k" ] ~docv:"K" ~doc:"Number of tenants.")
    in
    let procs =
      Arg.(value & opt int 8 & info [ "procs"; "p" ] ~docv:"M" ~doc:"Shared processor count.")
    in
    let stage_range =
      Arg.(value & opt (pair int int) (2, 3) & info [ "stages" ] ~docv:"LO,HI"
             ~doc:"Stage count per tenant, drawn uniformly in this inclusive range.")
    in
    let team_range =
      Arg.(value & opt (pair int int) (3, 5) & info [ "team" ] ~docv:"LO,HI"
             ~doc:"Processors per tenant, drawn uniformly in this inclusive range.")
    in
    let floor_frac =
      Arg.(value & opt float 0.5 & info [ "floor-frac" ] ~docv:"F"
             ~doc:"Floors as a fraction of each tenant's contended admission bound; below 1.0 \
                   the whole mix is admissible by construction.")
    in
    let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
    let over_budget =
      Arg.(value & flag & info [ "over-budget" ]
             ~doc:"Append a \"greedy\" clone of the last tenant whose floor is set to twice its \
                   own bound — a tenant the admission sequence must reject.")
    in
    let out =
      Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Write the mix here instead of stdout.")
    in
    Cmd.v
      (Cmd.info "generate" ~doc:"Generate a random tenant mix on one shared platform")
      Term.(const tenants_generate_run $ tenants $ procs $ stage_range $ team_range $ floor_frac
            $ seed $ over_budget $ model_arg $ out)
  in
  let solve =
    let cap =
      Arg.(value & opt (some int) None & info [ "cap" ]
             ~doc:"Marking exploration bound (strict exponential solves).")
    in
    let wall =
      Arg.(value & opt (some float) None & info [ "wall" ] ~docv:"SECONDS"
             ~doc:"Whole-request wall budget for the daemon-side solve (split across tenants \
                   by weight).")
    in
    let check_des =
      Arg.(value & opt (some float) None & info [ "check-des" ] ~docv:"TOL"
             ~doc:"Cross-check every tenant's exact throughput against an interleaved-tenant \
                   discrete-event simulation; exit 6 if any relative error exceeds $(docv).")
    in
    let seed =
      Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"DES cross-check seed.")
    in
    let data_sets =
      Arg.(value & opt int 4000 & info [ "data-sets" ] ~docv:"N"
             ~doc:"Data sets per tenant in the DES cross-check.")
    in
    Cmd.v
      (Cmd.info "solve"
         ~doc:"Per-tenant throughput of a mix under contention (local table, or solve_multi \
               against a daemon)")
      Term.(const tenants_solve_run $ multi_file $ model_arg $ law $ cap $ wall $ socket_opt
            $ check_des $ seed $ data_sets)
  in
  let admit =
    let expect_reject =
      Arg.(value & flag & info [ "expect-reject" ]
             ~doc:"Fail (exit 4) unless the audit rejects at least one tenant.")
    in
    Cmd.v
      (Cmd.info "admit"
         ~doc:"Sequential admission audit of a mix in declaration order (local, or the \
               daemon's admit command)")
      Term.(const tenants_admit_run $ multi_file $ model_arg $ law $ socket_opt $ expect_reject)
  in
  Cmd.group
    (Cmd.info "tenants"
       ~doc:"Multi-tenant tier: generate tenant mixes, solve per-tenant throughput under \
             contention, audit admission control")
    [ generate; solve; admit ]

let main =
  Cmd.group
    (Cmd.info "streaming_cli" ~version:"1.0.0"
       ~doc:"Throughput of probabilistic and replicated streaming applications")
    [
      analyze_cmd;
      bounds_cmd;
      simulate_cmd;
      experiment_cmd;
      experiments_cmd;
      profile_cmd;
      list_cmd;
      dot_cmd;
      optimize_cmd;
      statespace_cmd;
      template_cmd;
      serve_cmd;
      query_cmd;
      cluster_cmd;
      top_cmd;
      loadgen_cmd;
      tenants_cmd;
    ]

let () = exit (Cmd.eval' main)
