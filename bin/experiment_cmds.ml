(* The paper's experiments: experiment, experiments, profile, list. *)

open Cmdliner
open Common

let full_arg doc = Arg.(value & flag & info [ "full" ] ~doc)

let id_arg doc = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)

(* experiment *)

let experiment_run id full trace =
  let quick = not full in
  match id with
  | "all" ->
      with_trace trace (fun () -> Experiments.Registry.run_all ~quick Format.std_formatter);
      0
  | id ->
      let e = find_experiment ~code:1 id in
      with_trace trace (fun () -> e.Experiments.Registry.run ~quick Format.std_formatter);
      0

let experiment_cmd =
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a table or figure of the paper")
    Term.(const experiment_run $ id_arg "Experiment id (see 'list'), or 'all'."
          $ full_arg "Run at full size (slower, closer to the paper)." $ trace_arg)

(* experiments: the supervised, journaled, resumable runner *)

let experiments_run ids all full journal resume wall trace =
  if resume && journal = None then die ~code:2 "--resume requires --journal";
  let entries =
    if all then Experiments.Registry.all else List.map (find_experiment ~code:2) ids
  in
  if entries = [] then die ~code:2 "no experiments selected (pass ids or --all)";
  let point_budget = Option.map (fun wall -> Supervise.Budget.create ~wall ()) wall in
  let health =
    with_trace trace @@ fun () ->
    Experiments.Registry.run_entries ~quick:(not full) ?journal ~resume ?point_budget
      ?inject:(Experiments.Runner.inject_of_rules (Supervise.Inject.of_env ()))
      entries Format.std_formatter
  in
  if health.Experiments.Runner.failed > 0 then
    die ~code:1
      (Printf.sprintf "%d point(s) failed for good; the journal keeps the completed ones"
         health.Experiments.Runner.failed);
  if health.Experiments.Runner.degraded > 0 then
    Format.eprintf "warning: %d point(s) solved degraded (see the journal for details)@."
      health.Experiments.Runner.degraded;
  0

let experiments_cmd =
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (see 'list').")
  in
  let all = Arg.(value & flag & info [ "all"; "a" ] ~doc:"Run every registered experiment.") in
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
    Term.(const experiments_run $ ids $ all
          $ full_arg "Run at full size (slower, closer to the paper)." $ journal $ resume $ wall
          $ trace_arg)

(* profile: run one experiment under tracing and print the span tree *)

let profile_run id full trace =
  let e = find_experiment ~code:1 id in
  let quick = not full in
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
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run one experiment under tracing and print a nested wall-time profile tree")
    Term.(const profile_run $ id_arg "Experiment id to profile (see 'list')."
          $ full_arg "Profile the full-size run (slower)." $ trace_arg)

(* list *)

let list_run () =
  List.iter
    (fun e ->
      Format.printf "%-8s %s@." e.Experiments.Registry.id e.Experiments.Registry.title)
    Experiments.Registry.all;
  0

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List the reproducible tables and figures") Term.(const list_run $ const ())
