(* Standalone timed-event-graph tool — the role of the ERS toolbox
   (scscyc / eg_sim) on generic nets, not tied to a pipeline mapping. *)

open Cmdliner
open Petrinet

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"NET" ~doc:"Timed event graph file.")

let load path =
  match Teg_io.parse_file path with
  | Ok teg -> teg
  | Error msg ->
      Format.eprintf "error: %s@." msg;
      exit 2

(* analyze: validation, boundedness, critical cycle (the scscyc role) *)

let analyze_run path =
  let teg = load path in
  Format.printf "transitions           : %d@." (Teg.n_transitions teg);
  Format.printf "places                : %d@." (Teg.n_places teg);
  (match Teg.validate teg with
  | Ok () -> Format.printf "structure             : live event graph@."
  | Error msg -> Format.printf "structure             : INVALID (%s)@." msg);
  (match Structural.boundedness teg with
  | Structural.Bounded -> Format.printf "marking space         : bounded (every place on a cycle)@."
  | Structural.Possibly_unbounded places ->
      Format.printf "marking space         : possibly unbounded (%d uncovered places)@."
        (List.length places));
  (match Cycle_time.analyse teg with
  | None -> Format.printf "period                : 0 (acyclic)@."
  | Some { Cycle_time.period; critical } ->
      Format.printf "period                : %.6g@." period;
      Format.printf "throughput            : %.6g firings of each transition per time unit@."
        (1.0 /. period);
      Format.printf "critical cycle        :";
      List.iter (fun e -> Format.printf " %s" (Teg.label teg e.Graphs.Digraph.dst)) critical;
      Format.printf "@.");
  0

let analyze_cmd =
  Cmd.v (Cmd.info "analyze" ~doc:"Validate a net and compute its critical cycle (scscyc role)")
    Term.(const analyze_run $ file_arg)

(* simulate: the eg_sim role *)

let simulate_run path iterations exponential seed =
  let teg = load path in
  let watch = List.init (Teg.n_transitions teg) Fun.id in
  let sample =
    if exponential then begin
      let g = Prng.create ~seed in
      Some
        (fun ~transition ~firing:_ ->
          Dist.sample (Dist.exponential_of_mean (Teg.time teg transition)) g)
    end
    else None
  in
  let series = Eg_sim.simulate ?sample teg ~iterations ~watch in
  let horizon = Array.fold_left (fun acc s -> max acc s.(iterations - 1)) 0.0 series in
  Format.printf "%d firings of every transition in %.6g time units@." iterations horizon;
  Format.printf "firing rate per transition: %.6g@." (float_of_int iterations /. horizon);
  List.iteri
    (fun k v ->
      Format.printf "  %-24s last completion %.6g@." (Teg.label teg v) series.(k).(iterations - 1))
    watch;
  0

let simulate_cmd =
  let iterations =
    Arg.(value & opt int 10_000 & info [ "iterations"; "n" ] ~doc:"Firings per transition.")
  in
  let exponential =
    Arg.(value & flag & info [ "exponential"; "e" ]
           ~doc:"Exponential firing times with the nominal durations as means.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  Cmd.v (Cmd.info "simulate" ~doc:"Simulate the dater recurrence (eg_sim role)")
    Term.(const simulate_run $ file_arg $ iterations $ exponential $ seed)

(* markov: exponential stationary analysis *)

let markov_run path cap =
  let teg = load path in
  let rates v =
    let t = Teg.time teg v in
    if t <= 0.0 then (
      Format.eprintf "error: transition %s has zero duration, no exponential rate@."
        (Teg.label teg v);
      exit 2)
    else 1.0 /. t
  in
  let chain =
    try fst (Markov.Tpn_markov.analyse_supervised ~cap ~rates teg)
    with Supervise.Error.Solver_error err ->
      Format.eprintf "error: %s@." (Supervise.Error.to_string err);
      (match err with
      | Supervise.Error.State_space_exceeded _ ->
          Format.eprintf "hint: retry with a larger --cap (currently %d)@." cap
      | _ -> ());
      exit 3
  in
  Format.printf "reachable markings    : %d (%d recurrent)@." (Markov.Tpn_markov.n_markings chain)
    (Markov.Tpn_markov.n_recurrent chain);
  for v = 0 to Teg.n_transitions teg - 1 do
    Format.printf "  %-24s firing rate %.6g  P(enabled) %.4f@." (Teg.label teg v)
      (Markov.Tpn_markov.firing_rate chain v)
      (Markov.Tpn_markov.enabled_probability chain v)
  done;
  0

let markov_cmd =
  let cap =
    Arg.(value & opt int 200_000 & info [ "cap" ] ~doc:"Marking exploration bound.")
  in
  Cmd.v
    (Cmd.info "markov" ~doc:"Exponential stationary analysis of the marking chain (Theorem 2)")
    Term.(const markov_run $ file_arg $ cap)

(* dot *)

let dot_run path =
  Format.printf "%a" (Dot.pp ?rankdir:None) (load path);
  0

let dot_cmd =
  Cmd.v (Cmd.info "dot" ~doc:"Print the net in Graphviz format") Term.(const dot_run $ file_arg)

let main =
  Cmd.group
    (Cmd.info "tpn_cli" ~version:"1.0.0" ~doc:"Timed event graph analysis tools")
    [ analyze_cmd; simulate_cmd; markov_cmd; dot_cmd ]

let () = exit (Cmd.eval' main)
