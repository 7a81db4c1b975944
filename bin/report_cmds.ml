(* Instance reports: analyze, bounds, simulate, dot, template. *)

open Cmdliner
open Streaming
open Common

(* analyze *)

let analyze_run path model cap with_expo with_utilization with_sensitivity =
  let mapping = load Instance_io.parse_file path in
  Format.printf "%a" Mapping.pp mapping;
  let a = Deterministic.analyse mapping model in
  (* the §4 rate: per column under Overlap, where the whole TPN's
     critical cycle can be slower than every column *)
  let det, _ = Throughput.solve Throughput.Deterministic model mapping in
  Format.printf "model                 : %s@." (Model.to_string model);
  Format.printf "rows (paths)          : %d@." (Mapping.rows mapping);
  Format.printf "deterministic period  : %.6g per data set@." (1.0 /. det);
  Format.printf "deterministic rate    : %.6g data sets per time unit@." det;
  Format.printf "max resource cycle    : %.6g (%s)@." a.Deterministic.mct a.Deterministic.bottleneck;
  if Deterministic.has_critical_resource a then
    Format.printf "critical resource     : yes (the bottleneck is a physical resource)@."
  else
    Format.printf "critical resource     : NO (gap %.2f%%: replication alone limits the rate)@."
      (100.0 *. Deterministic.critical_resource_gap a);
  if with_expo then begin
    let expo =
      try fst (Throughput.solve ~cap Throughput.Exponential model mapping)
      with Supervise.Error.Solver_error err -> solver_error_exit ~cap err
    in
    Format.printf "exponential rate      : %.6g@." expo;
    Format.printf "N.B.U.E. bounds       : [%.6g, %.6g] (Theorem 7)@." expo det
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
           ~doc:"Pattern and marking exploration bound for the exponential analysis.")
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
    Term.(const analyze_run $ instance_arg $ model_arg $ cap $ with_expo $ with_utilization
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
  let mapping = load Instance_io.parse_file path in
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
  let det, _ = Throughput.solve Throughput.Deterministic model mapping in
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
    Term.(const simulate_run $ instance_arg $ model_arg $ law $ data_sets $ seed $ engine)

(* bounds *)

let bounds_run path model =
  let mapping = load Instance_io.parse_file path in
  let cap = 2_000_000 in
  let b =
    try Bounds.compute ~cap mapping model
    with Supervise.Error.Solver_error err -> solver_error_exit ~cap err
  in
  Format.printf "Theorem 7 bounds (%s model):@." (Model.to_string model);
  Format.printf "  deterministic upper bound : %.6g@." b.Bounds.upper;
  Format.printf "  exponential lower bound   : %.6g@." b.Bounds.lower;
  Format.printf "  relative width            : %.1f%%@." (100.0 *. Bounds.width b);
  Format.printf "Any N.B.U.E. operation-time law lands inside; exact Erlang values:@.";
  List.iter
    (fun k ->
      let v =
        try fst (Throughput.solve ~cap (Throughput.Erlang k) model mapping)
        with Supervise.Error.Solver_error err -> solver_error_exit ~cap err
      in
      Format.printf "  erlang-%d (scv %.2f)        : %.6g@." k (1.0 /. float_of_int k) v)
    [ 2; 4 ];
  0

let bounds_cmd =
  Cmd.v
    (Cmd.info "bounds" ~doc:"N.B.U.E. throughput bounds of an instance (Theorem 7)")
    Term.(const bounds_run $ instance_arg $ model_arg)

(* dot *)

let dot_run path model =
  let mapping = load Instance_io.parse_file path in
  let tpn = Tpn.build mapping model in
  Format.printf "%a" (Petrinet.Dot.pp ?rankdir:None) (Tpn.teg tpn);
  0

let dot_cmd =
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Print the timed Petri net of an instance in Graphviz format (cf. paper Figs 2-3)")
    Term.(const dot_run $ instance_arg $ model_arg)

(* template *)

let template_run () =
  Format.printf "%a" Instance_io.print Workload.Scenarios.example_a;
  0

let template_cmd =
  Cmd.v
    (Cmd.info "template" ~doc:"Print a sample instance file (Example A) to stdout")
    Term.(const template_run $ const ())
