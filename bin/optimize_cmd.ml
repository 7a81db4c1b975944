(* optimize: search for a high-throughput mapping *)

open Cmdliner
open Streaming
open Common

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
        let mapping = load Instance_io.parse_file path in
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
    | Some _, true -> die ~code:2 "give an INSTANCE file or --random, not both"
    | None, false -> die ~code:2 "optimize needs an INSTANCE file or --random"
  in
  let pool, owned =
    match domains with
    | Some d -> (Parallel.Pool.create ~domains:d, true)
    | None -> (Parallel.Pool.get (), false)
  in
  Fun.protect ~finally:(fun () -> if owned then Parallel.Pool.shutdown pool) @@ fun () ->
  let objective = Optimize.Objective.create ~cap ?wall ~seed metric in
  let with_daemon f =
    match socket with
    | None -> f None
    | Some addr -> with_client ~code:2 ~context:"cannot reach the daemon: " addr (fun c -> f (Some c))
  in
  with_daemon @@ fun client ->
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

let cmd =
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
    socket_opt
      ~doc:"Evaluate candidates through a running throughput daemon (batch requests) instead \
            of in-process."
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
