(* Command-line front end: analyse instances and timed event graphs, run
   simulations, regenerate the paper's experiments, serve and query the
   daemon.  Each command family lives in its own module over [Common]. *)

open Cmdliner

let main =
  Cmd.group
    (Cmd.info "streaming_cli" ~version:"1.0.0"
       ~doc:"Throughput of probabilistic and replicated streaming applications")
    [
      Report_cmds.analyze_cmd;
      Report_cmds.bounds_cmd;
      Report_cmds.simulate_cmd;
      Experiment_cmds.experiment_cmd;
      Experiment_cmds.experiments_cmd;
      Experiment_cmds.profile_cmd;
      Experiment_cmds.list_cmd;
      Report_cmds.dot_cmd;
      Optimize_cmd.cmd;
      Statespace_cmd.cmd;
      Report_cmds.template_cmd;
      Daemon_cmds.serve_cmd;
      Daemon_cmds.query_cmd;
      Cluster_cmd.cmd;
      Daemon_cmds.top_cmd;
      Daemon_cmds.loadgen_cmd;
      Tenants_cmd.cmd;
      Teg_cmd.cmd;
    ]

let () = exit (Cmd.eval' main)
