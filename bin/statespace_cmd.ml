(* statespace: the million-state kernel smoke — sharded exploration and
   rotation-quotient solve cross-checked against the serial, unlumped
   path.  Exit code 5 signals a divergence (a correctness failure of the
   parallel or lumped kernel), distinct from cmdliner's own codes. *)

open Cmdliner

let statespace_run u v phases cap wall domains check_serial =
  let rate ~sender:_ ~receiver:_ = 1.0 in
  let budget = Supervise.Budget.create ?wall ?states:cap () in
  let exit_divergence = 5 in
  Parallel.Pool.with_pool ~domains @@ fun pool ->
  let serial_ok =
    if not check_serial then true
    else begin
      let teg = Experiments.Statespace.pattern_net ~u ~v ~phases in
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

let cmd =
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
