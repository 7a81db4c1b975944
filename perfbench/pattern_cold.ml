(* The pattern-cold workload: cold solves through
   [Young.Pattern.supervised_inner_throughput], caches cleared before
   every solve.  The ladder of (u, v, phases) rungs climbs to 72 036
   states, past the point where Gauss-Seidel takes over from GTH; every
   rung is solved with homogeneous rates, which lump under the rotation
   quotient, and with heterogeneous rates, which do not. *)

let ladder =
  [ (3, 4, 1); (4, 5, 1); (5, 7, 1); (4, 9, 1); (3, 5, 2); (4, 5, 2); (5, 6, 2); (4, 9, 2); (4, 5, 3);
    (4, 9, 3) ]

(* the set-up's warm-up solves the first six rungs, at most 2 310 states *)
let warmup_rungs = 6

(* the traced run fails a check when the staged pass's stage times cover
   less or more of the supervised pass's wall time than this band *)
let accounted_band = (0.8, 1.2)

type solve = { rung : int; u : int; v : int; phases : int; homogeneous : bool }

let solves =
  List.concat
    (List.mapi
       (fun rung (u, v, phases) ->
         [ { rung; u; v; phases; homogeneous = true }; { rung; u; v; phases; homogeneous = false } ])
       ladder)

let rate ~seed sv =
  if sv.homogeneous then
    let l = Inputs.homogeneous_rate ~seed ~rung:sv.rung in
    fun ~sender:_ ~receiver:_ -> l
  else
    let m = Inputs.heterogeneous_rates ~seed ~rung:sv.rung ~u:sv.u ~v:sv.v in
    fun ~sender ~receiver -> m.(sender).(receiver)

let cold_solve ~pool ~seed sv =
  Young.Pattern.clear_caches ();
  Young.Pattern.supervised_inner_throughput ~pool ~phases:sv.phases ~u:sv.u ~v:sv.v
    ~rate:(rate ~seed sv) ()

(* the memoised entry points, on the unlumped chain *)
let memoised ~seed sv =
  Young.Pattern.clear_caches ();
  if sv.phases = 1 then Young.Pattern.exponential_inner_throughput ~u:sv.u ~v:sv.v ~rate:(rate ~seed sv) ()
  else Young.Pattern.erlang_inner_throughput ~phases:sv.phases ~u:sv.u ~v:sv.v ~rate:(rate ~seed sv) ()

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.abs b

let iterative (p : Supervise.Provenance.t) =
  match p.Supervise.Provenance.quality with Supervise.Provenance.Iterative _ -> true | _ -> false

(* One solve, stage by stage — the same calls the supervised entry point
   makes, each timed on its own. *)
let staged s ~pool ~seed sv =
  let u = sv.u and v = sv.v and n = sv.u * sv.v in
  let rate = rate ~seed sv in
  let base_rates =
    Array.init n (fun k ->
        let sender, receiver = Young.Pattern.transition_of ~u ~v k in
        rate ~sender ~receiver)
  in
  let base = Young.Pattern.build ~u ~v ~time:(fun ~sender:_ ~receiver:_ -> 1.0) in
  let explore teg = Quant.time_ms s "marking.explore_ms" (fun () -> Petrinet.Marking.explore_graph ~pool teg) in
  let teg, graph, rates, outputs =
    if sv.phases = 1 then
      let graph =
        match Quant.time_ms s "young.young_graph_ms" (fun () -> Young.Pattern.young_graph ~u ~v ()) with
        | Some g -> g
        | None -> explore base
      in
      (base, graph, (fun id -> base_rates.(id)), List.init n Fun.id)
    else
      let e = Petrinet.Expand.erlang ~phases:(fun _ -> sv.phases) base in
      let teg = Petrinet.Expand.teg e in
      ( teg,
        explore teg,
        Petrinet.Expand.phase_rates e ~original_rate:(fun k -> base_rates.(k)),
        List.init n (Petrinet.Expand.last e) )
  in
  let structure =
    Quant.time_ms s "tpn_markov.structure_ms" (fun () -> Markov.Tpn_markov.structure_of_graph teg graph)
  in
  Quant.add s "marking.states" (float_of_int (Markov.Tpn_markov.structure_states structure));
  Quant.add s "marking.edges" (float_of_int (Markov.Tpn_markov.structure_edges structure));
  let shift = Young.Pattern.invariant_shift ~u ~v base_rates in
  let chain, prov =
    if shift < n then begin
      let place_perm, trans_perm = Young.Pattern.rotation_perms ~u ~v ~phases:sv.phases ~shift in
      let chain, prov, ls =
        Quant.time_ms s "ctmc.lump_solve_ms" (fun () ->
            Markov.Tpn_markov.analyse_with_lumped structure ~rates ~place_perm ~trans_perm)
      in
      Quant.add s "ctmc.lump_classes" (float_of_int ls.Markov.Tpn_markov.lump_classes);
      (chain, prov)
    end
    else Quant.time_ms s "ctmc.solve_ms" (fun () -> Markov.Tpn_markov.analyse_with_supervised structure ~rates)
  in
  if iterative prov then Quant.add s "ctmc.iterative_rungs" 1.0;
  Markov.Tpn_markov.throughput_of chain outputs

let trace_metrics (c : Ctx.t) =
  let seed = c.Ctx.seed and pool = Parallel.Pool.get () in
  let wall, reference = Quant.timed (fun () -> List.map (fun sv -> cold_solve ~pool ~seed sv) solves) in
  let s = Quant.samples () in
  let staged_rho = List.map (staged s ~pool ~seed) solves in
  let mismatched =
    List.length
      (List.filter Fun.id
         (List.map2 (fun r rho -> not (close rho r.Young.Pattern.throughput)) reference staged_rho))
  in
  let total k = Quant.sum (Quant.get s k) in
  let stages =
    [ "young.young_graph_ms"; "marking.explore_ms"; "tpn_markov.structure_ms"; "ctmc.solve_ms";
      "ctmc.lump_solve_ms" ]
  in
  (* the staged pass's stage times against the supervised pass *)
  let accounted = Quant.ratio (Quant.sum (List.map total stages) /. 1e3) wall in
  let lo, hi = accounted_band in
  let unaccounted = accounted < lo || accounted > hi in
  if unaccounted then
    Printf.eprintf "perfbench: the pattern stages account for %.3f of the cold pass\n%!" accounted;
  ( (2 * List.length solves) + 1,
    mismatched + Bool.to_int unaccounted,
    List.map (fun k -> (k ^ ".sum", total k)) stages
    @ [
        ("marking.states.sum", total "marking.states");
        ("marking.edges.sum", total "marking.edges");
        ("ctmc.lump_classes.sum", total "ctmc.lump_classes");
        ("ctmc.iterative_rungs", total "ctmc.iterative_rungs");
        ("pattern.cold_wall_s", wall);
        ("pattern.accounted_frac", accounted);
        ("peak_rss_mb", Quant.peak_rss_mb 0);
      ] )

let pattern_cold (c : Ctx.t) =
  let seed = c.Ctx.seed in
  let setup_s =
    Ctx.setup ~reps:5 (fun () ->
        Parallel.Pool.set_domains c.Ctx.domains;
        let pool = Parallel.Pool.get () in
        List.iter
          (fun sv -> if sv.rung < warmup_rungs then ignore (cold_solve ~pool ~seed sv))
          solves)
  in
  Gc.compact ();
  if c.Ctx.trace then
    let attempted, failed, metrics = trace_metrics c in
    { Ctx.attempted; failed; metrics }
  else begin
    let pool = Parallel.Pool.get () in
    let start = Quant.now_s () in
    let pass () = List.map (fun sv -> Quant.timed (fun () -> cold_solve ~pool ~seed sv)) solves in
    let rec go acc =
      if Quant.now_s () -. start >= c.Ctx.seconds && acc <> [] then List.rev acc else go (pass () :: acc)
    in
    let passes = go [] in
    let times = List.concat_map (List.map fst) passes in
    let walls = List.map (fun p -> Quant.sum (List.map fst p)) passes in
    let slowest p = List.fold_left (fun acc (dt, _) -> Float.max acc dt) 0.0 p in
    let first = List.map snd (List.hd passes) in
    (* every pass reproduces the first bit for bit; lumping applies to
       exactly the homogeneous solves; the lumped and unlumped values
       match the memoised entry points *)
    let wrong_pass =
      List.fold_left
        (fun acc p ->
          acc
          + List.length
              (List.filter Fun.id
                 (List.map2
                    (fun (_, r) f -> r.Young.Pattern.throughput <> f.Young.Pattern.throughput)
                    p first)))
        0 passes
    in
    let wrong_first =
      List.length
        (List.filter Fun.id
           (List.map2
              (fun sv r ->
                sv.homogeneous <> Option.is_some r.Young.Pattern.lump
                || not (close r.Young.Pattern.throughput (memoised ~seed sv)))
              solves first))
    in
    {
      Ctx.attempted = List.length times + List.length solves;
      failed = wrong_pass + wrong_first;
      metrics =
        [
          ("throughput_per_s", float_of_int (List.length times) /. Quant.sum times);
          (* a latency sample is one cold pass over the whole ladder; the
             tail is a pass's slowest solve (1 in 20), median over passes *)
          ("latency_p50_ms", 1e3 *. Quant.median walls);
          ("latency_tail_ms", 1e3 *. Quant.median (List.map slowest passes));
          ("setup_s", setup_s);
        ];
    }
  end
