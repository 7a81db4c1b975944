(* Running-time study of the compact state-space kernel (§7.7 companion):
   for a ladder of u×v patterns (u·v from 9 to 36) and Erlang phase counts
   1–3, measure each stage of the cold path — marking-graph construction,
   recurrent-class isolation, CTMC build + stationary solve — plus the
   rotation-quotient solve (exact lumping over the u·v-fold symmetry, the
   production path for large instances) and the warm path (the same query
   answered by the pattern-solve memo).  The ladder spans both solver
   regimes: small rungs are eliminated by GTH, large Erlang rungs go
   through the sparse iterative sweeps.  [big_study] pushes one rung into
   the millions of states: sharded exploration under a wall budget, then
   the lumped supervised solve. *)

type rung = {
  r_u : int;
  r_v : int;
  r_phases : int;
  r_states : int;
  r_edges : int;
  r_recurrent : int;
  r_explore_s : float;
  r_structure_s : float;
  r_solve_s : float;
  r_lump_classes : int;
  r_lump_solve_s : float;
  r_rung : string;
  r_warm_s : float;
  r_throughput : float;
}

let ladder = [ (1, 9); (3, 4); (2, 9); (3, 5); (4, 5); (3, 7); (5, 6); (5, 7); (4, 9) ]
let phase_counts = [ 1; 2; 3 ]

let rate ~sender:_ ~receiver:_ = 1.0

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (Unix.gettimeofday () -. t0, x)

(* name of the ladder rung that produced the accepted solution *)
let winning_rung (prov : Supervise.Provenance.t) =
  match List.rev prov.Supervise.Provenance.attempts with
  | last :: _ -> last.Supervise.Provenance.rung
  | [] -> "?"

let pattern_net ~u ~v ~phases =
  let base = Young.Pattern.build ~u ~v ~time:rate in
  if phases = 1 then base
  else Petrinet.Expand.teg (Petrinet.Expand.erlang ~phases:(fun _ -> phases) base)

let measure_rung ~u ~v ~phases =
  (* cold path, stage by stage (bypassing the caches) *)
  let explore_s, (teg, graph) =
    timed (fun () ->
        let teg = pattern_net ~u ~v ~phases in
        (teg, Petrinet.Marking.explore_graph teg))
  in
  let structure_s, structure = timed (fun () -> Markov.Tpn_markov.structure_of_graph teg graph) in
  let solve_s, chain =
    timed (fun () -> Markov.Tpn_markov.analyse_with structure ~rates:(fun _ -> float_of_int phases))
  in
  (* the rotation quotient: homogeneous rates are invariant under the
     1-step shift, so the whole u·v-fold symmetry lumps away *)
  let lump_solve_s, (lumped, prov, stats) =
    timed (fun () ->
        let place_perm, trans_perm = Young.Pattern.rotation_perms ~u ~v ~phases ~shift:1 in
        Markov.Tpn_markov.analyse_with_lumped structure
          ~rates:(fun _ -> float_of_int phases)
          ~place_perm ~trans_perm)
  in
  let outputs = List.init (u * v) Fun.id in
  let full_rho = Markov.Tpn_markov.throughput_of chain outputs in
  let lumped_rho = Markov.Tpn_markov.throughput_of lumped outputs in
  if abs_float (full_rho -. lumped_rho) > 1e-9 *. abs_float full_rho then
    Supervise.Error.raise_
      (Supervise.Error.Numerical
         { what = "lumped solve diverged from full"; where = "Statespace.measure" });
  (* warm path: the user-facing query, answered by the result memo (the
     first call fills it and is not timed) *)
  let solve () = Young.Pattern.erlang_inner_throughput ~phases ~u ~v ~rate () in
  let throughput = solve () in
  let warm_s, warm_throughput = timed solve in
  if warm_throughput <> throughput then
    Supervise.Error.raise_
      (Supervise.Error.Numerical
         { what = "warm solve diverged from cold"; where = "Statespace.measure" });
  {
    r_u = u;
    r_v = v;
    r_phases = phases;
    r_states = Markov.Tpn_markov.structure_states structure;
    r_edges = Markov.Tpn_markov.structure_edges structure;
    r_recurrent = Markov.Tpn_markov.n_recurrent chain;
    r_explore_s = explore_s;
    r_structure_s = structure_s;
    r_solve_s = solve_s;
    r_lump_classes = stats.Markov.Tpn_markov.lump_classes;
    r_lump_solve_s = lump_solve_s;
    r_rung = winning_rung prov;
    r_warm_s = warm_s;
    r_throughput = throughput;
  }

let study ?(ladder = ladder) ?(phases = phase_counts) () =
  Young.Pattern.clear_caches ();
  let rungs =
    List.concat_map
      (fun (u, v) -> List.map (fun p -> measure_rung ~u ~v ~phases:p) phases)
      ladder
  in
  Young.Pattern.clear_caches ();
  rungs

let print fmt rungs =
  Exp_common.header fmt "State-space kernel: exploration and solve times";
  Exp_common.row fmt "%-8s %7s %9s %9s %10s %8s %8s %7s %9s %8s %12s" "pattern" "phases" "states"
    "edges" "explore(s)" "scc(s)" "solve(s)" "lump" "lump(s)" "warm(s)" "throughput";
  List.iter
    (fun r ->
      Exp_common.row fmt "%dx%-6d %7d %9d %9d %10.4f %8.4f %8.4f %7d %9.4f %8.6f %12.6f" r.r_u
        r.r_v r.r_phases r.r_states r.r_edges r.r_explore_s r.r_structure_s r.r_solve_s
        r.r_lump_classes r.r_lump_solve_s r.r_warm_s r.r_throughput)
    rungs

(* ---- the million-state rung ----

   One pattern beyond anything the per-rung ladder touches: (11,12) has
   S(11,12) = C(22,10)·12 = 7 759 752 reachable markings, explored by the
   BFS sharded over the pool, and homogeneous rates lump its chain by the
   full 132-fold rotation before the ladder solves the quotient. *)

type big = {
  b_u : int;
  b_v : int;
  b_phases : int;
  b_cap : int;
  b_wall_budget_s : float;
  b_domains : int;
  b_states : int;
  b_edges : int;
  b_explore_s : float;
  b_lumped_solve_s : float;
  b_lump_classes : int;
  b_rung : string;
  b_throughput : float;
  b_total_s : float;
}

let big_study ?(u = 11) ?(v = 12) ?(phases = 1) ?(cap = 12_000_000) ?(wall_budget_s = 900.0)
    ?(domains = 2) () =
  let budget = Supervise.Budget.create ~wall:wall_budget_s ~states:cap () in
  Parallel.Pool.with_pool ~domains (fun pool ->
      let teg = pattern_net ~u ~v ~phases in
      let explore_s, structure =
        timed (fun () -> Markov.Tpn_markov.structure ~cap ~budget ~pool teg)
      in
      let solve_s, (chain, prov, stats) =
        timed (fun () ->
            let place_perm, trans_perm = Young.Pattern.rotation_perms ~u ~v ~phases ~shift:1 in
            Markov.Tpn_markov.analyse_with_lumped ~budget structure
              ~rates:(fun _ -> float_of_int phases)
              ~place_perm ~trans_perm)
      in
      let outputs = List.init (u * v) Fun.id in
      {
        b_u = u;
        b_v = v;
        b_phases = phases;
        b_cap = cap;
        b_wall_budget_s = wall_budget_s;
        b_domains = domains;
        b_states = Markov.Tpn_markov.structure_states structure;
        b_edges = Markov.Tpn_markov.structure_edges structure;
        b_explore_s = explore_s;
        b_lumped_solve_s = solve_s;
        b_lump_classes = stats.Markov.Tpn_markov.lump_classes;
        b_rung = winning_rung prov;
        b_throughput = Markov.Tpn_markov.throughput_of chain outputs;
        b_total_s = explore_s +. solve_s;
      })

let print_big fmt b =
  Exp_common.header fmt "Million-state rung: sharded exploration + rotation quotient";
  Exp_common.row fmt "%-24s %dx%d ph%d (cap %d, wall budget %.0f s, %d domains)" "instance" b.b_u
    b.b_v b.b_phases b.b_cap b.b_wall_budget_s b.b_domains;
  Exp_common.row fmt "%-24s %d states, %d edges" "explored" b.b_states b.b_edges;
  Exp_common.row fmt "%-24s %d classes (%.1fx reduction)" "rotation quotient"
    b.b_lump_classes
    (float_of_int b.b_states /. float_of_int (max 1 b.b_lump_classes));
  Exp_common.row fmt "%-24s %s" "ladder rung" b.b_rung;
  Exp_common.row fmt "%-24s explore %.1f s, lumped solve %.1f s, total %.1f s" "wall"
    b.b_explore_s b.b_lumped_solve_s b.b_total_s;
  Exp_common.row fmt "%-24s %.9f" "throughput" b.b_throughput

(* Cold-path totals (structure + analyse_with, identical rates) of the
   pre-rewrite kernel, measured on this host at the commit preceding the
   compact kernel; embedded in the emitted JSON so a fresh run still
   documents the speedup against a kernel that no longer exists in the
   tree.  The old structure construction is quadratic in the state count,
   so only rungs that finish in reasonable time are listed. *)
let seed_baseline =
  [
    (5, 6, 1, 0.0199);
    (5, 7, 1, 0.0504);
    (5, 6, 2, 8.621);
    (5, 7, 2, 38.925);
    (4, 9, 3, 1409.74);
    (5, 7, 3, 2564.56);
  ]

let rung_cold r = r.r_explore_s +. r.r_structure_s +. r.r_solve_s

let write_json ?big ~header ~path rungs =
  let oc = open_out path in
  Printf.fprintf oc "{\n  %s,\n  \"ladder\": [\n" header;
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"u\": %d, \"v\": %d, \"phases\": %d, \"states\": %d, \"edges\": %d, \"recurrent\": \
         %d, \"explore_s\": %.6f, \"structure_s\": %.6f, \"solve_s\": %.6f, \"cold_s\": %.6f, \
         \"lump_classes\": %d, \"lump_reduction\": %.2f, \"lump_solve_s\": %.6f, \"ladder_rung\": \
         %S, \"warm_s\": %.6f, \"throughput\": %.12g}%s\n"
        r.r_u r.r_v r.r_phases r.r_states r.r_edges r.r_recurrent r.r_explore_s r.r_structure_s
        r.r_solve_s (rung_cold r) r.r_lump_classes
        (float_of_int r.r_recurrent /. float_of_int (max 1 r.r_lump_classes))
        r.r_lump_solve_s r.r_rung r.r_warm_s r.r_throughput
        (if i = List.length rungs - 1 then "" else ","))
    rungs;
  (match
     List.fold_left
       (fun acc r -> match acc with Some b when b.r_states >= r.r_states -> acc | _ -> Some r)
       None rungs
   with
  | Some l ->
      Printf.fprintf oc
        "  ],\n  \"largest\": {\"u\": %d, \"v\": %d, \"phases\": %d, \"states\": %d, \"cold_s\": \
         %.6f},\n"
        l.r_u l.r_v l.r_phases l.r_states (rung_cold l)
  | None -> Printf.fprintf oc "  ],\n");
  (match big with
  | Some b ->
      Printf.fprintf oc
        "  \"big\": {\"u\": %d, \"v\": %d, \"phases\": %d, \"cap\": %d, \"wall_budget_s\": %.0f, \
         \"domains\": %d, \"states\": %d, \"edges\": %d, \"explore_s\": %.3f, \"lumped_solve_s\": \
         %.3f, \"total_s\": %.3f, \"lump_classes\": %d, \"lump_reduction\": %.2f, \"ladder_rung\": \
         %S, \"throughput\": %.12g},\n"
        b.b_u b.b_v b.b_phases b.b_cap b.b_wall_budget_s b.b_domains b.b_states b.b_edges
        b.b_explore_s b.b_lumped_solve_s b.b_total_s b.b_lump_classes
        (float_of_int b.b_states /. float_of_int (max 1 b.b_lump_classes))
        b.b_rung b.b_throughput
  | None -> ());
  let baseline =
    List.filter_map
      (fun (u, v, p, seed_s) ->
        Option.map
          (fun r -> (u, v, p, seed_s, rung_cold r))
          (List.find_opt (fun r -> r.r_u = u && r.r_v = v && r.r_phases = p) rungs))
      seed_baseline
  in
  Printf.fprintf oc
    "  \"seed_baseline\": {\n\
    \    \"note\": \"cold-path wall times of the pre-rewrite kernel (list-based exploration, \
     hash-table generator), same pipeline and rates, measured on this host at the commit before \
     the compact kernel\",\n\
    \    \"rungs\": [\n";
  List.iteri
    (fun i (u, v, p, seed_s, now_s) ->
      Printf.fprintf oc
        "      {\"u\": %d, \"v\": %d, \"phases\": %d, \"seed_cold_s\": %.4f, \"cold_s\": %.6f, \
         \"speedup\": %.1f}%s\n"
        u v p seed_s now_s (seed_s /. now_s)
        (if i = List.length baseline - 1 then "" else ","))
    baseline;
  Printf.fprintf oc "    ]\n  }\n}\n";
  close_out oc
