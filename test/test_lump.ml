(* Exact lumping, the rotation quotient, sharded exploration identity and
   the Arnoldi ladder rung (PR 7). *)

open Markov

let check_float tol = Alcotest.(check (float tol))

(* ---- Ctmc.lump on synthetic lumpable chains ---- *)

(* A chain that is lumpable by construction: [nq] classes of [m] members;
   class c sends rate r(c,c') to class c' by wiring member i of c to member
   (i + shift) mod m of c', plus an intra-class ring so every member is
   reachable.  Every member of a class then has the same aggregate row. *)
let build_lumpable ~nq ~m ~edges ~intra =
  let full = Ctmc.create (nq * m) in
  let q = Ctmc.create nq in
  List.iter
    (fun (c, c', shift, r) ->
      Ctmc.add_rate q c c' r;
      for i = 0 to m - 1 do
        Ctmc.add_rate full ((c * m) + i) ((c' * m) + ((i + shift) mod m)) r
      done)
    edges;
  if m > 1 then
    for c = 0 to nq - 1 do
      for i = 0 to m - 1 do
        Ctmc.add_rate full ((c * m) + i) ((c * m) + ((i + 1) mod m)) intra
      done
    done;
  let classes = Array.init (nq * m) (fun s -> s / m) in
  (full, q, classes)

let qcheck_lump_quotient =
  QCheck.Test.make ~name:"Ctmc.lump: quotient masses = class sums" ~count:60
    QCheck.(triple (int_range 2 7) (int_range 1 4) (int_range 0 1000))
    (fun (nq, m, seed) ->
      let rng = Random.State.make [| 7; seed |] in
      (* ring through the classes guarantees irreducibility, then extras *)
      let edges =
        ref
          (List.init nq (fun c ->
               (c, (c + 1) mod nq, Random.State.int rng m, 0.5 +. Random.State.float rng 2.0)))
      in
      for _ = 1 to nq do
        let c = Random.State.int rng nq and c' = Random.State.int rng nq in
        if c <> c' then
          edges := (c, c', Random.State.int rng m, 0.5 +. Random.State.float rng 2.0) :: !edges
      done;
      let full, q, classes = build_lumpable ~nq ~m ~edges:!edges ~intra:1.5 in
      let lumped = Ctmc.lump ~verify:true full ~classes ~n_classes:nq in
      let pi_lumped = Ctmc.stationary lumped in
      let pi_q = Ctmc.stationary q in
      let pi_full = Ctmc.stationary full in
      let sums = Array.make nq 0.0 in
      Array.iteri (fun s p -> sums.(classes.(s)) <- sums.(classes.(s)) +. p) pi_full;
      Array.for_all2 (fun a b -> abs_float (a -. b) < 1e-10) pi_lumped pi_q
      && Array.for_all2 (fun a b -> abs_float (a -. b) < 1e-10) pi_lumped sums)

let test_lump_rejects_non_lumpable () =
  let t = Ctmc.create 3 in
  Ctmc.add_rate t 0 1 1.0;
  Ctmc.add_rate t 0 2 1.0;
  Ctmc.add_rate t 1 0 2.0;
  Ctmc.add_rate t 2 0 3.0;
  (* members 1 and 2 disagree on their aggregate rate into class {0} *)
  let raised =
    try
      ignore (Ctmc.lump t ~classes:[| 0; 1; 1 |] ~n_classes:2);
      false
    with Supervise.Error.Solver_error (Supervise.Error.Numerical _) -> true
  in
  Alcotest.(check bool) "non-lumpable partition rejected" true raised

(* ---- rotation quotient vs full solve on the pattern ---- *)

let divisors n = List.filter (fun d -> n mod d = 0) (List.init n (fun i -> i + 1))

let qcheck_lumped_matches_unlumped =
  let pairs = [| (2, 3); (3, 4); (2, 5); (4, 5); (3, 5) |] in
  QCheck.Test.make ~name:"rotation quotient: throughput = unlumped" ~count:25
    QCheck.(triple (int_range 0 (Array.length pairs - 1)) (int_range 1 2) (int_range 0 1000))
    (fun (pi, phases, seed) ->
      let u, v = pairs.(pi) in
      let n = u * v in
      let rng = Random.State.make [| 11; seed |] in
      let ds = divisors n in
      let d = List.nth ds (Random.State.int rng (List.length ds)) in
      let base = Array.init d (fun _ -> 0.5 +. Random.State.float rng 2.0) in
      let rate ~sender ~receiver =
        let k = ref 0 in
        for i = 0 to n - 1 do
          if i mod u = sender && i mod v = receiver then k := i
        done;
        base.(!k mod d)
      in
      let lumped =
        Young.Pattern.supervised_inner_throughput ~lump:true ~phases ~u ~v ~rate ()
      in
      let full =
        Young.Pattern.supervised_inner_throughput ~lump:false ~phases ~u ~v ~rate ()
      in
      let rel =
        abs_float (lumped.Young.Pattern.throughput -. full.Young.Pattern.throughput)
        /. full.Young.Pattern.throughput
      in
      let shift = Young.Pattern.invariant_shift ~u ~v (Array.init n (fun k -> base.(k mod d))) in
      let lump_ok =
        match lumped.Young.Pattern.lump with
        | Some ls ->
            shift < n && ls.Tpn_markov.lump_classes < ls.Tpn_markov.lump_states
        | None -> shift = n
      in
      rel < 1e-9 && lump_ok && full.Young.Pattern.lump = None)

let test_lumped_stationary_lifts_exactly () =
  List.iter
    (fun (u, v) ->
      let teg = Young.Pattern.build ~u ~v ~time:(fun ~sender:_ ~receiver:_ -> 1.0) in
      let s = Tpn_markov.structure teg in
      let rates _ = 1.0 in
      let place_perm, trans_perm = Young.Pattern.rotation_perms ~u ~v ~phases:1 ~shift:1 in
      let lumped, _, stats = Tpn_markov.analyse_with_lumped s ~rates ~place_perm ~trans_perm in
      let full, _ = Tpn_markov.analyse_with_supervised s ~rates in
      let pi_l = Tpn_markov.stationary_distribution lumped in
      let pi_f = Tpn_markov.stationary_distribution full in
      Alcotest.(check int)
        (Printf.sprintf "%d,%d: lumped states" u v)
        (Array.length pi_f) stats.Tpn_markov.lump_states;
      Alcotest.(check bool)
        (Printf.sprintf "%d,%d: genuine reduction" u v)
        true
        (stats.Tpn_markov.lump_classes < stats.Tpn_markov.lump_states);
      Array.iteri
        (fun k p -> check_float 1e-10 (Printf.sprintf "%d,%d: pi(%d)" u v k) p pi_l.(k))
        pi_f;
      check_float 1e-12
        (Printf.sprintf "%d,%d: throughput" u v)
        (Tpn_markov.throughput_of full (List.init (u * v) Fun.id))
        (Tpn_markov.throughput_of lumped (List.init (u * v) Fun.id)))
    [ (2, 3); (3, 4); (2, 5); (4, 5) ]

let test_lump_rejects_shifted_rates () =
  (* rates NOT invariant under the given shift must be refused *)
  let teg = Young.Pattern.build ~u:2 ~v:3 ~time:(fun ~sender:_ ~receiver:_ -> 1.0) in
  let s = Tpn_markov.structure teg in
  let place_perm, trans_perm = Young.Pattern.rotation_perms ~u:2 ~v:3 ~phases:1 ~shift:1 in
  let raised =
    try
      ignore
        (Tpn_markov.analyse_with_lumped s
           ~rates:(fun k -> 1.0 +. (0.25 *. float_of_int k))
           ~place_perm ~trans_perm);
      false
    with Supervise.Error.Solver_error (Supervise.Error.Numerical _) -> true
  in
  Alcotest.(check bool) "shift-variant rates rejected" true raised

let test_invariant_shift () =
  let u = 3 and v = 4 in
  let n = u * v in
  Alcotest.(check int) "homogeneous -> 1" 1
    (Young.Pattern.invariant_shift ~u ~v (Array.make n 1.0));
  Alcotest.(check int) "period 4" 4
    (Young.Pattern.invariant_shift ~u ~v (Array.init n (fun k -> float_of_int (k mod 4))));
  Alcotest.(check int) "aperiodic -> u*v" n
    (Young.Pattern.invariant_shift ~u ~v (Array.init n float_of_int))

(* ---- sharded exploration: byte identity with the serial BFS ---- *)

let graphs_equal (a : Petrinet.Marking.graph) (b : Petrinet.Marking.graph) =
  Petrinet.Marking.words a.Petrinet.Marking.codec = Petrinet.Marking.words b.Petrinet.Marking.codec
  && a.Petrinet.Marking.codes = b.Petrinet.Marking.codes
  && a.Petrinet.Marking.row_ptr = b.Petrinet.Marking.row_ptr
  && a.Petrinet.Marking.succ = b.Petrinet.Marking.succ
  && a.Petrinet.Marking.via = b.Petrinet.Marking.via

(* patterns and their Erlang expansions, plus (index [Array.length
   pairs]) the random multi-word nets of [Ref_bfs.random_teg]; the serial
   graph is checked against the reference BFS, the sharded ones against
   the serial graph *)
let qcheck_sharded_identity =
  let pairs = [| (2, 3); (3, 4); (2, 5); (4, 5); (5, 6) |] in
  QCheck.Test.make ~name:"sharded explore = serial (pools 1/2/4)" ~count:12
    QCheck.(triple (int_range 0 (Array.length pairs)) (int_range 1 2) small_int)
    (fun (pi, phases, seed) ->
      let teg =
        if pi = Array.length pairs then Ref_bfs.random_teg (Random.State.make [| 43; seed |])
        else
          let u, v = pairs.(pi) in
          let teg0 = Young.Pattern.build ~u ~v ~time:(fun ~sender:_ ~receiver:_ -> 1.0) in
          if phases = 1 then teg0
          else Petrinet.Expand.teg (Petrinet.Expand.erlang ~phases:(fun _ -> phases) teg0)
      in
      let serial = Petrinet.Marking.explore_graph teg in
      Ref_bfs.mismatch (Ref_bfs.explore teg) serial = None
      && List.for_all
           (fun domains ->
             Parallel.Pool.with_pool ~domains (fun pool ->
                 graphs_equal serial (Petrinet.Marking.explore_graph ~pool teg)))
           [ 1; 2; 4 ])

(* the code-level permutation against one computed on decoded markings *)
let test_state_permutation_decoded () =
  List.iter
    (fun (u, v, phases, shifts) ->
      let base = Young.Pattern.build ~u ~v ~time:(fun ~sender:_ ~receiver:_ -> 1.0) in
      let teg = Petrinet.Expand.teg (Petrinet.Expand.erlang ~phases:(fun _ -> phases) base) in
      let g = Petrinet.Marking.explore_graph teg in
      let s = Tpn_markov.structure_of_graph teg g in
      let markings = Array.init (Petrinet.Marking.n_states g) (Petrinet.Marking.marking g) in
      let ids = Ref_bfs.H.create (Array.length markings) in
      Array.iteri (fun i m -> Ref_bfs.H.replace ids m i) markings;
      List.iter
        (fun shift ->
          let place_perm, _ = Young.Pattern.rotation_perms ~u ~v ~phases ~shift in
          let expected =
            Array.map
              (fun m ->
                let image = Array.make (Array.length m) 0 in
                Array.iteri (fun p x -> image.(place_perm.(p)) <- x) m;
                Ref_bfs.H.find ids image)
              markings
          in
          Alcotest.(check (array int))
            (Printf.sprintf "%dx%d ph%d shift %d" u v phases shift)
            expected
            (Tpn_markov.state_permutation s ~place_perm))
        shifts)
    [ (4, 5, 2, List.init 20 (fun d -> d + 1)); (3, 7, 3, List.init 21 (fun d -> d + 1)) ]

let pattern_net u v = Young.Pattern.build ~u ~v ~time:(fun ~sender:_ ~receiver:_ -> 1.0)

(* every level of the nets above is narrower than the pooled width (256),
   so their pooled walks never leave the caller; 7x8 has 24 024 states in
   77 levels, 54 of them 256 wide or more (widest 429) *)
let test_sharded_wide_levels () =
  let teg = pattern_net 7 8 in
  let serial = Petrinet.Marking.explore_graph teg in
  List.iter
    (fun domains ->
      Parallel.Pool.with_pool ~domains (fun pool ->
          Alcotest.(check bool) (Printf.sprintf "pool of %d" domains) true
            (graphs_equal serial (Petrinet.Marking.explore_graph ~pool teg))))
    [ 2; 4 ]

let test_sharded_honours_cap () =
  Parallel.Pool.with_pool ~domains:2 (fun pool ->
      let raised =
        try
          ignore (Petrinet.Marking.explore_graph ~cap:50 ~pool (pattern_net 4 5));
          false
        with
        | Supervise.Error.Solver_error (Supervise.Error.State_space_exceeded { cap = 50; _ })
        ->
          true
      in
      Alcotest.(check bool) "cap enforced under sharding" true raised;
      (* 7x8's 5 001st state is met while its 425-state level 18 is on the
         pool: the merge stops there, as the serial walk does *)
      Alcotest.check_raises "cap inside a pooled level"
        (Supervise.Error.Solver_error
           (Supervise.Error.State_space_exceeded { cap = 5000; explored = 5000 }))
        (fun () -> ignore (Petrinet.Marking.explore_graph ~cap:5000 ~pool (pattern_net 7 8))))

(* a pooled walk counts as sharded only once a level went on the pool *)
let test_sharded_counter () =
  let sharded = Obs.Metrics.Counter.create "marking_sharded_explorations_total" in
  Parallel.Pool.with_pool ~domains:2 (fun pool ->
      let counted teg =
        let before = Obs.Metrics.Counter.value sharded in
        ignore (Petrinet.Marking.explore_graph ~pool teg);
        Obs.Metrics.Counter.value sharded - before
      in
      Alcotest.(check int) "3x4: every level on the caller" 0 (counted (pattern_net 3 4));
      Alcotest.(check int) "7x8: wide levels on the pool" 1 (counted (pattern_net 7 8)))

(* ---- the Arnoldi rung ---- *)

let random_rates ~n ~seed add_rate =
  let rng = Random.State.make [| 23; seed |] in
  for i = 0 to n - 1 do
    add_rate i ((i + 1) mod n) (0.5 +. Random.State.float rng 2.0)
  done;
  for _ = 1 to 2 * n do
    let i = Random.State.int rng n and j = Random.State.int rng n in
    if i <> j then add_rate i j (0.1 +. Random.State.float rng 1.0)
  done

let test_arnoldi_matches_gth () =
  let n = 180 in
  let t = Ctmc.create n in
  random_rates ~n ~seed:5 (Ctmc.add_rate t);
  let pi_gth = fst (Ctmc.stationary_supervised ~ladder:[ Ctmc.Rung_gth ] t) in
  let pi_arn, prov =
    Ctmc.stationary_supervised ~ladder:[ Ctmc.Rung_arnoldi { tol = 1e-10; restart = 30 } ] t
  in
  Array.iteri (fun i p -> check_float 1e-8 (Printf.sprintf "pi(%d)" i) p pi_arn.(i)) pi_gth;
  Alcotest.(check bool) "not degraded" false prov.Supervise.Provenance.degraded;
  match prov.Supervise.Provenance.quality with
  | Supervise.Provenance.Iterative { residual } ->
      Alcotest.(check bool) "residual reported below tol" true (residual <= 1e-10)
  | _ -> Alcotest.fail "arnoldi provenance should be Iterative"

let test_arnoldi_no_convergence () =
  let n = 180 in
  let s = Linalg.Sparse.create n in
  random_rates ~n ~seed:6 (Linalg.Sparse.add_rate s);
  let raised =
    try
      ignore (Linalg.Sparse.stationary_arnoldi_stats ~tol:1e-14 ~max_matvecs:3 s);
      false
    with Supervise.Error.Solver_error (Supervise.Error.No_convergence _) -> true
  in
  Alcotest.(check bool) "matvec ceiling raises No_convergence" true raised

let () =
  Alcotest.run "lump"
    [
      ( "ctmc-lump",
        [
          QCheck_alcotest.to_alcotest qcheck_lump_quotient;
          Alcotest.test_case "rejects non-lumpable" `Quick test_lump_rejects_non_lumpable;
        ] );
      ( "rotation-quotient",
        [
          Alcotest.test_case "invariant shift" `Quick test_invariant_shift;
          QCheck_alcotest.to_alcotest qcheck_lumped_matches_unlumped;
          Alcotest.test_case "lifted stationary = full" `Slow test_lumped_stationary_lifts_exactly;
          Alcotest.test_case "rejects shift-variant rates" `Quick test_lump_rejects_shifted_rates;
          Alcotest.test_case "state permutation = decoded permutation" `Quick
            test_state_permutation_decoded;
        ] );
      ( "sharded-explore",
        [
          QCheck_alcotest.to_alcotest qcheck_sharded_identity;
          Alcotest.test_case "cap under sharding" `Quick test_sharded_honours_cap;
          Alcotest.test_case "wide levels: sharded = serial" `Quick test_sharded_wide_levels;
          Alcotest.test_case "sharded counter" `Quick test_sharded_counter;
        ] );
      ( "arnoldi",
        [
          Alcotest.test_case "matches GTH" `Quick test_arnoldi_matches_gth;
          Alcotest.test_case "No_convergence" `Quick test_arnoldi_no_convergence;
        ] );
    ]
