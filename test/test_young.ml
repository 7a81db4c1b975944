open Young

let check_float tol = Alcotest.(check (float tol))

let test_binomial_values () =
  Alcotest.(check int) "C(0,0)" 1 (Combin.binomial 0 0);
  Alcotest.(check int) "C(5,2)" 10 (Combin.binomial 5 2);
  Alcotest.(check int) "C(10,10)" 1 (Combin.binomial 10 10);
  Alcotest.(check int) "C(20,10)" 184756 (Combin.binomial 20 10);
  Alcotest.(check int) "C(52,5)" 2598960 (Combin.binomial 52 5)

let test_binomial_invalid () =
  Alcotest.check_raises "k > n" (Invalid_argument "Combin.binomial: invalid arguments") (fun () ->
      ignore (Combin.binomial 3 4));
  Alcotest.check_raises "negative" (Invalid_argument "Combin.binomial: invalid arguments")
    (fun () -> ignore (Combin.binomial (-1) 0))

let qcheck_binomial_symmetry =
  QCheck.Test.make ~name:"binomial symmetry and Pascal rule" ~count:300
    QCheck.(pair (int_range 0 40) (int_range 0 40))
    (fun (n, k) ->
      QCheck.assume (k <= n);
      Combin.binomial n k = Combin.binomial n (n - k)
      && (k = 0 || k = n
         || Combin.binomial n k = Combin.binomial (n - 1) (k - 1) + Combin.binomial (n - 1) k))

let test_state_count_values () =
  (* S(u,v) = C(u+v-1, u-1) * v from the proof of Theorem 3 *)
  Alcotest.(check int) "S(1,1)" 1 (Combin.state_count ~u:1 ~v:1);
  Alcotest.(check int) "S(2,3)" 12 (Combin.state_count ~u:2 ~v:3);
  Alcotest.(check int) "S(9,7)" (Combin.binomial 15 8 * 7) (Combin.state_count ~u:9 ~v:7)

let coprime_cases = [ (1, 1); (1, 2); (2, 1); (2, 3); (3, 2); (3, 4); (2, 5); (4, 5); (5, 2) ]

let test_state_count_vs_exploration () =
  List.iter
    (fun (u, v) ->
      let teg = Pattern.build ~u ~v ~time:(fun ~sender:_ ~receiver:_ -> 1.0) in
      let markings = Petrinet.Marking.explore teg in
      Alcotest.(check int)
        (Printf.sprintf "S(%d,%d)" u v)
        (Combin.state_count ~u ~v) (Array.length markings))
    coprime_cases

let test_enabled_count_vs_exploration () =
  List.iter
    (fun (u, v) ->
      let teg = Pattern.build ~u ~v ~time:(fun ~sender:_ ~receiver:_ -> 1.0) in
      let markings = Petrinet.Marking.explore teg in
      for k = 0 to (u * v) - 1 do
        let count =
          Array.fold_left
            (fun acc m -> if Petrinet.Marking.is_enabled teg m k then acc + 1 else acc)
            0 markings
        in
        Alcotest.(check int)
          (Printf.sprintf "S'(%d,%d) for transition %d" u v k)
          (Combin.enabled_state_count ~u ~v) count
      done)
    coprime_cases

let test_pattern_invalid () =
  Alcotest.check_raises "not coprime" (Invalid_argument "Pattern: u and v must be coprime")
    (fun () -> ignore (Pattern.build ~u:2 ~v:4 ~time:(fun ~sender:_ ~receiver:_ -> 1.0)));
  Alcotest.check_raises "zero size" (Invalid_argument "Pattern: u and v must be at least 1")
    (fun () -> ignore (Pattern.build ~u:0 ~v:1 ~time:(fun ~sender:_ ~receiver:_ -> 1.0)))

let test_transition_of () =
  Alcotest.(check (pair int int)) "k=0" (0, 0) (Pattern.transition_of ~u:2 ~v:3 0);
  Alcotest.(check (pair int int)) "k=1" (1, 1) (Pattern.transition_of ~u:2 ~v:3 1);
  Alcotest.(check (pair int int)) "k=5" (1, 2) (Pattern.transition_of ~u:2 ~v:3 5)

let test_homogeneous_closed_form () =
  check_float 1e-12 "1x1" 1.0 (Pattern.homogeneous_inner_throughput ~u:1 ~v:1 ~lambda:1.0);
  check_float 1e-12 "2x3" 1.5 (Pattern.homogeneous_inner_throughput ~u:2 ~v:3 ~lambda:1.0);
  check_float 1e-12 "scaling in lambda" 4.5
    (Pattern.homogeneous_inner_throughput ~u:2 ~v:3 ~lambda:3.0)

let test_exponential_matches_closed_form () =
  List.iter
    (fun (u, v) ->
      let lambda = 0.7 in
      let exact =
        Pattern.exponential_inner_throughput ~u ~v ~rate:(fun ~sender:_ ~receiver:_ -> lambda) ()
      in
      check_float 1e-9
        (Printf.sprintf "CTMC = closed form for %dx%d" u v)
        (Pattern.homogeneous_inner_throughput ~u ~v ~lambda)
        exact)
    coprime_cases

let test_deterministic_is_min_uv () =
  List.iter
    (fun (u, v) ->
      let d = 2.0 in
      check_float 1e-9
        (Printf.sprintf "det inner %dx%d" u v)
        (float_of_int (min u v) /. d)
        (Pattern.deterministic_inner_throughput ~u ~v ~time:(fun ~sender:_ ~receiver:_ -> d)))
    coprime_cases

let qcheck_exponential_below_deterministic =
  (* Theorem 7 at the pattern level: exponential <= deterministic, with
     equality iff min(u,v) = 1 and the pattern is a simple ring... here we
     only check the inequality (strict when u,v >= 2). *)
  QCheck.Test.make ~name:"pattern: exponential <= deterministic" ~count:25
    QCheck.(small_int)
    (fun seed ->
      let g = Prng.create ~seed:(seed + 7) in
      let cases = [| (2, 3); (3, 4); (1, 2); (3, 2); (2, 5) |] in
      let u, v = cases.(Prng.int g (Array.length cases)) in
      let times = Array.init (u * v) (fun _ -> Prng.uniform g 0.5 3.0) in
      let time ~sender ~receiver =
        times.((sender + (receiver * u)) mod (u * v))
      in
      let det = Pattern.deterministic_inner_throughput ~u ~v ~time in
      let expo =
        Pattern.exponential_inner_throughput ~u ~v
          ~rate:(fun ~sender ~receiver -> 1.0 /. time ~sender ~receiver)
          ()
      in
      expo <= det +. 1e-9)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* The flat-array critical cycle against the TEG route it replaced, kept
   as the oracle: [Cycle_time.analyse] on [build]'s net.  Continuous times,
   ties among small integers and all-equal times exercise Howard's tie
   rules; u = 1 and v = 1 give self-loop rings. *)
let qcheck_deterministic_matches_teg =
  QCheck.Test.make ~name:"pattern: deterministic = TEG critical cycle, bit for bit" ~count:500
    QCheck.(quad (int_range 1 9) (int_range 1 9) (int_range 0 2) small_int)
    (fun (u, v, mode, seed) ->
      QCheck.assume (gcd u v = 1);
      let g = Prng.create ~seed:(seed + 101) in
      let times =
        Array.init (u * v) (fun _ ->
            match mode with
            | 0 -> Prng.uniform g 0.1 10.0
            | 1 -> float_of_int (1 + Prng.int g 3)
            | _ -> 2.5)
      in
      let time ~sender ~receiver = times.((sender * v) + receiver) in
      match Petrinet.Cycle_time.analyse (Pattern.build ~u ~v ~time) with
      | None -> false
      | Some { Petrinet.Cycle_time.period; _ } ->
          Int64.equal
            (Int64.bits_of_float (float_of_int (u * v) /. period))
            (Int64.bits_of_float (Pattern.deterministic_inner_throughput ~u ~v ~time)))

let test_deterministic_invalid () =
  let time ~sender ~receiver = if sender = 1 && receiver = 2 then -1.0 else 1.0 in
  Alcotest.check_raises "negative time"
    (Invalid_argument "Pattern.deterministic_inner_throughput: negative duration") (fun () ->
      ignore (Pattern.deterministic_inner_throughput ~u:2 ~v:3 ~time));
  Alcotest.check_raises "not coprime" (Invalid_argument "Pattern: u and v must be coprime")
    (fun () -> ignore (Pattern.deterministic_inner_throughput ~u:2 ~v:4 ~time))

let test_heterogeneous_sanity () =
  (* making one link very slow gates its sender and receiver *)
  let slow ~sender ~receiver = if sender = 0 && receiver = 0 then 100.0 else 1.0 in
  let expo =
    Pattern.exponential_inner_throughput ~u:2 ~v:3
      ~rate:(fun ~sender ~receiver -> 1.0 /. slow ~sender ~receiver)
      ()
  in
  (* six transfers per pattern rotation, one of which takes ~100: rate is
     dominated by it but other pairs still progress in parallel *)
  Alcotest.(check bool) "slow link slashes the throughput" true (expo < 0.2);
  Alcotest.(check bool) "but does not kill it" true (expo > 0.01)


let test_homogeneous_enabled_probability () =
  (* the proof of Theorem 4: the stationary distribution of a homogeneous
     pattern chain is uniform, so every transition is enabled with
     probability S'(u,v)/S(u,v) = 1/(u+v-1) *)
  List.iter
    (fun (u, v) ->
      let teg = Pattern.build ~u ~v ~time:(fun ~sender:_ ~receiver:_ -> 1.0) in
      let chain = fst (Markov.Tpn_markov.analyse_supervised ~rates:(fun _ -> 1.0) teg) in
      for k = 0 to (u * v) - 1 do
        check_float 1e-9
          (Printf.sprintf "(%d,%d) transition %d" u v k)
          (1.0 /. float_of_int (u + v - 1))
          (Markov.Tpn_markov.enabled_probability chain k)
      done)
    [ (2, 3); (3, 4); (2, 5) ]


let test_erlang_interpolates () =
  let rate ~sender:_ ~receiver:_ = 1.0 in
  let expo = Pattern.exponential_inner_throughput ~u:2 ~v:3 ~rate () in
  let det = Pattern.deterministic_inner_throughput ~u:2 ~v:3 ~time:(fun ~sender:_ ~receiver:_ -> 1.0) in
  let at k = Pattern.erlang_inner_throughput ~phases:k ~u:2 ~v:3 ~rate () in
  check_float 1e-9 "k=1 is the exponential case" expo (at 1);
  let k1 = at 1 and k2 = at 2 and k4 = at 4 and k6 = at 6 in
  Alcotest.(check bool)
    (Printf.sprintf "monotone: %.4f < %.4f < %.4f < %.4f" k1 k2 k4 k6)
    true
    (k1 < k2 && k2 < k4 && k4 < k6);
  Alcotest.(check bool) "below the deterministic limit" true (k6 < det)

let test_erlang_invalid () =
  Alcotest.check_raises "zero phases"
    (Invalid_argument "Pattern.erlang_inner_throughput: phases must be at least 1") (fun () ->
      ignore
        (Pattern.erlang_inner_throughput ~phases:0 ~u:2 ~v:3
           ~rate:(fun ~sender:_ ~receiver:_ -> 1.0)
           ()))

let test_cache_hits () =
  Pattern.clear_caches ();
  let rate ~sender ~receiver = 0.8 +. (0.05 *. float_of_int ((3 * sender) + receiver)) in
  let first = Pattern.exponential_inner_throughput ~u:3 ~v:4 ~rate () in
  let after_first = Pattern.cache_stats () in
  Alcotest.(check int) "first solve is a miss" 1 after_first.Pattern.misses;
  Alcotest.(check int) "no hit yet" 0 after_first.Pattern.hits;
  Alcotest.(check int) "one structure explored" 1 after_first.Pattern.structures;
  let second = Pattern.exponential_inner_throughput ~u:3 ~v:4 ~rate () in
  let after_second = Pattern.cache_stats () in
  Alcotest.(check int) "second solve is a hit" 1 after_second.Pattern.hits;
  Alcotest.(check int) "no further miss" 1 after_second.Pattern.misses;
  check_float 0.0 "memoised value is bit-identical" first second;
  (* same shape, different rates: the CTMC is re-solved but the explored
     state space is shared *)
  let other = Pattern.exponential_inner_throughput ~u:3 ~v:4 ~rate:(fun ~sender:_ ~receiver:_ -> 2.0) () in
  let after_other = Pattern.cache_stats () in
  Alcotest.(check int) "new rates miss the result memo" 2 after_other.Pattern.misses;
  Alcotest.(check int) "but reuse the structure" 1 after_other.Pattern.structures;
  Alcotest.(check bool) "different rates give a different value" true (other <> second);
  (* erlang expansions are cached under their own shape key *)
  let e1 = Pattern.erlang_inner_throughput ~phases:2 ~u:2 ~v:3 ~rate () in
  let e2 = Pattern.erlang_inner_throughput ~phases:2 ~u:2 ~v:3 ~rate () in
  let after_erlang = Pattern.cache_stats () in
  check_float 0.0 "erlang memoised" e1 e2;
  Alcotest.(check int) "erlang adds one structure" 2 after_erlang.Pattern.structures;
  Pattern.clear_caches ();
  let cleared = Pattern.cache_stats () in
  Alcotest.(check int) "clear resets hits" 0 cleared.Pattern.hits;
  Alcotest.(check int) "clear resets structures" 0 cleared.Pattern.structures

(* distinct 1x2 rate pairs past the memo's capacity: the memo stays
   bounded, every solve is counted, and a dropped entry solves again to
   the same float *)
let test_result_memo_bounded () =
  Pattern.clear_caches ();
  let solve i =
    Pattern.exponential_inner_throughput ~u:1 ~v:2
      ~rate:(fun ~sender:_ ~receiver -> 1.0 +. float_of_int i +. (0.5 *. float_of_int receiver))
      ()
  in
  let first = solve 0 in
  let extra = Pattern.result_capacity + 10 in
  for i = 1 to extra do
    ignore (solve i)
  done;
  let stats = Pattern.cache_stats () in
  Alcotest.(check bool) "within capacity" true (stats.Pattern.results <= Pattern.result_capacity);
  Alcotest.(check int) "every solve missed" (extra + 1) stats.Pattern.misses;
  Alcotest.(check int) "no hit" 0 stats.Pattern.hits;
  Alcotest.(check int64) "first rates solve again, bit for bit" (Int64.bits_of_float first)
    (Int64.bits_of_float (solve 0));
  Pattern.clear_caches ()

(* The walk of the pattern net is the walk of its Young lattice
   (Theorem 3); these cases walk it with the generic explorer, as every
   pattern solve does. *)
let pattern_net ~u ~v = Pattern.build ~u ~v ~time:(fun ~sender:_ ~receiver:_ -> 1.0)

let test_young_graph_cap () =
  Alcotest.check_raises "cap"
    (Supervise.Error.Solver_error
       (Supervise.Error.State_space_exceeded { cap = 5; explored = 5 }))
    (fun () -> ignore (Petrinet.Marking.explore_graph ~cap:5 (pattern_net ~u:3 ~v:4)));
  Alcotest.check_raises "budget state ceiling"
    (Supervise.Error.Solver_error
       (Supervise.Error.State_space_exceeded { cap = 7; explored = 7 }))
    (fun () ->
      ignore
        (Petrinet.Marking.explore_graph ~budget:(Supervise.Budget.create ~states:7 ())
           (pattern_net ~u:3 ~v:4)))

let test_young_graph_wall_budget () =
  let budget = Supervise.Budget.create ~wall:1e-9 () in
  ignore (Unix.select [] [] [] 0.01);
  match Petrinet.Marking.explore_graph ~budget (pattern_net ~u:3 ~v:4) with
  | _ -> Alcotest.fail "expected Budget_exhausted"
  | exception Supervise.Error.Solver_error (Supervise.Error.Budget_exhausted _) -> ()

(* a budget leaves a completed 1-phase walk and its solve as they are *)
let test_budgeted_shape () =
  let solve budget =
    Pattern.clear_caches ();
    Pattern.supervised_inner_throughput ?budget ~phases:1 ~u:3 ~v:5
      ~rate:(fun ~sender ~receiver -> 1.0 +. float_of_int (sender + (2 * receiver)))
      ()
  in
  let plain = solve None and budgeted = solve (Some (Supervise.Budget.create ~wall:60.0 ())) in
  Alcotest.(check int) "states" plain.Pattern.states budgeted.Pattern.states;
  Alcotest.(check int) "edges" plain.Pattern.edges budgeted.Pattern.edges;
  Alcotest.(check int64) "throughput bits" (Int64.bits_of_float plain.Pattern.throughput)
    (Int64.bits_of_float budgeted.Pattern.throughput);
  Pattern.clear_caches ()

let () =
  Alcotest.run "young"
    [
      ( "combinatorics",
        [
          Alcotest.test_case "binomial values" `Quick test_binomial_values;
          Alcotest.test_case "binomial invalid" `Quick test_binomial_invalid;
          QCheck_alcotest.to_alcotest qcheck_binomial_symmetry;
          Alcotest.test_case "state counts" `Quick test_state_count_values;
          Alcotest.test_case "S(u,v) vs exploration" `Slow test_state_count_vs_exploration;
          Alcotest.test_case "S'(u,v) vs exploration" `Slow test_enabled_count_vs_exploration;
        ] );
      ( "pattern",
        [
          Alcotest.test_case "invalid" `Quick test_pattern_invalid;
          Alcotest.test_case "transition_of" `Quick test_transition_of;
          Alcotest.test_case "closed form" `Quick test_homogeneous_closed_form;
          Alcotest.test_case "CTMC = closed form" `Slow test_exponential_matches_closed_form;
          Alcotest.test_case "deterministic = min(u,v)/d" `Quick test_deterministic_is_min_uv;
          QCheck_alcotest.to_alcotest qcheck_exponential_below_deterministic;
          Alcotest.test_case "heterogeneous sanity" `Quick test_heterogeneous_sanity;
          Alcotest.test_case "uniform stationary (Thm 4 proof)" `Slow test_homogeneous_enabled_probability;
          Alcotest.test_case "erlang interpolation" `Quick test_erlang_interpolates;
          Alcotest.test_case "erlang invalid" `Quick test_erlang_invalid;
          Alcotest.test_case "solve caches" `Quick test_cache_hits;
          Alcotest.test_case "young lattice walk honours cap" `Quick test_young_graph_cap;
          Alcotest.test_case "young lattice walk polls the wall budget" `Quick
            test_young_graph_wall_budget;
          Alcotest.test_case "budgeted 1-phase solve walks the lattice" `Quick test_budgeted_shape;
          QCheck_alcotest.to_alcotest qcheck_deterministic_matches_teg;
          Alcotest.test_case "deterministic invalid" `Quick test_deterministic_invalid;
          Alcotest.test_case "result memo is bounded" `Quick test_result_memo_bounded;
        ] );
    ]
