open Streaming

let check_float tol = Alcotest.(check (float tol))

let instance seed ~n_stages ~n_procs =
  let g = Prng.create ~seed in
  let app =
    Application.create
      ~work:(Array.init n_stages (fun _ -> Prng.uniform g 1.0 10.0))
      ~files:(Array.init (n_stages - 1) (fun _ -> Prng.uniform g 0.2 2.0))
  in
  let speeds = Array.init n_procs (fun _ -> Prng.uniform g 0.5 2.0) in
  let platform = Platform.fully_connected ~speeds ~bw:1.0 in
  (app, platform)

let pool_of n = List.init n Fun.id

(* On identical processors the composition assignment rule is irrelevant,
   so the exhaustive rung is provably optimal over full-pool mappings —
   the reference the other rungs are checked against.  (On heterogeneous
   platforms local search legitimately beats the composition subspace by
   re-assigning processors.) *)
let homogeneous_instance seed ~n_stages ~n_procs =
  let g = Prng.create ~seed in
  let app =
    Application.create
      ~work:(Array.init n_stages (fun _ -> Prng.uniform g 1.0 10.0))
      ~files:(Array.init (n_stages - 1) (fun _ -> Prng.uniform g 0.2 2.0))
  in
  (app, Platform.fully_connected ~speeds:(Array.make n_procs 1.0) ~bw:1.0)

let settings ?(domains = 1) ?(metric = Optimize.Objective.Exponential) ~n_procs () =
  let pool = Parallel.Pool.create ~domains in
  let objective = Optimize.Objective.create metric in
  (pool, Optimize.Search.default_settings ~pool ~objective ~procs:(pool_of n_procs))

let run ?domains ?metric ~rungs seed ~n_stages ~n_procs =
  let app, platform = instance seed ~n_stages ~n_procs in
  let pool, s = settings ?domains ?metric ~n_procs () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) @@ fun () ->
  Optimize.Engine.run ~rungs ~app ~platform s

let best_rho (r : Optimize.Engine.report) =
  match r.Optimize.Engine.best with
  | None -> Alcotest.fail "optimizer found no mapping"
  | Some (_, rho) -> rho

(* ---- candidate layer ---- *)

let test_candidate_canonical () =
  let c = Optimize.Candidate.of_teams [| [| 3; 0 |]; [| 2 |] |] in
  Alcotest.(check string) "sorted key" "0,3|2" (Optimize.Candidate.key c);
  Alcotest.(check (list int)) "unused ascending" [ 1; 4 ]
    (Optimize.Candidate.unused ~pool:(pool_of 5) c)

(* Round-robin order within a team is part of the mapping, so the sorted
   form is not canonical.  The smallest instance that shows it: two stages
   with two processors each, on a homogeneous network.  Teams 0,1 | 2,3
   pair the data sets' processors as 0→2 and 1→3, and 0,1 | 3,2 as 0→3
   and 1→2; the two mappings have different throughputs (0.6 and 0.533
   under both laws), yet [Candidate] gives them one key. *)
let test_team_order_matters () =
  let app = Application.create ~work:[| 3.0; 5.0 |] ~files:[| 1.0 |] in
  let platform = Platform.fully_connected ~speeds:[| 1.0; 2.0; 1.0; 2.0 |] ~bw:2.0 in
  let sorted = [| [| 0; 1 |]; [| 2; 3 |] |] and swapped = [| [| 0; 1 |]; [| 3; 2 |] |] in
  let differ name f =
    let a = f (Mapping.create ~app ~platform ~teams:sorted)
    and b = f (Mapping.create ~app ~platform ~teams:swapped) in
    Alcotest.(check bool) (Printf.sprintf "%s: %.4f vs %.4f" name a b) true (abs_float (a -. b) > 0.05)
  in
  differ "exponential" (fun m -> Expo.overlap_throughput m);
  differ "deterministic" Deterministic.overlap_throughput_decomposed;
  Alcotest.(check string) "one candidate key"
    (Optimize.Candidate.key (Optimize.Candidate.of_teams sorted))
    (Optimize.Candidate.key (Optimize.Candidate.of_teams swapped))

let test_candidate_neighbors () =
  let c = Optimize.Candidate.of_teams [| [| 0 |]; [| 1; 2 |] |] in
  let pool = pool_of 4 in
  let neighbors = Optimize.Candidate.neighbors ~pool c in
  (* grows: 2 stages x 1 free proc (3); shrinks: only stage 1 (2);
     moves: only from stage 1 (2); swaps: 0<->1 and 0<->2 (2) *)
  Alcotest.(check int) "neighborhood size" 8 (List.length neighbors);
  (* every neighbour is feasible: non-empty sorted teams, disjoint *)
  List.iter
    (fun (_, n) ->
      let teams = Optimize.Candidate.teams n in
      Array.iter (fun team -> Alcotest.(check bool) "non-empty" true (Array.length team > 0)) teams;
      let all = Array.to_list teams |> Array.concat |> Array.to_list in
      Alcotest.(check int) "disjoint" (List.length all)
        (List.length (List.sort_uniq compare all)))
    neighbors;
  (* deterministic order: two enumerations agree *)
  Alcotest.(check (list string)) "stable order"
    (List.map (fun (_, n) -> Optimize.Candidate.key n) neighbors)
    (List.map (fun (_, n) -> Optimize.Candidate.key n) (Optimize.Candidate.neighbors ~pool c))

(* ---- objective layer ---- *)

let test_bound_dominates_value () =
  (* Theorem 7: the deterministic critical-cycle throughput upper-bounds
     the exponential throughput of the same mapping *)
  let app, platform = instance 7 ~n_stages:3 ~n_procs:6 in
  let obj = Optimize.Objective.create Optimize.Objective.Exponential in
  let cand = Optimize.Candidate.baseline ~app ~platform ~pool:(pool_of 6) in
  let m = Optimize.Candidate.mapping ~app ~platform cand in
  let b = Optimize.Objective.bound obj m in
  let v = Optimize.Objective.value obj m in
  Alcotest.(check bool) (Printf.sprintf "bound %.4f >= value %.4f" b v) true (b >= v -. 1e-9)

let test_objective_prunes () =
  let app, platform = instance 7 ~n_stages:3 ~n_procs:6 in
  let obj = Optimize.Objective.create Optimize.Objective.Exponential in
  let cand = Optimize.Candidate.baseline ~app ~platform ~pool:(pool_of 6) in
  let m = Optimize.Candidate.mapping ~app ~platform cand in
  let b = Optimize.Objective.bound obj m in
  (match Optimize.Objective.evaluate obj ~incumbent:(b +. 1.0) m with
  | Optimize.Objective.Pruned _ -> ()
  | o -> Alcotest.failf "expected Pruned, got %s" (Optimize.Objective.outcome_to_string o));
  match Optimize.Objective.evaluate obj ~incumbent:neg_infinity m with
  | Optimize.Objective.Evaluated _ -> ()
  | o -> Alcotest.failf "expected Evaluated, got %s" (Optimize.Objective.outcome_to_string o)

(* ---- search rungs ---- *)

let test_rungs_beat_greedy () =
  let greedy = run ~rungs:[ Optimize.Engine.Greedy ] 11 ~n_stages:3 ~n_procs:6 in
  let g = best_rho greedy in
  List.iter
    (fun rung ->
      let r = run ~rungs:[ Optimize.Engine.Greedy; rung ] 11 ~n_stages:3 ~n_procs:6 in
      let rho = best_rho r in
      Alcotest.(check bool)
        (Printf.sprintf "%s %.5f >= greedy %.5f" (Optimize.Engine.rung_to_string rung) rho g)
        true (rho >= g -. 1e-9))
    [ Optimize.Engine.Local; Optimize.Engine.Anneal; Optimize.Engine.Exhaustive ]

let run_homogeneous ~rungs seed ~n_stages ~n_procs =
  let app, platform = homogeneous_instance seed ~n_stages ~n_procs in
  let pool, s = settings ~n_procs () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) @@ fun () ->
  Optimize.Engine.run ~rungs ~app ~platform s

let test_local_and_anneal_match_exhaustive () =
  (* CI smoke instance: 3 stages over 6 identical processors *)
  let exhaustive = run_homogeneous ~rungs:[ Optimize.Engine.Exhaustive ] 11 ~n_stages:3 ~n_procs:6 in
  let opt = best_rho exhaustive in
  let local =
    run_homogeneous ~rungs:[ Optimize.Engine.Greedy; Optimize.Engine.Local ] 11 ~n_stages:3
      ~n_procs:6
  in
  check_float 1e-6 "greedy+local finds the optimum" opt (best_rho local);
  let anneal =
    run_homogeneous
      ~rungs:[ Optimize.Engine.Greedy; Optimize.Engine.Local; Optimize.Engine.Anneal ]
      11 ~n_stages:3 ~n_procs:6
  in
  check_float 1e-6 "ladder with annealing finds the optimum" opt (best_rho anneal)

let test_pool_size_bit_identity () =
  let rungs =
    [ Optimize.Engine.Greedy; Optimize.Engine.Local; Optimize.Engine.Anneal;
      Optimize.Engine.Exhaustive ]
  in
  let r1 = run ~domains:1 ~rungs 23 ~n_stages:3 ~n_procs:6 in
  let r3 = run ~domains:3 ~rungs 23 ~n_stages:3 ~n_procs:6 in
  Alcotest.(check string) "report JSON identical for 1 vs 3 domains"
    (Optimize.Engine.report_to_string r1)
    (Optimize.Engine.report_to_string r3)

let test_prune_accounting () =
  let r = run ~rungs:[ Optimize.Engine.Greedy; Optimize.Engine.Exhaustive ] 31 ~n_stages:3 ~n_procs:7 in
  Alcotest.(check bool) "prune fired" true (r.Optimize.Engine.pruned > 0);
  Alcotest.(check bool) "some candidates still solved" true (r.Optimize.Engine.evaluated > 0);
  Alcotest.(check bool) "accounting consistent" true
    (r.Optimize.Engine.candidates
    >= r.Optimize.Engine.evaluated + r.Optimize.Engine.pruned + r.Optimize.Engine.failed)

(* ---- typed failures are information, not 0.0 ---- *)

let failing_metric ~fail_on =
  (* deterministic objective, except the candidates whose key is in
     [fail_on] raise a recoverable typed error from their solve *)
  Optimize.Objective.Custom
    {
      name = "failing";
      bound = (fun m -> Deterministic.overlap_throughput_decomposed m);
      value =
        (fun m ->
          let key =
            String.concat "|"
              (List.init (Mapping.n_stages m) (fun i ->
                   String.concat ","
                     (List.map string_of_int (Array.to_list (Mapping.team m i)))))
          in
          if List.mem key fail_on then
            Supervise.Error.raise_
              (Supervise.Error.State_space_exceeded { cap = 1; explored = 2 })
          else Deterministic.overlap_throughput_decomposed m);
    }

let test_typed_failure_recorded_and_survived () =
  let app, platform = instance 41 ~n_stages:2 ~n_procs:4 in
  (* fail a candidate the exhaustive sweep actually visits: the
     composition space uses the full pool, so pick a full-pool point *)
  let victim =
    Optimize.Candidate.of_composition ~app ~platform ~pool:(pool_of 4) [ 2; 2 ]
  in
  let fail_on = [ Optimize.Candidate.key victim ] in
  let pool = Parallel.Pool.create ~domains:1 in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) @@ fun () ->
  let objective = Optimize.Objective.create (failing_metric ~fail_on) in
  let s = Optimize.Search.default_settings ~pool ~objective ~procs:(pool_of 4) in
  let r =
    Optimize.Engine.run ~rungs:[ Optimize.Engine.Exhaustive ] ~app ~platform s
  in
  (* the failing candidate is recorded as Failed, never scored as 0.0 ... *)
  Alcotest.(check int) "one failure recorded" 1 r.Optimize.Engine.failed;
  let failed_attempts =
    List.filter
      (fun (a : Optimize.Search.attempt) ->
        match a.Optimize.Search.outcome with Optimize.Objective.Failed _ -> true | _ -> false)
      r.Optimize.Engine.attempts
  in
  Alcotest.(check int) "failure in the attempt trail" 1 (List.length failed_attempts);
  (* ... and the search survives it and still finds a best mapping *)
  let best_key =
    match r.Optimize.Engine.best with
    | None -> Alcotest.fail "search died on a typed failure"
    | Some (c, _) -> Optimize.Candidate.key c
  in
  Alcotest.(check bool) "best is not the failing candidate" false (List.mem best_key fail_on)

let test_programming_error_propagates () =
  let app, platform = instance 43 ~n_stages:2 ~n_procs:3 in
  let pool = Parallel.Pool.create ~domains:1 in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) @@ fun () ->
  let objective =
    Optimize.Objective.create
      (Optimize.Objective.Custom
         {
           name = "broken";
           bound = (fun m -> Deterministic.overlap_throughput_decomposed m);
           value = (fun _ -> invalid_arg "boom");
         })
  in
  let s = Optimize.Search.default_settings ~pool ~objective ~procs:(pool_of 3) in
  Alcotest.check_raises "Invalid_argument escapes the search" (Invalid_argument "boom")
    (fun () ->
      ignore (Optimize.Engine.run ~rungs:[ Optimize.Engine.Exhaustive ] ~app ~platform s))

(* ---- engine report ---- *)

let test_report_shape () =
  let r = run ~rungs:[ Optimize.Engine.Greedy ] 53 ~n_stages:3 ~n_procs:6 in
  let json = Optimize.Engine.report_to_string r in
  match Service.Json.parse json with
  | Error msg -> Alcotest.failf "report is not valid JSON: %s" msg
  | Ok v ->
      let str k = Option.bind (Service.Json.member k v) Service.Json.to_string_opt in
      Alcotest.(check (option string)) "record tag" (Some "optimize") (str "record");
      Alcotest.(check (option string)) "metric" (Some "exponential") (str "metric");
      let best = Option.get (Service.Json.member "best" v) in
      Alcotest.(check (option bool)) "found" (Some true)
        (Option.bind (Service.Json.member "found" best) Service.Json.to_bool_opt)

(* ---- records against golden digests ---- *)

(* MD5 digests of [report_to_string] for the instances [optimize --random]
   draws ([--stages S --procs P --inst-seed I], all four rungs, default
   search seed and cap), recorded when the bound still built a timed event
   graph per pattern component.  A change to a bound, a value, the memo or
   the search order moves a digest. *)
let golden_records =
  Optimize.Objective.
    [
      (Exponential, 5, 14, 11, "a3c581facd682fff275e7e27b1e4ad13");
      (Exponential, 5, 14, 12, "dd8b07b9f7dc5f55d1c8e8f6e9179186");
      (Exponential, 5, 14, 13, "d6b6307f628d60c682b4f1f5f390409a");
      (Deterministic, 5, 14, 21, "f71d01444c3cca48f29b38167c634a32");
      (Deterministic, 5, 14, 22, "c6ddbc0bfaec781bdfbef3cba91fbd5e");
      (Deterministic, 5, 14, 23, "0dd199d45a29263ab109b5777bcafaa2");
      (Deterministic, 5, 14, 24, "36086ab61615ba16108f77361d627a43");
      (Strict, 3, 7, 31, "535115033e7fa2b33013d681df622071");
      (Strict, 3, 7, 32, "90be5723b834cd083592be18e2033935");
    ]

let test_records_golden () =
  List.iter
    (fun (metric, stages, procs, inst_seed, digest) ->
      let app, platform =
        Workload.Gen.random_instance (Prng.create ~seed:inst_seed)
          {
            Workload.Gen.i_stages = stages;
            i_procs = procs;
            i_comp_range = (1.0, 10.0);
            i_comm_range = (0.2, 2.0);
          }
      in
      let domains = if inst_seed mod 2 = 0 then 2 else 1 in
      let pool, s = settings ~domains ~metric ~n_procs:procs () in
      Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) @@ fun () ->
      let rungs = Optimize.Engine.[ Greedy; Local; Anneal; Exhaustive ] in
      let r = Optimize.Engine.run ~rungs ~app ~platform s in
      Alcotest.(check string)
        (Printf.sprintf "%s, %d stages, %d procs, seed %d"
           (Optimize.Objective.metric_name metric)
           stages procs inst_seed)
        digest
        (Digest.to_hex (Digest.string (Optimize.Engine.report_to_string r))))
    golden_records

let () =
  Alcotest.run "optimize"
    [
      ( "candidate",
        [
          Alcotest.test_case "canonical form" `Quick test_candidate_canonical;
          Alcotest.test_case "team order changes the throughput" `Quick test_team_order_matters;
          Alcotest.test_case "neighborhood" `Quick test_candidate_neighbors;
        ] );
      ( "objective",
        [
          Alcotest.test_case "bound dominates value" `Quick test_bound_dominates_value;
          Alcotest.test_case "prune" `Quick test_objective_prunes;
        ] );
      ( "search",
        [
          Alcotest.test_case "rungs beat greedy" `Quick test_rungs_beat_greedy;
          Alcotest.test_case "match exhaustive" `Quick test_local_and_anneal_match_exhaustive;
          Alcotest.test_case "pool-size bit-identity" `Quick test_pool_size_bit_identity;
          Alcotest.test_case "prune accounting" `Quick test_prune_accounting;
        ] );
      ( "failures",
        [
          Alcotest.test_case "typed failure recorded" `Quick test_typed_failure_recorded_and_survived;
          Alcotest.test_case "programming error propagates" `Quick test_programming_error_propagates;
        ] );
      ( "report",
        [
          Alcotest.test_case "JSON shape" `Quick test_report_shape;
          Alcotest.test_case "optimize records = golden" `Quick test_records_golden;
        ] );
    ]
