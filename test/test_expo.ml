open Streaming

let check_float tol = Alcotest.(check (float tol))

let test_single_stage_rate () =
  let app = Application.create ~work:[| 4.0 |] ~files:[||] in
  let platform = Platform.fully_connected ~speeds:[| 2.0 |] ~bw:1.0 in
  let mapping = Mapping.create ~app ~platform ~teams:[| [| 0 |] |] in
  check_float 1e-9 "overlap" 0.5 (Expo.overlap_throughput mapping);
  check_float 1e-9 "strict" 0.5 (Expo.strict_throughput mapping)

let test_fig13_closed_form_grid () =
  (* single homogeneous communication: rho = u*v/(u+v-1), Theorem 4 *)
  List.iter
    (fun (u, v) ->
      let mapping = Workload.Scenarios.single_communication ~u ~v () in
      let expected = float_of_int (u * v) /. float_of_int (u + v - 1) in
      check_float 1e-6 (Printf.sprintf "%dx%d" u v) expected (Expo.overlap_throughput mapping))
    [ (1, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 6); (2, 7); (7, 2); (8, 9) ]

let test_fig15_ratio_formula () =
  (* exponential/deterministic = max(u,v)/(u+v-1) for a single homogeneous
     communication (§7.5) *)
  List.iter
    (fun (u, v) ->
      let mapping = Workload.Scenarios.single_communication ~u ~v () in
      let expo = Expo.overlap_throughput mapping in
      let det = Deterministic.throughput mapping Model.Overlap in
      let expected = float_of_int (max u v) /. float_of_int (u + v - 1) in
      check_float 1e-6 (Printf.sprintf "%dx%d ratio" u v) expected (expo /. det))
    [ (2, 3); (3, 4); (5, 4); (2, 9); (6, 7) ]

let test_closed_form_only_flag () =
  let het ~u ~v =
    Workload.Scenarios.single_communication ~u ~v
      ~comm_time:(fun s r -> 1.0 +. (0.2 *. float_of_int (s + r)))
      ()
  in
  let mapping = het ~u:2 ~v:3 in
  Alcotest.check_raises "heterogeneous rejected"
    (Invalid_argument "Expo.overlap_throughput: heterogeneous component under closed_form_only")
    (fun () -> ignore (Expo.overlap_throughput ~closed_form_only:true mapping));
  (* homogeneous instance passes *)
  let hom = Workload.Scenarios.single_communication ~u:2 ~v:3 () in
  check_float 1e-9 "closed-form-only on homogeneous" (Expo.overlap_throughput hom)
    (Expo.overlap_throughput ~closed_form_only:true hom)

let test_strict_markov_vs_des () =
  let app = Application.create ~work:[| 10.; 20.; 30.; 10. |] ~files:[| 8.; 12.; 6. |] in
  let speeds = [| 2.; 1.; 1.5; 1.; 2.; 1.; 2. |] in
  let platform =
    Platform.of_link_function ~n:7 ~speeds ~bw:(fun p q -> 1.0 +. (0.1 *. float_of_int (p + q)))
  in
  let mapping = Mapping.create ~app ~platform ~teams:[| [| 0 |]; [| 1; 2 |]; [| 3; 4; 5 |]; [| 6 |] |] in
  let theory = Expo.strict_throughput ~cap:500_000 mapping in
  let sim =
    Des.Pipeline_sim.throughput mapping Model.Strict
      ~timing:(Des.Pipeline_sim.Independent (Laws.exponential mapping))
      ~seed:4 ~data_sets:60_000
  in
  Alcotest.(check bool)
    (Printf.sprintf "theory %.5f vs sim %.5f" theory sim)
    true
    (abs_float (theory -. sim) /. theory < 0.03)

let test_overlap_decomposition_vs_bounded_markov () =
  let app = Application.create ~work:[| 0.001; 0.001 |] ~files:[| 1.0 |] in
  let platform =
    Platform.of_link_function ~n:3 ~speeds:(Array.make 3 1.0) ~bw:(fun p q ->
        0.6 +. (0.13 *. float_of_int ((p * 2) + q)))
  in
  let mapping = Mapping.create ~app ~platform ~teams:[| [| 0 |]; [| 1; 2 |] |] in
  let dec = Expo.overlap_throughput mapping in
  let markov = Expo.general_throughput ~cap:500_000 ~buffer:4 mapping Model.Overlap in
  check_float (2e-3 *. dec) "decomposition = bounded markov" dec markov

let test_overlap_decomposition_vs_sims () =
  let app = Application.create ~work:[| 0.001; 0.001 |] ~files:[| 1.0 |] in
  let platform =
    Platform.of_link_function ~n:5 ~speeds:(Array.make 5 1.0) ~bw:(fun p q ->
        0.6 +. (0.13 *. float_of_int ((p * 2) + q)))
  in
  let mapping = Mapping.create ~app ~platform ~teams:[| [| 0; 1 |]; [| 2; 3; 4 |] |] in
  let dec = Expo.overlap_throughput mapping in
  let des =
    Des.Pipeline_sim.throughput mapping Model.Overlap
      ~timing:(Des.Pipeline_sim.Independent (Laws.exponential mapping))
      ~seed:3 ~data_sets:100_000
  in
  let egs =
    Teg_sim.throughput mapping Model.Overlap ~laws:(Laws.exponential mapping) ~seed:5
      ~data_sets:100_000
  in
  Alcotest.(check bool)
    (Printf.sprintf "dec %.4f vs des %.4f" dec des)
    true
    (abs_float (dec -. des) /. dec < 0.02);
  Alcotest.(check bool)
    (Printf.sprintf "dec %.4f vs egsim %.4f" dec egs)
    true
    (abs_float (dec -. egs) /. dec < 0.02)

let test_per_row_composition () =
  (* slow unreplicated producer feeding a duplicated consumer: the naive
     "sum of min over predecessors" would give 2x the producer rate; the
     per-row composition gives the producer rate *)
  let app = Application.create ~work:[| 1.0; 1.0 |] ~files:[| 0.001 |] in
  let platform = Platform.fully_connected ~speeds:[| 1.0; 1.0; 1.0 |] ~bw:1.0 in
  let mapping = Mapping.create ~app ~platform ~teams:[| [| 0 |]; [| 1; 2 |] |] in
  let dec = Expo.overlap_throughput mapping in
  check_float 1e-6 "gated by the producer" 1.0 dec;
  let des =
    Des.Pipeline_sim.throughput mapping Model.Overlap
      ~timing:(Des.Pipeline_sim.Independent (Laws.exponential mapping))
      ~seed:11 ~data_sets:100_000
  in
  Alcotest.(check bool) (Printf.sprintf "des %.4f" des) true (abs_float (des -. 1.0) < 0.02)

let random_mapping seed =
  let g = Prng.create ~seed in
  Workload.Gen.random_mapping g
    {
      Workload.Gen.n_stages = 2 + Prng.int g 3;
      n_procs = 6 + Prng.int g 5;
      comp_range = (5.0, 15.0);
      comm_range = (5.0, 15.0);
      max_rows = 40;
    }

let qcheck_exponential_below_deterministic =
  QCheck.Test.make ~name:"overlap: exponential <= deterministic (Theorem 7)" ~count:25
    QCheck.small_int
    (fun seed ->
      let mapping = random_mapping (seed + 17) in
      let det = Deterministic.overlap_throughput_decomposed mapping in
      let expo = Expo.overlap_throughput ~pattern_cap:300_000 mapping in
      expo <= det +. (1e-9 *. det))

let qcheck_throughput_dispatch =
  QCheck.Test.make ~name:"throughput dispatches to the right method" ~count:5 QCheck.small_int
    (fun seed ->
      let mapping = random_mapping (seed + 400) in
      abs_float
        (fst (Throughput.solve Throughput.Exponential Model.Overlap mapping)
        -. Expo.overlap_throughput mapping)
      < 1e-12)


let qcheck_strict_below_overlap =
  (* the Strict model only adds constraints: its exponential throughput
     cannot exceed the Overlap one *)
  QCheck.Test.make ~name:"exponential: strict <= overlap" ~count:10 QCheck.small_int
    (fun seed ->
      let g = Prng.create ~seed:(seed + 900) in
      let mapping =
        Workload.Gen.random_mapping g
          {
            Workload.Gen.n_stages = 2;
            n_procs = 4 + Prng.int g 2;
            comp_range = (5.0, 15.0);
            comm_range = (5.0, 15.0);
            max_rows = 6;
          }
      in
      let strict = Expo.strict_throughput ~cap:400_000 mapping in
      let overlap = Expo.overlap_throughput mapping in
      strict <= overlap +. (1e-9 *. overlap))

let qcheck_columns_partition_rows =
  (* within each column, the components' row sets partition the m rows *)
  QCheck.Test.make ~name:"column components partition the rows" ~count:40 QCheck.small_int
    (fun seed ->
      let g = Prng.create ~seed:(seed + 1200) in
      let mapping =
        Workload.Gen.random_mapping g
          {
            Workload.Gen.n_stages = 2 + Prng.int g 3;
            n_procs = 6 + Prng.int g 5;
            comp_range = (5.0, 15.0);
            comm_range = (5.0, 15.0);
            max_rows = 60;
          }
      in
      let m = Mapping.rows mapping in
      let n = Mapping.n_stages mapping in
      (* group components by column: stage i computes then file i comms *)
      let columns = Array.make ((2 * n) - 1) [] in
      List.iter
        (fun c ->
          let col =
            match c with
            | Columns.Compute { stage; _ } -> 2 * stage
            | Columns.Communication { Columns.file; _ } -> (2 * file) + 1
          in
          columns.(col) <- c :: columns.(col))
        (Columns.components mapping);
      Array.for_all
        (fun comps ->
          let rows =
            List.concat_map
              (fun c ->
                match c with
                | Columns.Compute { stage; proc } ->
                    let team = Mapping.team mapping stage in
                    let idx = Option.get (Array.find_index (Int.equal proc) team) in
                    List.init (m / Array.length team) (fun k -> idx + (k * Array.length team))
                | Columns.Communication { Columns.file; residue; _ } ->
                    let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
                    let gg =
                      gcd
                        (Array.length (Mapping.team mapping file))
                        (Array.length (Mapping.team mapping (file + 1)))
                    in
                    List.init (m / gg) (fun k -> residue + (k * gg)))
              comps
          in
          List.sort_uniq compare rows = List.init m Fun.id)
        columns)


let test_erlang_matches_des () =
  let mapping = Workload.Scenarios.single_communication ~u:2 ~v:3 () in
  List.iter
    (fun k ->
      let exact = Expo.overlap_throughput_erlang ~phases:k mapping in
      let des =
        Des.Pipeline_sim.throughput mapping Model.Overlap
          ~timing:
            (Des.Pipeline_sim.Independent
               (Laws.of_family mapping ~family:(fun mu -> Dist.with_mean (Dist.Erlang (k, 1.0)) mu)))
          ~seed:3 ~data_sets:60_000
      in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d exact %.4f vs des %.4f" k exact des)
        true
        (abs_float (exact -. des) /. exact < 0.02))
    [ 1; 2; 4 ]

let test_erlang_within_bounds () =
  (* Erlang is N.B.U.E.: the exact value must respect Theorem 7 *)
  let mapping = Workload.Scenarios.single_communication ~u:3 ~v:4 () in
  let bounds = Bounds.compute mapping Model.Overlap in
  List.iter
    (fun k ->
      let exact = Expo.overlap_throughput_erlang ~phases:k mapping in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d within [%.3f, %.3f]" k bounds.Bounds.lower bounds.Bounds.upper)
        true
        (exact >= bounds.Bounds.lower -. 1e-9 && exact <= bounds.Bounds.upper +. 1e-9))
    [ 1; 2; 3; 5 ]

let test_strict_erlang () =
  (* small strict instance: k=1 equals the exponential general method, and
     k=3 lies between it and the deterministic value *)
  let app = Application.create ~work:[| 4.0; 6.0 |] ~files:[| 2.0 |] in
  let platform = Platform.fully_connected ~speeds:[| 1.0; 1.0; 1.0 |] ~bw:1.0 in
  let mapping = Mapping.create ~app ~platform ~teams:[| [| 0 |]; [| 1; 2 |] |] in
  let expo = Expo.strict_throughput ~cap:500_000 mapping in
  let det = Deterministic.throughput mapping Model.Strict in
  let erlang k = fst (Throughput.solve ~cap:500_000 (Throughput.Erlang k) Model.Strict mapping) in
  let k1 = erlang 1 and k3 = erlang 3 in
  Alcotest.(check (float 1e-9)) "k=1 = exponential" expo k1;
  Alcotest.(check bool)
    (Printf.sprintf "exp %.4f < k3 %.4f < det %.4f" expo k3 det)
    true
    (expo < k3 && k3 < det)


let test_ph_hyper_matches_des () =
  let mapping = Workload.Scenarios.single_communication ~u:2 ~v:3 () in
  let branches = [ (0.5, 0.4); (0.5, 4.0) ] in
  let exact =
    Expo.overlap_throughput_ph
      ~ph:(fun r ->
        Markov.Ph.with_mean (Markov.Ph.hyperexponential branches) (Mapping.mean_time mapping r))
      mapping
  in
  let des =
    Des.Pipeline_sim.throughput mapping Model.Overlap
      ~timing:
        (Des.Pipeline_sim.Independent
           (Laws.of_family mapping ~family:(fun mu -> Dist.with_mean (Dist.Hyperexp branches) mu)))
      ~seed:9 ~data_sets:100_000
  in
  let lower = Expo.overlap_throughput mapping in
  Alcotest.(check bool)
    (Printf.sprintf "exact %.4f vs des %.4f" exact des)
    true
    (abs_float (exact -. des) /. exact < 0.02);
  Alcotest.(check bool)
    (Printf.sprintf "DFR: exact %.4f below exponential %.4f" exact lower)
    true (exact < lower)


let test_throughput_facade () =
  let mapping = Workload.Scenarios.single_communication ~u:2 ~v:3 () in
  let check_f tol = Alcotest.(check (float tol)) in
  let solve ?cap law model m = fst (Throughput.solve ?cap law model m) in
  (* every row dispatches to its reference implementation *)
  check_f 1e-9 "constant" (Deterministic.throughput mapping Model.Overlap)
    (solve Throughput.Deterministic Model.Overlap mapping);
  check_f 1e-9 "exponential" (Expo.overlap_throughput mapping)
    (solve Throughput.Exponential Model.Overlap mapping);
  check_f 1e-9 "erlang" (Expo.overlap_throughput_erlang ~phases:3 mapping)
    (solve (Throughput.Erlang 3) Model.Overlap mapping);
  (* Ph with an Erlang-3 law coincides with the Erlang expansion *)
  check_f 1e-9 "ph = erlang"
    (solve (Throughput.Erlang 3) Model.Overlap mapping)
    (solve (Throughput.Ph (Markov.Ph.erlang ~phases:3 ~rate:3.0)) Model.Overlap mapping);
  (* strict dispatch *)
  let app = Application.create ~work:[| 4.0; 6.0 |] ~files:[| 2.0 |] in
  let platform = Platform.fully_connected ~speeds:[| 1.0; 1.0; 1.0 |] ~bw:1.0 in
  let small = Mapping.create ~app ~platform ~teams:[| [| 0 |]; [| 1; 2 |] |] in
  check_f 1e-9 "strict exponential" (Expo.strict_throughput ~cap:500_000 small)
    (solve Throughput.Exponential Model.Strict small);
  check_f 1e-9 "strict ph exponential = strict exponential"
    (solve Throughput.Exponential Model.Strict small)
    (solve (Throughput.Ph (Markov.Ph.exponential ~rate:1.0)) Model.Strict small);
  (* provenance: closed forms, critical cycles and pattern solves are
     "exact"; a Strict phase-type solve reports its ladder's rung *)
  List.iter
    (fun law ->
      Alcotest.(check string)
        ("exact provenance, " ^ Throughput.law_to_string law)
        "exact"
        (Supervise.Provenance.describe (snd (Throughput.solve law Model.Overlap mapping))))
    [ Throughput.Deterministic; Throughput.Exponential; Throughput.Erlang 2 ];
  let _, prov =
    Throughput.solve (Throughput.Ph (Markov.Ph.erlang ~phases:2 ~rate:2.0)) Model.Strict small
  in
  Alcotest.(check bool)
    ("strict ph provenance names its rung: " ^ Supervise.Provenance.describe prov)
    true
    (prov.Supervise.Provenance.attempts <> [])


let qcheck_erlang_monotone_in_phases =
  (* Erlang-k is stochastically "more deterministic" as k grows: the exact
     throughput must be nondecreasing in k and capped by the bounds *)
  QCheck.Test.make ~name:"erlang exact value monotone in the phase count" ~count:8
    QCheck.small_int
    (fun seed ->
      let g = Prng.create ~seed:(seed + 60) in
      let pairs = [| (2, 3); (3, 4); (1, 2); (2, 5) |] in
      let u, v = pairs.(Prng.int g (Array.length pairs)) in
      let mapping = Workload.Scenarios.single_communication ~u ~v () in
      let b = Bounds.compute mapping Model.Overlap in
      let values =
        List.map (fun k -> Expo.overlap_throughput_erlang ~phases:k mapping) [ 1; 2; 3; 5 ]
      in
      let rec monotone = function
        | a :: (b' :: _ as rest) -> a <= b' +. 1e-9 && monotone rest
        | _ -> true
      in
      monotone values
      && List.for_all
           (fun x -> x >= b.Bounds.lower -. 1e-9 && x <= b.Bounds.upper +. 1e-9)
           values)

(* ---- the solve table ---- *)

(* Strict draws stay small (2-3 stages, at most 5 processors): the
   marking space grows fast with the replication *)
let small_mapping g model =
  let n_stages, n_procs, max_rows =
    match model with
    | Model.Strict -> (2 + Prng.int g 2, 3 + Prng.int g 3, 6)
    | Model.Overlap -> (2 + Prng.int g 3, 4 + Prng.int g 5, 12)
  in
  Workload.Gen.random_mapping g
    { Workload.Gen.n_stages; n_procs; comp_range = (5.0, 15.0); comm_range = (5.0, 15.0); max_rows }

let erlang2 = Markov.Ph.erlang ~phases:2 ~rate:2.0
let laws =
  [ Throughput.Deterministic; Throughput.Exponential; Throughput.Erlang 2; Throughput.Ph erlang2 ]

let outcome f =
  match f () with
  | rho -> Ok (Int64.bits_of_float rho)
  | exception Supervise.Error.Solver_error e -> Error e

(* the solver call each row of the table stands for *)
let direct ~cap law model mapping =
  let ph law r = Markov.Ph.with_mean law (Mapping.mean_time mapping r) in
  match (law, model) with
  | Throughput.Deterministic, _ -> Deterministic.throughput mapping model
  | Throughput.Exponential, Model.Overlap -> Expo.overlap_throughput ~pattern_cap:cap mapping
  | Throughput.Exponential, Model.Strict -> Expo.strict_throughput ~cap mapping
  | Throughput.Erlang phases, Model.Overlap ->
      Expo.overlap_throughput_erlang ~pattern_cap:cap ~phases mapping
  | Throughput.Erlang phases, Model.Strict ->
      fst (Expo.strict_throughput_erlang_supervised ~cap ~phases mapping)
  | Throughput.Ph law, Model.Overlap ->
      Expo.overlap_throughput_ph ~pattern_cap:cap ~ph:(ph law) mapping
  | Throughput.Ph law, Model.Strict ->
      let tpn = Tpn.build mapping Model.Strict in
      Markov.Tpn_markov_ph.throughput_of
        (Markov.Tpn_markov_ph.analyse ~cap
           ~ph_of:(fun v -> ph law (Tpn.resource_of tpn v))
           (Tpn.teg tpn))
        (Tpn.last_column tpn)

let qcheck_solve_bit_for_bit =
  QCheck.Test.make ~name:"solve = the direct solver call, bit for bit" ~count:10
    QCheck.small_int (fun seed ->
      let g = Prng.create ~seed:(seed + 2024) in
      List.for_all
        (fun model ->
          let mapping = small_mapping g model in
          List.for_all
            (fun (cap, law) ->
              compare
                (outcome (fun () -> fst (Throughput.solve ~cap law model mapping)))
                (outcome (fun () -> direct ~cap law model mapping))
              = 0)
            (List.concat_map (fun cap -> List.map (fun law -> (cap, law)) laws) [ 500_000; 3 ]))
        [ Model.Overlap; Model.Strict ])

let qcheck_theorem7_through_the_table =
  QCheck.Test.make ~name:"Theorem 7 through the table: det >= erlang 2 >= exponential"
    ~count:10 QCheck.small_int (fun seed ->
      let g = Prng.create ~seed:(seed + 3031) in
      List.for_all
        (fun model ->
          let mapping = small_mapping g model in
          let solve law = fst (Throughput.solve law model mapping) in
          let det = solve Throughput.Deterministic
          and e2 = solve (Throughput.Erlang 2)
          and ex = solve Throughput.Exponential
          and ph2 = solve (Throughput.Ph erlang2) in
          let at_least a b = a >= b -. (1e-9 *. Float.abs b) in
          at_least det e2 && at_least e2 ex && Float.abs (ph2 -. e2) <= 1e-9 *. Float.abs e2)
        [ Model.Overlap; Model.Strict ])

let test_des_rung_bits () =
  (* cap 2 stops the general method before any CTMC exists; the DES rung
     at the daemon's seed answers, its estimate and provenance pinned bit
     for bit *)
  let app = Application.create ~work:[| 4.0; 6.0 |] ~files:[| 2.0 |] in
  let platform = Platform.fully_connected ~speeds:[| 1.0; 1.5; 0.5 |] ~bw:1.0 in
  let mapping = Mapping.create ~app ~platform ~teams:[| [| 0 |]; [| 1; 2 |] |] in
  let rho, prov =
    Throughput.solve ~cap:2
      ~simulate:(Des.Pipeline_sim.estimate ~seed:20260706 mapping Model.Strict)
      Throughput.Exponential Model.Strict mapping
  in
  Alcotest.(check string) "estimate bits" "0x1.c8aae165cb684p-4" (Printf.sprintf "%h" rho);
  Alcotest.(check string) "provenance"
    "simulated (95% ci half-width 0.00107); general-method: state space exceeded: explored 2 \
     markings, cap 2; des: simulated (95% ci half-width 0.00107)"
    (Supervise.Provenance.describe prov);
  (* without the rung: the typed error of the direct call *)
  Alcotest.(check bool) "same typed error" true
    (match
       ( outcome (fun () ->
             fst (Throughput.solve ~cap:2 Throughput.Exponential Model.Strict mapping)),
         outcome (fun () -> Expo.strict_throughput ~cap:2 mapping) )
     with
    | Error (Supervise.Error.State_space_exceeded { cap = 2; _ } as a), Error b -> a = b
    | _ -> false)

let () =
  Alcotest.run "expo"
    [
      ( "closed forms",
        [
          Alcotest.test_case "single stage" `Quick test_single_stage_rate;
          Alcotest.test_case "fig13 grid" `Quick test_fig13_closed_form_grid;
          Alcotest.test_case "fig15 ratio" `Quick test_fig15_ratio_formula;
          Alcotest.test_case "closed_form_only" `Quick test_closed_form_only_flag;
        ] );
      ( "cross validation",
        [
          Alcotest.test_case "strict markov vs DES" `Slow test_strict_markov_vs_des;
          Alcotest.test_case "decomposition vs bounded markov" `Slow
            test_overlap_decomposition_vs_bounded_markov;
          Alcotest.test_case "decomposition vs simulators" `Slow test_overlap_decomposition_vs_sims;
          Alcotest.test_case "per-row composition" `Slow test_per_row_composition;
          QCheck_alcotest.to_alcotest qcheck_exponential_below_deterministic;
          QCheck_alcotest.to_alcotest qcheck_throughput_dispatch;
          QCheck_alcotest.to_alcotest qcheck_strict_below_overlap;
          QCheck_alcotest.to_alcotest qcheck_columns_partition_rows;
        ] );
      ( "erlang phase-type",
        [
          Alcotest.test_case "matches DES" `Slow test_erlang_matches_des;
          Alcotest.test_case "within Theorem 7 bounds" `Quick test_erlang_within_bounds;
          Alcotest.test_case "strict erlang" `Quick test_strict_erlang;
          Alcotest.test_case "hyperexponential matches DES" `Slow test_ph_hyper_matches_des;
          Alcotest.test_case "throughput facade" `Quick test_throughput_facade;
          QCheck_alcotest.to_alcotest qcheck_erlang_monotone_in_phases;
        ] );
      ( "solve table",
        [
          QCheck_alcotest.to_alcotest qcheck_solve_bit_for_bit;
          QCheck_alcotest.to_alcotest qcheck_theorem7_through_the_table;
          Alcotest.test_case "DES rung bits" `Quick test_des_rung_bits;
        ] );
    ]
