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

(* ---- the sandwich the skip rests on ----

   An Overlap fold solves a pattern only when Theorem 4's closed form at
   its slowest link (a lower bound) leaves it able to set a row's rate;
   the input it compares with is propagated from deterministic values (an
   upper bound).  These properties test the chain of bounds, and that
   skipping leaves every throughput bit-identical to solving everything. *)

(* [a <= b] up to a relative slack of 1e-9 *)
let below a b = a <= b +. (1e-9 *. Float.abs b)

let rec ordered = function a :: (b :: _ as rest) -> below a b && ordered rest | _ -> true

let show chain = String.concat " <= " (List.map (Printf.sprintf "%.17g") chain)

let coprime_shapes =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  Array.of_list
    (List.concat_map
       (fun u -> List.filter_map (fun v -> if gcd u v = 1 then Some (u, v) else None) [ 1; 2; 3; 4; 5 ])
       [ 1; 2; 3; 4; 5 ])

(* rates over two decades; one draw in three is one slow link among equal
   ones *)
let draw_rates g ~u ~v =
  let decade () = 10.0 ** Prng.uniform g 0.0 2.0 in
  if Prng.int g 3 = 0 then begin
    let r = decade () in
    let rates = Array.make_matrix u v r in
    rates.(Prng.int g u).(Prng.int g v) <- r /. (10.0 ** Prng.uniform g 0.1 2.0);
    rates
  end
  else Array.init u (fun _ -> Array.init v (fun _ -> decade ()))

let qcheck_pattern_sandwich =
  QCheck.Test.make ~name:"pattern: closed form <= exp <= erlang 2 <= 3 <= det" ~count:40
    ~long_factor:60 QCheck.int (fun seed ->
      let g = Prng.create ~seed in
      let u, v = coprime_shapes.(Prng.int g (Array.length coprime_shapes)) in
      let rates = draw_rates g ~u ~v in
      let rate ~sender ~receiver = rates.(sender).(receiver) in
      let slowest = Array.fold_left (Array.fold_left Float.min) infinity rates in
      let erlang phases = Young.Pattern.erlang_inner_throughput ~phases ~u ~v ~rate () in
      let chain =
        [
          Young.Pattern.homogeneous_inner_throughput ~u ~v ~lambda:slowest;
          Young.Pattern.exponential_inner_throughput ~u ~v ~rate ();
          erlang 2;
          erlang 3;
          Young.Pattern.deterministic_inner_throughput ~u ~v ~time:(fun ~sender ~receiver ->
              1.0 /. rate ~sender ~receiver);
        ]
      in
      ordered chain || QCheck.Test.fail_reportf "%dx%d: %s" u v (show chain))

(* Overlap mappings with times over two decades *)
let overlap_draw g =
  Workload.Gen.random_mapping g
    {
      Workload.Gen.n_stages = 2 + Prng.int g 3;
      n_procs = 4 + Prng.int g 6;
      comp_range = (0.5, 50.0);
      comm_range = (0.5, 50.0);
      max_rows = 30;
    }

(* the fold with every pattern at Theorem 4's closed form at its slowest
   link: a lower bound on the mapping, since the fold is monotone *)
let closed_form_floor mapping =
  Columns.fold_throughput mapping ~inner:(function
    | Columns.Compute { stage; proc } -> 1.0 /. Mapping.comp_time mapping ~stage ~proc
    | Columns.Communication comm ->
        let slowest = ref 0.0 in
        for sender = 0 to comm.Columns.u - 1 do
          for receiver = 0 to comm.Columns.v - 1 do
            slowest := Float.max !slowest (Columns.pattern_time mapping comm ~sender ~receiver)
          done
        done;
        Young.Pattern.homogeneous_inner_throughput ~u:comm.Columns.u ~v:comm.Columns.v
          ~lambda:(1.0 /. !slowest))

let qcheck_mapping_sandwich =
  QCheck.Test.make ~name:"overlap: closed form <= exp <= erlang 2 <= 3 <= det" ~count:10
    ~long_factor:60 QCheck.int (fun seed ->
      let mapping = overlap_draw (Prng.create ~seed) in
      let solve law = fst (Throughput.solve law Model.Overlap mapping) in
      let chain =
        [
          closed_form_floor mapping;
          solve Throughput.Exponential;
          solve (Throughput.Erlang 2);
          solve (Throughput.Erlang 3);
          solve Throughput.Deterministic;
        ]
      in
      ordered chain || QCheck.Test.fail_reportf "%s" (show chain))

(* every pattern solved: the fold as it ran before it skipped any *)
let solve_every_pattern ~phases mapping =
  Columns.fold_throughput mapping ~inner:(function
    | Columns.Compute { stage; proc } -> 1.0 /. Mapping.comp_time mapping ~stage ~proc
    | Columns.Communication comm -> (
        let u = comm.Columns.u and v = comm.Columns.v in
        let rate ~sender ~receiver = 1.0 /. Columns.pattern_time mapping comm ~sender ~receiver in
        match phases with
        | None when Columns.is_homogeneous mapping comm ->
            Young.Pattern.homogeneous_inner_throughput ~u ~v ~lambda:(rate ~sender:0 ~receiver:0)
        | None -> Young.Pattern.exponential_inner_throughput ~u ~v ~rate ()
        | Some phases -> Young.Pattern.erlang_inner_throughput ~phases ~u ~v ~rate ()))

let skipping_agrees mapping =
  List.for_all
    (fun phases ->
      let skipped =
        match phases with
        | None -> Expo.overlap_throughput mapping
        | Some phases -> Expo.overlap_throughput_erlang ~phases mapping
      in
      let every = solve_every_pattern ~phases mapping in
      Int64.equal (Int64.bits_of_float skipped) (Int64.bits_of_float every)
      || QCheck.Test.fail_reportf "phases %s: skipping %h, every pattern %h"
           (match phases with None -> "exp" | Some k -> string_of_int k)
           skipped every)
    [ None; Some 1; Some 2 ]

(* the teams of a draw on a flat platform (every time 1, so a pattern
   with one sender per residue ties its input exactly), or on one whose
   bandwidths are off 1 by up to 1e-9 *)
let flatten g ~jitter mapping =
  let n = Mapping.n_stages mapping and m = Mapping.n_processors mapping in
  let wobble = Array.init m (fun _ -> Array.init m (fun _ -> jitter *. Prng.uniform g (-1.0) 1.0)) in
  Mapping.create
    ~app:(Application.create ~work:(Array.make n 1.0) ~files:(Array.make (n - 1) 1.0))
    ~platform:
      (Platform.of_link_function ~n:m ~speeds:(Array.make m 1.0) ~bw:(fun p q ->
           1.0 +. wobble.(p).(q)))
    ~teams:(Array.init n (Mapping.team mapping))

let qcheck_skip_bit_for_bit =
  QCheck.Test.make ~name:"skipping = solving every pattern, bit for bit" ~count:15
    ~long_factor:60 QCheck.int (fun seed ->
      let g = Prng.create ~seed in
      let mapping = overlap_draw g in
      let mapping =
        match seed mod 3 with
        | 0 -> mapping
        | 1 -> flatten g ~jitter:0.0 mapping
        | _ -> flatten g ~jitter:1e-9 mapping
      in
      skipping_agrees mapping)

(* One u x v pattern fed by u senders whose rate per row is the pattern's
   lower bound per row times (1 + delta), then v fast receivers: the skip
   test sits on its margin. *)
let tie_mapping g ~u ~v ~links ~delta =
  let times =
    match links with
    | `Random -> Array.init u (fun _ -> Array.init v (fun _ -> 10.0 ** Prng.uniform g (-1.0) 1.0))
    | `Near_equal ->
        let t = Array.make_matrix u v 2.0 in
        t.(Prng.int g u).(Prng.int g v) <- 2.0 *. (1.0 -. 1e-9);
        t
    | `Equal -> Array.make_matrix u v 2.0
    | `One_slow ->
        let t = Array.make_matrix u v 0.5 in
        t.(Prng.int g u).(Prng.int g v) <- 20.0;
        t
  in
  let slowest = Array.fold_left (Array.fold_left Float.max) 0.0 times in
  let lower_per_row =
    Young.Pattern.homogeneous_inner_throughput ~u ~v ~lambda:(1.0 /. slowest) /. float_of_int (u * v)
  in
  (* each sender covers v of the u*v rows *)
  let work = 1.0 /. (float_of_int v *. lower_per_row *. (1.0 +. delta)) in
  Mapping.create
    ~app:(Application.create ~work:[| work; 1e-3 |] ~files:[| 1.0 |])
    ~platform:
      (Platform.of_link_function ~n:(u + v) ~speeds:(Array.make (u + v) 1.0) ~bw:(fun p q ->
           if p < u && q >= u then 1.0 /. times.(p).(q - u) else 1.0))
    ~teams:[| Array.init u Fun.id; Array.init v (fun r -> u + r) |]

let qcheck_skip_near_ties =
  QCheck.Test.make ~name:"skipping = solving every pattern on the margin" ~count:6
    ~long_factor:60 QCheck.int (fun seed ->
      let g = Prng.create ~seed in
      let u, v = coprime_shapes.(Prng.int g (Array.length coprime_shapes)) in
      List.for_all
        (fun links ->
          List.for_all
            (fun delta -> skipping_agrees (tie_mapping g ~u ~v ~links ~delta))
            [ -1e-7; -2e-9; -1e-9; -5e-10; 0.0; 5e-10; 1e-9; 2e-9; 1e-7 ])
        [ `Random; `Near_equal; `Equal; `One_slow ])

(* Two pattern columns in series behind a fast source, every computation
   fast: the second pattern's input bound comes from the first pattern's
   upper bound, so propagating anything below it would skip a pattern
   that sets the throughput. *)
let series_mapping g =
  let r1 = 1 + Prng.int g 4 and r2 = 1 + Prng.int g 4 in
  let n = 1 + r1 + r2 in
  let time = Array.init n (fun _ -> Array.init n (fun _ -> 10.0 ** Prng.uniform g (-1.0) 1.0)) in
  Mapping.create
    ~app:(Application.create ~work:[| 1e-3; 1e-3; 1e-3 |] ~files:[| 1.0; 1.0 |])
    ~platform:
      (Platform.of_link_function ~n ~speeds:(Array.make n 1.0) ~bw:(fun p q -> 1.0 /. time.(p).(q)))
    ~teams:[| [| 0 |]; Array.init r1 (fun i -> 1 + i); Array.init r2 (fun i -> 1 + r1 + i) |]

let qcheck_skip_in_series =
  QCheck.Test.make ~name:"skipping = solving every pattern, in series" ~count:20
    ~long_factor:60 QCheck.int (fun seed -> skipping_agrees (series_mapping (Prng.create ~seed)))

let counter ?(labels = []) name = Obs.Metrics.Counter.value (Obs.Metrics.Counter.create ~labels name)

(* a pattern over its cap still raises when its solve is skipped: a 9x10
   pattern (more states than the cap) behind senders far slower than it *)
let test_skipped_pattern_walks () =
  let app = Application.create ~work:[| 50.0; 1e-3 |] ~files:[| 1.0 |] in
  let platform =
    Platform.of_link_function ~n:19 ~speeds:(Array.make 19 1.0) ~bw:(fun p q ->
        1.0 +. (0.01 *. float_of_int (p + (2 * q))))
  in
  let mapping =
    Mapping.create ~app ~platform ~teams:[| Array.init 9 Fun.id; Array.init 10 (fun i -> 9 + i) |]
  in
  let skips = counter ~labels:[ ("law", "exponential") ] "pattern_solves_skipped_total" in
  Alcotest.(check bool) "a typed error past the cap" true
    (match Expo.overlap_throughput ~pattern_cap:1000 mapping with
    | _ -> false
    | exception Supervise.Error.Solver_error (Supervise.Error.State_space_exceeded { cap = 1000; _ }) ->
        true);
  Alcotest.(check int) "not counted as a skip" skips
    (counter ~labels:[ ("law", "exponential") ] "pattern_solves_skipped_total");
  (* a small pattern behind the same slow senders is skipped and counted *)
  let small =
    Mapping.create ~app ~platform ~teams:[| Array.init 2 Fun.id; Array.init 3 (fun i -> 9 + i) |]
  in
  let violations = counter ~labels:[ ("check", "pattern_bounds") ] "solver_invariant_violations_total" in
  Alcotest.(check int64) "the senders' rate"
    (Int64.bits_of_float (solve_every_pattern ~phases:None small))
    (Int64.bits_of_float (Expo.overlap_throughput small));
  Alcotest.(check int) "one skip" (skips + 1)
    (counter ~labels:[ ("law", "exponential") ] "pattern_solves_skipped_total");
  Alcotest.(check int) "no violation" violations
    (counter ~labels:[ ("check", "pattern_bounds") ] "solver_invariant_violations_total")

(* ---- the shape cache ---- *)

let shape_stats = Markov.Tpn_markov.shape_stats

(* the same mapping with processor p renamed perm.(p): speeds, bandwidth
   rows and columns, and teams move together *)
let rename g mapping =
  let platform = Mapping.platform mapping in
  let m = Platform.n_processors platform in
  let perm = Array.init m Fun.id in
  for i = m - 1 downto 1 do
    let j = Prng.int g (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let inv = Array.make m 0 in
  Array.iteri (fun p q -> inv.(q) <- p) perm;
  Mapping.create ~app:(Mapping.app mapping)
    ~platform:
      (Platform.create
         ~speeds:(Array.init m (fun q -> Platform.speed platform inv.(q)))
         ~bandwidth:
           (Array.init m (fun q ->
                Array.init m (fun q' -> Platform.bandwidth platform ~src:inv.(q) ~dst:inv.(q')))))
    ~teams:
      (Array.init (Mapping.n_stages mapping) (fun i ->
           Array.map (fun p -> perm.(p)) (Mapping.team mapping i)))

let qcheck_renaming =
  QCheck.Test.make ~name:"renaming processors moves no bit; Strict hits" ~count:6
    ~long_factor:40 QCheck.int (fun seed ->
      let g = Prng.create ~seed in
      List.for_all
        (fun model ->
          let mapping = small_mapping g model in
          let renamed = rename g mapping in
          List.for_all
            (fun law ->
              let value = outcome (fun () -> fst (Throughput.solve law model mapping)) in
              (* an Overlap solve of the renamed mapping starts cold, so no
                 pattern value comes from the result memo *)
              if model = Model.Overlap then Young.Pattern.clear_caches ();
              let before = shape_stats () in
              let value' = outcome (fun () -> fst (Throughput.solve law model renamed)) in
              let after = shape_stats () in
              let hit =
                model = Model.Overlap || law = Throughput.Deterministic
                || (after.hits = before.hits + 1 && after.misses = before.misses)
              in
              (compare value value' = 0 && hit)
              || QCheck.Test.fail_reportf "%s %s: hits %d -> %d, misses %d -> %d"
                   (Model.to_string model) (Throughput.law_to_string law) before.hits after.hits
                   before.misses after.misses)
            [ Throughput.Deterministic; Throughput.Exponential; Throughput.Erlang 2 ])
        [ Model.Overlap; Model.Strict ])

(* a three-stage Strict mapping replicated (1, 2, 3) *)
let strict_mapping () =
  let app = Application.create ~work:[| 4.0; 6.0; 5.0 |] ~files:[| 2.0; 1.0 |] in
  let platform =
    Platform.of_link_function ~n:6 ~speeds:[| 1.0; 1.3; 0.7; 1.1; 0.9; 1.2 |] ~bw:(fun p q ->
        1.0 +. (0.1 *. float_of_int (p + (3 * q))))
  in
  Mapping.create ~app ~platform ~teams:[| [| 0 |]; [| 1; 2 |]; [| 3; 4; 5 |] |]

let strict_states mapping =
  Markov.Tpn_markov.structure_states
    (Markov.Tpn_markov.structure (Tpn.teg (Tpn.build mapping Model.Strict)))

(* distinct keys no solve derives (a negative team size), each holding
   [filler], one bound's worth of them: every entry stored before is
   evicted *)
let flood filler =
  let words = Obj.reachable_words (Obj.repr filler) in
  for k = 0 to Markov.Tpn_markov.shape_capacity_words / words do
    ignore
      (Markov.Tpn_markov.cached_shape (Markov.Tpn_markov.Strict [| -2; k |]) ~phases:1 ~walk:(fun () ->
           filler))
  done

let test_cached_uncached_evicted () =
  Young.Pattern.clear_caches ();
  let mapping = strict_mapping () in
  let solve law = outcome (fun () -> fst (Throughput.solve law Model.Strict mapping)) in
  List.iter
    (fun law ->
      let name = Throughput.law_to_string law in
      let s0 = shape_stats () in
      let uncached = solve law in
      let s1 = shape_stats () in
      let cached = solve law in
      let s2 = shape_stats () in
      Alcotest.(check int) (name ^ ": first solve walks") (s0.misses + 1) s1.misses;
      Alcotest.(check int) (name ^ ": second solve hits") (s1.hits + 1) s2.hits;
      Alcotest.(check bool) (name ^ ": cached = uncached") true (compare uncached cached = 0))
    [ Throughput.Exponential; Throughput.Erlang 2 ];
  (* a filler the size of a real walk, measured as the cache measures it *)
  let filler =
    {
      Markov.Tpn_markov.structure =
        Markov.Tpn_markov.structure
          (Young.Pattern.build ~u:4 ~v:5 ~time:(fun ~sender:_ ~receiver:_ -> 1.0));
      expansion = None;
    }
  in
  (* the least recently used entry leaves first: after a hit, the Strict
     walk outlives a filler stored before it *)
  Young.Pattern.clear_caches ();
  let store ?(walked = ref false) key =
    ignore
      (Markov.Tpn_markov.cached_shape (Markov.Tpn_markov.Strict key) ~phases:1 ~walk:(fun () ->
           walked := true;
           filler))
  in
  store [| -3 |];
  ignore (solve Throughput.Exponential);
  store [| -4 |];
  ignore (solve Throughput.Exponential);
  let s3 = shape_stats () in
  let i = ref 0 in
  while (shape_stats ()).evictions = s3.evictions do
    store [| -1; !i |];
    incr i
  done;
  let walked = ref false in
  store ~walked [| -3 |];
  Alcotest.(check bool) "the oldest filler was evicted first" true !walked;
  let s4 = shape_stats () in
  ignore (solve Throughput.Exponential);
  Alcotest.(check int) "the refreshed Strict walk survived" (s4.hits + 1) (shape_stats ()).hits;
  flood filler;
  let s5 = shape_stats () in
  Alcotest.(check bool) "within the bound" true (s5.words <= Markov.Tpn_markov.shape_capacity_words);
  let evicted = solve Throughput.Exponential in
  Alcotest.(check int) "evicted: walks again" (s5.misses + 1) (shape_stats ()).misses;
  Young.Pattern.clear_caches ();
  Alcotest.(check bool) "evicted = uncached" true
    (compare evicted (solve Throughput.Exponential) = 0);
  Alcotest.(check int) "cleared" 1 (shape_stats ()).entries;
  Young.Pattern.clear_caches ()

(* a stored walk that does not fit the request's cap or state ceiling
   walks again, which raises the walk's own error; one whose wall budget
   is spent raises as a walk's first poll does *)
let test_hit_errors () =
  let mapping = strict_mapping () in
  let n = strict_states mapping in
  let solve ?cap ?budget () =
    outcome (fun () -> fst (Throughput.solve ?cap ?budget Throughput.Exponential Model.Strict mapping))
  in
  let exceeded = Error (Supervise.Error.State_space_exceeded { cap = n - 1; explored = n - 1 }) in
  let spent () =
    let b = Supervise.Budget.create ~wall:1e-6 () in
    Unix.sleepf 0.002;
    b
  in
  let check_errors label =
    Alcotest.(check bool) (label ^ ": cap below the count") true (solve ~cap:(n - 1) () = exceeded);
    Alcotest.(check bool) (label ^ ": state ceiling below the count") true
      (solve ~budget:(Supervise.Budget.create ~states:(n - 1) ()) () = exceeded);
    Alcotest.(check bool) (label ^ ": wall spent") true
      (match solve ~budget:(spent ()) () with
      | Error (Supervise.Error.Budget_exhausted _) -> true
      | _ -> false)
  in
  Young.Pattern.clear_caches ();
  check_errors "uncached";
  let value = solve ~cap:n () in
  let s0 = shape_stats () in
  check_errors "cached";
  let s1 = shape_stats () in
  Alcotest.(check int) "the spent wall was a hit" (s0.hits + 1) s1.hits;
  Alcotest.(check int) "the two that did not fit walked" (s0.misses + 2) s1.misses;
  Alcotest.(check bool) "a cap at the count fits" true (solve ~cap:n () = value);
  Alcotest.(check int) "and hits" (s1.hits + 1) (shape_stats ()).hits;
  (* a pattern: its solve's cap below its state count *)
  let rate ~sender ~receiver = 1.0 +. float_of_int (sender + (2 * receiver)) in
  let pattern ?cap () =
    outcome (fun () -> Young.Pattern.exponential_inner_throughput ?cap ~u:3 ~v:4 ~rate ())
  in
  ignore (pattern ());
  Alcotest.(check bool) "pattern: cap below the count" true
    (pattern ~cap:5 () = Error (Supervise.Error.State_space_exceeded { cap = 5; explored = 5 }));
  Alcotest.(check bool) "pattern: wall spent" true
    (match
       Young.Pattern.supervised_inner_throughput ~budget:(spent ()) ~phases:1 ~u:3 ~v:4 ~rate ()
     with
    | _ -> false
    | exception Supervise.Error.Solver_error (Supervise.Error.Budget_exhausted _) -> true);
  Young.Pattern.clear_caches ()

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
      ( "pattern skip",
        [
          QCheck_alcotest.to_alcotest qcheck_pattern_sandwich;
          QCheck_alcotest.to_alcotest qcheck_mapping_sandwich;
          QCheck_alcotest.to_alcotest qcheck_skip_bit_for_bit;
          QCheck_alcotest.to_alcotest qcheck_skip_near_ties;
          QCheck_alcotest.to_alcotest qcheck_skip_in_series;
          Alcotest.test_case "a skipped pattern still walks" `Quick test_skipped_pattern_walks;
        ] );
      ( "shape cache",
        [
          QCheck_alcotest.to_alcotest qcheck_renaming;
          Alcotest.test_case "cached, uncached and evicted" `Quick test_cached_uncached_evicted;
          Alcotest.test_case "typed errors on a hit" `Quick test_hit_errors;
        ] );
    ]
