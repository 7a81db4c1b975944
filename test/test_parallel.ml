open Streaming

let check_floats = Alcotest.(check (list (float 0.0)))

(* a figure-style sweep: closed-form overlap throughput plus a short DES
   run per (u, v) point — the two shapes the experiment drivers hand to
   the pool *)
let sweep_pairs = [ (2, 3); (3, 4); (2, 5); (4, 5); (3, 5) ]

let sweep_point (u, v) =
  let mapping = Workload.Scenarios.single_communication ~u ~v () in
  let theory = Expo.overlap_throughput mapping in
  let des =
    Des.Pipeline_sim.throughput mapping Model.Overlap
      ~timing:(Des.Pipeline_sim.Independent (Laws.exponential mapping))
      ~seed:7 ~data_sets:500
  in
  theory +. (1e-3 *. des)

let test_map_matches_sequential () =
  let expected = List.map sweep_point sweep_pairs in
  List.iter
    (fun domains ->
      let got =
        Parallel.Pool.with_pool ~domains (fun pool ->
            Parallel.Pool.map_list pool sweep_point sweep_pairs)
      in
      check_floats (Printf.sprintf "%d domains" domains) expected got)
    [ 1; 2; 4 ]

let test_map_preserves_order () =
  let xs = Array.init 100 (fun i -> i) in
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      let ys = Parallel.Pool.mapi pool (fun i x -> (100 * i) + x) xs in
      Alcotest.(check (array int)) "indexed order" (Array.map (fun i -> 101 * i) xs) ys)

let test_map_seeded_schedule_independent () =
  let items = List.init 12 Fun.id in
  let draw g _item = Prng.float g in
  let runs =
    List.map
      (fun domains ->
        Parallel.Pool.with_pool ~domains (fun pool ->
            Parallel.Pool.map_seeded pool ~seed:42 draw items))
      [ 1; 2; 4 ]
  in
  match runs with
  | [ a; b; c ] ->
      check_floats "1 vs 2 domains" a b;
      check_floats "1 vs 4 domains" a c;
      (* distinct streams per item: all draws different *)
      let sorted = List.sort_uniq compare a in
      Alcotest.(check int) "streams are distinct" (List.length a) (List.length sorted)
  | _ -> assert false

let test_nested_map_no_deadlock () =
  Parallel.Pool.with_pool ~domains:2 (fun pool ->
      let table =
        Parallel.Pool.map_list pool
          (fun x -> Parallel.Pool.map_list pool (fun y -> x * y) [ 1; 2; 3 ])
          [ 1; 2; 3; 4 ]
      in
      Alcotest.(check (list (list int)))
        "nested results"
        [ [ 1; 2; 3 ]; [ 2; 4; 6 ]; [ 3; 6; 9 ]; [ 4; 8; 12 ] ]
        table)

let test_exception_propagates () =
  Parallel.Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.check_raises "worker failure reraised" (Failure "boom") (fun () ->
          ignore (Parallel.Pool.map_list pool (fun x -> if x = 7 then failwith "boom" else x)
                    (List.init 20 Fun.id))))

let test_replicated_sims_deterministic () =
  let mapping = Workload.Scenarios.fig10_system in
  let laws = Laws.exponential mapping in
  let seeds = List.init 6 (fun r -> 300 + r) in
  let run domains =
    Parallel.Pool.with_pool ~domains (fun pool ->
        let des =
          Des.Pipeline_sim.replicated_throughputs ~pool mapping Model.Overlap
            ~timing:(Des.Pipeline_sim.Independent laws) ~seeds ~data_sets:1000
        in
        let eg =
          Teg_sim.replicated_throughputs ~pool mapping Model.Overlap ~laws ~seeds ~data_sets:1000
        in
        des @ eg)
  in
  check_floats "replications identical across pool sizes" (run 1) (run 4)

(* ---- shutdown semantics the query daemon's graceful drain relies on ---- *)

let test_shutdown_idempotent () =
  let pool = Parallel.Pool.create ~domains:4 in
  Parallel.Pool.shutdown pool;
  Parallel.Pool.shutdown pool;
  (* with the workers gone, a map still returns the right answer: the
     caller executes every task itself *)
  let ys = Parallel.Pool.map_list pool (fun x -> x * x) [ 1; 2; 3; 4 ] in
  Alcotest.(check (list int)) "map after shutdown" [ 1; 4; 9; 16 ] ys

let test_shutdown_concurrent () =
  let pool = Parallel.Pool.create ~domains:4 in
  let closers =
    List.init 8 (fun _ -> Thread.create (fun () -> Parallel.Pool.shutdown pool) ())
  in
  Parallel.Pool.shutdown pool;
  List.iter Thread.join closers;
  Alcotest.(check (list int))
    "usable after a shutdown race" [ 2; 4; 6 ]
    (Parallel.Pool.map_list pool (fun x -> 2 * x) [ 1; 2; 3 ])

let test_shutdown_during_inflight_map () =
  let pool = Parallel.Pool.create ~domains:4 in
  let closer =
    Thread.create
      (fun () ->
        Thread.delay 0.003;
        Parallel.Pool.shutdown pool)
      ()
  in
  let xs = List.init 200 Fun.id in
  let ys = Parallel.Pool.map_list pool (fun x -> Thread.delay 0.0002; x + 1) xs in
  Thread.join closer;
  Alcotest.(check (list int)) "in-flight map completes" (List.map succ xs) ys

(* [run_on] runs a job on the chosen domain: 0 is the caller, at once; a
   worker runs it on its own domain and outlives a job that raises; once
   the pool is shut down, the caller runs every job *)
let test_run_on () =
  let pool = Parallel.Pool.create ~domains:2 in
  let here = (Domain.self () :> int) in
  let ran = Atomic.make (-1) in
  let on d =
    Atomic.set ran (-1);
    Parallel.Pool.run_on pool d (fun () -> Atomic.set ran (Domain.self () :> int));
    let deadline = Unix.gettimeofday () +. 10.0 in
    while Atomic.get ran < 0 && Unix.gettimeofday () < deadline do
      Thread.delay 0.001
    done;
    Atomic.get ran
  in
  Alcotest.(check int) "domain 0 is the caller" here (on 0);
  Parallel.Pool.run_on pool 1 (fun () -> failwith "a job that raises");
  let worker = on 1 in
  Alcotest.(check bool) "domain 1 is a worker's" true (worker >= 0 && worker <> here);
  Alcotest.(check (list int)) "maps still run" [ 2; 4 ]
    (Parallel.Pool.map_list pool (fun x -> 2 * x) [ 1; 2 ]);
  Alcotest.check_raises "no domain 2" (Invalid_argument "Pool.run_on: no such domain") (fun () ->
      Parallel.Pool.run_on pool 2 ignore);
  Parallel.Pool.shutdown pool;
  Alcotest.(check int) "after shutdown, the caller" here (on 1)

let () =
  Alcotest.run "parallel"
    [
      ( "determinism",
        [
          Alcotest.test_case "map = sequential map" `Quick test_map_matches_sequential;
          Alcotest.test_case "mapi order" `Quick test_map_preserves_order;
          Alcotest.test_case "seeded streams" `Quick test_map_seeded_schedule_independent;
          Alcotest.test_case "replicated sims" `Quick test_replicated_sims_deterministic;
        ] );
      ( "pool mechanics",
        [
          Alcotest.test_case "nested maps" `Quick test_nested_map_no_deadlock;
          Alcotest.test_case "exceptions" `Quick test_exception_propagates;
          Alcotest.test_case "run_on picks the domain" `Quick test_run_on;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "idempotent, usable after" `Quick test_shutdown_idempotent;
          Alcotest.test_case "concurrent closers" `Quick test_shutdown_concurrent;
          Alcotest.test_case "in-flight map completes" `Quick test_shutdown_during_inflight_map;
        ] );
    ]
