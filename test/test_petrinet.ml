open Petrinet

let check_float tol = Alcotest.(check (float tol))

(* a ring of [k] transitions with the given firing times and one token on
   the wrap-around place *)
let ring times =
  let k = Array.length times in
  let labels = Array.init k (fun i -> Printf.sprintf "t%d" i) in
  let teg = Teg.create ~labels ~times in
  for l = 0 to k - 1 do
    Teg.add_place teg ~src:l ~dst:((l + 1) mod k) ~tokens:(if l = k - 1 then 1 else 0)
  done;
  teg

let test_create_validation () =
  Alcotest.check_raises "length mismatch" (Invalid_argument "Teg.create: labels/times length mismatch")
    (fun () -> ignore (Teg.create ~labels:[| "a" |] ~times:[| 1.0; 2.0 |]));
  Alcotest.check_raises "negative duration" (Invalid_argument "Teg.create: negative duration")
    (fun () -> ignore (Teg.create ~labels:[| "a" |] ~times:[| -1.0 |]))

let test_place_accessors () =
  let teg = ring [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check int) "transitions" 3 (Teg.n_transitions teg);
  Alcotest.(check int) "places" 3 (Teg.n_places teg);
  Alcotest.(check string) "label" "t1" (Teg.label teg 1);
  check_float 1e-12 "time" 2.0 (Teg.time teg 1);
  let p = Teg.place teg 0 in
  Alcotest.(check int) "place src" 0 p.Teg.src;
  Alcotest.(check int) "place dst" 1 p.Teg.dst;
  Alcotest.(check (list int)) "in places of t1" [ 0 ] (Teg.in_places teg 1);
  Alcotest.(check (list int)) "out places of t1" [ 1 ] (Teg.out_places teg 1)

let test_set_time () =
  let teg = ring [| 1.0; 2.0 |] in
  Teg.set_time teg 0 5.0;
  check_float 1e-12 "updated" 5.0 (Teg.time teg 0)

let test_validate_ok () =
  match Teg.validate (ring [| 1.0; 2.0 |]) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_validate_missing_place () =
  let teg = Teg.create ~labels:[| "a"; "b" |] ~times:[| 1.0; 1.0 |] in
  Teg.add_place teg ~src:0 ~dst:1 ~tokens:1;
  (match Teg.validate teg with
  | Ok () -> Alcotest.fail "expected missing-place error"
  | Error msg -> Alcotest.(check bool) "mentions input" true (String.length msg > 0))

let test_validate_deadlock () =
  let teg = Teg.create ~labels:[| "a"; "b" |] ~times:[| 1.0; 1.0 |] in
  Teg.add_place teg ~src:0 ~dst:1 ~tokens:0;
  Teg.add_place teg ~src:1 ~dst:0 ~tokens:0;
  match Teg.validate teg with
  | Ok () -> Alcotest.fail "expected deadlock detection"
  | Error msg -> Alcotest.(check string) "deadlock" "zero-token cycle: the net deadlocks" msg

(* -- markings -- *)

let test_marking_initial_enabled_fire () =
  let teg = ring [| 1.0; 1.0; 1.0 |] in
  let m0 = Marking.initial teg in
  Alcotest.(check (list int)) "only t0 enabled" [ 0 ] (Marking.enabled teg m0);
  let m1 = Marking.fire teg m0 0 in
  Alcotest.(check (list int)) "then t1" [ 1 ] (Marking.enabled teg m1);
  Alcotest.check_raises "firing a disabled transition"
    (Invalid_argument "Marking.fire: transition not enabled") (fun () ->
      ignore (Marking.fire teg m1 0))

let test_marking_token_conservation () =
  let teg = ring [| 1.0; 1.0; 1.0; 1.0 |] in
  let total m = Array.fold_left ( + ) 0 m in
  let m = ref (Marking.initial teg) in
  for _ = 1 to 10 do
    match Marking.enabled teg !m with
    | [ v ] -> m := Marking.fire teg !m v
    | _ -> Alcotest.fail "ring should enable exactly one transition"
  done;
  Alcotest.(check int) "tokens conserved on the ring" 1 (total !m)

let test_explore_ring () =
  let teg = ring [| 1.0; 1.0; 1.0; 1.0; 1.0 |] in
  Alcotest.(check int) "k markings for a k-ring" 5 (Array.length (Marking.explore teg))

let test_explore_capacity () =
  (* an unbounded net: producer feeds a place that is never consumed fast
     enough is impossible in a pure event graph; unboundedness needs a
     source-like structure: t0 self-loop feeding t1's input *)
  let teg = Teg.create ~labels:[| "src"; "sink" |] ~times:[| 1.0; 1.0 |] in
  Teg.add_place teg ~src:0 ~dst:0 ~tokens:1;
  Teg.add_place teg ~src:0 ~dst:1 ~tokens:0;
  Teg.add_place teg ~src:1 ~dst:1 ~tokens:1;
  Alcotest.check_raises "capacity"
    (Supervise.Error.Solver_error
       (Supervise.Error.State_space_exceeded { cap = 50; explored = 50 }))
    (fun () -> ignore (Marking.explore ~cap:50 teg))

let test_two_rings_product () =
  (* two independent rings in one net: reachable markings = product *)
  let teg = Teg.create ~labels:[| "a"; "b"; "c"; "d"; "e" |] ~times:(Array.make 5 1.0) in
  Teg.add_place teg ~src:0 ~dst:1 ~tokens:0;
  Teg.add_place teg ~src:1 ~dst:0 ~tokens:1;
  Teg.add_place teg ~src:2 ~dst:3 ~tokens:0;
  Teg.add_place teg ~src:3 ~dst:4 ~tokens:0;
  Teg.add_place teg ~src:4 ~dst:2 ~tokens:1;
  Alcotest.(check int) "2 x 3 markings" 6 (Array.length (Marking.explore teg))

(* The nets the experiments solve — patterns, Erlang expansions, strict
   and Erlang-expanded strict mapping TPNs — plus a multi-token ring in
   which a place outgrows the width its initial count gives it. *)
let pattern u v = Young.Pattern.build ~u ~v ~time:(fun ~sender:_ ~receiver:_ -> 1.0)
let erlang phases teg = Expand.teg (Expand.erlang ~phases:(fun _ -> phases) teg)

let mapping_teg u v model =
  Streaming.Tpn.teg (Streaming.Tpn.build (Workload.Scenarios.single_communication ~u ~v ()) model)

let two_token_ring () =
  let teg = Teg.create ~labels:[| "a"; "b"; "c" |] ~times:(Array.make 3 1.0) in
  Teg.add_place teg ~src:0 ~dst:1 ~tokens:0;
  Teg.add_place teg ~src:1 ~dst:2 ~tokens:0;
  Teg.add_place teg ~src:2 ~dst:0 ~tokens:2;
  teg

let solver_nets () =
  [
    ("pattern 3x4", pattern 3 4);
    ("pattern 2x5", pattern 2 5);
    ("pattern 4x5", pattern 4 5);
    ("erlang 2x3, 3 phases", erlang 3 (pattern 2 3));
    ("strict 2x3", mapping_teg 2 3 Streaming.Model.Strict);
    (* the Overlap TPN is token-unbounded when explored whole (its row
       chains have no back-pressure) — the experiments only ever explore
       its pattern decomposition, so it is exercised via the patterns
       above; the strict net is also checked under Erlang expansion *)
    ("erlang strict 2x3, 2 phases", erlang 2 (mapping_teg 2 3 Streaming.Model.Strict));
    ("two-token ring", two_token_ring ());
  ]

let check_reference name teg =
  match Ref_bfs.mismatch (Ref_bfs.explore teg) (Marking.explore_graph teg) with
  | None -> ()
  | Some diff -> Alcotest.failf "%s: %s" name diff

let test_explore_reference () = List.iter (fun (name, teg) -> check_reference name teg) (solver_nets ())

(* random nets whose codes span three or more words, explored after a
   field overflow on the initial-count rung *)
let qcheck_explore_random =
  QCheck.Test.make ~name:"multi-word codes = reference BFS" ~count:40 QCheck.small_int (fun seed ->
      let teg = Ref_bfs.random_teg (Random.State.make [| 41; seed |]) in
      let r = Ref_bfs.explore teg in
      let g = Marking.explore_graph teg in
      let m0 = Marking.initial teg in
      let outgrown =
        Array.exists
          (fun m -> Array.exists Fun.id (Array.mapi (fun p x -> x > Ref_bfs.field_max m0.(p)) m))
          r.markings
      in
      Ref_bfs.mismatch r g = None && Marking.words g.Marking.codec >= 3 && outgrown)

(* MD5 over the decoded markings in order, row_ptr, succ and via, as text *)
let digest_graph (g : Marking.graph) =
  let b = Buffer.create 65536 in
  let acc = ref "" in
  let flush () =
    acc := Digest.string (!acc ^ Buffer.contents b);
    Buffer.clear b
  in
  let add_ints a =
    Array.iter
      (fun x ->
        Buffer.add_string b (string_of_int x);
        Buffer.add_char b ' ')
      a;
    Buffer.add_char b '\n';
    if Buffer.length b > 65536 then flush ()
  in
  for i = 0 to Marking.n_states g - 1 do
    add_ints (Marking.marking g i)
  done;
  add_ints g.Marking.row_ptr;
  add_ints g.Marking.succ;
  add_ints g.Marking.via;
  flush ();
  Digest.to_hex !acc

(* Digests of the graphs the int-array and single-int explorers produced
   before the multi-word codes replaced them: the solver nets above and
   every rung of the pattern-cold benchmark ladder, (u, v, phases), up to
   72 036 states and 144 places. *)
let golden =
  [
    ("pattern 3x4", "dec5c7a9ef977077bd1a9132aa698f21");
    ("pattern 2x5", "c21514834ea0b5dc3fb800711849870b");
    ("pattern 4x5", "c92379c8d8c7d31d4c814976face11ef");
    ("erlang 2x3, 3 phases", "c0864b78f5765759589d17a728d2a6f6");
    ("strict 2x3", "38f95a232a864d3ece484d03f953bf42");
    ("erlang strict 2x3, 2 phases", "3ee7cbab114989385e08b4ebb236156f");
    ("two-token ring", "abea94b767290957655ff978ec0c1250");
  ]

let golden_rungs =
  [
    ((3, 4, 1), "dec5c7a9ef977077bd1a9132aa698f21");
    ((4, 5, 1), "c92379c8d8c7d31d4c814976face11ef");
    ((5, 7, 1), "a9fde5dd7fda1bac9f128406f1ad3547");
    ((4, 9, 1), "798f0bf94694c7da68a28ab355ee7396");
    ((3, 5, 2), "9364472501785cfbfd54844932012840");
    ((4, 5, 2), "7511d963b40058af55b57fe58f044c11");
    ((5, 6, 2), "5b67478c0e443e38e794e4e8422a2910");
    ((4, 9, 2), "11c2d13bfa30eb4ae6ecbed3440452aa");
    ((4, 5, 3), "9ccf1b54dc2369524049b1b05c7c0531");
    ((4, 9, 3), "b8019b3ca68cd6e285fcd651dd497ff0");
  ]

let test_golden_digests () =
  List.iter
    (fun (name, teg) ->
      Alcotest.(check string) name (List.assoc name golden) (digest_graph (Marking.explore_graph teg)))
    (solver_nets ());
  List.iter
    (fun ((u, v, phases), digest) ->
      let name = Printf.sprintf "%dx%d ph%d" u v phases in
      let teg = if phases = 1 then pattern u v else erlang phases (pattern u v) in
      Alcotest.(check string) name digest (digest_graph (Marking.explore_graph teg));
      if phases = 1 then
        match Young.Pattern.young_graph ~u ~v () with
        | Some g -> Alcotest.(check string) (name ^ " lattice walk") digest (digest_graph g)
        | None -> Alcotest.failf "%s: the lattice walk declined" name)
    golden_rungs

(* -- deterministic cycle time -- *)

let test_ring_period () =
  let teg = ring [| 1.0; 2.5; 3.0 |] in
  check_float 1e-9 "period = sum of times" 6.5 (Cycle_time.period teg)

let test_two_token_ring_period () =
  let teg = Teg.create ~labels:[| "a"; "b" |] ~times:[| 4.0; 6.0 |] in
  Teg.add_place teg ~src:0 ~dst:1 ~tokens:1;
  Teg.add_place teg ~src:1 ~dst:0 ~tokens:1;
  check_float 1e-9 "two tokens halve the period" 5.0 (Cycle_time.period teg)

let test_acyclic_period () =
  let teg = Teg.create ~labels:[| "a"; "b" |] ~times:[| 1.0; 2.0 |] in
  Teg.add_place teg ~src:0 ~dst:1 ~tokens:0;
  check_float 1e-12 "acyclic net has period 0" 0.0 (Cycle_time.period teg)

let qcheck_maxplus_crosscheck =
  QCheck.Test.make ~name:"critical cycle matches (max,+) growth rate" ~count:40
    QCheck.(small_int)
    (fun seed ->
      let g = Prng.create ~seed:(seed + 3) in
      let k = 2 + Prng.int g 5 in
      let times = Array.init k (fun _ -> Prng.uniform g 0.5 5.0) in
      let teg = ring times in
      (* add a couple of chords with one token to stay 0/1 and live *)
      for _ = 1 to 2 do
        let a = Prng.int g k and b = Prng.int g k in
        Teg.add_place teg ~src:a ~dst:b ~tokens:1
      done;
      let period = Cycle_time.period teg in
      let estimate = Cycle_time.maxplus_period_estimate ~iterations:800 teg in
      abs_float (period -. estimate) < 1e-6 *. period)

(* -- eg_sim -- *)

let test_eg_sim_ring_schedule () =
  let teg = ring [| 1.0; 2.0 |] in
  let series = Eg_sim.simulate teg ~iterations:4 ~watch:[ 0; 1 ] in
  (* D(t0,n) = 3(n-1) + 1 ; D(t1,n) = 3(n-1) + 3 *)
  Array.iteri (fun i c -> check_float 1e-9 "t0 completions" (1.0 +. (3.0 *. float_of_int i)) c)
    series.(0);
  Array.iteri (fun i c -> check_float 1e-9 "t1 completions" (3.0 +. (3.0 *. float_of_int i)) c)
    series.(1)

let test_eg_sim_slope_matches_period () =
  let teg = ring [| 1.0; 2.5; 3.0 |] in
  let series = Eg_sim.simulate teg ~iterations:200 ~watch:[ 0 ] in
  let slope = (series.(0).(199) -. series.(0).(99)) /. 100.0 in
  check_float 1e-9 "slope = period" 6.5 slope

let test_eg_sim_two_token_place () =
  (* place with 2 tokens: t can run two firings ahead of its feeder *)
  let teg = Teg.create ~labels:[| "a"; "b" |] ~times:[| 1.0; 1.0 |] in
  Teg.add_place teg ~src:0 ~dst:1 ~tokens:0;
  Teg.add_place teg ~src:1 ~dst:0 ~tokens:2;
  let series = Eg_sim.simulate teg ~iterations:6 ~watch:[ 0; 1 ] in
  (* period = 2/2 = 1 per firing; firings come in simultaneous pairs, so
     average the slope over a window *)
  let slope = (series.(0).(5) -. series.(0).(1)) /. 4.0 in
  check_float 1e-9 "slope with 2 tokens" 1.0 slope;
  check_float 1e-9 "matches critical cycle" 1.0 (Cycle_time.period teg)

let test_eg_sim_random_sampler () =
  let teg = ring [| 1.0; 1.0 |] in
  let g = Prng.create ~seed:5 in
  let sample ~transition:_ ~firing:_ = Dist.sample (Dist.Exponential 1.0) g in
  let series = Eg_sim.simulate ~sample teg ~iterations:2000 ~watch:[ 1 ] in
  let rate = 2000.0 /. series.(0).(1999) in
  (* alternating exponential(1) firings: rate 1/2 *)
  Alcotest.(check bool) "stochastic ring rate near 0.5" true (abs_float (rate -. 0.5) < 0.05)

let test_merged_completions () =
  let merged = Eg_sim.merged_completions [| [| 3.0; 1.0 |]; [| 2.0 |] |] in
  Alcotest.(check bool) "sorted merge" true (merged = [| 1.0; 2.0; 3.0 |])


(* -- structural analysis -- *)

let test_structural_ring_bounded () =
  match Structural.boundedness (ring [| 1.0; 1.0; 1.0 |]) with
  | Structural.Bounded -> ()
  | Structural.Possibly_unbounded _ -> Alcotest.fail "a ring is bounded"

let test_structural_chain_unbounded () =
  let teg = Teg.create ~labels:[| "a"; "b" |] ~times:[| 1.0; 1.0 |] in
  Teg.add_place teg ~src:0 ~dst:0 ~tokens:1;
  Teg.add_place teg ~src:0 ~dst:1 ~tokens:0;
  Teg.add_place teg ~src:1 ~dst:1 ~tokens:1;
  match Structural.boundedness teg with
  | Structural.Bounded -> Alcotest.fail "the forward place is unbounded"
  | Structural.Possibly_unbounded [ index ] ->
      let place = Teg.place teg index in
      Alcotest.(check (pair int int)) "the forward place" (0, 1) (place.Teg.src, place.Teg.dst)
  | Structural.Possibly_unbounded _ -> Alcotest.fail "exactly one uncovered place expected"

let test_is_cycle () =
  let teg = ring [| 1.0; 1.0; 1.0 |] in
  Alcotest.(check bool) "the ring's places form a cycle" true (Structural.is_cycle teg [ 0; 1; 2 ]);
  Alcotest.(check bool) "a prefix does not" false (Structural.is_cycle teg [ 0; 1 ]);
  Alcotest.(check bool) "empty list" false (Structural.is_cycle teg [])

let qcheck_cycle_tokens_invariant =
  QCheck.Test.make ~name:"ring tokens invariant under any firing sequence" ~count:100
    QCheck.(pair (int_range 2 6) small_int)
    (fun (k, seed) ->
      let teg = ring (Array.make k 1.0) in
      let cycle = List.init k Fun.id in
      let g = Prng.create ~seed:(seed + 5) in
      let m = ref (Marking.initial teg) in
      let before = Structural.tokens_on teg cycle !m in
      for _ = 1 to 25 do
        match Marking.enabled teg !m with
        | [] -> ()
        | enabled ->
            let v = List.nth enabled (Prng.int g (List.length enabled)) in
            m := Marking.fire teg !m v
      done;
      Structural.tokens_on teg cycle !m = before)

let test_dot_output () =
  let teg = ring [| 1.0; 2.0 |] in
  let dot = Dot.to_string teg in
  let contains needle =
    let n = String.length needle and h = String.length dot in
    let rec go i = i + n <= h && (String.sub dot i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "digraph header" true (contains "digraph teg {");
  Alcotest.(check bool) "transition node" true (contains "t0 [label=\"t0\\n1\"]");
  Alcotest.(check bool) "token edge is bold" true (contains "style=bold");
  Alcotest.(check bool) "closing brace" true (contains "}")


(* -- phase expansion -- *)

let test_expand_structure () =
  let teg = ring [| 2.0; 3.0 |] in
  let e = Expand.erlang ~phases:(fun v -> v + 2) teg in
  (* t0 -> 2 phases, t1 -> 3 phases *)
  let x = Expand.teg e in
  Alcotest.(check int) "transitions" 5 (Teg.n_transitions x);
  Alcotest.(check int) "first t1" 2 (Expand.first e 1);
  Alcotest.(check int) "last t1" 4 (Expand.last e 1);
  Alcotest.(check int) "origin of phase 3" 1 (Expand.original e 3);
  check_float 1e-12 "phase duration" 1.0 (Teg.time x (Expand.first e 1));
  check_float 1e-12 "phase rate" (3.0 /. 3.0) (Expand.phase_rates e ~original_rate:(fun v -> 1.0 /. Teg.time teg v) 3);
  (* places: 1 + 2 intra + 2 original *)
  Alcotest.(check int) "places" 5 (Teg.n_places x);
  match Teg.validate x with Ok () -> () | Error m -> Alcotest.fail m

let test_expand_preserves_deterministic_period () =
  (* splitting a transition into equal phases does not change the critical
     cycles: the deterministic period is preserved *)
  let teg = ring [| 1.0; 2.5; 3.0 |] in
  let e = Expand.erlang ~phases:(fun v -> [| 1; 3; 2 |].(v)) teg in
  check_float 1e-9 "period preserved" (Cycle_time.period teg) (Cycle_time.period (Expand.teg e))

let test_expand_invalid () =
  let teg = ring [| 1.0 |] in
  Alcotest.check_raises "zero phases" (Invalid_argument "Expand.erlang: phase count must be at least 1")
    (fun () -> ignore (Expand.erlang ~phases:(fun _ -> 0) teg))

let test_expand_identity_when_one_phase () =
  let teg = ring [| 1.0; 2.0 |] in
  let e = Expand.erlang ~phases:(fun _ -> 1) teg in
  Alcotest.(check int) "same transitions" 2 (Teg.n_transitions (Expand.teg e));
  Alcotest.(check string) "label kept" (Teg.label teg 1) (Teg.label (Expand.teg e) 1)


(* -- teg file format -- *)

let test_teg_io_roundtrip () =
  let teg = ring [| 1.5; 2.0; 0.5 |] in
  let text = Format.asprintf "%a" Teg_io.print teg in
  match Teg_io.parse text with
  | Error msg -> Alcotest.fail msg
  | Ok teg' ->
      Alcotest.(check int) "transitions" (Teg.n_transitions teg) (Teg.n_transitions teg');
      Alcotest.(check int) "places" (Teg.n_places teg) (Teg.n_places teg');
      check_float 1e-12 "period preserved" (Cycle_time.period teg) (Cycle_time.period teg')

let test_teg_io_errors () =
  let expect_error text =
    match Teg_io.parse text with Ok _ -> Alcotest.fail "expected error" | Error _ -> ()
  in
  expect_error "t 0 a 1.0\n";
  expect_error "transitions 2\nt 0 a 1.0\n";
  expect_error "transitions 1\nt 0 a 1.0\nfrob 1 2\n";
  expect_error "transitions 1\nt 5 a 1.0\n";
  expect_error "transitions 1\nt 0 a 1.0\nplace 0 3 0\n"

let () =
  Alcotest.run "petrinet"
    [
      ( "structure",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "accessors" `Quick test_place_accessors;
          Alcotest.test_case "set_time" `Quick test_set_time;
          Alcotest.test_case "validate ok" `Quick test_validate_ok;
          Alcotest.test_case "validate missing place" `Quick test_validate_missing_place;
          Alcotest.test_case "validate deadlock" `Quick test_validate_deadlock;
        ] );
      ( "marking",
        [
          Alcotest.test_case "enabled/fire" `Quick test_marking_initial_enabled_fire;
          Alcotest.test_case "token conservation" `Quick test_marking_token_conservation;
          Alcotest.test_case "explore ring" `Quick test_explore_ring;
          Alcotest.test_case "explore capacity" `Quick test_explore_capacity;
          Alcotest.test_case "two rings product" `Quick test_two_rings_product;
          Alcotest.test_case "explore_graph = reference BFS" `Quick test_explore_reference;
          QCheck_alcotest.to_alcotest qcheck_explore_random;
          Alcotest.test_case "graph digests = golden" `Quick test_golden_digests;
        ] );
      ( "cycle time",
        [
          Alcotest.test_case "ring period" `Quick test_ring_period;
          Alcotest.test_case "two-token ring" `Quick test_two_token_ring_period;
          Alcotest.test_case "acyclic" `Quick test_acyclic_period;
          QCheck_alcotest.to_alcotest qcheck_maxplus_crosscheck;
        ] );
      ( "eg_sim",
        [
          Alcotest.test_case "ring schedule" `Quick test_eg_sim_ring_schedule;
          Alcotest.test_case "slope = period" `Quick test_eg_sim_slope_matches_period;
          Alcotest.test_case "two-token place" `Quick test_eg_sim_two_token_place;
          Alcotest.test_case "random sampler" `Quick test_eg_sim_random_sampler;
          Alcotest.test_case "merged completions" `Quick test_merged_completions;
        ] );
      ( "structural",
        [
          Alcotest.test_case "ring bounded" `Quick test_structural_ring_bounded;
          Alcotest.test_case "chain unbounded" `Quick test_structural_chain_unbounded;
          Alcotest.test_case "is_cycle" `Quick test_is_cycle;
          QCheck_alcotest.to_alcotest qcheck_cycle_tokens_invariant;
          Alcotest.test_case "dot output" `Quick test_dot_output;
        ] );
      ( "teg io",
        [
          Alcotest.test_case "roundtrip" `Quick test_teg_io_roundtrip;
          Alcotest.test_case "errors" `Quick test_teg_io_errors;
        ] );
      ( "expand",
        [
          Alcotest.test_case "structure" `Quick test_expand_structure;
          Alcotest.test_case "deterministic period preserved" `Quick
            test_expand_preserves_deterministic_period;
          Alcotest.test_case "invalid" `Quick test_expand_invalid;
          Alcotest.test_case "one phase identity" `Quick test_expand_identity_when_one_phase;
        ] );
    ]
