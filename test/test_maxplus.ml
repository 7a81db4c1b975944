let check_float tol = Alcotest.(check (float tol))

let test_scalars () =
  check_float 1e-12 "oplus is max" 5.0 (Maxplus.oplus 3.0 5.0);
  check_float 1e-12 "otimes is plus" 8.0 (Maxplus.otimes 3.0 5.0);
  Alcotest.(check bool) "epsilon absorbs otimes" true
    (Maxplus.otimes Maxplus.epsilon 3.0 = Maxplus.epsilon);
  check_float 1e-12 "epsilon neutral for oplus" 3.0 (Maxplus.oplus Maxplus.epsilon 3.0);
  check_float 1e-12 "zero neutral for otimes" 3.0 (Maxplus.otimes Maxplus.zero 3.0)

let test_identity_mul () =
  let a = [| [| 1.0; Maxplus.epsilon |]; [| 2.0; 3.0 |] |] in
  let prod = Maxplus.mul (Maxplus.eye 2) a in
  Alcotest.(check bool) "I (x) a = a" true (prod = a)

let test_mul_known () =
  let a = [| [| 1.0; 2.0 |]; [| Maxplus.epsilon; 0.0 |] |] in
  let b = [| [| 0.0; Maxplus.epsilon |]; [| 3.0; 1.0 |] |] in
  let c = Maxplus.mul a b in
  (* c00 = max(1+0, 2+3) = 5; c01 = max(eps, 2+1) = 3 *)
  check_float 1e-12 "c00" 5.0 c.(0).(0);
  check_float 1e-12 "c01" 3.0 c.(0).(1);
  check_float 1e-12 "c10" 3.0 c.(1).(0);
  check_float 1e-12 "c11" 1.0 c.(1).(1)

let test_star_nilpotent () =
  (* strictly upper triangular: star converges and accumulates paths *)
  let e = Maxplus.epsilon in
  let a = [| [| e; 2.0; e |]; [| e; e; 3.0 |]; [| e; e; e |] |] in
  let s = Maxplus.star a in
  check_float 1e-12 "diag is 0" 0.0 s.(0).(0);
  check_float 1e-12 "direct edge" 2.0 s.(0).(1);
  check_float 1e-12 "two-step path" 5.0 s.(0).(2)

let test_star_diverges () =
  let a = [| [| 1.0 |] |] in
  Alcotest.check_raises "positive cycle" (Failure "Maxplus.star: diverges (positive-weight cycle)")
    (fun () -> ignore (Maxplus.star a))

let test_star_zero_cycle () =
  (* a zero-weight cycle is fine: star converges *)
  let a = [| [| 0.0 |] |] in
  let s = Maxplus.star a in
  check_float 1e-12 "star of zero self-loop" 0.0 s.(0).(0)

let test_cycle_time_self_loop () =
  let a = [| [| 4.0 |] |] in
  check_float 1e-9 "growth rate" 4.0 (Maxplus.cycle_time a [| 0.0 |])

let test_cycle_time_two_cycle () =
  let e = Maxplus.epsilon in
  (* x0(n) = x1(n-1) + 2 ; x1(n) = x0(n-1) + 6: growth (2+6)/2 = 4 *)
  let a = [| [| e; 2.0 |]; [| 6.0; e |] |] in
  check_float 1e-9 "average cycle" 4.0 (Maxplus.cycle_time a [| 0.0; 0.0 |])

let test_cycle_time_max_of_components () =
  let e = Maxplus.epsilon in
  let a = [| [| 3.0; e |]; [| e; 7.0 |] |] in
  check_float 1e-9 "max growth" 7.0 (Maxplus.cycle_time a [| 0.0; 0.0 |])

let qcheck_mul_associative =
  QCheck.Test.make ~name:"matrix multiplication associative" ~count:100
    QCheck.(small_int)
    (fun seed ->
      let g = Prng.create ~seed:(seed + 1) in
      let n = 1 + Prng.int g 5 in
      let random () =
        Array.init n (fun _ ->
            Array.init n (fun _ ->
                if Prng.float g < 0.3 then Maxplus.epsilon else Prng.uniform g 0.0 9.0))
      in
      let a = random () and b = random () and c = random () in
      let lhs = Maxplus.mul (Maxplus.mul a b) c and rhs = Maxplus.mul a (Maxplus.mul b c) in
      let close x y =
        (x = Maxplus.epsilon && y = Maxplus.epsilon) || abs_float (x -. y) < 1e-9
      in
      Array.for_all2 (fun ra rb -> Array.for_all2 close ra rb) lhs rhs)


(* -- exact eigenvalue -- *)

let test_eigenvalue_self_loop () =
  check_float 1e-12 "self loop" 4.0 (Option.get (Maxplus.eigenvalue [| [| 4.0 |] |]))

let test_eigenvalue_two_cycle () =
  let e = Maxplus.epsilon in
  let a = [| [| e; 2.0 |]; [| 6.0; e |] |] in
  check_float 1e-9 "period-2 orbit" 4.0 (Option.get (Maxplus.eigenvalue a))

let test_eigenvalue_vs_estimate () =
  let e = Maxplus.epsilon in
  let a = [| [| 1.0; 5.0; e |]; [| e; e; 3.0 |]; [| 2.5; e; 0.5 |] |] in
  let exact = Option.get (Maxplus.eigenvalue a) in
  (* critical cycle 0 -> 1 -> 2 -> 0 of mean (5 + 3 + 2.5)/3 *)
  check_float 1e-12 "exact eigenvalue" 3.5 exact;
  (* the slope estimator carries O(transient/iterations) bias *)
  let estimate = Maxplus.cycle_time ~iterations:2000 a [| 0.0; 0.0; 0.0 |] in
  check_float 1e-2 "estimate close to the eigenvalue" exact estimate

let qcheck_eigenvalue_matches_howard =
  QCheck.Test.make ~name:"maxplus eigenvalue = Howard max cycle mean" ~count:100
    QCheck.(pair (int_range 1 8) small_int)
    (fun (n, seed) ->
      let g = Prng.create ~seed:(seed + 9) in
      (* irreducible: backbone cycle plus random entries *)
      let a =
        Array.init n (fun i ->
            Array.init n (fun j ->
                if j = (i + 1) mod n then Prng.uniform g 0.0 8.0
                else if Prng.float g < 0.3 then Prng.uniform g 0.0 8.0
                else Maxplus.epsilon))
      in
      let graph = Graphs.Digraph.create n in
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun j w ->
              if w > Maxplus.epsilon then
                (* x_i(k) = a_ij + x_j(k-1): an edge j -> i with one token *)
                Graphs.Digraph.add_edge graph ~src:j ~dst:i ~weight:w ~tokens:1 ())
            row)
        a;
      match (Maxplus.eigenvalue a, Graphs.Cycle_ratio.max_cycle_ratio graph) with
      | Some ev, Some { Graphs.Cycle_ratio.ratio; _ } -> abs_float (ev -. ratio) < 1e-6
      | _ -> false)

let () =
  Alcotest.run "maxplus"
    [
      ( "algebra",
        [
          Alcotest.test_case "scalars" `Quick test_scalars;
          Alcotest.test_case "identity" `Quick test_identity_mul;
          Alcotest.test_case "mul known" `Quick test_mul_known;
          Alcotest.test_case "star nilpotent" `Quick test_star_nilpotent;
          Alcotest.test_case "star diverges" `Quick test_star_diverges;
          Alcotest.test_case "star zero cycle" `Quick test_star_zero_cycle;
          QCheck_alcotest.to_alcotest qcheck_mul_associative;
        ] );
      ( "cycle time",
        [
          Alcotest.test_case "self loop" `Quick test_cycle_time_self_loop;
          Alcotest.test_case "two cycle" `Quick test_cycle_time_two_cycle;
          Alcotest.test_case "components" `Quick test_cycle_time_max_of_components;
        ] );
      ( "eigenvalue",
        [
          Alcotest.test_case "self loop" `Quick test_eigenvalue_self_loop;
          Alcotest.test_case "two cycle" `Quick test_eigenvalue_two_cycle;
          Alcotest.test_case "matches estimate" `Quick test_eigenvalue_vs_estimate;
          QCheck_alcotest.to_alcotest qcheck_eigenvalue_matches_howard;
        ] );
    ]
