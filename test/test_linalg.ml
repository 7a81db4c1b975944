open Linalg

let check_float tol = Alcotest.(check (float tol))

let test_solve_known () =
  let a = [| [| 2.0; 1.0; -1.0 |]; [| -3.0; -1.0; 2.0 |]; [| -2.0; 1.0; 2.0 |] |] in
  let b = [| 8.0; -11.0; -3.0 |] in
  let x = Matrix.solve a b in
  check_float 1e-9 "x0" 2.0 x.(0);
  check_float 1e-9 "x1" 3.0 x.(1);
  check_float 1e-9 "x2" (-1.0) x.(2)

let test_solve_identity () =
  let x = Matrix.solve (Matrix.identity 4) [| 1.0; 2.0; 3.0; 4.0 |] in
  Array.iteri (fun i v -> check_float 1e-12 "identity solve" (float_of_int (i + 1)) v) x

let test_singular () =
  let a = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular"
    (Supervise.Error.Solver_error
       (Supervise.Error.Numerical { what = "singular matrix"; where = "Matrix.solve" }))
    (fun () -> ignore (Matrix.solve a [| 1.0; 1.0 |]))

let test_mul () =
  let a = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Matrix.mul a b in
  check_float 1e-12 "c00" 19.0 c.(0).(0);
  check_float 1e-12 "c01" 22.0 c.(0).(1);
  check_float 1e-12 "c10" 43.0 c.(1).(0);
  check_float 1e-12 "c11" 50.0 c.(1).(1)

let test_transpose () =
  let a = [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let t = Matrix.transpose a in
  Alcotest.(check (pair int int)) "dims" (3, 2) (Matrix.dims t);
  check_float 1e-12 "t(2,1)" 6.0 t.(2).(1)

let qcheck_solve_roundtrip =
  QCheck.Test.make ~name:"LU solve recovers x on diagonally dominant systems" ~count:200
    QCheck.(pair (int_range 1 8) small_int)
    (fun (n, seed) ->
      let g = Prng.create ~seed:(seed + 1) in
      let a =
        Array.init n (fun i ->
            Array.init n (fun j ->
                if i = j then 10.0 +. Prng.float g else Prng.uniform g (-1.0) 1.0))
      in
      let x = Array.init n (fun _ -> Prng.uniform g (-5.0) 5.0) in
      let b = Matrix.mul_vec a x in
      let x' = Matrix.solve a b in
      Array.for_all2 (fun u v -> abs_float (u -. v) < 1e-8) x x')

(* -- GTH -- *)

let sparse_of_dense rates =
  let n = Array.length rates in
  let s = Sparse.create n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && rates.(i).(j) > 0.0 then Sparse.add_rate s i j rates.(i).(j)
    done
  done;
  s

let test_gth_two_state () =
  let pi = Gth.stationary (sparse_of_dense [| [| 0.0; 3.0 |]; [| 1.0; 0.0 |] |]) in
  check_float 1e-12 "pi0" 0.25 pi.(0);
  check_float 1e-12 "pi1" 0.75 pi.(1)

let test_gth_single_state () =
  let pi = Gth.stationary (Sparse.create 1) in
  check_float 1e-12 "pi" 1.0 pi.(0)

let test_gth_birth_death () =
  (* M/M/1/4: pi_i proportional to (lambda/mu)^i *)
  let lambda = 2.0 and mu = 3.0 in
  let n = 5 in
  let rates = Array.make_matrix n n 0.0 in
  for i = 0 to n - 2 do
    rates.(i).(i + 1) <- lambda;
    rates.(i + 1).(i) <- mu
  done;
  let pi = Gth.stationary (sparse_of_dense rates) in
  let rho = lambda /. mu in
  let z = Array.fold_left ( +. ) 0.0 (Array.init n (fun i -> rho ** float_of_int i)) in
  for i = 0 to n - 1 do
    check_float 1e-12 (Printf.sprintf "pi%d" i) ((rho ** float_of_int i) /. z) pi.(i)
  done

let test_gth_reducible () =
  let rates = [| [| 0.0; 1.0; 0.0 |]; [| 1.0; 0.0; 0.0 |]; [| 0.0; 0.0; 0.0 |] |] in
  Alcotest.check_raises "reducible"
    (Supervise.Error.Solver_error
       (Supervise.Error.Numerical
          {
            what = "reducible chain: no outflow mass eliminating state 2";
            where = "Gth.stationary";
          }))
    (fun () -> ignore (Gth.stationary (sparse_of_dense rates)))

let random_chain g n =
  (* dense irreducible generator: a cycle plus random extra rates *)
  let rates = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    rates.(i).((i + 1) mod n) <- 0.5 +. Prng.float g;
    for j = 0 to n - 1 do
      if i <> j && Prng.float g < 0.4 then rates.(i).(j) <- rates.(i).(j) +. Prng.float g
    done
  done;
  rates

let balance_residual rates pi =
  let n = Array.length pi in
  let worst = ref 0.0 in
  for j = 0 to n - 1 do
    let inflow = ref 0.0 and outflow = ref 0.0 in
    for i = 0 to n - 1 do
      if i <> j then begin
        inflow := !inflow +. (pi.(i) *. rates.(i).(j));
        outflow := !outflow +. (pi.(j) *. rates.(j).(i))
      end
    done;
    worst := max !worst (abs_float (!inflow -. !outflow))
  done;
  !worst

let qcheck_gth_balance =
  QCheck.Test.make ~name:"GTH satisfies global balance" ~count:100
    QCheck.(pair (int_range 2 15) small_int)
    (fun (n, seed) ->
      let g = Prng.create ~seed:(seed + 5) in
      let rates = random_chain g n in
      let pi = Gth.stationary (sparse_of_dense rates) in
      balance_residual rates pi < 1e-10
      && abs_float (Array.fold_left ( +. ) 0.0 pi -. 1.0) < 1e-10)

(* Random generators for the bit-identity properties: rates spread over
   six decades, extra edges either within a band of the diagonal or
   scattered, about 30% of them inserted twice (the CSR merges them). *)
let wide_rate g = 10.0 ** Prng.uniform g (-3.0) 3.0

(* ergodic: a backbone cycle through every state, then the extra edges *)
let random_ergodic g ~n ~banded =
  let s = Sparse.create n in
  if n >= 2 then
    for i = 0 to n - 1 do
      Sparse.add_rate s i ((i + 1) mod n) (wide_rate g)
    done;
  let band = 1 + Prng.int g 8 in
  for _ = 1 to n * (1 + Prng.int g 4) do
    let i = Prng.int g n in
    let j =
      if banded then (((i + Prng.int g ((2 * band) + 1) - band) mod n) + n) mod n
      else Prng.int g n
    in
    if i <> j then begin
      Sparse.add_rate s i j (wide_rate g);
      if Prng.float g < 0.3 then Sparse.add_rate s i j (wide_rate g)
    end
  done;
  s

(* reducible: every state joins one of two or three closed classes (a
   cycle each, extra edges kept inside the class) or, with probability
   0.2, is transient with edges anywhere.  Two closed classes make the
   elimination of the larger of their lowest states find no outflow
   mass, so both solvers must raise. *)
let random_reducible g ~n =
  let classes = min n (2 + Prng.int g 2) in
  let cls =
    Array.init n (fun i ->
        if i < classes then i else if Prng.float g < 0.2 then -1 else Prng.int g classes)
  in
  let s = Sparse.create n in
  for c = 0 to classes - 1 do
    let members = Array.of_list (List.filter (fun i -> cls.(i) = c) (List.init n Fun.id)) in
    let m = Array.length members in
    if m >= 2 then
      Array.iteri (fun k i -> Sparse.add_rate s i members.((k + 1) mod m) (wide_rate g)) members;
    for _ = 1 to m do
      let i = members.(Prng.int g m) and j = members.(Prng.int g m) in
      if i <> j then Sparse.add_rate s i j (wide_rate g)
    done
  done;
  Array.iteri
    (fun i c ->
      if c < 0 then
        for _ = 1 to 1 + Prng.int g 3 do
          let j = Prng.int g n in
          if j <> i then Sparse.add_rate s i j (wide_rate g)
        done)
    cls;
  s

let bits pi = Array.map Int64.bits_of_float pi

let qcheck_gth_matches_dense =
  QCheck.Test.make ~name:"sparse GTH = dense GTH, bit for bit" ~count:100
    QCheck.(triple (int_range 1 300) small_int bool)
    (fun (n, seed, banded) ->
      let s = random_ergodic (Prng.create ~seed:(seed + 41)) ~n ~banded in
      bits (Gth.stationary s) = bits (Ref_gth.stationary s))

let qcheck_gth_reducible_matches_dense =
  QCheck.Test.make ~name:"sparse and dense GTH raise the same error on reducible chains" ~count:100
    QCheck.(pair (int_range 2 120) small_int)
    (fun (n, seed) ->
      let s = random_reducible (Prng.create ~seed:(seed + 59)) ~n in
      let outcome f =
        match f s with _ -> None | exception Supervise.Error.Solver_error e -> Some e
      in
      match (outcome Gth.stationary, outcome Ref_gth.stationary) with
      | Some a, Some b -> a = b
      | _ -> false)

(* Solves keep their working storage between calls, one set per domain;
   concurrent solves, on other domains or on other threads of the same
   domain, must still each get the oracle's bits. *)
let test_gth_concurrent () =
  let g = Prng.create ~seed:73 in
  let chains =
    Array.init 24 (fun c -> random_ergodic g ~n:(2 + Prng.int g 250) ~banded:(c mod 2 = 0))
  in
  let expected = Array.map (fun s -> bits (Ref_gth.stationary s)) chains in
  let solve_all order () = Array.map (fun c -> bits (Gth.stationary chains.(c))) order in
  let forward = Array.init 24 Fun.id in
  let backward = Array.init 24 (fun c -> 23 - c) in
  let check name order got =
    Array.iteri
      (fun t c -> if got.(t) <> expected.(c) then Alcotest.failf "%s: chain %d differs" name c)
      order
  in
  let d = Domain.spawn (solve_all backward) in
  let here = solve_all forward () in
  check "other domain" backward (Domain.join d);
  check "this domain" forward here;
  let results = Array.make 2 [||] in
  let threads =
    Array.mapi
      (fun t order -> Thread.create (fun () -> results.(t) <- solve_all order ()) ())
      [| forward; backward |]
  in
  Array.iter Thread.join threads;
  check "thread 0" forward results.(0);
  check "thread 1" backward results.(1)

(* -- sparse solvers -- *)

let qcheck_gauss_seidel_matches_gth =
  QCheck.Test.make ~name:"Gauss-Seidel matches GTH" ~count:60
    QCheck.(pair (int_range 2 12) small_int)
    (fun (n, seed) ->
      let g = Prng.create ~seed:(seed + 11) in
      let rates = random_chain g n in
      let pi_gth = Gth.stationary (sparse_of_dense rates) in
      let pi_gs = fst (Sparse.stationary_gauss_seidel_stats (sparse_of_dense rates)) in
      Array.for_all2 (fun a b -> abs_float (a -. b) < 1e-8) pi_gth pi_gs)

(* The two stationary solvers must agree on generators of every size the
   auto-selection can route to either path: random ergodic chains up to
   n = 300 with random sparsity, including duplicate [add_rate] insertions
   (which must merge, not drift).  Both run on the same frozen CSR. *)
let test_solvers_agree_random () =
  let g = Prng.create ~seed:97 in
  for case = 1 to 50 do
    let n = 2 + Prng.int g 299 in
    let s = Sparse.create n in
    (* an irreducible backbone cycle, then random extra edges *)
    for i = 0 to n - 1 do
      Sparse.add_rate s i ((i + 1) mod n) (0.5 +. Prng.float g)
    done;
    for _ = 1 to n * (1 + Prng.int g 4) do
      let i = Prng.int g n and j = Prng.int g n in
      if i <> j then begin
        let r = 0.1 +. Prng.float g in
        Sparse.add_rate s i j r;
        if Prng.float g < 0.3 then Sparse.add_rate s i j r
      end
    done;
    let pi_gth = Gth.stationary s in
    let pi_gs = fst (Sparse.stationary_gauss_seidel_stats s) in
    for i = 0 to n - 1 do
      if abs_float (pi_gth.(i) -. pi_gs.(i)) > 1e-9 then
        Alcotest.failf "case %d (n=%d): Gauss-Seidel deviates at state %d: %.12g vs %.12g" case n i
          pi_gth.(i) pi_gs.(i)
    done
  done

let test_sparse_validation () =
  let s = Sparse.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Sparse.add_rate: no self loops in a generator")
    (fun () -> Sparse.add_rate s 1 1 1.0);
  Alcotest.check_raises "negative rate" (Invalid_argument "Sparse.add_rate: rate must be positive")
    (fun () -> Sparse.add_rate s 0 1 (-1.0));
  Sparse.add_rate s 0 1 2.0;
  Sparse.add_rate s 0 2 1.0;
  check_float 1e-12 "exit rate" 3.0 (Sparse.exit_rate s 0);
  Alcotest.(check int) "size" 3 (Sparse.size s);
  let outgoing = ref 0 in
  Sparse.iter_outgoing s 0 (fun _ _ -> incr outgoing);
  Alcotest.(check int) "outgoing" 2 !outgoing

let () =
  Alcotest.run "linalg"
    [
      ( "matrix",
        [
          Alcotest.test_case "solve known" `Quick test_solve_known;
          Alcotest.test_case "solve identity" `Quick test_solve_identity;
          Alcotest.test_case "singular" `Quick test_singular;
          Alcotest.test_case "mul" `Quick test_mul;
          Alcotest.test_case "transpose" `Quick test_transpose;
          QCheck_alcotest.to_alcotest qcheck_solve_roundtrip;
        ] );
      ( "gth",
        [
          Alcotest.test_case "two states" `Quick test_gth_two_state;
          Alcotest.test_case "single state" `Quick test_gth_single_state;
          Alcotest.test_case "birth-death" `Quick test_gth_birth_death;
          Alcotest.test_case "reducible" `Quick test_gth_reducible;
          QCheck_alcotest.to_alcotest qcheck_gth_balance;
          QCheck_alcotest.to_alcotest qcheck_gth_matches_dense;
          QCheck_alcotest.to_alcotest qcheck_gth_reducible_matches_dense;
          Alcotest.test_case "concurrent solves keep their own storage" `Quick test_gth_concurrent;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "validation" `Quick test_sparse_validation;
          QCheck_alcotest.to_alcotest qcheck_gauss_seidel_matches_gth;
          Alcotest.test_case "GTH = GS on random ergodic generators" `Slow
            test_solvers_agree_random;
        ] );
    ]
