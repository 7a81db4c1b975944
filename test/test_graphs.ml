open Graphs

let check_float tol = Alcotest.(check (float tol))

let add g src dst weight tokens = Digraph.add_edge g ~src ~dst ~weight ~tokens ()

let test_topo_dag () =
  let g = Digraph.create 4 in
  add g 0 1 0.0 0;
  add g 1 2 0.0 0;
  add g 0 3 0.0 0;
  add g 3 2 0.0 0;
  match Digraph.topological_order g with
  | None -> Alcotest.fail "expected a topological order"
  | Some order ->
      let pos = Array.make 4 0 in
      List.iteri (fun i v -> pos.(v) <- i) order;
      Alcotest.(check bool) "0 before 1" true (pos.(0) < pos.(1));
      Alcotest.(check bool) "1 before 2" true (pos.(1) < pos.(2));
      Alcotest.(check bool) "3 before 2" true (pos.(3) < pos.(2))

let test_topo_cycle () =
  let g = Digraph.create 2 in
  add g 0 1 0.0 0;
  add g 1 0 0.0 0;
  Alcotest.(check bool) "cycle has no topo order" true (Digraph.topological_order g = None)

let test_zero_token_acyclic () =
  let g = Digraph.create 2 in
  add g 0 1 0.0 0;
  add g 1 0 0.0 1;
  Alcotest.(check bool) "token breaks the cycle" true (Digraph.zero_token_acyclic g);
  let g2 = Digraph.create 2 in
  add g2 0 1 0.0 0;
  add g2 1 0 0.0 0;
  Alcotest.(check bool) "tokenless cycle detected" false (Digraph.zero_token_acyclic g2)

let test_sccs_known () =
  let g = Digraph.create 5 in
  add g 0 1 0.0 0;
  add g 1 2 0.0 0;
  add g 2 0 0.0 0;
  add g 2 3 0.0 0;
  add g 3 4 0.0 0;
  let sccs = List.map (List.sort compare) (Digraph.sccs g) in
  let sorted = List.sort compare sccs in
  Alcotest.(check (list (list int))) "components" [ [ 0; 1; 2 ]; [ 3 ]; [ 4 ] ] sorted

let qcheck_sccs_partition =
  QCheck.Test.make ~name:"SCCs partition the nodes" ~count:200
    QCheck.(pair (int_range 1 20) small_int)
    (fun (n, seed) ->
      let g = Digraph.create n in
      let rng = Prng.create ~seed:(seed + 3) in
      for _ = 1 to 3 * n do
        add g (Prng.int rng n) (Prng.int rng n) 0.0 0
      done;
      let all = List.concat (Digraph.sccs g) in
      List.length all = n && List.sort compare all = List.init n Fun.id)

let test_reachable () =
  let g = Digraph.create 4 in
  add g 0 1 0.0 0;
  add g 1 2 0.0 0;
  let r = Digraph.reachable g 0 in
  Alcotest.(check bool) "0 reaches 2" true r.(2);
  Alcotest.(check bool) "0 does not reach 3" false r.(3)

(* -- cycle ratios -- *)

let test_self_loop_ratio () =
  let g = Digraph.create 1 in
  add g 0 0 5.0 1;
  match Cycle_ratio.max_cycle_ratio g with
  | None -> Alcotest.fail "expected a cycle"
  | Some { Cycle_ratio.ratio; cycle } ->
      check_float 1e-9 "ratio" 5.0 ratio;
      Alcotest.(check int) "cycle length" 1 (List.length cycle)

let test_two_cycles_max () =
  let g = Digraph.create 4 in
  (* cycle A: 0->1->0 with total weight 6, 1 token -> ratio 6 *)
  add g 0 1 2.0 0;
  add g 1 0 4.0 1;
  (* cycle B: 2->3->2 with total weight 10, 2 tokens -> ratio 5 *)
  add g 2 3 5.0 1;
  add g 3 2 5.0 1;
  match Cycle_ratio.max_cycle_ratio g with
  | None -> Alcotest.fail "expected a cycle"
  | Some { Cycle_ratio.ratio; _ } -> check_float 1e-9 "max ratio" 6.0 ratio

let test_tokens_divide_ratio () =
  let g = Digraph.create 2 in
  add g 0 1 3.0 1;
  add g 1 0 3.0 1;
  match Cycle_ratio.max_cycle_ratio g with
  | None -> Alcotest.fail "expected a cycle"
  | Some { Cycle_ratio.ratio; _ } -> check_float 1e-9 "ratio 6/2" 3.0 ratio

let test_unbounded () =
  let g = Digraph.create 2 in
  add g 0 1 1.0 0;
  add g 1 0 1.0 0;
  Alcotest.check_raises "zero-token cycle" Cycle_ratio.Unbounded (fun () ->
      ignore (Cycle_ratio.max_cycle_ratio g))

let test_acyclic_none () =
  let g = Digraph.create 3 in
  add g 0 1 1.0 0;
  add g 1 2 1.0 1;
  Alcotest.(check bool) "acyclic" true (Cycle_ratio.max_cycle_ratio g = None)

let test_witness_consistency () =
  let g = Digraph.create 3 in
  add g 0 1 1.0 1;
  add g 1 2 2.0 0;
  add g 2 0 3.5 1;
  match Cycle_ratio.max_cycle_ratio g with
  | None -> Alcotest.fail "expected a cycle"
  | Some { Cycle_ratio.ratio; cycle } ->
      let weight = List.fold_left (fun acc e -> acc +. e.Digraph.weight) 0.0 cycle in
      let tokens = List.fold_left (fun acc e -> acc + e.Digraph.tokens) 0 cycle in
      check_float 1e-9 "witness ratio matches" ratio (weight /. float_of_int tokens);
      check_float 1e-9 "ratio value" 3.25 ratio

(* equal ratios in two components: the witness comes from the first
   component in [Digraph.sccs] order, rotated to its smallest node *)
let test_tie_first_component () =
  let g = Digraph.create 4 in
  add g 0 1 1.0 1;
  add g 1 0 2.0 0;
  add g 2 3 2.0 0;
  add g 3 2 1.0 1;
  match Cycle_ratio.max_cycle_ratio g with
  | None -> Alcotest.fail "expected a cycle"
  | Some { Cycle_ratio.ratio; cycle } ->
      check_float 0.0 "ratio" 3.0 ratio;
      Alcotest.(check (list int))
        "witness sources" (List.sort Int.compare (List.hd (Digraph.sccs g)))
        (List.map (fun e -> e.Digraph.src) cycle)

let random_unit_token_graph rng n =
  let g = Digraph.create n in
  (* guarantee at least one cycle *)
  for v = 0 to n - 1 do
    add g v ((v + 1) mod n) (Prng.uniform rng 0.0 10.0) 1
  done;
  for _ = 1 to 2 * n do
    add g (Prng.int rng n) (Prng.int rng n) (Prng.uniform rng 0.0 10.0) 1
  done;
  g

(* [Cycle_ratio.max_cycle_ratio_flat] on [g]'s edges, node by node in
   insertion order; [g] must be strongly connected *)
let flat_ratio g =
  let n = Digraph.n_nodes g in
  let rows = Array.init n (fun u -> Array.of_list (List.rev (Digraph.out_edges g u))) in
  let first = Array.make (n + 1) 0 in
  Array.iteri (fun i row -> first.(i + 1) <- first.(i) + Array.length row) rows;
  let edges = Array.concat (Array.to_list rows) in
  Cycle_ratio.max_cycle_ratio_flat ~first
    ~dst:(Array.map (fun e -> e.Digraph.dst) edges)
    ~weight:(Array.map (fun e -> e.Digraph.weight) edges)
    ~tokens:(Array.map (fun e -> e.Digraph.tokens) edges)

(* the flat entry returns the digraph entry's ratio bit for bit *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let qcheck_karp_matches_ratio =
  QCheck.Test.make ~name:"Karp cycle mean = max cycle ratio" ~count:150
    QCheck.(pair (int_range 2 12) small_int)
    (fun (n, seed) ->
      let rng = Prng.create ~seed:(seed + 31) in
      (* the backbone makes it strongly connected *)
      let g = random_unit_token_graph rng n in
      match (Cycle_ratio.max_cycle_ratio g, Cycle_ratio.karp_max_cycle_mean g) with
      | Some { Cycle_ratio.ratio; _ }, Some mean ->
          abs_float (ratio -. mean) < 1e-6 && same_bits (flat_ratio g) ratio
      | _ -> false)

let qcheck_ratio_scale_invariance =
  QCheck.Test.make ~name:"scaling weights scales the ratio" ~count:100
    QCheck.(pair (int_range 2 10) small_int)
    (fun (n, seed) ->
      let rng = Prng.create ~seed:(seed + 47) in
      let g = random_unit_token_graph rng n in
      let factor = 3.0 in
      let g2 = Digraph.create n in
      List.iter
        (fun e ->
          Digraph.add_edge g2 ~src:e.Digraph.src ~dst:e.Digraph.dst
            ~weight:(factor *. e.Digraph.weight) ~tokens:e.Digraph.tokens ())
        (Digraph.edges g);
      match (Cycle_ratio.max_cycle_ratio g, Cycle_ratio.max_cycle_ratio g2) with
      | Some a, Some b -> abs_float ((factor *. a.Cycle_ratio.ratio) -. b.Cycle_ratio.ratio) < 1e-6
      | _ -> false)

(* -- Howard policy iteration against independent oracles -- *)

let howard_check = Alcotest.(check (float 1e-6))

let howard_ratio g = Option.map (fun r -> r.Cycle_ratio.ratio) (Cycle_ratio.max_cycle_ratio g)

let test_howard_self_loop () =
  let g = Digraph.create 1 in
  add g 0 0 5.0 1;
  match howard_ratio g with
  | None -> Alcotest.fail "expected a cycle"
  | Some r -> howard_check "self loop" 5.0 r

let test_howard_acyclic () =
  let g = Digraph.create 2 in
  add g 0 1 3.0 1;
  Alcotest.(check bool) "acyclic" true (howard_ratio g = None)

let test_howard_unbounded () =
  let g = Digraph.create 2 in
  add g 0 1 1.0 0;
  add g 1 0 1.0 0;
  Alcotest.check_raises "zero-token cycle" Cycle_ratio.Unbounded (fun () ->
      ignore (howard_ratio g))

let test_howard_two_components () =
  let g = Digraph.create 4 in
  add g 0 1 2.0 1;
  add g 1 0 2.0 1;
  add g 2 3 9.0 1;
  add g 3 2 1.0 1;
  match howard_ratio g with
  | None -> Alcotest.fail "expected cycles"
  | Some r -> howard_check "max over components" 5.0 r

(* a tokened backbone cycle plus random chords carrying 0-2 tokens; [None]
   when a chord closes a zero-token cycle *)
let random_token_graph n seed =
  let rng = Prng.create ~seed:(seed + 77) in
  let g = Digraph.create n in
  for v = 0 to n - 1 do
    add g v ((v + 1) mod n) (Prng.uniform rng 0.0 10.0) 1
  done;
  for _ = 1 to 3 * n do
    add g (Prng.int rng n) (Prng.int rng n) (Prng.uniform rng 0.0 10.0) (Prng.int rng 3)
  done;
  if Digraph.zero_token_acyclic g then Some g else None

(* the largest Σweight / Σtokens over every simple cycle, each enumerated
   once from its smallest node *)
let brute_force_ratio g =
  let best = ref None in
  let on_path = Array.make (Digraph.n_nodes g) false in
  let rec extend start u weight tokens =
    List.iter
      (fun e ->
        let weight = weight +. e.Digraph.weight and tokens = tokens + e.Digraph.tokens in
        let v = e.Digraph.dst in
        if v = start then begin
          let r = weight /. float_of_int tokens in
          match !best with Some b when b >= r -> () | _ -> best := Some r
        end
        else if v > start && not on_path.(v) then begin
          on_path.(v) <- true;
          extend start v weight tokens;
          on_path.(v) <- false
        end)
      (Digraph.out_edges g u)
  in
  for start = 0 to Digraph.n_nodes g - 1 do
    extend start start 0.0 0
  done;
  !best

let qcheck_howard_matches_brute_force =
  QCheck.Test.make ~name:"max_cycle_ratio = brute-force cycles" ~count:200
    QCheck.(pair (int_range 1 8) small_int)
    (fun (n, seed) ->
      match random_token_graph n seed with
      | None -> QCheck.assume_fail ()
      | Some g -> (
          (* strongly connected through its backbone, so the flat entry
             applies *)
          let f = flat_ratio g in
          match (howard_ratio g, brute_force_ratio g) with
          | Some h, Some b -> abs_float (h -. b) <= 1e-9 *. abs_float b && same_bits f h
          | _ -> false))

let random_tpn_graphs seed =
  let rng = Prng.create ~seed:(seed + 3000) in
  let mapping =
    Workload.Gen.random_mapping rng
      {
        Workload.Gen.n_stages = 2 + Prng.int rng 3;
        n_procs = 6 + Prng.int rng 5;
        comp_range = (5.0, 15.0);
        comm_range = (5.0, 15.0);
        max_rows = 40;
      }
  in
  List.map (fun model -> Streaming.Tpn.teg (Streaming.Tpn.build mapping model)) Streaming.Model.all

(* the maximum cycle mean of a (max,+) matrix: the largest eigenvalue of
   its irreducible diagonal blocks, which the power algorithm finds *)
let maxplus_max_cycle_mean a =
  let n = Array.length a in
  let precedence = Digraph.create n in
  Array.iteri
    (fun i row -> Array.iteri (fun j w -> if w > Maxplus.epsilon then add precedence j i w 1) row)
    a;
  List.fold_left
    (fun best nodes ->
      let block = Array.of_list nodes in
      let sub = Array.map (fun i -> Array.map (fun j -> a.(i).(j)) block) block in
      if Array.for_all (Array.for_all (fun w -> w = Maxplus.epsilon)) sub then best
      else
        match (Maxplus.eigenvalue sub, best) with
        | None, _ -> QCheck.Test.fail_report "no eigenvalue for an irreducible block"
        | Some ev, Some b when b >= ev -> best
        | Some ev, _ -> Some ev)
    None (Digraph.sccs precedence)

let qcheck_howard_on_tpns =
  QCheck.Test.make ~name:"TPNs: max ratio = (max,+) eigenvalue" ~count:20
    QCheck.small_int (fun seed ->
      List.for_all
        (fun teg ->
          (* TPN places carry 0 or 1 token: x(k) = A0* (x) A1 (x) x(k-1) *)
          let a0, a1 = Petrinet.Teg.to_maxplus teg in
          match
            ( howard_ratio (Petrinet.Teg.to_digraph teg),
              maxplus_max_cycle_mean (Maxplus.mul (Maxplus.star a0) a1) )
          with
          | Some h, Some ev -> abs_float (h -. ev) < 1e-9 *. ev
          | _ -> false)
        (random_tpn_graphs seed))

(* the witness is a simple closed walk of the graph's own edges, starts at
   its smallest source node, and its Σweight / Σtokens is [ratio] bit for
   bit *)
let witness_ok g =
  match Cycle_ratio.max_cycle_ratio g with
  | None -> false
  | Some { Cycle_ratio.ratio; cycle } ->
      let edges = Digraph.edges g in
      let srcs = List.map (fun e -> e.Digraph.src) cycle in
      let first = List.hd cycle in
      let rec closed = function
        | a :: (b :: _ as rest) -> a.Digraph.dst = b.Digraph.src && closed rest
        | [ last ] -> last.Digraph.dst = first.Digraph.src
        | [] -> false
      in
      let weight = List.fold_left (fun acc e -> acc +. e.Digraph.weight) 0.0 cycle in
      let tokens = List.fold_left (fun acc e -> acc + e.Digraph.tokens) 0 cycle in
      List.for_all (fun e -> List.memq e edges) cycle
      && closed cycle
      && List.length (List.sort_uniq Int.compare srcs) = List.length srcs
      && first.Digraph.src = List.fold_left min max_int srcs
      && Int64.equal (Int64.bits_of_float ratio)
           (Int64.bits_of_float (weight /. float_of_int tokens))

let qcheck_witness =
  QCheck.Test.make ~name:"critical cycle: closed, rotated, exact" ~count:200
    QCheck.(pair (int_range 1 8) small_int)
    (fun (n, seed) ->
      (match random_token_graph n seed with None -> true | Some g -> witness_ok g)
      && List.for_all
           (fun teg -> witness_ok (Petrinet.Teg.to_digraph teg))
           (random_tpn_graphs seed))

let () =
  Alcotest.run "graphs"
    [
      ( "structure",
        [
          Alcotest.test_case "topological order" `Quick test_topo_dag;
          Alcotest.test_case "topo detects cycles" `Quick test_topo_cycle;
          Alcotest.test_case "zero-token acyclicity" `Quick test_zero_token_acyclic;
          Alcotest.test_case "sccs known" `Quick test_sccs_known;
          Alcotest.test_case "reachable" `Quick test_reachable;
          QCheck_alcotest.to_alcotest qcheck_sccs_partition;
        ] );
      ( "cycle ratio",
        [
          Alcotest.test_case "self loop" `Quick test_self_loop_ratio;
          Alcotest.test_case "max of two cycles" `Quick test_two_cycles_max;
          Alcotest.test_case "tokens divide" `Quick test_tokens_divide_ratio;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "acyclic" `Quick test_acyclic_none;
          Alcotest.test_case "witness consistency" `Quick test_witness_consistency;
          Alcotest.test_case "tie: first component" `Quick test_tie_first_component;
          QCheck_alcotest.to_alcotest qcheck_karp_matches_ratio;
          QCheck_alcotest.to_alcotest qcheck_ratio_scale_invariance;
        ] );
      ( "howard",
        [
          Alcotest.test_case "self loop" `Quick test_howard_self_loop;
          Alcotest.test_case "acyclic" `Quick test_howard_acyclic;
          Alcotest.test_case "unbounded" `Quick test_howard_unbounded;
          Alcotest.test_case "two components" `Quick test_howard_two_components;
          QCheck_alcotest.to_alcotest qcheck_howard_matches_brute_force;
          QCheck_alcotest.to_alcotest qcheck_howard_on_tpns;
          QCheck_alcotest.to_alcotest qcheck_witness;
        ] );
    ]
