(* Smoke test of the state-space kernel study on a two-rung ladder: the
   structural counts must match the closed forms of Theorem 3 and the
   measured throughputs the closed form of Theorem 4 — the timings
   themselves are machine-dependent and only checked for sanity. *)

let check_float tol = Alcotest.(check (float tol))

let test_smoke () =
  let rungs = Experiments.Statespace.study ~ladder:[ (3, 4); (2, 9) ] ~phases:[ 1; 2 ] () in
  Alcotest.(check int) "rung count" 4 (List.length rungs);
  List.iter
    (fun r ->
      let open Experiments.Statespace in
      if r.r_phases = 1 then begin
        Alcotest.(check int)
          (Printf.sprintf "S(%d,%d)" r.r_u r.r_v)
          (Young.Combin.state_count ~u:r.r_u ~v:r.r_v)
          r.r_states;
        check_float 1e-9
          (Printf.sprintf "Theorem 4 closed form %dx%d" r.r_u r.r_v)
          (Young.Pattern.homogeneous_inner_throughput ~u:r.r_u ~v:r.r_v ~lambda:1.0)
          r.r_throughput
      end;
      Alcotest.(check bool) "recurrent <= states" true (r.r_recurrent <= r.r_states);
      Alcotest.(check bool) "edges recorded" true (r.r_edges > 0);
      Alcotest.(check bool) "positive throughput" true (r.r_throughput > 0.0);
      Alcotest.(check bool) "timings non-negative" true
        (r.r_explore_s >= 0.0 && r.r_structure_s >= 0.0 && r.r_solve_s >= 0.0 && r.r_warm_s >= 0.0))
    rungs

let test_json () =
  let rungs = Experiments.Statespace.study ~ladder:[ (2, 3) ] ~phases:[ 1 ] () in
  let path = Filename.temp_file "statespace" ".json" in
  let header = {|"commit": "0123456789ab", "nproc": 2, "ocaml": "5.1.1"|} in
  Experiments.Statespace.write_json ~header ~path rungs;
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  let contains needle =
    let n = String.length needle and h = String.length s in
    let rec at i = i + n <= h && (String.sub s i n = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "opens with the header" true
    (String.starts_with ~prefix:("{\n  " ^ header ^ ",\n") s);
  Alcotest.(check bool) "mentions the rung" true (contains "\"u\": 2, \"v\": 3");
  Alcotest.(check bool) "has a largest entry" true (contains "\"largest\"");
  Alcotest.(check bool) "has the seed baseline" true (contains "\"seed_baseline\"")

let () =
  Alcotest.run "statespace"
    [
      ( "study",
        [
          Alcotest.test_case "two-rung smoke" `Quick test_smoke;
          Alcotest.test_case "json output" `Quick test_json;
        ] );
    ]
