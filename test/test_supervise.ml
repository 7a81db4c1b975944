(* Fault-injection suite for the supervision layer: typed solver failures,
   budgets, the escalation ladder, journal robustness, resumable runs and
   the CLI exit-code contract. *)

open Supervise

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* ---- typed solver failures ---- *)

(* a small irreducible ring with uneven rates *)
let ring_sparse () =
  let t = Linalg.Sparse.create 4 in
  Linalg.Sparse.add_rate t 0 1 1.0;
  Linalg.Sparse.add_rate t 1 2 2.0;
  Linalg.Sparse.add_rate t 2 3 0.7;
  Linalg.Sparse.add_rate t 3 0 1.3;
  t

(* a slowly converging birth-death chain: the geometric stationary
   distribution is far from the uniform initial guess and Gauss–Seidel
   needs hundreds of sweeps, so small sweep limits genuinely fail *)
let slow_sparse n =
  let t = Linalg.Sparse.create n in
  for i = 0 to n - 2 do
    Linalg.Sparse.add_rate t i (i + 1) 1.0;
    Linalg.Sparse.add_rate t (i + 1) i 2.0
  done;
  t

let test_gs_no_convergence () =
  match Linalg.Sparse.stationary_gauss_seidel_stats ~tol:1e-12 ~max_sweeps:16 (slow_sparse 200) with
  | _ -> Alcotest.fail "expected No_convergence"
  | exception Error.Solver_error (Error.No_convergence { sweeps; residual }) ->
      Alcotest.(check int) "sweeps reported" 16 sweeps;
      Alcotest.(check bool) "residual positive" true (residual > 0.0)
  | exception e -> Alcotest.fail ("unexpected exception " ^ Printexc.to_string e)

let test_gs_stats_on_success () =
  let t = ring_sparse () in
  let pi, stats = Linalg.Sparse.stationary_gauss_seidel_stats ~tol:1e-12 t in
  Alcotest.(check bool) "met tolerance" true (stats.Linalg.Sparse.residual <= 1e-12);
  Alcotest.(check bool) "spent sweeps" true (stats.Linalg.Sparse.sweeps > 0);
  let exact = Linalg.Gth.stationary t in
  Array.iteri
    (fun i v -> Alcotest.(check (float 1e-9)) (Printf.sprintf "pi%d" i) exact.(i) v)
    pi

(* the recurrent marking chain of the u×v pattern expanded into Erlang
   phases, every edge at rate 1: the chains GTH's fill bound was set
   against *)
let pattern_sparse ~u ~v ~phases =
  let teg = Young.Pattern.build ~u ~v ~time:(fun ~sender:_ ~receiver:_ -> 1.0) in
  let expanded = Petrinet.Expand.teg (Petrinet.Expand.erlang ~phases:(fun _ -> phases) teg) in
  let { Petrinet.Marking.row_ptr; succ; _ } = Petrinet.Marking.explore_graph expanded in
  let recurrent, local = Markov.Tpn_markov.recurrent_class ~row_ptr ~succ in
  let s = Linalg.Sparse.create (Array.length recurrent) in
  Array.iteri
    (fun k st ->
      for e = row_ptr.(st) to row_ptr.(st + 1) - 1 do
        let j = local.(succ.(e)) in
        if j >= 0 && j <> k then Linalg.Sparse.add_rate s k j 1.0
      done)
    recurrent;
  s

let ctmc_of_sparse s =
  let chain = Markov.Ctmc.create (Linalg.Sparse.size s) in
  for i = 0 to Linalg.Sparse.size s - 1 do
    Linalg.Sparse.iter_outgoing s i (Markov.Ctmc.add_rate chain i)
  done;
  chain

let gth_only = [ Markov.Ctmc.Rung_gth ]

(* 4×9 Erlang:2 would store 8.43 M entries: GTH refuses it with a typed,
   recoverable failure.  The refused solve keeps no storage, so the next
   solve on this domain starts afresh and the one after reuses what that
   one kept: both must still get the oracle's bits *)
let test_gth_fill_bound () =
  let chain = ctmc_of_sparse (pattern_sparse ~u:4 ~v:9 ~phases:2) in
  (match Markov.Ctmc.stationary_supervised ~ladder:gth_only chain with
  | _ -> Alcotest.fail "expected Fill_exceeded"
  | exception Error.Solver_error (Error.Fill_exceeded { entries; bound } as e) ->
      Alcotest.(check bool) (Printf.sprintf "%d entries past the bound %d" entries bound) true
        (entries > bound);
      Alcotest.(check bool) "recoverable" true (Error.is_recoverable e)
  | exception e -> Alcotest.fail ("unexpected exception " ^ Printexc.to_string e));
  let bits pi = Array.map Int64.bits_of_float pi in
  List.iter
    (fun s ->
      Alcotest.(check bool) "later solve = reference, bit for bit" true
        (bits (Linalg.Gth.stationary s) = bits (Ref_gth.stationary s)))
    [ pattern_sparse ~u:3 ~v:4 ~phases:2; pattern_sparse ~u:3 ~v:4 ~phases:2 ]

(* ---- budgets ---- *)

let test_budget_wall_exhausted () =
  let budget = Budget.create ~wall:1e-9 () in
  ignore (Unix.select [] [] [] 0.01);
  match Linalg.Sparse.stationary_gauss_seidel_stats ~budget ~tol:1e-12 (slow_sparse 200) with
  | _ -> Alcotest.fail "expected Budget_exhausted"
  | exception Error.Solver_error (Error.Budget_exhausted { elapsed }) ->
      Alcotest.(check bool) "elapsed positive" true (elapsed > 0.0)
  | exception e -> Alcotest.fail ("unexpected exception " ^ Printexc.to_string e)

let test_budget_sweep_ceiling () =
  let budget = Budget.create ~sweeps:8 () in
  match Linalg.Sparse.stationary_gauss_seidel_stats ~budget ~tol:1e-12 (slow_sparse 200) with
  | _ -> Alcotest.fail "expected No_convergence"
  | exception Error.Solver_error (Error.No_convergence { sweeps; _ }) ->
      Alcotest.(check int) "ceiling tightened max_sweeps" 8 sweeps
  | exception e -> Alcotest.fail ("unexpected exception " ^ Printexc.to_string e)

(* GTH polls the wall deadline every 64 finished rows: an expired budget
   stops the 11 820-state 5×6 Erlang:2 elimination *)
let test_budget_gth_wall () =
  let chain = ctmc_of_sparse (pattern_sparse ~u:5 ~v:6 ~phases:2) in
  let budget = Budget.create ~wall:1e-9 () in
  ignore (Unix.select [] [] [] 0.01);
  match Markov.Ctmc.stationary_supervised ~budget ~ladder:gth_only chain with
  | _ -> Alcotest.fail "expected Budget_exhausted"
  | exception Error.Solver_error (Error.Budget_exhausted { elapsed }) ->
      Alcotest.(check bool) "elapsed positive" true (elapsed > 0.0)
  | exception e -> Alcotest.fail ("unexpected exception " ^ Printexc.to_string e)

(* an unbounded net: firing "src" adds a token that "sink" never consumes *)
let unbounded_teg () =
  let teg = Petrinet.Teg.create ~labels:[| "src"; "sink" |] ~times:[| 1.0; 1.0 |] in
  Petrinet.Teg.add_place teg ~src:0 ~dst:0 ~tokens:1;
  Petrinet.Teg.add_place teg ~src:0 ~dst:1 ~tokens:0;
  Petrinet.Teg.add_place teg ~src:1 ~dst:1 ~tokens:1;
  teg

let test_budget_state_ceiling () =
  let budget = Budget.create ~states:10 () in
  Alcotest.check_raises "state ceiling"
    (Error.Solver_error (Error.State_space_exceeded { cap = 10; explored = 10 }))
    (fun () -> ignore (Petrinet.Marking.explore ~cap:1000 ~budget (unbounded_teg ())))

(* ---- non-ergodic chains ---- *)

let one_transition_teg () =
  let teg = Petrinet.Teg.create ~labels:[| "a" |] ~times:[| 1.0 |] in
  Petrinet.Teg.add_place teg ~src:0 ~dst:0 ~tokens:1;
  teg

let test_non_ergodic_two_classes () =
  (* two isolated states: two bottom SCCs, nothing transient *)
  let g =
    {
      Petrinet.Marking.codec = Petrinet.Marking.codec_of_widths [| 2 |];
      codes = [| 0; 1 |];
      row_ptr = [| 0; 0; 0 |];
      succ = [||];
      via = [||];
    }
  in
  Alcotest.check_raises "two recurrent classes"
    (Error.Solver_error (Error.Non_ergodic { recurrent = 2; transient = 0 }))
    (fun () -> ignore (Markov.Tpn_markov.structure_of_graph (one_transition_teg ()) g))

let test_non_ergodic_with_transient () =
  (* state 0 leads to the absorbing states 1 and 2 *)
  let g =
    {
      Petrinet.Marking.codec = Petrinet.Marking.codec_of_widths [| 2 |];
      codes = [| 0; 1; 2 |];
      row_ptr = [| 0; 2; 2; 2 |];
      succ = [| 1; 2 |];
      via = [| 0; 0 |];
    }
  in
  Alcotest.check_raises "absorbing pair"
    (Error.Solver_error (Error.Non_ergodic { recurrent = 2; transient = 1 }))
    (fun () -> ignore (Markov.Tpn_markov.structure_of_graph (one_transition_teg ()) g))

(* ---- escalation ladder ---- *)

let ring_ctmc () =
  let chain = Markov.Ctmc.create 4 in
  Markov.Ctmc.add_rate chain 0 1 1.0;
  Markov.Ctmc.add_rate chain 1 2 2.0;
  Markov.Ctmc.add_rate chain 2 3 0.7;
  Markov.Ctmc.add_rate chain 3 0 1.3;
  chain

let slow_ctmc n =
  let chain = Markov.Ctmc.create n in
  for i = 0 to n - 2 do
    Markov.Ctmc.add_rate chain i (i + 1) 1.0;
    Markov.Ctmc.add_rate chain (i + 1) i 2.0
  done;
  chain

let test_ladder_escalates () =
  let chain = slow_ctmc 200 in
  let exact = fst (Markov.Ctmc.stationary_supervised ~ladder:[ Markov.Ctmc.Rung_gth ] chain) in
  (* first rung cannot converge within the sweep budget; GTH saves the
     solve and the provenance records both attempts *)
  let budget = Budget.create ~sweeps:16 () in
  let ladder =
    [ Markov.Ctmc.Rung_gauss_seidel { tol = 1e-12 }; Markov.Ctmc.Rung_gth ]
  in
  let pi, prov = Markov.Ctmc.stationary_supervised ~budget ~ladder chain in
  Alcotest.(check bool) "degraded" true prov.Provenance.degraded;
  Alcotest.(check bool) "quality exact" true (prov.Provenance.quality = Provenance.Exact);
  (match prov.Provenance.attempts with
  | [ { rung = r1; outcome = Error (Error.No_convergence _) }; { rung = r2; outcome = Ok _ } ] ->
      Alcotest.(check bool) "gs rung named" true
        (String.length r1 >= 12 && String.sub r1 0 12 = "gauss-seidel");
      Alcotest.(check string) "gth rung named" "gth" r2
  | _ -> Alcotest.fail ("unexpected attempts: " ^ Provenance.describe prov));
  Array.iteri
    (fun i v -> Alcotest.(check (float 1e-12)) (Printf.sprintf "pi%d" i) exact.(i) v)
    pi

let test_ladder_first_rung_not_degraded () =
  let _, prov = Markov.Ctmc.stationary_supervised (ring_ctmc ()) in
  Alcotest.(check bool) "not degraded" false prov.Provenance.degraded;
  Alcotest.(check int) "one attempt" 1 (List.length prov.Provenance.attempts)

let test_ladder_stops_on_budget () =
  let budget = Budget.create ~wall:1e-9 () in
  ignore (Unix.select [] [] [] 0.01);
  let ladder =
    [ Markov.Ctmc.Rung_gauss_seidel { tol = 1e-12 }; Markov.Ctmc.Rung_gth ]
  in
  (* GTH would succeed, so reaching it would return Ok: the raise proves
     the ladder stops climbing once the wall clock is spent *)
  match Markov.Ctmc.stationary_supervised ~budget ~ladder (slow_ctmc 200) with
  | _ -> Alcotest.fail "expected Budget_exhausted"
  | exception Error.Solver_error (Error.Budget_exhausted _) -> ()
  | exception e -> Alcotest.fail ("unexpected exception " ^ Printexc.to_string e)

(* Two rate-1 rings of 1 500 states joined by rates ε and 2ε: the first
   ring holds 2/3 of the mass.  Gauss–Seidel moves mass between the rings
   at rate ε per sweep, so after 1 000 sweeps it has stalled near 1/2
   each, and only the GTH backstop answers right *)
let two_rings eps =
  let m = 1500 in
  let chain = Markov.Ctmc.create (2 * m) in
  for i = 0 to m - 1 do
    Markov.Ctmc.add_rate chain i ((i + 1) mod m) 1.0;
    Markov.Ctmc.add_rate chain (m + i) (m + ((i + 1) mod m)) 1.0
  done;
  Markov.Ctmc.add_rate chain 0 m eps;
  Markov.Ctmc.add_rate chain m 0 (2.0 *. eps);
  chain

let test_ladder_two_rings () =
  List.iter
    (fun eps ->
      let what = Printf.sprintf "eps=%g: " eps in
      let budget = Budget.create ~sweeps:1000 () in
      let pi, prov = Markov.Ctmc.stationary_supervised ~budget (two_rings eps) in
      let first = ref 0.0 and second = ref 0.0 in
      Array.iteri (fun i p -> if i < 1500 then first := !first +. p else second := !second +. p) pi;
      Alcotest.(check (float 1e-9)) (what ^ "first ring") (2.0 /. 3.0) !first;
      Alcotest.(check (float 1e-9)) (what ^ "second ring") (1.0 /. 3.0) !second;
      (match prov.Provenance.attempts with
      | [ { rung = r1; outcome = Error (Error.No_convergence _) }; { rung = r2; outcome = Ok _ } ] ->
          Alcotest.(check string) (what ^ "first rung") "gauss-seidel(tol=1e-12)" r1;
          Alcotest.(check string) (what ^ "backstop") "gth" r2
      | _ -> Alcotest.fail (what ^ "unexpected attempts: " ^ Provenance.describe prov));
      Alcotest.(check bool) (what ^ "quality exact") true (prov.Provenance.quality = Provenance.Exact);
      Alcotest.(check bool) (what ^ "degraded") true prov.Provenance.degraded)
    [ 1e-5; 1e-6 ]

let test_full_ladder_degrades_to_des () =
  let app = Streaming.Application.uniform ~n:2 ~work:1.0 ~file:1.0 in
  let platform = Streaming.Platform.fully_connected ~speeds:[| 1.0; 1.0 |] ~bw:1.0 in
  let mapping =
    Streaming.Mapping.create ~app ~platform ~teams:[| [| 0 |]; [| 1 |] |]
  in
  let exact = Streaming.Expo.strict_throughput mapping in
  (* cap 2 forces State_space_exceeded before any CTMC exists; the DES
     rung answers with a confidence interval *)
  let rho, prov =
    Streaming.Throughput.solve ~cap:2
      ~simulate:(Des.Pipeline_sim.estimate ~data_sets:4_000 ~seed:42 mapping Streaming.Model.Strict)
      Streaming.Throughput.Exponential Streaming.Model.Strict mapping
  in
  Alcotest.(check bool) "degraded" true prov.Provenance.degraded;
  (match prov.Provenance.quality with
  | Provenance.Simulated { ci } -> Alcotest.(check bool) "ci positive" true (ci > 0.0)
  | q -> Alcotest.fail ("expected Simulated, got " ^ Provenance.quality_to_string q));
  (match prov.Provenance.attempts with
  | [ { outcome = Error (Error.State_space_exceeded _); _ }; { outcome = Ok _; _ } ] -> ()
  | _ -> Alcotest.fail ("unexpected attempts: " ^ Provenance.describe prov));
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.4f near exact %.4f" rho exact)
    true
    (abs_float (rho -. exact) /. exact < 0.15)

(* ---- journal ---- *)

let nasty =
  "quote\" backslash\\ newline\n tab\t return\r ctrl\x01\x1f utf8 π rho=0.42"

let sample_records =
  [
    { Journal.exp = "@meta"; point = "quick"; status = Journal.Exact; detail = ""; output = ""; elapsed = "" };
    { Journal.exp = "e1"; point = "p1"; status = Journal.Exact; detail = "d"; output = nasty; elapsed = "0.125000" };
    {
      Journal.exp = "e1";
      point = "p2";
      status = Journal.Degraded;
      detail = "retried";
      output = "line\n";
      elapsed = "";
    };
    { Journal.exp = "e2"; point = "all"; status = Journal.Failed; detail = "boom"; output = ""; elapsed = "" };
  ]

let test_journal_roundtrip () =
  let path = Filename.temp_file "supervise" ".jsonl" in
  Journal.save path sample_records;
  let loaded = Journal.load path in
  Alcotest.(check int) "count" (List.length sample_records) (List.length loaded);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "exp" a.Journal.exp b.Journal.exp;
      Alcotest.(check string) "point" a.Journal.point b.Journal.point;
      Alcotest.(check bool) "status" true (a.Journal.status = b.Journal.status);
      Alcotest.(check string) "detail" a.Journal.detail b.Journal.detail;
      Alcotest.(check string) "output" a.Journal.output b.Journal.output;
      Alcotest.(check string) "elapsed" a.Journal.elapsed b.Journal.elapsed)
    sample_records loaded;
  Sys.remove path

let test_journal_truncated () =
  let path = Filename.temp_file "supervise" ".jsonl" in
  Journal.save path sample_records;
  (* chop the file mid-way through the last line, as a crash would *)
  let text = In_channel.with_open_text path In_channel.input_all in
  let cut = String.length text - 10 in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (String.sub text 0 cut));
  let loaded = Journal.load path in
  Alcotest.(check int) "longest valid prefix" (List.length sample_records - 1)
    (List.length loaded);
  Sys.remove path

let test_journal_corrupt_middle () =
  let path = Filename.temp_file "supervise" ".jsonl" in
  Journal.save path sample_records;
  let lines = String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all) in
  let mangled =
    List.mapi (fun i l -> if i = 1 then "{\"exp\":garbage" else l) lines |> String.concat "\n"
  in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc mangled);
  Alcotest.(check int) "prefix before damage" 1 (List.length (Journal.load path));
  Sys.remove path

let test_journal_missing () = Alcotest.(check int) "missing file" 0 (List.length (Journal.load "/nonexistent/journal.jsonl"))

(* ---- resumable runner ---- *)

let counting_tasks solves =
  let mk exp key text =
    {
      Experiments.Runner.key;
      solve =
        (fun ?budget:_ () ->
          solves := (exp ^ "/" ^ key) :: !solves;
          Experiments.Runner.ok text);
    }
  in
  [
    { Experiments.Runner.exp = "alpha"; points = [ mk "alpha" "a" "A1\n"; mk "alpha" "b" "B1\n" ] };
    { Experiments.Runner.exp = "beta"; points = [ mk "beta" "c" "C1\n" ] };
  ]

let run_to_string ?journal ?resume ?inject tasks =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let health = Experiments.Runner.run_tasks ?journal ?resume ?inject ~err:null_ppf tasks ppf in
  (Buffer.contents buf, health)

let test_runner_output_and_health () =
  let solves = ref [] in
  let out, health = run_to_string (counting_tasks solves) in
  Alcotest.(check string) "fragments in order" "A1\nB1\n\nC1\n\n" out;
  Alcotest.(check int) "exact" 3 health.Experiments.Runner.exact;
  Alcotest.(check int) "reused" 0 health.Experiments.Runner.reused;
  Alcotest.(check int) "solved count" 3 (List.length !solves)

let test_runner_resume_byte_identical () =
  let path = Filename.temp_file "supervise" ".jsonl" in
  let solves = ref [] in
  let out1, _ = run_to_string ~journal:path (counting_tasks solves) in
  (* simulate a kill between the second and third point: drop the last
     journaled record *)
  let lines =
    String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "meta + 3 records" 4 (List.length lines);
  let truncated = List.filteri (fun i _ -> i < 3) lines in
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) truncated);
  let resolves = ref [] in
  let out2, health = run_to_string ~journal:path ~resume:true (counting_tasks resolves) in
  Alcotest.(check string) "byte-identical output" out1 out2;
  Alcotest.(check (list string)) "only the lost point re-solved" [ "beta/c" ] !resolves;
  Alcotest.(check int) "reused" 2 health.Experiments.Runner.reused;
  Sys.remove path

let test_runner_flaky_degrades_and_failed_requeues () =
  let path = Filename.temp_file "supervise" ".jsonl" in
  let solves = ref [] in
  let flaky ~exp ~point ~attempt =
    if exp = "alpha" && point = "b" && attempt = 0 then
      Error.raise_ (Error.Numerical { what = "injected"; where = "test" })
  in
  let out1, health = run_to_string ~journal:path ~inject:flaky (counting_tasks solves) in
  Alcotest.(check string) "output unchanged by retry" "A1\nB1\n\nC1\n\n" out1;
  Alcotest.(check int) "degraded" 1 health.Experiments.Runner.degraded;
  Alcotest.(check int) "exact" 2 health.Experiments.Runner.exact;
  (* persistent fault: the point fails for good, its fragment is missing,
     and a resume without the fault re-queues exactly that point *)
  let fail ~exp ~point ~attempt:_ =
    if exp = "alpha" && point = "b" then
      Error.raise_ (Error.Numerical { what = "injected"; where = "test" })
  in
  let out2, health2 = run_to_string ~journal:path ~inject:fail (counting_tasks solves) in
  Alcotest.(check string) "failed fragment missing" "A1\n\nC1\n\n" out2;
  Alcotest.(check int) "failed" 1 health2.Experiments.Runner.failed;
  let resolves = ref [] in
  let out3, health3 = run_to_string ~journal:path ~resume:true (counting_tasks resolves) in
  Alcotest.(check string) "complete after resume" "A1\nB1\n\nC1\n\n" out3;
  Alcotest.(check (list string)) "only the failed point re-solved" [ "alpha/b" ] !resolves;
  Alcotest.(check int) "no failures left" 0 health3.Experiments.Runner.failed;
  Alcotest.(check int) "reused" 2 health3.Experiments.Runner.reused;
  Sys.remove path

let test_runner_quick_full_mismatch () =
  let path = Filename.temp_file "supervise" ".jsonl" in
  let solves = ref [] in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  ignore
    (Experiments.Runner.run_tasks ~quick:true ~journal:path ~err:null_ppf (counting_tasks solves)
       ppf);
  (* resuming under the other mode must ignore the journal entirely *)
  let resolves = ref [] in
  let buf2 = Buffer.create 256 in
  let ppf2 = Format.formatter_of_buffer buf2 in
  let health =
    Experiments.Runner.run_tasks ~quick:false ~journal:path ~resume:true ~err:null_ppf
      (counting_tasks resolves) ppf2
  in
  Alcotest.(check int) "nothing reused" 0 health.Experiments.Runner.reused;
  Alcotest.(check int) "all re-solved" 3 (List.length !resolves);
  Sys.remove path

(* ---- fig10 decomposition = monolithic rendering ---- *)

let test_fig10_points_match_run () =
  (* only the cheap head point: solving it must render exactly the head of
     the monolithic output *)
  match Experiments.Fig10.points ~quick:true () with
  | head :: rest ->
      Alcotest.(check int) "one point per count" 3 (List.length rest);
      let fragment = (head.Experiments.Runner.solve ()).Experiments.Runner.output in
      let whole =
        Experiments.Runner.render (fun ppf -> Experiments.Fig10.run ~quick:true ppf)
      in
      Alcotest.(check bool) "head is a prefix of run" true
        (String.length whole >= String.length fragment
        && String.sub whole 0 (String.length fragment) = fragment)
  | [] -> Alcotest.fail "no points"

(* ---- the SUPERVISE_INJECT grammar ---- *)

(* one spec mixing both layers' kinds with malformed and unknown rules:
   the shared reader keeps every kind=arg rule in order, and the
   experiments layer acts on fail/flaky/degrade only *)
let test_inject_table () =
  let spec =
    "fail=fig10:head,kill-after=3,bogus,flaky=table1,delay-ms=abc,=orphan,degrade=fig11:p2,\
     frobnicate=1,torn-reply=2=3,,fail=fig12"
  in
  Alcotest.(check (list (pair string string)))
    "rules, in order"
    [
      ("fail", "fig10:head");
      ("kill-after", "3");
      ("flaky", "table1");
      ("delay-ms", "abc");
      ("", "orphan");
      ("degrade", "fig11:p2");
      ("frobnicate", "1");
      ("torn-reply", "2=3");
      ("fail", "fig12");
    ]
    (Inject.parse spec);
  Alcotest.(check (list (pair string string))) "empty spec" [] (Inject.parse "");
  let hook =
    match Experiments.Runner.inject_of_rules (Inject.parse spec) with
    | Some f -> f
    | None -> Alcotest.fail "the experiments layer saw no rule"
  in
  List.iter
    (fun (exp, point, attempt, raises) ->
      let raised =
        match hook ~exp ~point ~attempt with
        | () -> false
        | exception Error.Solver_error (Error.Numerical { what = "injected fault"; where }) ->
            Alcotest.(check string) "where" (exp ^ "/" ^ point) where;
            true
      in
      Alcotest.(check bool) (Printf.sprintf "%s:%s attempt %d" exp point attempt) raises raised)
    [
      ("fig10", "head", 0, true);
      ("fig10", "head", 1, true);
      ("fig10", "tail", 0, false);
      ("table1", "any", 0, true);
      ("table1", "any", 1, false);
      ("fig11", "p2", 0, true);
      ("fig11", "p2", 1, false);
      ("fig11", "p1", 0, false);
      ("fig12", "x", 3, true);
      ("kill-after", "3", 0, false);
      ("frobnicate", "1", 0, false);
      ("3", "", 0, false);
    ];
  Alcotest.(check bool) "service kinds only: no experiments hook" true
    (Experiments.Runner.inject_of_rules (Inject.parse "kill-after=25,delay-ms=5") = None);
  List.iter
    (fun (kv, binding) -> Alcotest.(check bool) kv binding (Inject.is_binding kv))
    [
      ("SUPERVISE_INJECT=kill-after=1", true);
      ("SUPERVISE_INJECT=", true);
      ("SUPERVISE_INJECTED=1", false);
      ("SUPERVISE_INJECT_LOG=1", false);
      ("SUPERVISE_INJECT", false);
      ("XSUPERVISE_INJECT=1", false);
    ]

(* ---- CLI exit-code contract ---- *)

(* locate the CLI relative to this test binary so the tests work from any
   working directory *)
let cli =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/streaming_cli.exe"

let sh cmd = Sys.command (cmd ^ " >/dev/null 2>&1")

let write_file path text = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let test_cli_bad_instance_exit_2 () =
  let bad = Filename.temp_file "instance" ".txt" in
  write_file bad "stages 1\nwork nan\nprocessors 1\nspeeds 1\nbandwidth default 1\nteam 0\n";
  Alcotest.(check int) "nan instance" 2 (sh (cli ^ " analyze " ^ bad));
  Sys.remove bad

let test_cli_cap_exceeded_exit_3 () =
  let inst = Filename.temp_file "instance" ".txt" in
  write_file inst
    "stages 2\nwork 1 1\nfiles 1\nprocessors 2\nspeeds 1 1\nbandwidth default 1\nteam 0\nteam 1\n";
  Alcotest.(check int) "tiny cap" 3 (sh (cli ^ " analyze -m strict -e --cap 2 " ^ inst));
  Sys.remove inst

let test_cli_resume_requires_journal () =
  Alcotest.(check int) "--resume alone" 2 (sh (cli ^ " experiments fig10 --resume"))

let test_cli_unknown_experiment () =
  Alcotest.(check int) "unknown id" 2 (sh (cli ^ " experiments frobnicate"))

let test_cli_degraded_exit_0_failed_exit_1 () =
  let journal = Filename.temp_file "journal" ".jsonl" in
  Unix.putenv "SUPERVISE_INJECT" "fail=fig10:head";
  Alcotest.(check int) "failed point exits 1" 1
    (sh (cli ^ " experiments fig10 --journal " ^ journal));
  (* the journal keeps the completed points; a clean resume re-queues only
     the failed head and the run completes *)
  Unix.putenv "SUPERVISE_INJECT" "";
  Alcotest.(check int) "resume after failure exits 0" 0
    (sh (cli ^ " experiments fig10 --journal " ^ journal ^ " --resume"));
  Unix.putenv "SUPERVISE_INJECT" "flaky=fig10:head";
  Alcotest.(check int) "degraded-only run exits 0" 0 (sh (cli ^ " experiments fig10"));
  Unix.putenv "SUPERVISE_INJECT" "";
  Sys.remove journal

(* ---- backoff: deterministic jittered schedules ---- *)

let test_backoff_deterministic () =
  let p = Backoff.default_retry in
  for attempt = 0 to p.Backoff.max_attempts - 1 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "attempt %d replays" attempt)
      (Backoff.delay p ~seed:42 ~attempt)
      (Backoff.delay p ~seed:42 ~attempt)
  done;
  let differs =
    List.exists
      (fun attempt -> Backoff.delay p ~seed:1 ~attempt <> Backoff.delay p ~seed:2 ~attempt)
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check bool) "different seeds jitter differently" true differs

let test_backoff_envelope () =
  let p =
    { Backoff.base = 0.1; multiplier = 2.0; max_delay = 2.0; jitter = 0.25; max_attempts = 8 }
  in
  for attempt = 0 to 7 do
    let capped = Float.min (0.1 *. (2.0 ** float_of_int attempt)) 2.0 in
    let d = Backoff.delay p ~seed:7 ~attempt in
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d inside [(1-j)d, d]" attempt)
      true
      (d <= capped +. 1e-12 && d >= (0.75 *. capped) -. 1e-12)
  done;
  Alcotest.(check bool) "exhausted at max_attempts" true (Backoff.exhausted p ~attempt:8);
  Alcotest.(check bool) "not exhausted before" false (Backoff.exhausted p ~attempt:7);
  (* 0.1+0.2+0.4+0.8+1.6+2+2+2 *)
  Alcotest.(check (float 1e-9)) "worst case total" 9.1 (Backoff.worst_case_total p)

let test_backoff_validate () =
  let base = Backoff.default_restart in
  let invalid p = match Backoff.validate p with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative base" true (invalid { base with Backoff.base = -1.0 });
  Alcotest.(check bool) "shrinking multiplier" true (invalid { base with Backoff.multiplier = 0.5 });
  Alcotest.(check bool) "cap under base" true (invalid { base with Backoff.max_delay = 0.01 });
  Alcotest.(check bool) "jitter out of range" true (invalid { base with Backoff.jitter = 1.5 })

let () =
  Alcotest.run "supervise"
    [
      ( "backoff",
        [
          Alcotest.test_case "deterministic replay" `Quick test_backoff_deterministic;
          Alcotest.test_case "jitter envelope and totals" `Quick test_backoff_envelope;
          Alcotest.test_case "policy validation" `Quick test_backoff_validate;
        ] );
      ( "typed failures",
        [
          Alcotest.test_case "gs no convergence" `Quick test_gs_no_convergence;
          Alcotest.test_case "gs stats on success" `Quick test_gs_stats_on_success;
          Alcotest.test_case "gth fill bound" `Quick test_gth_fill_bound;
          Alcotest.test_case "non-ergodic two classes" `Quick test_non_ergodic_two_classes;
          Alcotest.test_case "non-ergodic with transient" `Quick test_non_ergodic_with_transient;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "wall exhausted" `Quick test_budget_wall_exhausted;
          Alcotest.test_case "sweep ceiling" `Quick test_budget_sweep_ceiling;
          Alcotest.test_case "state ceiling" `Quick test_budget_state_ceiling;
          Alcotest.test_case "gth wall deadline" `Quick test_budget_gth_wall;
        ] );
      ( "escalation ladder",
        [
          Alcotest.test_case "escalates with provenance" `Quick test_ladder_escalates;
          Alcotest.test_case "first rung not degraded" `Quick test_ladder_first_rung_not_degraded;
          Alcotest.test_case "stops on spent budget" `Quick test_ladder_stops_on_budget;
          Alcotest.test_case "two rings reach the gth backstop" `Quick test_ladder_two_rings;
          Alcotest.test_case "degrades to DES" `Slow test_full_ladder_degrades_to_des;
        ] );
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "truncated tail" `Quick test_journal_truncated;
          Alcotest.test_case "corrupt middle" `Quick test_journal_corrupt_middle;
          Alcotest.test_case "missing file" `Quick test_journal_missing;
        ] );
      ( "resumable runner",
        [
          Alcotest.test_case "output and health" `Quick test_runner_output_and_health;
          Alcotest.test_case "resume byte-identical" `Quick test_runner_resume_byte_identical;
          Alcotest.test_case "flaky and failed points" `Quick
            test_runner_flaky_degrades_and_failed_requeues;
          Alcotest.test_case "quick/full mismatch" `Quick test_runner_quick_full_mismatch;
          Alcotest.test_case "fig10 decomposition" `Quick test_fig10_points_match_run;
        ] );
      ("fault injection", [ Alcotest.test_case "SUPERVISE_INJECT table" `Quick test_inject_table ]);
      ( "cli contract",
        [
          Alcotest.test_case "bad instance exit 2" `Slow test_cli_bad_instance_exit_2;
          Alcotest.test_case "cap exceeded exit 3" `Slow test_cli_cap_exceeded_exit_3;
          Alcotest.test_case "resume requires journal" `Slow test_cli_resume_requires_journal;
          Alcotest.test_case "unknown experiment" `Slow test_cli_unknown_experiment;
          Alcotest.test_case "degraded 0 / failed 1" `Slow test_cli_degraded_exit_0_failed_exit_1;
        ] );
    ]
