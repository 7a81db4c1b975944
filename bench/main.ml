(* Benchmark harness.

   Running this executable regenerates every table and figure of the
   paper's experimental section (quick-sized; pass --full for sizes close
   to the paper's) and then times the computational kernels behind each of
   them with Bechamel — the running-time study of §7.7.

   Usage: dune exec bench/main.exe [-- --full | -- table1 fig13 ...]
   Pass -- --statespace to run only the state-space kernel ladder study
   (per-stage cold/warm times, written to BENCH_statespace.json).
   Pass -- --obs to run only the tracing-overhead smoke: the same ladder
   with tracing disabled vs enabled, written to BENCH_obs.json; exits 1
   when the enabled run costs more than 5%. *)

open Bechamel
open Toolkit
open Streaming

(* ---- one Bechamel test per table/figure: the kernel that regenerates
   its central quantity, at a size that keeps one run under ~100ms ---- *)

let table1_kernel =
  (* deterministic critical-cycle analysis of a random (10,20) instance *)
  let g = Prng.create ~seed:1 in
  let mapping =
    Workload.Gen.random_mapping g
      {
        Workload.Gen.n_stages = 10;
        n_procs = 20;
        comp_range = (5., 15.);
        comm_range = (5., 15.);
        max_rows = 60;
      }
  in
  Test.make ~name:"table1: critical cycle (10,20)"
    (Staged.stage (fun () -> ignore (Deterministic.analyse mapping Model.Strict)))

let fig10_kernel =
  let mapping = Workload.Scenarios.fig10_system in
  let laws = Laws.exponential mapping in
  Test.make ~name:"fig10: eg_sim 1000 data sets"
    (Staged.stage (fun () ->
         ignore (Teg_sim.throughput mapping Model.Overlap ~laws ~seed:1 ~data_sets:1000)))

let fig11_kernel =
  let mapping = Workload.Scenarios.fig10_system in
  let timing = Des.Pipeline_sim.Independent (Laws.exponential mapping) in
  Test.make ~name:"fig11: DES 1000 data sets"
    (Staged.stage (fun () ->
         ignore (Des.Pipeline_sim.throughput mapping Model.Overlap ~timing ~seed:1 ~data_sets:1000)))

let fig12_kernel =
  let mapping = Workload.Scenarios.pattern_chain ~stages:8 () in
  Test.make ~name:"fig12: 8-stage chain theory"
    (Staged.stage (fun () -> ignore (Expo.overlap_throughput mapping)))

let fig13_kernel =
  Test.make ~name:"fig13: pattern CTMC 3x4"
    (Staged.stage (fun () ->
         ignore
           (Young.Pattern.exponential_inner_throughput ~u:3 ~v:4
              ~rate:(fun ~sender:_ ~receiver:_ -> 1.0)
              ())))

let fig14_kernel =
  Test.make ~name:"fig14: heterogeneous pattern CTMC 3x4"
    (Staged.stage (fun () ->
         ignore
           (Young.Pattern.exponential_inner_throughput ~u:3 ~v:4
              ~rate:(fun ~sender ~receiver -> 0.5 +. (0.1 *. float_of_int ((3 * sender) + receiver)))
              ())))

let fig15_kernel =
  let mapping = Workload.Scenarios.single_communication ~u:7 ~v:5 () in
  Test.make ~name:"fig15: closed form + decomposition"
    (Staged.stage (fun () ->
         ignore (Expo.overlap_throughput mapping);
         ignore (Deterministic.overlap_throughput_decomposed mapping)))

let fig16_kernel =
  let mapping = Workload.Scenarios.single_communication ~u:3 ~v:5 () in
  let timing =
    Des.Pipeline_sim.Independent
      (Laws.of_family mapping ~family:(fun mu -> Dist.Normal_trunc (mu, 0.2 *. mu)))
  in
  Test.make ~name:"fig16: DES gauss law 2000 data sets"
    (Staged.stage (fun () ->
         ignore (Des.Pipeline_sim.throughput mapping Model.Overlap ~timing ~seed:1 ~data_sets:2000)))

let fig17_kernel =
  let mapping = Workload.Scenarios.single_communication ~u:3 ~v:5 () in
  let timing =
    Des.Pipeline_sim.Independent
      (Laws.of_family mapping ~family:(fun mu -> Dist.with_mean (Dist.Gamma (0.5, 1.0)) mu))
  in
  Test.make ~name:"fig17: DES gamma law 2000 data sets"
    (Staged.stage (fun () ->
         ignore (Des.Pipeline_sim.throughput mapping Model.Overlap ~timing ~seed:1 ~data_sets:2000)))

let thm8_kernel =
  let mapping = Workload.Scenarios.single_communication ~u:3 ~v:4 () in
  Test.make ~name:"thm8: DES with a common data-set factor"
    (Staged.stage (fun () ->
         ignore
           (Des.Pipeline_sim.throughput mapping Model.Overlap
              ~timing:(Des.Pipeline_sim.Scaled (Dist.Uniform (0.5, 1.5)))
              ~seed:1 ~data_sets:2000)))

let ablation_kernel =
  let app = Application.create ~work:[| 1.0; 1.2; 0.9 |] ~files:[| 0.05; 0.05 |] in
  let platform = Platform.fully_connected ~speeds:[| 1.0; 1.0; 1.0 |] ~bw:1.0 in
  let mapping = Mapping.create ~app ~platform ~teams:[| [| 0 |]; [| 1 |]; [| 2 |] |] in
  Test.make ~name:"ablation: buffer-bounded marking CTMC"
    (Staged.stage (fun () ->
         ignore (Expo.general_throughput ~cap:500_000 ~buffer:3 mapping Model.Overlap)))

(* ---- substrate kernels (running time study, §7.7) ---- *)

let substrate_kernels =
  let mapping = Workload.Scenarios.example_a in
  [
    Test.make ~name:"substrate: TPN build (example A)"
      (Staged.stage (fun () -> ignore (Tpn.build mapping Model.Overlap)));
    Test.make ~name:"substrate: strict TPN -> CTMC (example A)"
      (Staged.stage (fun () -> ignore (Expo.strict_throughput ~cap:500_000 mapping)));
    Test.make ~name:"substrate: GTH stationary (200 states)"
      (let g = Prng.create ~seed:3 in
       let n = 200 in
       let rates = Linalg.Sparse.create n in
       for i = 0 to n - 1 do
         for j = 0 to n - 1 do
           if i = j then ()
           else if (i + 1) mod n = j then Linalg.Sparse.add_rate rates i j (1.0 +. Prng.float g)
           else if Prng.float g < 0.05 then begin
             let r = Prng.float g in
             if r > 0.0 then Linalg.Sparse.add_rate rates i j r
           end
         done
       done;
       Staged.stage (fun () -> ignore (Linalg.Gth.stationary rates)));
    Test.make ~name:"substrate: state count S(9,7)"
      (Staged.stage (fun () -> ignore (Young.Combin.state_count ~u:9 ~v:7)));
  ]

let all_tests =
  [
    table1_kernel; fig10_kernel; fig11_kernel; fig12_kernel; fig13_kernel; fig14_kernel;
    fig15_kernel; fig16_kernel; fig17_kernel; thm8_kernel; ablation_kernel;
  ]
  @ substrate_kernels

let run_benchmarks () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~stabilize:false ~kde:(Some 10) () in
  Format.printf "@.== Running-time study (cf. paper section 7.7) ==@.";
  Format.printf "%-45s %15s@." "kernel" "time per run";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysis = Analyze.all ols (List.hd instances) results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              let pretty =
                if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
                else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
                else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
                else Printf.sprintf "%.0f ns" est
              in
              Format.printf "%-45s %15s@." name pretty
          | _ -> Format.printf "%-45s %15s@." name "n/a")
        analysis)
    all_tests

(* ---- the members every BENCH record opens with, as perfbench's header
   has them: the commit, the host's recommended domain count and the
   compiler ---- *)

let header =
  lazy
    (let commit =
       match Unix.open_process_in "git rev-parse --short=12 HEAD 2>/dev/null" with
       | ic -> (
           let line = In_channel.input_line ic in
           match (Unix.close_process_in ic, line) with
           | Unix.WEXITED 0, Some c when c <> "" -> c
           | _ -> "unknown")
       | exception Unix.Unix_error _ -> "unknown"
     in
     Printf.sprintf "\"commit\": \"%s\", \"nproc\": %d, \"ocaml\": \"%s\""
       (Obs.Log.json_escape commit) (Domain.recommended_domain_count ())
       (Obs.Log.json_escape Sys.ocaml_version))

(* ---- parallel & caching study: 1 domain vs N domains, byte-identical
   output check, pattern-cache cold/warm timing; emits BENCH_parallel.json ---- *)

let pattern_pairs = [ (3, 4); (4, 5); (5, 6); (5, 7); (2, 9); (3, 8) ]

let pattern_sweep pool =
  Parallel.Pool.map_list pool
    (fun (u, v) ->
      Young.Pattern.exponential_inner_throughput ~u ~v
        ~rate:(fun ~sender ~receiver ->
          0.4 +. (0.07 *. float_of_int (((v * sender) + receiver) mod 5)))
        ())
    pattern_pairs

let parallel_kernel () =
  (* a multi-point kernel mixing the two hot-path shapes: heterogeneous
     pattern-CTMC solves (state-space exploration + stationary solve) and
     independent simulation replications (event loops); rendered to a
     string so the byte-identical check is a plain comparison *)
  let buf = Buffer.create 1024 in
  let pool = Parallel.Pool.get () in
  let rhos = pattern_sweep pool in
  List.iter2
    (fun (u, v) rho -> Buffer.add_string buf (Printf.sprintf "pattern %dx%d %.17g\n" u v rho))
    pattern_pairs rhos;
  let mapping = Workload.Scenarios.fig10_system in
  let des =
    Des.Pipeline_sim.replicated_throughputs ~pool mapping Model.Overlap
      ~timing:(Des.Pipeline_sim.Independent (Laws.exponential mapping))
      ~seeds:(List.init 8 (fun r -> 900 + r))
      ~data_sets:3000
  in
  List.iteri (fun i rho -> Buffer.add_string buf (Printf.sprintf "des %d %.17g\n" i rho)) des;
  let eg =
    Teg_sim.replicated_throughputs ~pool mapping Model.Overlap ~laws:(Laws.exponential mapping)
      ~seeds:(List.init 8 (fun r -> 950 + r))
      ~data_sets:3000
  in
  List.iteri (fun i rho -> Buffer.add_string buf (Printf.sprintf "eg %d %.17g\n" i rho)) eg;
  Buffer.contents buf

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (Unix.gettimeofday () -. t0, x)

let parallel_study ~domains =
  Format.printf "@.== Parallel & caching study ==@.";
  Parallel.Pool.set_domains 1;
  Young.Pattern.clear_caches ();
  let seq_time, seq_out = timed parallel_kernel in
  Parallel.Pool.set_domains domains;
  Young.Pattern.clear_caches ();
  let par_time, par_out = timed parallel_kernel in
  let identical = String.equal seq_out par_out in
  (* pattern-cache study on the same pool: cold solves everything, warm is
     all memo hits *)
  Young.Pattern.clear_caches ();
  let pool = Parallel.Pool.get () in
  let cold_time, cold = timed (fun () -> pattern_sweep pool) in
  let warm_time, warm = timed (fun () -> pattern_sweep pool) in
  let cache_ok = List.for_all2 (fun a b -> Float.equal a b) cold warm in
  let stats = Young.Pattern.cache_stats () in
  let par_speedup = seq_time /. par_time in
  let cache_speedup = cold_time /. warm_time in
  let host = Domain.recommended_domain_count () in
  Format.printf "%-42s %12.3f s@." "kernel wall time, 1 domain" seq_time;
  Format.printf "%-42s %12.3f s@." (Printf.sprintf "kernel wall time, %d domains" domains) par_time;
  Format.printf "%-42s %12.2fx  (host has %d core%s)@." "parallel speedup" par_speedup host
    (if host = 1 then "" else "s");
  Format.printf "%-42s %12s@." "byte-identical output across pool sizes"
    (if identical then "yes" else "NO");
  Format.printf "%-42s %12.3f s@." "pattern sweep, cold cache" cold_time;
  Format.printf "%-42s %12.6f s@." "pattern sweep, warm cache" warm_time;
  Format.printf "%-42s %12.0fx@." "cache speedup" cache_speedup;
  Format.printf "%-42s %6d hits %6d misses@." "cache counters" stats.Young.Pattern.hits
    stats.Young.Pattern.misses;
  let oc = open_out "BENCH_parallel.json" in
  Printf.fprintf oc
    "{\n\
    \  %s,\n\
    \  \"kernel\": \"6 heterogeneous pattern CTMCs + 8 DES + 8 event-graph replications\",\n\
    \  \"domains_compared\": [1, %d],\n\
    \  \"host_recommended_domains\": %d,\n\
    \  \"wall_s_1_domain\": %.6f,\n\
    \  \"wall_s_n_domains\": %.6f,\n\
    \  \"parallel_speedup\": %.4f,\n\
    \  \"identical_output\": %b,\n\
    \  \"cache_cold_s\": %.6f,\n\
    \  \"cache_warm_s\": %.6f,\n\
    \  \"cache_speedup\": %.1f,\n\
    \  \"cache_identical\": %b,\n\
    \  \"cache_hits\": %d,\n\
    \  \"cache_misses\": %d,\n\
    \  \"cache_structures\": %d,\n\
    \  \"cache_results\": %d\n\
     }\n"
    (Lazy.force header) domains host seq_time par_time par_speedup identical cold_time warm_time cache_speedup
    cache_ok stats.Young.Pattern.hits stats.Young.Pattern.misses
    stats.Young.Pattern.structures stats.Young.Pattern.results;
  close_out oc;
  Format.printf "wrote BENCH_parallel.json@."

(* ---- tracing-overhead study: the state-space ladder with tracing
   disabled vs enabled; emits BENCH_obs.json and fails (exit 1) when the
   enabled run costs more than 5% ---- *)

let obs_study () =
  Format.printf "@.== Tracing-overhead study ==@.";
  (* interleaved disabled/enabled rounds, best-of per configuration: the
     minimum filters scheduler noise, the interleaving cancels the
     heap-growth bias a disabled-then-enabled ordering would bake in, and
     the compact gives every pass the same GC starting point.  Each
     study () clears the pattern caches, so every pass is equally cold. *)
  let events = ref 0 in
  let one_pass enabled =
    Obs.Trace.set_enabled enabled;
    Obs.Trace.clear ();
    Gc.compact ();
    let t, () = timed (fun () -> ignore (Experiments.Statespace.study ())) in
    if enabled then events := List.length (Obs.Trace.events ());
    Obs.Trace.set_enabled false;
    t
  in
  let rounds = 3 in
  let disabled_s = ref infinity and enabled_s = ref infinity in
  for _ = 1 to rounds do
    disabled_s := min !disabled_s (one_pass false);
    enabled_s := min !enabled_s (one_pass true)
  done;
  let disabled_s = !disabled_s and enabled_s = !enabled_s in
  Obs.Trace.clear ();
  (* when the enabled run happens to beat the disabled one the raw ratio
     goes negative — that is measurement noise, not a speedup, so the
     reported overhead is floored at zero (both walls and the raw ratio
     stay in the JSON for anyone studying the noise itself) *)
  let overhead_raw = (enabled_s /. disabled_s) -. 1.0 in
  let overhead = Float.max 0.0 overhead_raw in
  let threshold = 0.05 in
  let pass = overhead <= threshold in
  Format.printf "%-42s %12.3f s@." "state-space ladder, tracing disabled" disabled_s;
  Format.printf "%-42s %12.3f s@." "state-space ladder, tracing enabled" enabled_s;
  Format.printf "%-42s %12d@." "events recorded per enabled pass" !events;
  Format.printf "%-42s %11.2f%%  (raw %.2f%%, threshold %.0f%%)@." "tracing overhead"
    (100.0 *. overhead) (100.0 *. overhead_raw) (100.0 *. threshold);
  Format.printf "%-42s %12s@." "within threshold" (if pass then "yes" else "NO");
  let oc = open_out "BENCH_obs.json" in
  Printf.fprintf oc
    "{\n\
    \  %s,\n\
    \  \"kernel\": \"state-space ladder (9 patterns x 3 phase counts), best of 3 interleaved passes\",\n\
    \  \"wall_disabled_s\": %.6f,\n\
    \  \"wall_enabled_s\": %.6f,\n\
    \  \"overhead_frac\": %.6f,\n\
    \  \"overhead_raw_frac\": %.6f,\n\
    \  \"events_per_pass\": %d,\n\
    \  \"threshold_frac\": %.2f,\n\
    \  \"pass\": %b\n\
     }\n"
    (Lazy.force header) disabled_s enabled_s overhead overhead_raw !events threshold pass;
  close_out oc;
  Format.printf "wrote BENCH_obs.json@.";
  if not pass then exit 1

(* ---- state-space kernel study: per-stage cold/warm times over the
   pattern ladder; emits BENCH_statespace.json ---- *)

let statespace_study ~big ~domains =
  Format.printf "@.== State-space kernel study ==@.";
  let rungs = Experiments.Statespace.study () in
  Experiments.Statespace.print Format.std_formatter rungs;
  let big =
    if big then begin
      let b = Experiments.Statespace.big_study ~domains () in
      Experiments.Statespace.print_big Format.std_formatter b;
      Some b
    end
    else None
  in
  Experiments.Statespace.write_json ?big ~header:(Lazy.force header) ~path:"BENCH_statespace.json"
    rungs;
  Format.printf "wrote BENCH_statespace.json@."

(* ---- multi-tenant tier study: admission-audit latency, per-tenant
   throughput as the tenant count grows on one fixed platform, and the
   gap between the cheap admission bound and the exact exponential
   throughput; emits BENCH_tenancy.json ---- *)

let tenancy_study () =
  Format.printf "@.== Multi-tenant tier study ==@.";
  (* strict model: under overlap the exponential throughput coincides
     with the deterministic critical-cycle value (renewal argument), so
     the bound-vs-exact gap is only informative here *)
  let model = Model.Strict in
  let tenant_counts = [ 1; 2; 3; 4 ] in
  let admission_reps = 200 in
  let rows =
    List.map
      (fun k ->
        (* one seed per mix size, so the numbers are reproducible and the
           platforms differ across rows only through the draw *)
        let seed = 900 + k in
        let g = Prng.create ~seed in
        let decls =
          Workload.Gen.random_tenant_mix ~model g
            { Workload.Gen.default_mix with Workload.Gen.mix_tenants = k }
        in
        let ps =
          match Tenancy.Platform_share.create ~tenants:decls with
          | Ok ps -> ps
          | Error msg -> failwith msg
        in
        (* admission latency over the audit that includes a guaranteed
           rejection — the expensive end of the decision *)
        let audit = Workload.Gen.with_over_budget ~model decls in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to admission_reps do
          ignore (Tenancy.Admission.sequence ~model audit)
        done;
        let admission_us =
          1e6 *. (Unix.gettimeofday () -. t0) /. float_of_int admission_reps
        in
        let per_tenant =
          List.mapi
            (fun i d ->
              let bound = Tenancy.Platform_share.bound ps ~tenant:i model in
              let expo, _ =
                Throughput.solve Throughput.Exponential model
                  (Tenancy.Platform_share.scaled_mapping ps ~tenant:i)
              in
              (d.Instance_io.tenant_id, d.Instance_io.weight, bound, expo,
               (bound -. expo) /. expo))
            decls
        in
        let aggregate = List.fold_left (fun acc (_, _, _, e, _) -> acc +. e) 0.0 per_tenant in
        let worst_gap = List.fold_left (fun acc (_, _, _, _, g) -> Float.max acc g) 0.0 per_tenant in
        let admissible = List.for_all (fun (_, _, b, e, _) -> b >= e) per_tenant in
        Format.printf "%-42s %12.1f us  (%d+1 tenants, %d reps)@."
          (Printf.sprintf "admission audit, %d-tenant mix" k)
          admission_us k admission_reps;
        Format.printf "%-42s %12.6g data sets / time unit@." "  aggregate exact throughput"
          aggregate;
        Format.printf "%-42s %11.1f%%  (bound admissible: %s)@." "  worst bound-vs-exact gap"
          (100.0 *. worst_gap)
          (if admissible then "yes" else "NO");
        (seed, k, admission_us, aggregate, worst_gap, admissible, per_tenant))
      tenant_counts
  in
  let all_admissible = List.for_all (fun (_, _, _, _, _, a, _) -> a) rows in
  let oc = open_out "BENCH_tenancy.json" in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"tenancy\",\n\
    \  %s,\n\
    \  \"version\": 1,\n\
    \  \"model\": \"strict\",\n\
    \  \"workload\": \"random tenant mixes on one shared 8-processor platform (default_mix)\",\n\
    \  \"admission_reps\": %d,\n\
    \  \"bound_admissible\": %b,\n\
    \  \"mixes\": [%s]\n\
     }\n"
    (Lazy.force header) admission_reps all_admissible
    (String.concat ", "
       (List.map
          (fun (seed, k, admission_us, aggregate, worst_gap, _, per_tenant) ->
            Printf.sprintf
              "{\"tenants\": %d, \"seed\": %d, \"admission_latency_us\": %.2f, \
               \"aggregate_throughput\": %.6g, \"worst_bound_gap\": %.6g, \"per_tenant\": [%s]}"
              k seed admission_us aggregate worst_gap
              (String.concat ", "
                 (List.map
                    (fun (id, w, b, e, gap) ->
                      Printf.sprintf
                        "{\"id\": \"%s\", \"weight\": %.6g, \"bound\": %.6g, \
                         \"exponential\": %.6g, \"gap\": %.6g}"
                        id w b e gap)
                    per_tenant)))
          rows));
  close_out oc;
  Format.printf "wrote BENCH_tenancy.json@.";
  (* the Theorem 7 sandwich is a correctness property, not a tuning
     knob: a bench run that sees bound < exact must fail loudly *)
  if not all_admissible then exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec split_domains acc = function
    | [] -> (None, List.rev acc)
    | "--domains" :: n :: rest -> (
        match int_of_string_opt n with
        | Some d when d >= 1 ->
            let more, kept = split_domains acc rest in
            (Some (Option.value more ~default:d), kept)
        | _ ->
            prerr_endline "--domains expects a positive integer";
            exit 2)
    | [ "--domains" ] ->
        prerr_endline "--domains expects a positive integer";
        exit 2
    | a :: rest -> split_domains (a :: acc) rest
  in
  let domains_opt, args = split_domains [] args in
  Option.iter Parallel.Pool.set_domains domains_opt;
  let full = List.mem "--full" args in
  if List.mem "--statespace" args then begin
    statespace_study ~big:(List.mem "--big" args)
      ~domains:(match domains_opt with Some d -> d | None -> 2);
    exit 0
  end;
  if List.mem "--obs" args then begin
    obs_study ();
    exit 0
  end;
  if List.mem "--tenancy" args then begin
    tenancy_study ();
    exit 0
  end;
  let ids = List.filter (fun a -> a <> "--full" && a <> "--no-bench") args in
  let quick = not full in
  (match ids with
  | [] -> Experiments.Registry.run_all ~quick Format.std_formatter
  | ids ->
      List.iter
        (fun id ->
          match Experiments.Registry.find id with
          | Some e -> e.Experiments.Registry.run ~quick Format.std_formatter
          | None -> Format.eprintf "unknown experiment %S@." id)
        ids);
  if not (List.mem "--no-bench" args) then begin
    let study_domains =
      match domains_opt with Some d when d > 1 -> d | _ -> 4
    in
    parallel_study ~domains:study_domains;
    (* put the default pool back the way the user asked before Bechamel runs *)
    Option.iter Parallel.Pool.set_domains domains_opt;
    run_benchmarks ()
  end
