(* The observability layer: metric registry semantics (idempotent
   creation, exact quantiles, Prometheus rendering), race-free concurrent
   span/counter recording across pool domains, Chrome trace_event export
   validity, the zero-overhead disabled fast path (byte-identical
   experiment output), profile-tree accounting, and the journal/runner
   elapsed_s satellite. *)

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let with_tracing f =
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Trace.set_enabled false) f

(* ---- metrics registry ---- *)

let test_counter_gauge () =
  let reg = Obs.Metrics.create_registry () in
  let c = Obs.Metrics.Counter.create ~registry:reg "obs_test_total" in
  Obs.Metrics.Counter.incr c;
  Obs.Metrics.Counter.add c 4;
  (* same (name, labels) -> same underlying cell *)
  let c' = Obs.Metrics.Counter.create ~registry:reg "obs_test_total" in
  Obs.Metrics.Counter.incr c';
  Alcotest.(check int) "counter shared" 6 (Obs.Metrics.Counter.value c);
  let g = Obs.Metrics.Gauge.create ~registry:reg ~labels:[ ("k", "v") ] "obs_test_gauge" in
  Obs.Metrics.Gauge.set g 2.5;
  Obs.Metrics.Gauge.add g 0.5;
  Alcotest.(check (float 1e-9)) "gauge" 3.0 (Obs.Metrics.Gauge.value g);
  (* label order must not matter for identity *)
  let g1 =
    Obs.Metrics.Gauge.create ~registry:reg ~labels:[ ("a", "1"); ("b", "2") ] "obs_test_multi"
  in
  let g2 =
    Obs.Metrics.Gauge.create ~registry:reg ~labels:[ ("b", "2"); ("a", "1") ] "obs_test_multi"
  in
  Obs.Metrics.Gauge.set g1 7.0;
  Alcotest.(check (float 1e-9)) "canonical labels" 7.0 (Obs.Metrics.Gauge.value g2);
  (* kind clash is an error *)
  (match Obs.Metrics.Gauge.create ~registry:reg "obs_test_total" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash accepted");
  Obs.Metrics.reset reg;
  Alcotest.(check int) "reset" 0 (Obs.Metrics.Counter.value c)

let test_histogram_quantiles () =
  let reg = Obs.Metrics.create_registry () in
  let h =
    Obs.Metrics.Histogram.create ~registry:reg ~buckets:[| 10.; 50.; 90. |] "obs_test_hist"
  in
  (* 1..100 observed in a scrambled order: nearest-rank quantiles are exact *)
  let xs = Array.init 100 (fun i -> float_of_int (((i * 37) mod 100) + 1)) in
  Array.iter (Obs.Metrics.Histogram.observe h) xs;
  Alcotest.(check int) "count" 100 (Obs.Metrics.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 5050.0 (Obs.Metrics.Histogram.sum h);
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Obs.Metrics.Histogram.quantile h 0.50);
  Alcotest.(check (float 1e-9)) "p90" 90.0 (Obs.Metrics.Histogram.quantile h 0.90);
  Alcotest.(check (float 1e-9)) "p99" 99.0 (Obs.Metrics.Histogram.quantile h 0.99);
  (* empty histogram: quantiles are NaN *)
  let e = Obs.Metrics.Histogram.create ~registry:reg ~buckets:[| 1.0 |] "obs_test_empty" in
  Alcotest.(check bool) "empty -> nan" true (Float.is_nan (Obs.Metrics.Histogram.quantile e 0.5))

let test_prometheus_render () =
  let reg = Obs.Metrics.create_registry () in
  let c = Obs.Metrics.Counter.create ~registry:reg ~labels:[ ("cmd", "solve") ] "req_total" in
  Obs.Metrics.Counter.add c 3;
  let h = Obs.Metrics.Histogram.create ~registry:reg ~buckets:[| 1.0; 2.0 |] "lat_seconds" in
  Obs.Metrics.Histogram.observe h 0.5;
  Obs.Metrics.Histogram.observe h 1.5;
  Obs.Metrics.Histogram.observe h 5.0;
  let collected = Obs.Metrics.Gauge.create ~registry:reg "collected_gauge" in
  Obs.Metrics.register_collector ~registry:reg ~name:"test" (fun () ->
      Obs.Metrics.Gauge.set collected 42.0);
  let text = Obs.Metrics.to_prometheus reg in
  let has needle =
    Alcotest.(check bool) ("contains " ^ needle) true
      (let n = String.length needle and m = String.length text in
       let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
       go 0)
  in
  has "# TYPE req_total counter";
  has "req_total{cmd=\"solve\"} 3";
  has "lat_seconds_bucket{le=\"1\"} 1";
  has "lat_seconds_bucket{le=\"2\"} 2";
  has "lat_seconds_bucket{le=\"+Inf\"} 3";
  has "lat_seconds_count 3";
  has "lat_seconds_p50 1.5";
  has "collected_gauge 42"

(* high label cardinality — the multi-tenant service mints one counter
   and one histogram series per tenant id, so the registry must stay
   correct and deterministic under hundreds of distinct label values:
   creation idempotent per (name, labels), no cross-talk between
   series, and a sorted, stable Prometheus exposition *)
let test_label_cardinality () =
  let reg = Obs.Metrics.create_registry () in
  let tenants = List.init 300 (fun i -> Printf.sprintf "tenant-%03d" i) in
  let counter t =
    Obs.Metrics.Counter.create ~registry:reg ~labels:[ ("tenant", t) ] "obs_card_total"
  in
  let histogram t =
    Obs.Metrics.Histogram.create ~registry:reg ~buckets:[| 1.0 |]
      ~labels:[ ("tenant", t) ] "obs_card_seconds"
  in
  List.iteri
    (fun i t ->
      Obs.Metrics.Counter.add (counter t) (i + 1);
      Obs.Metrics.Histogram.observe (histogram t) (float_of_int i))
    tenants;
  (* a second create round resolves to the same cells: values double,
     series count does not *)
  List.iteri (fun i t -> Obs.Metrics.Counter.add (counter t) (i + 1)) tenants;
  List.iteri
    (fun i t ->
      Alcotest.(check int)
        ("series isolated for " ^ t)
        (2 * (i + 1))
        (Obs.Metrics.Counter.value (counter t)))
    tenants;
  let text = Obs.Metrics.to_prometheus reg in
  Alcotest.(check string) "exposition deterministic" text (Obs.Metrics.to_prometheus reg);
  let count_lines needle =
    String.split_on_char '\n' text
    |> List.filter (fun line ->
           String.length line >= String.length needle
           && String.sub line 0 (String.length needle) = needle)
    |> List.length
  in
  Alcotest.(check int) "one sample line per tenant" 300 (count_lines "obs_card_total{tenant=");
  Alcotest.(check int) "one histogram count line per tenant" 300
    (count_lines "obs_card_seconds_count{tenant=");
  (* sorted by label value: tenant-000 appears before tenant-299 *)
  let index needle =
    let n = String.length needle and m = String.length text in
    let rec go i = if i + n > m then -1 else if String.sub text i n = needle then i else go (i + 1) in
    go 0
  in
  let first = index "obs_card_total{tenant=\"tenant-000\"}" in
  let last = index "obs_card_total{tenant=\"tenant-299\"}" in
  Alcotest.(check bool) "both series exposed" true (first >= 0 && last >= 0);
  Alcotest.(check bool) "series sorted by label" true (first < last)

(* ---- concurrent recording from >= 4 domains ---- *)

let test_concurrent_domains () =
  let c = Obs.Metrics.Counter.create "obs_test_concurrent_total" in
  let before = Obs.Metrics.Counter.value c in
  let spans_per_task = 50 and tasks = 16 and incrs = 1000 in
  with_tracing (fun () ->
      Parallel.Pool.with_pool ~domains:4 (fun pool ->
          ignore
            (Parallel.Pool.init pool tasks (fun i ->
                 for _ = 1 to incrs do
                   Obs.Metrics.Counter.incr c
                 done;
                 for j = 1 to spans_per_task do
                   Obs.Trace.span "work" (fun () ->
                       Obs.Trace.add_attr "task" (string_of_int i);
                       ignore (i * j))
                 done;
                 i))));
  Alcotest.(check int) "no lost counter increments" (tasks * incrs)
    (Obs.Metrics.Counter.value c - before);
  let work = List.filter (fun e -> e.Obs.Trace.ev_name = "work") (Obs.Trace.events ()) in
  Alcotest.(check int) "no lost span events" (2 * tasks * spans_per_task) (List.length work);
  let begins = List.filter (fun e -> e.Obs.Trace.ev_ph = 'B') work in
  Alcotest.(check int) "balanced B/E" (tasks * spans_per_task) (List.length begins)

(* ---- Chrome trace export ---- *)

let test_chrome_export () =
  with_tracing (fun () ->
      Obs.Trace.span "outer" (fun () ->
          Obs.Trace.add_attr "k" "v\"quote";
          Obs.Trace.span "inner" (fun () -> Obs.Trace.instant "tick");
          Obs.Trace.span "inner" (fun () -> ())));
  let text = Obs.Trace.to_chrome_json () in
  match Service.Json.parse text with
  | Error msg -> Alcotest.fail ("chrome export is not valid JSON: " ^ msg)
  | Ok json -> (
      match Service.Json.member "traceEvents" json with
      | Some (Service.Json.List events) ->
          Alcotest.(check bool) "has events" true (List.length events >= 7);
          (* per-tid begin/end stacks must nest and balance *)
          let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 4 in
          List.iter
            (fun ev ->
              let str k = Option.bind (Service.Json.member k ev) Service.Json.to_string_opt in
              let tid =
                match Option.bind (Service.Json.member "tid" ev) Service.Json.to_int_opt with
                | Some t -> t
                | None -> Alcotest.fail "event without tid"
              in
              let stack =
                match Hashtbl.find_opt stacks tid with
                | Some s -> s
                | None ->
                    let s = ref [] in
                    Hashtbl.add stacks tid s;
                    s
              in
              let name = match str "name" with Some n -> n | None -> Alcotest.fail "no name" in
              match str "ph" with
              | Some "B" -> stack := name :: !stack
              | Some "E" -> (
                  match !stack with
                  | top :: rest when top = name -> stack := rest
                  | _ -> Alcotest.fail (Printf.sprintf "unbalanced E for %s" name))
              | _ -> ())
            events;
          Hashtbl.iter
            (fun tid s ->
              Alcotest.(check (list string))
                (Printf.sprintf "tid %d stack empty" tid)
                [] !s)
            stacks
      | _ -> Alcotest.fail "no traceEvents list")

(* ---- disabled fast path: byte-identical experiment output ---- *)

let render_experiment id =
  match Experiments.Registry.find id with
  | None -> Alcotest.fail ("unknown experiment " ^ id)
  | Some e ->
      let buf = Buffer.create 4096 in
      let ppf = Format.formatter_of_buffer buf in
      e.Experiments.Registry.run ~quick:true ppf;
      Format.pp_print_flush ppf ();
      Buffer.contents buf

let test_disabled_identical () =
  Obs.Trace.set_enabled false;
  Obs.Trace.clear ();
  Young.Pattern.clear_caches ();
  let off = render_experiment "fig13" in
  Alcotest.(check int) "disabled records nothing" 0 (List.length (Obs.Trace.events ()));
  Young.Pattern.clear_caches ();
  let on = with_tracing (fun () -> render_experiment "fig13") in
  Young.Pattern.clear_caches ();
  Alcotest.(check string) "byte-identical output" off on

(* ---- profile tree ---- *)

let spin ns =
  let t0 = Obs.Clock.now_ns () in
  while Obs.Clock.now_ns () - t0 < ns do
    ()
  done

let test_profile_tree () =
  with_tracing (fun () ->
      Obs.Trace.span "root" (fun () ->
          Obs.Trace.span "child" (fun () -> spin 2_000_000);
          Obs.Trace.span "child" (fun () -> spin 1_000_000);
          spin 1_000_000));
  let evs = Obs.Trace.events () in
  let forests = Obs.Profile.trees evs in
  let roots = List.concat_map snd forests in
  (match List.find_opt (fun n -> n.Obs.Profile.p_name = "root") roots with
  | None -> Alcotest.fail "no root node"
  | Some root ->
      (* the (self) pseudo-leaf makes leaf sums equal the root total *)
      Alcotest.(check int) "leaf sums = total" root.Obs.Profile.p_total_ns
        (Obs.Profile.leaf_sum_ns root);
      let child =
        List.find_opt (fun n -> n.Obs.Profile.p_name = "child") root.Obs.Profile.p_children
      in
      (match child with
      | Some c -> Alcotest.(check int) "merged call count" 2 c.Obs.Profile.p_count
      | None -> Alcotest.fail "no child node");
      Alcotest.(check bool) "has (self) leaf" true
        (List.exists (fun n -> n.Obs.Profile.p_name = "(self)") root.Obs.Profile.p_children));
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Obs.Profile.print ~wall_ns:5_000_000 ppf evs;
  Format.pp_print_flush ppf ();
  let text = Buffer.contents buf in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("render contains " ^ needle) true
        (let n = String.length needle and m = String.length text in
         let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
         go 0))
    [ "total"; "root"; "child"; "(self)" ]

(* ---- journal elapsed_s satellite ---- *)

let test_journal_elapsed () =
  let r =
    {
      Supervise.Journal.exp = "e";
      point = "p";
      status = Supervise.Journal.Exact;
      detail = "";
      output = "out";
      elapsed = "0.123456";
    }
  in
  let line = Supervise.Journal.encode r in
  Alcotest.(check bool) "elapsed_s on the wire" true
    (let needle = "\"elapsed_s\":\"0.123456\"" in
     let n = String.length needle and m = String.length line in
     let rec go i = i + n <= m && (String.sub line i n = needle || go (i + 1)) in
     go 0);
  (* records without timing keep the legacy byte format *)
  let bare = { r with elapsed = "" } in
  Alcotest.(check string) "legacy byte format"
    "{\"exp\":\"e\",\"point\":\"p\",\"status\":\"exact\",\"detail\":\"\",\"output\":\"out\"}"
    (Supervise.Journal.encode bare);
  (* a legacy line (no elapsed_s) still decodes *)
  let path = Filename.temp_file "obs_journal" ".jsonl" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Supervise.Journal.encode bare ^ "\n");
      Out_channel.output_string oc (Supervise.Journal.encode r ^ "\n"));
  (match Supervise.Journal.load path with
  | [ a; b ] ->
      Alcotest.(check string) "legacy elapsed empty" "" a.Supervise.Journal.elapsed;
      Alcotest.(check string) "elapsed roundtrip" "0.123456" b.Supervise.Journal.elapsed
  | l -> Alcotest.fail (Printf.sprintf "expected 2 records, got %d" (List.length l)));
  Sys.remove path

let test_runner_elapsed_and_resume () =
  let solves = ref 0 in
  let point key out =
    {
      Experiments.Runner.key;
      solve =
        (fun ?budget:_ () ->
          incr solves;
          Experiments.Runner.ok (out ^ "\n"));
    }
  in
  let tasks = [ { Experiments.Runner.exp = "t1"; points = [ point "a" "A"; point "b" "B" ] } ] in
  let journal = Filename.temp_file "obs_runner" ".jsonl" in
  let render resume =
    let buf = Buffer.create 64 in
    let ppf = Format.formatter_of_buffer buf in
    ignore (Experiments.Runner.run_tasks ~journal ~resume ~err:null_ppf tasks ppf);
    Buffer.contents buf
  in
  let first = render false in
  Alcotest.(check int) "solved twice" 2 !solves;
  List.iter
    (fun r ->
      if r.Supervise.Journal.exp <> "@meta" then begin
        Alcotest.(check bool)
          ("elapsed_s recorded for " ^ r.Supervise.Journal.point)
          true
          (r.Supervise.Journal.elapsed <> "");
        Alcotest.(check bool) "elapsed_s parses" true
          (match float_of_string_opt r.Supervise.Journal.elapsed with
          | Some f -> f >= 0.0
          | None -> false)
      end)
    (Supervise.Journal.load journal);
  (* resume replays from the journal: no re-solve, byte-identical output *)
  let resumed = render true in
  Alcotest.(check int) "no re-solve on resume" 2 !solves;
  Alcotest.(check string) "byte-identical resume" first resumed;
  Sys.remove journal

(* ---- service integration: metrics command, stats satellites ---- *)

let service_config () =
  {
    Service.Server.cache_capacity = 8;
    max_inflight = 4;
    max_frame = 1 lsl 20;
    default_wall = None;
    log = null_ppf;
    flight = None;
  }

let instance =
  "stages 2\nwork 1 1\nfiles 1\nprocessors 3\nspeeds 1 1 1\nbandwidth default 1\n\
   team 0\nteam 1 2\n"

let parse_reply line =
  match Service.Json.parse line with
  | Ok j -> j
  | Error msg -> Alcotest.fail (Printf.sprintf "unparsable reply %S: %s" line msg)

let contains text needle =
  let n = String.length needle and m = String.length text in
  let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
  go 0

let test_service_metrics_command () =
  let server = Service.Server.create (service_config ()) in
  let solve =
    Service.Json.render
      (Service.Json.Obj
         [
           ("cmd", Service.Json.String "solve");
           ("instance", Service.Json.String instance);
         ])
  in
  ignore (Service.Server.respond server solve);
  let reply = parse_reply (fst (Service.Server.respond server "{\"cmd\":\"metrics\"}")) in
  Alcotest.(check (option bool)) "ok" (Some true)
    (Option.bind (Service.Json.member "ok" reply) Service.Json.to_bool_opt);
  let result =
    match Service.Json.member "result" reply with
    | Some r -> r
    | None -> Alcotest.fail "no result"
  in
  Alcotest.(check (option string)) "format" (Some "prometheus-text")
    (Option.bind (Service.Json.member "format" result) Service.Json.to_string_opt);
  let text =
    match Option.bind (Service.Json.member "text" result) Service.Json.to_string_opt with
    | Some t -> t
    | None -> Alcotest.fail "no text"
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("prometheus has " ^ needle) true (contains text needle))
    [
      "service_requests_total{cmd=\"solve\"} 1";
      "service_latency_seconds_bucket";
      "service_latency_seconds_p50";
      "service_cache_misses";
      "young_pattern_cache_hits";
      "pool_domains";
    ]

let test_service_stats_summaries () =
  let server = Service.Server.create (service_config ()) in
  let solve =
    Service.Json.render
      (Service.Json.Obj
         [
           ("cmd", Service.Json.String "solve");
           ("instance", Service.Json.String instance);
         ])
  in
  ignore (Service.Server.respond server solve);
  let reply = parse_reply (fst (Service.Server.respond server "{\"cmd\":\"stats\"}")) in
  let path keys =
    List.fold_left
      (fun acc k -> Option.bind acc (Service.Json.member k))
      (Some reply) keys
  in
  (match path [ "result"; "metrics"; "latency_s"; "summary"; "p50" ] with
  | Some v -> (
      match Service.Json.to_float_opt v with
      | Some f -> Alcotest.(check bool) "p50 >= 0" true (f >= 0.0)
      | None -> Alcotest.fail "p50 not a number")
  | None -> Alcotest.fail "no latency summary in stats");
  (match path [ "result"; "young_pattern_cache"; "misses" ] with
  | Some _ -> ()
  | None -> Alcotest.fail "no young_pattern_cache in stats");
  (* drain-time dump carries the quantiles *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Service.Metrics.dump (Service.Server.metrics server) ppf;
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "dump has p99" true (contains (Buffer.contents buf) "latency_s.p99")

(* ---- sliding-window rate meter ---- *)

let test_window_rate () =
  let w = Obs.Window.create ~seconds:3 () in
  Obs.Window.add ~n:10 w ~now:100.2;
  Obs.Window.add ~n:20 w ~now:101.5;
  Obs.Window.add ~n:30 w ~now:102.9;
  (* the current (partial) second is excluded from the rate *)
  Obs.Window.add ~n:999 w ~now:103.1;
  Alcotest.(check (float 1e-9)) "average over live complete seconds" 25.0
    (Obs.Window.rate w ~now:103.4);
  Alcotest.(check int) "total counts everything" 1059 (Obs.Window.total w);
  (* a long quiet gap rotates stale buckets out *)
  Obs.Window.add ~n:6 w ~now:200.0;
  Alcotest.(check (float 1e-9)) "stale buckets dropped" 6.0 (Obs.Window.rate w ~now:201.0);
  Alcotest.(check (float 1e-9)) "empty window is zero" 0.0 (Obs.Window.rate w ~now:300.0)

(* ---- histogram sample reservoir ---- *)

let test_reservoir_bounded () =
  let reg = Obs.Metrics.create_registry () in
  (* below the cap: every sample retained, quantiles exact *)
  let small =
    Obs.Metrics.Histogram.create ~registry:reg ~retain:64 ~buckets:[| 10.0 |] "obs_res_small"
  in
  for i = 1 to 50 do
    Obs.Metrics.Histogram.observe small (float_of_int i)
  done;
  Alcotest.(check int) "count is the stream length" 50 (Obs.Metrics.Histogram.count small);
  Alcotest.(check int) "all retained below cap" 50 (Obs.Metrics.Histogram.retained small);
  Alcotest.(check (float 1e-9)) "exact p50 below cap" 25.0
    (Obs.Metrics.Histogram.quantile small 0.50);
  (* past the cap: memory stays bounded, count keeps the true total, and
     the reservoir quantile stays a sane estimate of the stream *)
  let big =
    Obs.Metrics.Histogram.create ~registry:reg ~retain:64 ~buckets:[| 1000.0 |] "obs_res_big"
  in
  for i = 1 to 10_000 do
    Obs.Metrics.Histogram.observe big (float_of_int i)
  done;
  Alcotest.(check int) "count survives the reservoir" 10_000
    (Obs.Metrics.Histogram.count big);
  Alcotest.(check bool) "retained bounded by the cap" true
    (Obs.Metrics.Histogram.retained big <= 64);
  Alcotest.(check (float 1e-9)) "sum is exact regardless" 50_005_000.0
    (Obs.Metrics.Histogram.sum big);
  let p50 = Obs.Metrics.Histogram.quantile big 0.50 in
  Alcotest.(check bool) "reservoir p50 is in the stream's bulk" true
    (p50 >= 1_000.0 && p50 <= 9_000.0);
  (* the per-metric PRNG is seeded from (name, labels): the same stream
     through a same-named histogram reproduces the same reservoir *)
  let reg2 = Obs.Metrics.create_registry () in
  let big2 =
    Obs.Metrics.Histogram.create ~registry:reg2 ~retain:64 ~buckets:[| 1000.0 |] "obs_res_big"
  in
  for i = 1 to 10_000 do
    Obs.Metrics.Histogram.observe big2 (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "deterministic reservoir" p50
    (Obs.Metrics.Histogram.quantile big2 0.50);
  (* registry reset restores the per-metric seed too, so a histogram's
     life is replayable *)
  Obs.Metrics.reset reg;
  Alcotest.(check int) "reset drops the count" 0 (Obs.Metrics.Histogram.count big);
  for i = 1 to 10_000 do
    Obs.Metrics.Histogram.observe big (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "replay after reset" p50
    (Obs.Metrics.Histogram.quantile big 0.50)

(* ---- default-registry process identity ---- *)

let test_default_registry_identity () =
  let text = Obs.Metrics.to_prometheus Obs.Metrics.default in
  Alcotest.(check bool) "uptime gauge" true (contains text "process_uptime_seconds");
  Alcotest.(check bool) "build info with version label" true
    (contains text
       (Printf.sprintf "streaming_build_info{ocaml=%S,version=%S} 1" Sys.ocaml_version
          Obs.Metrics.build_version));
  match
    String.split_on_char '\n' text
    |> List.filter_map Obs.Exposition.parse_line
    |> List.find_opt (fun (n, _, _) -> n = "process_uptime_seconds")
  with
  | Some (_, _, v) -> Alcotest.(check bool) "uptime is non-negative" true (v >= 0.0)
  | None -> Alcotest.fail "process_uptime_seconds not parseable"

(* ---- structured JSONL log ---- *)

(* the one JSON string escaper, byte by byte: the mapping is written out
   here, not derived from the code under test *)
let test_json_escape_table () =
  let expected b =
    match Char.chr b with
    | '"' -> {|\"|}
    | '\\' -> {|\\|}
    | '\n' -> {|\n|}
    | '\r' -> {|\r|}
    | '\t' -> {|\t|}
    | _ when b < 0x20 ->
        let hex = "0123456789abcdef" in
        Printf.sprintf {|\u00%c%c|} hex.[b lsr 4] hex.[b land 15]
    | c -> String.make 1 c
  in
  for b = 0 to 255 do
    let s = String.make 1 (Char.chr b) in
    let want = expected b in
    Alcotest.(check string) (Printf.sprintf "byte 0x%02x" b) want (Obs.Log.json_escape s);
    let buf = Buffer.create 8 in
    Buffer.add_string buf "<";
    Obs.Log.add_json_escaped buf s;
    Alcotest.(check string)
      (Printf.sprintf "byte 0x%02x appended" b)
      ("<" ^ want) (Buffer.contents buf);
    Alcotest.(check string)
      (Printf.sprintf "byte 0x%02x on the wire" b)
      ("\"" ^ want ^ "\"")
      (Service.Json.render (Service.Json.String s))
  done

let test_log_jsonl () =
  let lines = ref [] in
  let sink line = lines := line :: !lines in
  let log = Obs.Log.create ~level:Obs.Log.Info ~rate:2 ~sink ~comp:"test" () in
  Obs.Log.log log ~now:100.0 ~trace:"cafe0123cafe0123"
    ~attrs:[ ("worker", "3"); ("msg", "a\"b\\c\nd") ]
    Obs.Log.Warn "worker_exit";
  (match !lines with
  | [ line ] -> (
      match Service.Json.parse line with
      | Error msg -> Alcotest.fail (Printf.sprintf "log line %S not JSON: %s" line msg)
      | Ok j ->
          let str k = Option.bind (Service.Json.member k j) Service.Json.to_string_opt in
          Alcotest.(check (option string)) "level" (Some "warn") (str "level");
          Alcotest.(check (option string)) "comp" (Some "test") (str "comp");
          Alcotest.(check (option string)) "event" (Some "worker_exit") (str "event");
          Alcotest.(check (option string)) "trace" (Some "cafe0123cafe0123") (str "trace");
          Alcotest.(check (option string)) "escaped attr" (Some "a\"b\\c\nd")
            (Option.bind (Service.Json.member "attrs" j) (Service.Json.member "msg")
            |> Fun.flip Option.bind Service.Json.to_string_opt))
  | ls -> Alcotest.fail (Printf.sprintf "expected 1 line, got %d" (List.length ls)));
  (* events below the level are dropped *)
  lines := [];
  Obs.Log.log log ~now:100.1 Obs.Log.Debug "chatty";
  Alcotest.(check int) "debug dropped at info" 0 (List.length !lines);
  (* rate limiting: 2/s per event name, then a suppressed count on the
     first emission of the next window *)
  lines := [];
  for _ = 1 to 5 do
    Obs.Log.log log ~now:200.0 Obs.Log.Info "flood"
  done;
  Alcotest.(check int) "2 of 5 emitted" 2 (List.length !lines);
  Obs.Log.log log ~now:201.5 Obs.Log.Info "flood";
  (match !lines with
  | line :: _ ->
      let j = match Service.Json.parse line with Ok j -> j | Error m -> Alcotest.fail m in
      Alcotest.(check (option int)) "suppressed carried over" (Some 3)
        (Option.bind (Service.Json.member "suppressed" j) Service.Json.to_int_opt)
  | [] -> Alcotest.fail "next-window emission missing");
  (* an unrelated event name has its own budget *)
  lines := [];
  Obs.Log.log log ~now:200.0 Obs.Log.Info "other";
  Alcotest.(check int) "per-name budgets" 1 (List.length !lines)

(* ---- crash flight recorder ---- *)

let test_recorder_ring_and_dump () =
  Obs.Recorder.disable ();
  Obs.Recorder.enable ~capacity:8 ~burst_threshold:3 ~burst_window:10.0
    ~min_dump_interval:0.0 ();
  Fun.protect ~finally:(fun () -> Obs.Recorder.disable ())
  @@ fun () ->
  for i = 1 to 20 do
    Obs.Recorder.note ~now:(float_of_int i) ~level:Obs.Log.Info ~comp:"test"
      (Printf.sprintf "ev%d" i)
  done;
  let entries = Obs.Recorder.entries () in
  Alcotest.(check int) "ring bounded" 8 (List.length entries);
  Alcotest.(check (option string)) "oldest-first, newest retained" (Some "ev13")
    (match entries with e :: _ -> Some e.Obs.Log.lg_event | [] -> None);
  (* a logger's events land in the ring through the tap, below-level and
     rate-limited ones included *)
  let log = Obs.Log.create ~level:Obs.Log.Error ~sink:Obs.Log.null_sink ~comp:"quiet" () in
  Obs.Log.debug log "invisible_but_recorded";
  Alcotest.(check bool) "tap feeds the ring past the level filter" true
    (List.exists
       (fun e -> e.Obs.Log.lg_event = "invisible_but_recorded")
       (Obs.Recorder.entries ()));
  (* explicit dump: atomic, parseable, carries the ring and metrics *)
  let path = Filename.temp_file "obs_flight" ".json" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  Obs.Recorder.dump ~reason:"test" ~path;
  Alcotest.(check bool) "no torn tmp left behind" false (Sys.file_exists (path ^ ".tmp"));
  let doc =
    match Service.Json.parse (In_channel.with_open_text path In_channel.input_all) with
    | Ok j -> j
    | Error m -> Alcotest.fail ("dump not JSON: " ^ m)
  in
  Alcotest.(check (option string)) "reason recorded" (Some "test")
    (Option.bind (Service.Json.member "reason" doc) Service.Json.to_string_opt);
  (match Service.Json.member "events" doc with
  | Some (Service.Json.List evs) ->
      Alcotest.(check bool) "events dumped" true (List.length evs > 0)
  | _ -> Alcotest.fail "no events array");
  (* error burst: enough typed errors inside the window auto-dump *)
  Obs.Recorder.clear ();
  Sys.remove path;
  Obs.Recorder.install ~path;
  Obs.Recorder.error_tick ~now:1000.0 ~kind:"budget_exhausted" ();
  Obs.Recorder.error_tick ~now:1000.1 ~kind:"budget_exhausted" ();
  Alcotest.(check bool) "below threshold: no dump" false (Sys.file_exists path);
  Obs.Recorder.error_tick ~now:1000.2 ~kind:"budget_exhausted" ();
  Alcotest.(check bool) "burst dumps" true (Sys.file_exists path);
  match Service.Json.parse (In_channel.with_open_text path In_channel.input_all) with
  | Ok j ->
      Alcotest.(check (option string)) "burst reason" (Some "error-burst:budget_exhausted")
        (Option.bind (Service.Json.member "reason" j) Service.Json.to_string_opt)
  | Error m -> Alcotest.fail ("burst dump not JSON: " ^ m)

(* ---- prometheus text manipulation ---- *)

let test_exposition_parse_relabel_merge () =
  (* parse: plain, labeled, escaped, histogram le, comments *)
  (match Obs.Exposition.parse_line "plain_total 42" with
  | Some ("plain_total", [], 42.0) -> ()
  | other ->
      Alcotest.fail
        (Printf.sprintf "plain line: %s"
           (match other with None -> "None" | Some (n, _, _) -> n)));
  (match Obs.Exposition.parse_line {|lat_bucket{le="0.5",job="a b"} 7|} with
  | Some ("lat_bucket", labels, 7.0) ->
      Alcotest.(check (option string)) "le label" (Some "0.5") (List.assoc_opt "le" labels);
      Alcotest.(check (option string)) "spaced value" (Some "a b") (List.assoc_opt "job" labels)
  | _ -> Alcotest.fail "histogram bucket line");
  (match Obs.Exposition.parse_line {|esc{k="quote \" brace } slash \\"} 1|} with
  | Some ("esc", [ ("k", v) ], 1.0) ->
      Alcotest.(check string) "unescaped label value" "quote \" brace } slash \\" v
  | _ -> Alcotest.fail "escaped label line");
  Alcotest.(check bool) "comment is not a sample" true
    (Obs.Exposition.parse_line "# TYPE plain_total counter" = None);
  Alcotest.(check bool) "garbage is not a sample" true
    (Obs.Exposition.parse_line "no value here" = None);
  (* relabel injects the key as first label on both label shapes *)
  let relabeled =
    Obs.Exposition.relabel ~key:"worker" ~value:"3" "a_total 1\nb_total{x=\"y\"} 2\n# c\n"
  in
  Alcotest.(check bool) "bare name labeled" true
    (contains relabeled {|a_total{worker="3"} 1|});
  Alcotest.(check bool) "existing labels kept" true
    (contains relabeled {|b_total{worker="3",x="y"} 2|});
  Alcotest.(check bool) "comments untouched" true (contains relabeled "# c");
  (* merge: worker sections relabeled, HELP/TYPE deduped across sections *)
  let section = "# HELP s_total shared\n# TYPE s_total counter\ns_total 5\n" in
  let merged =
    Obs.Exposition.merge ~head:"# TYPE head_gauge gauge\nhead_gauge 1\n" ~label:"worker"
      [ ("0", section); ("1", section) ]
  in
  Alcotest.(check bool) "head first" true (contains merged "head_gauge 1");
  Alcotest.(check bool) "worker 0 labeled" true (contains merged {|s_total{worker="0"} 5|});
  Alcotest.(check bool) "worker 1 labeled" true (contains merged {|s_total{worker="1"} 5|});
  let count_sub needle =
    let n = String.length needle and m = String.length merged in
    let rec go i acc =
      if i + n > m then acc
      else go (i + 1) (if String.sub merged i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "TYPE header deduped" 1 (count_sub "# TYPE s_total counter");
  Alcotest.(check int) "HELP header deduped" 1 (count_sub "# HELP s_total shared")

(* ---- multi-process chrome merge ---- *)

let test_merge_chrome_two_processes () =
  with_tracing (fun () -> Obs.Trace.span "merge:a" (fun () -> ()));
  let doc_a = Obs.Trace.to_chrome_json ~pid:11 ~process_name:"router" () in
  with_tracing (fun () -> Obs.Trace.span "merge:b" (fun () -> ()));
  let doc_b = Obs.Trace.to_chrome_json ~pid:22 ~process_name:"worker 0" () in
  Obs.Trace.clear ();
  let merged = Obs.Trace.merge_chrome [ doc_a; doc_b; "not a trace doc" ] in
  match Service.Json.parse merged with
  | Error m -> Alcotest.fail ("merged doc not JSON: " ^ m)
  | Ok j -> (
      match Service.Json.member "traceEvents" j with
      | Some (Service.Json.List evs) ->
          let pids =
            List.filter_map
              (fun e -> Option.bind (Service.Json.member "pid" e) Service.Json.to_int_opt)
              evs
            |> List.sort_uniq compare
          in
          Alcotest.(check (list int)) "both processes on one timeline" [ 11; 22 ] pids;
          let names =
            List.filter_map
              (fun e -> Option.bind (Service.Json.member "name" e) Service.Json.to_string_opt)
              evs
          in
          Alcotest.(check bool) "span names survive the merge" true
            (List.mem "merge:a" names && List.mem "merge:b" names)
      | _ -> Alcotest.fail "no traceEvents array")

(* [parse_line] yields [None] or a sample on any string: random bytes,
   and sample lines with random edits favouring the label syntax *)
let qcheck_exposition_parse_line_total =
  let open QCheck.Gen in
  let sample =
    oneofl
      [
        {|requests_total 42|};
        {|lat_us{le="0.5",k="a\"b\\c\n"} 1.5e3 1700000000|};
        {|x{} NaN|};
        {|g{a="",b="v"} -Inf|};
        "# HELP x help";
      ]
  in
  let mutated = Byte_edits.gen ~specials:[ '{'; '}'; '"'; '\\'; ','; '='; ' '; 'e'; '.' ] sample in
  QCheck.Test.make ~name:"Exposition.parse_line never raises" ~count:2000
    (QCheck.make ~print:String.escaped (oneof [ string; mutated ]))
    (fun line -> match Obs.Exposition.parse_line line with None | Some _ -> true)

let () =
  Alcotest.run "obs"
    [
      ( "window",
        [ Alcotest.test_case "synthetic clock rates" `Quick test_window_rate ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick test_counter_gauge;
          Alcotest.test_case "exact quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "prometheus text" `Quick test_prometheus_render;
          Alcotest.test_case "label cardinality" `Quick test_label_cardinality;
          Alcotest.test_case "sample reservoir" `Quick test_reservoir_bounded;
          Alcotest.test_case "process identity gauges" `Quick test_default_registry_identity;
        ] );
      ( "log",
        [
          Alcotest.test_case "jsonl shape and rate limit" `Quick test_log_jsonl;
          Alcotest.test_case "json escape table" `Quick test_json_escape_table;
          Alcotest.test_case "flight recorder ring and dumps" `Quick
            test_recorder_ring_and_dump;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "parse, relabel, merge" `Quick
            test_exposition_parse_relabel_merge;
          QCheck_alcotest.to_alcotest qcheck_exposition_parse_line_total;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "concurrent domains" `Quick test_concurrent_domains;
          Alcotest.test_case "chrome export" `Quick test_chrome_export;
          Alcotest.test_case "merged multi-process export" `Quick
            test_merge_chrome_two_processes;
          Alcotest.test_case "disabled fast path" `Quick test_disabled_identical;
          Alcotest.test_case "profile tree" `Quick test_profile_tree;
        ] );
      ( "journal",
        [
          Alcotest.test_case "elapsed_s codec" `Quick test_journal_elapsed;
          Alcotest.test_case "runner elapsed + resume" `Quick test_runner_elapsed_and_resume;
        ] );
      ( "service",
        [
          Alcotest.test_case "metrics command" `Quick test_service_metrics_command;
          Alcotest.test_case "stats summaries" `Quick test_service_stats_summaries;
        ] );
    ]
