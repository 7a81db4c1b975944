(* Daemon metrics, backed by the generic [Obs.Metrics] registry.  Each
   server owns a private registry so concurrent servers (the tests spawn
   several) do not share counters; the [stats] JSON shape of the previous
   hand-rolled implementation is preserved (with an added exact-quantile
   "summary" on each histogram), and the same registry renders as
   Prometheus text for the [metrics] protocol command. *)

let latency_bounds = [| 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 0.1; 0.3; 1.0; 3.0; 10.0; 100.0 |]
let states_bounds = [| 10.; 100.; 1_000.; 10_000.; 100_000.; 1_000_000.; 10_000_000. |]

type t = {
  started : int;  (** [Obs.Clock.now_ns] at creation, so a clock step moves no uptime *)
  reg : Obs.Metrics.registry;
  solved : Obs.Metrics.Counter.t;
  cache_served : Obs.Metrics.Counter.t;
  latency : Obs.Metrics.Histogram.t;
  states : Obs.Metrics.Histogram.t;
}

let create () =
  let reg = Obs.Metrics.create_registry () in
  let started = Obs.Clock.now_ns () in
  let uptime =
    Obs.Metrics.Gauge.create ~registry:reg ~help:"Seconds since the server started"
      "service_uptime_seconds"
  in
  Obs.Metrics.register_collector ~registry:reg ~name:"service.uptime" (fun () ->
      Obs.Metrics.Gauge.set uptime (Obs.Clock.ns_to_s (Obs.Clock.now_ns () - started)));
  {
    started;
    reg;
    solved =
      Obs.Metrics.Counter.create ~registry:reg ~help:"Solve requests answered"
        "service_solved_total";
    cache_served =
      Obs.Metrics.Counter.create ~registry:reg ~help:"Solve requests answered from the LRU cache"
        "service_cache_served_total";
    latency =
      Obs.Metrics.Histogram.create ~registry:reg ~buckets:latency_bounds
        ~help:"Solve wall latency in seconds" "service_latency_seconds";
    states =
      Obs.Metrics.Histogram.create ~registry:reg ~buckets:states_bounds
        ~help:"Pattern state-space size of solved instances" "service_pattern_states";
  }

let registry t = t.reg

let record_request t ~cmd =
  Obs.Metrics.Counter.incr
    (Obs.Metrics.Counter.create ~registry:t.reg
       ~labels:[ ("cmd", cmd) ]
       ~help:"Requests received, by command" "service_requests_total")

let record_error t ~kind =
  Obs.Metrics.Counter.incr
    (Obs.Metrics.Counter.create ~registry:t.reg
       ~labels:[ ("kind", kind) ]
       ~help:"Error replies, by protocol error kind" "service_errors_total")

let record_solve t ~cached ~quality ~latency ~states =
  Obs.Metrics.Counter.incr t.solved;
  if cached then Obs.Metrics.Counter.incr t.cache_served;
  Obs.Metrics.Counter.incr
    (Obs.Metrics.Counter.create ~registry:t.reg
       ~labels:[ ("quality", quality) ]
       ~help:"Answered solves, by winning provenance quality" "service_provenance_total");
  Obs.Metrics.Histogram.observe t.latency latency;
  Obs.Metrics.Histogram.observe t.states (float_of_int states)

(* per-tenant fairness accounting: label cardinality is bounded by the
   number of distinct tenant ids the daemon has seen, which admission
   control keeps small *)
let record_tenant_solve t ~tenant ~latency =
  Obs.Metrics.Counter.incr
    (Obs.Metrics.Counter.create ~registry:t.reg
       ~labels:[ ("tenant", tenant) ]
       ~help:"Per-tenant solves answered (multi-tenant requests)" "service_tenant_solves_total");
  Obs.Metrics.Histogram.observe
    (Obs.Metrics.Histogram.create ~registry:t.reg ~buckets:latency_bounds
       ~labels:[ ("tenant", tenant) ]
       ~help:"Per-tenant share of multi-tenant solve latency in seconds"
       "service_tenant_solve_seconds")
    latency

let record_admission t ~decision =
  Obs.Metrics.Counter.incr
    (Obs.Metrics.Counter.create ~registry:t.reg
       ~labels:[ ("decision", decision) ]
       ~help:"Admission-control decisions, by outcome" "service_admission_total")

(* ---- stats JSON (same shape as before, plus "summary") ---- *)

let table_json samples name label =
  let fields =
    List.filter_map
      (fun (s : Obs.Metrics.sample) ->
        match s.s_value with
        | Obs.Metrics.Counter_v v when s.s_name = name ->
            Option.map (fun l -> (l, Json.Int v)) (List.assoc_opt label s.s_labels)
        | _ -> None)
      samples
  in
  (* [samples] is already sorted by name then labels *)
  Json.Obj fields

let histogram_json samples name =
  let view =
    List.find_map
      (fun (s : Obs.Metrics.sample) ->
        match s.s_value with
        | Obs.Metrics.Histogram_v h when s.s_name = name -> Some h
        | _ -> None)
      samples
  in
  match view with
  | None -> Json.Obj [ ("total", Json.Int 0); ("buckets", Json.List []) ]
  | Some h ->
      let buckets =
        Array.to_list
          (Array.map
             (fun (le, count) ->
               let le = if le = infinity then Json.String "inf" else Json.Float le in
               Json.Obj [ ("le", le); ("count", Json.Int count) ])
             h.Obs.Metrics.h_buckets)
      in
      Json.Obj
        [
          ("total", Json.Int h.Obs.Metrics.h_count);
          ("buckets", Json.List buckets);
          (* exact nearest-rank quantiles; null while empty *)
          ( "summary",
            Json.Obj
              [
                ("p50", Json.Float h.Obs.Metrics.h_p50);
                ("p90", Json.Float h.Obs.Metrics.h_p90);
                ("p99", Json.Float h.Obs.Metrics.h_p99);
              ] );
        ]

let to_json t =
  let samples = Obs.Metrics.samples t.reg in
  Json.Obj
    [
      ("uptime_s", Json.Float (Obs.Clock.ns_to_s (Obs.Clock.now_ns () - t.started)));
      ("requests", table_json samples "service_requests_total" "cmd");
      ("errors", table_json samples "service_errors_total" "kind");
      ("solved", Json.Int (Obs.Metrics.Counter.value t.solved));
      ("cache_served", Json.Int (Obs.Metrics.Counter.value t.cache_served));
      ("provenance", table_json samples "service_provenance_total" "quality");
      ("admission", table_json samples "service_admission_total" "decision");
      ("tenant_solves", table_json samples "service_tenant_solves_total" "tenant");
      ("latency_s", histogram_json samples "service_latency_seconds");
      ("pattern_states", histogram_json samples "service_pattern_states");
    ]

let prometheus t = Obs.Metrics.to_prometheus t.reg

let dump t ppf =
  let j = to_json t in
  let table title = function
    | Some (Json.Obj fields) ->
        List.iter
          (fun (k, v) ->
            match v with
            | Json.Int n -> Format.fprintf ppf "%-24s %8d@." (title ^ "." ^ k) n
            | _ -> ())
          fields
    | _ -> ()
  in
  let summary title = function
    | Some j -> (
        match Json.member "summary" j with
        | Some (Json.Obj qs) ->
            List.iter
              (fun (q, v) ->
                match Json.to_float_opt v with
                | Some f -> Format.fprintf ppf "%-24s %10.6f@." (title ^ "." ^ q) f
                | None -> ())
              qs
        | _ -> ())
    | None -> ()
  in
  (match Json.member "uptime_s" j with
  | Some (Json.Float s) -> Format.fprintf ppf "%-24s %10.3f s@." "uptime" s
  | _ -> ());
  table "requests" (Json.member "requests" j);
  table "errors" (Json.member "errors" j);
  (match (Json.member "solved" j, Json.member "cache_served" j) with
  | Some (Json.Int s), Some (Json.Int c) ->
      Format.fprintf ppf "%-24s %8d@." "solved" s;
      Format.fprintf ppf "%-24s %8d@." "cache_served" c
  | _ -> ());
  table "provenance" (Json.member "provenance" j);
  table "admission" (Json.member "admission" j);
  table "tenant_solves" (Json.member "tenant_solves" j);
  summary "latency_s" (Json.member "latency_s" j);
  summary "pattern_states" (Json.member "pattern_states" j)
