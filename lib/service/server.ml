type config = {
  cache_capacity : int;
  max_inflight : int;
  max_frame : int;
  default_wall : float option;
  log : Format.formatter;
  flight : string option;
      (* flight-recorder dump path: arms Obs.Recorder so a dying worker
         leaves its last spans/events behind *)
}

(* Deterministic fault injection, driven by the SUPERVISE_INJECT
   environment variable (grammar in EXPERIMENTS.md).  The cluster chaos
   harness uses these to crash, slow down and corrupt individual workers
   at exact request counts; rule kinds belonging to the experiment
   runner's grammar (fail/flaky/degrade) are ignored here, and vice
   versa, so one variable drives both layers. *)
type inject = {
  kill_after : int option;  (* kill-after=K: die, unacknowledged, on solve K+1 *)
  delay_ms : float option;  (* delay-ms=D: sleep D ms before every solve reply *)
  torn_every : int option;  (* torn-reply=N: truncate every Nth reply, close *)
  refuse_s : float option;  (* refuse-accept=S: bind only after S seconds *)
}

let no_inject = { kill_after = None; delay_ms = None; torn_every = None; refuse_s = None }

let inject_of_env () =
  match Sys.getenv_opt "SUPERVISE_INJECT" with
  | None | Some "" -> no_inject
  | Some spec ->
      List.fold_left
        (fun acc rule ->
          match String.index_opt rule '=' with
          | None -> acc
          | Some i -> (
              let kind = String.sub rule 0 i in
              let arg = String.sub rule (i + 1) (String.length rule - i - 1) in
              match kind with
              | "kill-after" -> (
                  match int_of_string_opt arg with
                  | Some k when k >= 0 -> { acc with kill_after = Some k }
                  | _ -> acc)
              | "delay-ms" -> (
                  match float_of_string_opt arg with
                  | Some d when d >= 0.0 -> { acc with delay_ms = Some d }
                  | _ -> acc)
              | "torn-reply" -> (
                  match int_of_string_opt arg with
                  | Some n when n >= 1 -> { acc with torn_every = Some n }
                  | _ -> acc)
              | "refuse-accept" -> (
                  match float_of_string_opt arg with
                  | Some s when s >= 0.0 -> { acc with refuse_s = Some s }
                  | _ -> acc)
              | _ -> acc))
        no_inject
        (String.split_on_char ',' spec)

let default_config () =
  {
    cache_capacity = 256;
    max_inflight = 4 * Parallel.Pool.size (Parallel.Pool.get ());
    max_frame = 1 lsl 20;
    default_wall = None;
    log = Format.err_formatter;
    flight = None;
  }

(* what a cache hit replays: the rendered result object verbatim, plus the
   two numbers the metrics want without re-parsing it *)
type entry = { rendered : string; quality : string; states : int }

type t = {
  config : config;
  metrics : Metrics.t;
  cache : entry Lru.t;
  flight_mutex : Mutex.t;
  flight_done : Condition.t;
  flights : (string, unit) Hashtbl.t;  (* keys being solved by a leader *)
  admit_mutex : Mutex.t;
  mutable inflight : int;
  listener : Listener.t;
  inject : inject;
  solve_seen : int Atomic.t;  (* solves accepted, for kill-after *)
  replies_sent : int Atomic.t;  (* replies written, for torn-reply *)
  slog : Obs.Log.t;  (* structured event log, routed through config.log *)
}

let create config =
  let t =
    {
      config;
      metrics = Metrics.create ();
      cache = Lru.create ~capacity:config.cache_capacity;
      flight_mutex = Mutex.create ();
      flight_done = Condition.create ();
      flights = Hashtbl.create 16;
      admit_mutex = Mutex.create ();
      inflight = 0;
      listener = Listener.create ();
      inject = inject_of_env ();
      solve_seen = Atomic.make 0;
      replies_sent = Atomic.make 0;
      slog =
        Obs.Log.create ~sink:(Obs.Log.formatter_sink config.log)
          ~comp:"service" ();
    }
  in
  (match config.flight with
  | Some path -> Obs.Recorder.install ~path
  | None -> ());
  (* Mirror externally-owned statistics into the server's registry on
     demand (stats/metrics requests).  Registration is idempotent by name,
     and the registry is per-server, so concurrent servers stay isolated. *)
  let reg = Metrics.registry t.metrics in
  let lru_gauge name help =
    Obs.Metrics.Gauge.create ~registry:reg ~help ("service_cache_" ^ name)
  in
  let g_hits = lru_gauge "hits" "LRU result-cache hits" in
  let g_misses = lru_gauge "misses" "LRU result-cache misses" in
  let g_entries = lru_gauge "entries" "LRU result-cache live entries" in
  let g_evictions = lru_gauge "evictions" "LRU result-cache evictions" in
  Obs.Metrics.register_collector ~registry:reg ~name:"service.lru" (fun () ->
      let c = Lru.stats t.cache in
      Obs.Metrics.Gauge.set g_hits (float_of_int c.Lru.hits);
      Obs.Metrics.Gauge.set g_misses (float_of_int c.Lru.misses);
      Obs.Metrics.Gauge.set g_entries (float_of_int c.Lru.entries);
      Obs.Metrics.Gauge.set g_evictions (float_of_int c.Lru.evictions));
  let pat_gauge name help =
    Obs.Metrics.Gauge.create ~registry:reg ~help ("young_pattern_cache_" ^ name)
  in
  let g_phits = pat_gauge "hits" "Pattern-solve memo hits" in
  let g_pmisses = pat_gauge "misses" "Pattern-solve memo misses" in
  let g_pstructures = pat_gauge "structures" "Cached per-shape marking structures" in
  let g_presults = pat_gauge "results" "Cached pattern throughput results" in
  Obs.Metrics.register_collector ~registry:reg ~name:"young.pattern" (fun () ->
      let c = Young.Pattern.cache_stats () in
      Obs.Metrics.Gauge.set g_phits (float_of_int c.Young.Pattern.hits);
      Obs.Metrics.Gauge.set g_pmisses (float_of_int c.Young.Pattern.misses);
      Obs.Metrics.Gauge.set g_pstructures (float_of_int c.Young.Pattern.structures);
      Obs.Metrics.Gauge.set g_presults (float_of_int c.Young.Pattern.results));
  t

let metrics t = t.metrics
let cache t = t.cache

let request_stop t = Listener.request_stop t.listener

(* ---- admission control: bounded in-flight solves, busy past it ---- *)

let try_admit t =
  Mutex.lock t.admit_mutex;
  let admitted = t.inflight < t.config.max_inflight in
  if admitted then t.inflight <- t.inflight + 1;
  let current = t.inflight in
  Mutex.unlock t.admit_mutex;
  if admitted then Ok ()
  else Error (Protocol.Busy { inflight = current; limit = t.config.max_inflight })

let release t () =
  Mutex.lock t.admit_mutex;
  t.inflight <- t.inflight - 1;
  Mutex.unlock t.admit_mutex

let stats_json t =
  let c = Lru.stats t.cache in
  Mutex.lock t.admit_mutex;
  let inflight = t.inflight in
  Mutex.unlock t.admit_mutex;
  Json.Obj
    [
      ("version", Json.Int Protocol.version);
      ("metrics", Metrics.to_json t.metrics);
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int c.Lru.hits);
            ("misses", Json.Int c.Lru.misses);
            ("entries", Json.Int c.Lru.entries);
            ("capacity", Json.Int c.Lru.capacity);
            ("evictions", Json.Int c.Lru.evictions);
          ] );
      ( "young_pattern_cache",
        let c = Young.Pattern.cache_stats () in
        Json.Obj
          [
            ("hits", Json.Int c.Young.Pattern.hits);
            ("misses", Json.Int c.Young.Pattern.misses);
            ("structures", Json.Int c.Young.Pattern.structures);
            ("results", Json.Int c.Young.Pattern.results);
          ] );
      ("pool_domains", Json.Int (Parallel.Pool.size (Parallel.Pool.get ())));
      ("inflight", Json.Int inflight);
      ("max_inflight", Json.Int t.config.max_inflight);
      ("max_frame", Json.Int t.config.max_frame);
      ("draining", Json.Bool (Listener.stopping t.listener));
    ]

(* ---- one solve, cache-first ---- *)

(* solve latencies are measured on the monotonic clock: a wall-clock step
   must not record a negative or inflated latency *)
let seconds_since t0 = Obs.Clock.ns_to_s (Obs.Clock.now_ns () - t0)

(* Single flight: concurrent misses on one key share one solve.  The
   first to miss leads — it registers the key in [flights] and solves —
   and later ones wait for it, then read the LRU.  A failed solve caches
   nothing, so its waiters then solve for themselves: errors are not
   shared.  The lock-free lookup ([Lru.hit]) counts only hits; the lookup
   under [flight_mutex] settles every request as exactly one hit or one
   miss, and a hit never takes [flight_mutex]. *)
type role = Cached of entry | Lead | Alone

let join_flight t key =
  Mutex.lock t.flight_mutex;
  let waited = Hashtbl.mem t.flights key in
  while Hashtbl.mem t.flights key do
    Condition.wait t.flight_done t.flight_mutex
  done;
  let role =
    match Lru.find t.cache key with
    | Some entry -> Cached entry
    | None when waited -> Alone
    | None ->
        Hashtbl.replace t.flights key ();
        Lead
  in
  Mutex.unlock t.flight_mutex;
  role

let land_flight t key =
  Mutex.lock t.flight_mutex;
  Hashtbl.remove t.flights key;
  Condition.broadcast t.flight_done;
  Mutex.unlock t.flight_mutex

let cached_reply t t0 entry =
  Metrics.record_solve t.metrics ~cached:true ~quality:entry.quality ~latency:(seconds_since t0)
    ~states:entry.states;
  Ok (entry.rendered, true)

let solve_and_cache t prepared q t0 =
  (* the server-side wall ceiling protects the daemon from budget-less
     requests; an explicit client budget wins *)
  let q =
    match (q.Engine.wall, t.config.default_wall) with
    | None, Some _ -> { q with Engine.wall = t.config.default_wall }
    | _ -> q
  in
  match Engine.solve prepared q with
  | Ok outcome ->
      let rendered = Json.render (Engine.outcome_json outcome) in
      Lru.add t.cache prepared.Engine.key
        { rendered; quality = outcome.Engine.quality; states = outcome.Engine.pattern_states };
      Metrics.record_solve t.metrics ~cached:false ~quality:outcome.Engine.quality
        ~latency:(seconds_since t0) ~states:outcome.Engine.pattern_states;
      Ok (rendered, false)
  | Error err -> Error (Protocol.Solver err)

let solve_one t q =
  match Engine.prepare q with
  | Error msg -> Error (Protocol.Bad_request msg)
  | Ok prepared -> (
      let key = prepared.Engine.key in
      let t0 = Obs.Clock.now_ns () in
      match Lru.hit t.cache key with
      | Some entry -> cached_reply t t0 entry
      | None -> (
          match join_flight t key with
          | Cached entry -> cached_reply t t0 entry
          | Alone -> solve_and_cache t prepared q t0
          | Lead ->
              Fun.protect
                ~finally:(fun () -> land_flight t key)
                (fun () -> solve_and_cache t prepared q t0)))

(* Batch items run as pool tasks, and a pool task that waits for nested
   work runs other queued tasks on its own stack: a batch item that
   blocked on a flight could sit above its own leader and never wake.
   Batch items therefore never wait on a flight. *)
let solve_batch_item t q =
  match Engine.prepare q with
  | Error msg -> Error (Protocol.Bad_request msg)
  | Ok prepared -> (
      let t0 = Obs.Clock.now_ns () in
      match Lru.find t.cache prepared.Engine.key with
      | Some entry -> cached_reply t t0 entry
      | None -> solve_and_cache t prepared q t0)

(* ---- one multi-tenant solve, cache-first ---- *)

(* latency attribution follows the weighted-fair shares: tenant i is
   charged latency * w_i / sum(w) of the whole multi solve *)
let record_tenants t share ~latency =
  let decls = Tenancy.Platform_share.decls share in
  let total = List.fold_left (fun acc d -> acc +. d.Streaming.Instance_io.weight) 0.0 decls in
  List.iter
    (fun d ->
      Metrics.record_tenant_solve t.metrics ~tenant:d.Streaming.Instance_io.tenant_id
        ~latency:(latency *. d.Streaming.Instance_io.weight /. total))
    decls

let multi_quality outcomes =
  let rank = function "exact" -> 0 | "iterative" -> 1 | _ -> 2 in
  List.fold_left
    (fun worst o ->
      let q = o.Engine.t_outcome.Engine.quality in
      if rank q > rank worst then q else worst)
    "exact" outcomes

let solve_multi_one t q =
  match Engine.prepare_multi q with
  | Error msg -> Error (Protocol.Bad_request msg)
  | Ok prepared -> (
      let t0 = Obs.Clock.now_ns () in
      match Lru.find t.cache prepared.Engine.m_key with
      | Some entry ->
          let latency = seconds_since t0 in
          Metrics.record_solve t.metrics ~cached:true ~quality:entry.quality ~latency
            ~states:entry.states;
          Metrics.record_admission t.metrics ~decision:"admitted";
          record_tenants t prepared.Engine.m_share ~latency;
          Ok (entry.rendered, true)
      | None -> (
          let q =
            match (q.Engine.m_wall, t.config.default_wall) with
            | None, Some _ -> { q with Engine.m_wall = t.config.default_wall }
            | _ -> q
          in
          match Engine.solve_multi prepared q with
          | Ok outcomes ->
              let rendered = Json.render (Engine.multi_result_json q outcomes) in
              let states =
                List.fold_left
                  (fun acc o -> acc + o.Engine.t_outcome.Engine.pattern_states)
                  0 outcomes
              in
              let quality = multi_quality outcomes in
              Lru.add t.cache prepared.Engine.m_key { rendered; quality; states };
              let latency = seconds_since t0 in
              Metrics.record_solve t.metrics ~cached:false ~quality ~latency ~states;
              Metrics.record_admission t.metrics ~decision:"admitted";
              record_tenants t prepared.Engine.m_share ~latency;
              Ok (rendered, false)
          | Error (Engine.Rejected { tenant; victim; floor; bound }) ->
              Metrics.record_admission t.metrics ~decision:"rejected";
              Error (Protocol.Admission_rejected { tenant; victim; floor; bound })
          | Error (Engine.Solver_failed err) -> Error (Protocol.Solver err)))

(* the [admit] audit: the sequential decision trail, never cached (it is
   already cheap — bounds only, no exact solves) *)
let admit_one t q =
  match Engine.prepare_multi q with
  | Error msg -> Error (Protocol.Bad_request msg)
  | Ok prepared -> (
      match Engine.admit prepared q with
      | Error msg -> Error (Protocol.Internal msg)
      | Ok steps ->
          let step_json (s : Tenancy.Admission.step) =
            Metrics.record_admission t.metrics
              ~decision:(if s.Tenancy.Admission.admitted then "admitted" else "rejected");
            Json.Obj
              ([
                 ("tenant", Json.String s.Tenancy.Admission.decl.Streaming.Instance_io.tenant_id);
                 ("admitted", Json.Bool s.Tenancy.Admission.admitted);
                 ( "bounds",
                   Json.Obj
                     (List.map (fun (id, b) -> (id, Json.Float b)) s.Tenancy.Admission.bounds) );
               ]
              @
              match s.Tenancy.Admission.rejection with
              | None -> []
              | Some r ->
                  [
                    ( "error",
                      Protocol.error_json
                        (Protocol.Admission_rejected
                           {
                             tenant = r.Tenancy.Admission.newcomer;
                             victim = r.Tenancy.Admission.victim;
                             floor = r.Tenancy.Admission.floor;
                             bound = r.Tenancy.Admission.bound;
                           }) );
                  ])
          in
          let rendered_steps = List.map step_json steps in
          let admitted_ids =
            List.filter_map
              (fun (s : Tenancy.Admission.step) ->
                if s.Tenancy.Admission.admitted then
                  Some
                    (Json.String s.Tenancy.Admission.decl.Streaming.Instance_io.tenant_id)
                else None)
              steps
          in
          Ok
            (Json.render
               (Json.Obj
                  [
                    ("model", Json.String (Streaming.Model.to_string q.Engine.m_model));
                    ("admitted", Json.List admitted_ids);
                    ("steps", Json.List rendered_steps);
                  ])))

(* ---- request dispatch ---- *)

(* Injected faults on the solve path.  [kill-after=K] acknowledges the
   first K solves and dies — abruptly, skipping at_exit — on the next
   one, leaving it unacknowledged: the harshest spot for the cluster's
   zero-lost-acks invariant.  [delay-ms] stretches every solve. *)
let inject_solve t =
  (match t.inject.kill_after with
  | Some k ->
      if Atomic.fetch_and_add t.solve_seen 1 >= k then begin
        (* [Unix._exit] skips at_exit on purpose (the death must be
           unacknowledged), so the flight recorder dumps explicitly *)
        Obs.Recorder.crash_dump ~reason:"injected kill-after";
        Unix._exit 9
      end
  | None -> ());
  match t.inject.delay_ms with Some d -> Thread.delay (d /. 1000.0) | None -> ()

let respond t line =
  (* the trace context, when the request carries one, labels both the
     error log lines and the solve spans of this request *)
  let obs_ctx = ref None in
  let err id e =
    let kind = Protocol.error_kind e in
    Metrics.record_error t.metrics ~kind;
    Obs.Recorder.error_tick ~kind ();
    Obs.Log.warn t.slog
      ?trace:(Option.map fst !obs_ctx)
      ~attrs:[ ("kind", kind) ]
      "request_error";
    (Protocol.error_reply ~id e, `Continue)
  in
  (* inside an open span: tag it with the propagated context *)
  let tag_span () =
    match !obs_ctx with
    | Some (trace, span) ->
        Obs.Trace.add_attr "trace_id" trace;
        if span <> "" then Obs.Trace.add_attr "parent_span" span
    | None -> ()
  in
  match Json.parse line with
  | Error msg ->
      Metrics.record_request t.metrics ~cmd:"invalid";
      err None (Protocol.Parse_error msg)
  | Ok json -> (
      obs_ctx := Protocol.obs_context json;
      match Protocol.parse_request json with
      | Error (id, e) ->
          Metrics.record_request t.metrics ~cmd:"invalid";
          err id e
      | Ok (id, request) -> (
          let cmd =
            match request with
            | Protocol.Ping -> "ping"
            | Protocol.Stats -> "stats"
            | Protocol.Metrics _ -> "metrics"
            | Protocol.Shutdown -> "shutdown"
            | Protocol.Solve _ -> "solve"
            | Protocol.Solve_multi _ -> "solve_multi"
            | Protocol.Admit _ -> "admit"
            | Protocol.Batch _ -> "batch"
          in
          Metrics.record_request t.metrics ~cmd;
          match request with
          | Protocol.Ping ->
              let result =
                Json.render (Json.Obj [ ("pong", Json.Bool true); ("version", Json.Int Protocol.version) ])
              in
              (Protocol.ok_reply ~id ~result (), `Continue)
          | Protocol.Stats ->
              (Protocol.ok_reply ~id ~result:(Json.render (stats_json t)) (), `Continue)
          | Protocol.Metrics _ ->
              (* server-scoped metrics first, then the process-wide
                 registry (pool, solver and cache counters); a single
                 daemon has no fleet to scrape, so [fleet] is a no-op
                 here and the router answers it upstream *)
              let text = Metrics.prometheus t.metrics ^ Obs.Metrics.to_prometheus Obs.Metrics.default in
              let result =
                Json.render
                  (Json.Obj
                     [ ("format", Json.String "prometheus-text"); ("text", Json.String text) ])
              in
              (Protocol.ok_reply ~id ~result (), `Continue)
          | Protocol.Shutdown ->
              let result = Json.render (Json.Obj [ ("stopping", Json.Bool true) ]) in
              (Protocol.ok_reply ~id ~result (), `Shutdown)
          | Protocol.Solve q -> (
              inject_solve t;
              match try_admit t with
              | Error busy -> err id busy
              | Ok () -> (
                  Fun.protect ~finally:(release t) @@ fun () ->
                  match
                    Obs.Trace.span "service:solve" (fun () ->
                        tag_span ();
                        solve_one t q)
                  with
                  | Ok (rendered, cached) ->
                      (Protocol.ok_reply ~id ~cached ~result:rendered (), `Continue)
                  | Error e -> err id e))
          | Protocol.Solve_multi q -> (
              inject_solve t;
              match try_admit t with
              | Error busy -> err id busy
              | Ok () -> (
                  Fun.protect ~finally:(release t) @@ fun () ->
                  match
                    Obs.Trace.span "service:solve_multi" (fun () ->
                        tag_span ();
                        solve_multi_one t q)
                  with
                  | Ok (rendered, cached) ->
                      (Protocol.ok_reply ~id ~cached ~result:rendered (), `Continue)
                  | Error e -> err id e))
          | Protocol.Admit q -> (
              match try_admit t with
              | Error busy -> err id busy
              | Ok () -> (
                  Fun.protect ~finally:(release t) @@ fun () ->
                  match
                    Obs.Trace.span "service:admit" (fun () ->
                        tag_span ();
                        admit_one t q)
                  with
                  | Ok rendered -> (Protocol.ok_reply ~id ~result:rendered (), `Continue)
                  | Error e -> err id e))
          | Protocol.Batch items -> (
              inject_solve t;
              match try_admit t with
              | Error busy -> err id busy
              | Ok () ->
                  Fun.protect ~finally:(release t) @@ fun () ->
                  Obs.Trace.span "service:batch" @@ fun () ->
                  tag_span ();
                  let item_error e =
                    Metrics.record_error t.metrics ~kind:(Protocol.error_kind e);
                    Printf.sprintf "{\"ok\":false,\"error\":%s}" (Json.render (Protocol.error_json e))
                  in
                  let parts =
                    Parallel.Pool.map_list (Parallel.Pool.get ())
                      (fun item ->
                        match item with
                        | Error e -> item_error e
                        | Ok q -> (
                            match solve_batch_item t q with
                            | Ok (rendered, cached) ->
                                Printf.sprintf "{\"ok\":true,\"cached\":%b,\"result\":%s}" cached
                                  rendered
                            | Error e -> item_error e))
                      items
                  in
                  let result =
                    Printf.sprintf "{\"count\":%d,\"results\":[%s]}" (List.length items)
                      (String.concat "," parts)
                  in
                  (Protocol.ok_reply ~id ~result (), `Continue))))

(* ---- the socket loop ---- *)

(* [torn-reply=N] injection: every Nth reply is truncated mid-line and
   reported as failed so the connection closes — the peer sees a torn
   frame, exactly what a worker dying mid-write produces. *)
let torn_send t k fd line =
  let nth = Atomic.fetch_and_add t.replies_sent 1 + 1 in
  if nth mod k = 0 then begin
    ignore (Sockets.write_all fd (String.sub line 0 (String.length line / 2)));
    false
  end
  else Result.is_ok (Sockets.send_line fd line)

let serve t addr =
  (* refuse-accept=S injection: the listener does not exist for the
     first S seconds, so connects are refused — a wedged or slow-booting
     worker from the router's point of view *)
  (match t.inject.refuse_s with
  | Some s when s > 0.0 ->
      Obs.Log.info t.slog
        ~attrs:[ ("seconds", Printf.sprintf "%.3g" s) ]
        "inject_refuse_accept";
      Thread.delay s
  | _ -> ());
  let conn = { Listener.respond = respond t; close = ignore } in
  Listener.serve t.listener
    ?send:(Option.map (torn_send t) t.inject.torn_every)
    ~on_frame_error:(fun kind -> Metrics.record_error t.metrics ~kind)
    ~log:t.slog
    ~listening:
      ( "listening",
        [
          ("cache", string_of_int t.config.cache_capacity);
          ("max_inflight", string_of_int t.config.max_inflight);
        ] )
    ~max_frame:t.config.max_frame addr
    (fun () -> conn);
  Obs.Log.info t.slog "drained";
  Metrics.dump t.metrics t.config.log
