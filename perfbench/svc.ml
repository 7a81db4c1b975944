(* The two service workloads: closed-loop clients against a daemon
   process.  [warm-hits] replays a primed working set, so every timed
   request is an LRU hit; [cold-solves] sends a distinct instance per
   request, so every timed request misses the LRU and the pattern memo. *)

let warm_set = 256
let warm_cache = 512
let cold_cache = 64
let prime_count = 40
let sample_every = 7
let max_samples = 64
let trace_cold_requests = 160

(* The requests of a segment are generated before it starts, enough for
   about ten times (warm-hits) and two and a half times (cold-solves) the
   request rate of the first baseline; a segment whose requests run out
   ends early. *)
let warm_rate_cap = 10_000.0
let cold_rate_cap = 500.0

(* the traced warm-hits run fails a check when the layers timed inside
   [Server.respond] leave more than this share of it unattributed *)
let max_unattributed = 0.2

let ms x = x *. 1e3
let p50 xs = Quant.percentile xs 50.0
let p90 xs = Quant.percentile xs 90.0
let p99 xs = Quant.percentile xs 99.0

(* Per-layer metrics both service workloads report, from the in-process
   layer samples [s], the daemon-side counters and the client latencies of
   the two-connection segments ([run]) and of one single-connection
   segment ([single]).  The client p50 splits into the in-process
   [Server.respond] p50 and [wire_us]: frames, sockets, client and
   scheduling, and the wait behind the other connection, since the daemon
   serves one request at a time.  That wait moves with respond; [queue_us]
   measures it on its own, as the two-connection p50 minus the
   single-connection p50.  The layers timed inside respond are summed
   against it; the remainder is [unattributed_us].  Summing layer medians
   is exact only when every request costs about the same: on warm-hits.
   On cold-solves the solve's median joins the sum and the remainder is
   indicative only. *)
let front_end s ~(run : Load.run) ~(single : Load.run) ~(lru : Daemon.lru) =
  let t = run.Load.tally in
  let g = Quant.get s in
  let latency_us = 1e6 *. p50 t.Load.latencies in
  let single_us = 1e6 *. p50 single.Load.tally.Load.latencies in
  let respond = p50 (g "server.respond_us") in
  let layers =
    Quant.sum
      (List.map
         (fun k -> p50 (g k))
         [ "json.parse_us"; "protocol.parse_request_us"; "engine.prepare_us"; "lru.find_us";
           "protocol.ok_reply_us" ])
    +. (1e3 *. p50 (g "engine.solve_ms"))
  in
  let hits = lru.Daemon.hits and misses = lru.Daemon.misses in
  let n = float_of_int (max 1 t.Load.completed) in
  [
    ("client.latency_us.p50", latency_us);
    ("client.latency_us.p99", 1e6 *. p99 t.Load.latencies);
    ("client.single_latency_us.p50", single_us);
    ("json.parse_us.p50", p50 (g "json.parse_us"));
    ("json.parse_us.p99", p99 (g "json.parse_us"));
    ("protocol.parse_request_us.p50", p50 (g "protocol.parse_request_us"));
    ("instance_io.parse_us.p50", p50 (g "instance_io.parse_us"));
    ("instance_io.to_string_us.p50", p50 (g "instance_io.to_string_us"));
    ("engine.prepare_us.p50", p50 (g "engine.prepare_us"));
    ("engine.prepare_us.p99", p99 (g "engine.prepare_us"));
    ("lru.find_us.p50", p50 (g "lru.find_us"));
    ("protocol.ok_reply_us.p50", p50 (g "protocol.ok_reply_us"));
    ("server.respond_us.p50", respond);
    ("server.respond_us.p99", p99 (g "server.respond_us"));
    ("wire_us.p50", latency_us -. respond);
    ("queue_us.p50", latency_us -. single_us);
    ("unattributed_us.p50", respond -. layers);
    ("lru.hit_ratio", Quant.ratio (float_of_int hits) (float_of_int (hits + misses)));
    ("lru.evictions", float_of_int lru.Daemon.evictions);
    ("request_bytes.mean", float_of_int t.Load.request_bytes /. n);
    ("reply_bytes.mean", float_of_int t.Load.reply_bytes /. n);
  ]

let spawn (c : Ctx.t) ~cache = Daemon.spawn ~exe:c.Ctx.daemon ~work:c.Ctx.work ~cache ~domains:c.Ctx.domains

(* ---- timed segments ---- *)

(* The timed phase is split over [segments] daemons, each started and
   primed afresh: a daemon process keeps one placement and one heap
   layout for its whole life, and those move its figures by up to a
   third from one process to the next.  The set-up of each segment is a
   set-up sample, and each end-to-end figure is the median over the
   segments. *)
let segments = 8

type segment = {
  setup : float;
  primed : string array;  (** the priming replies *)
  run : Load.run;
  lru : Daemon.lru;  (** LRU counter deltas over the timed phase *)
  rss : float;
}

let segment_seconds (c : Ctx.t) = c.Ctx.seconds /. float_of_int segments

(* how many requests a segment gets, from a cap on the request rate *)
let segment_requests c ~rate_cap = int_of_float (Float.ceil (rate_cap *. segment_seconds c))

let segment (c : Ctx.t) ~cache ~prime ~requests ~check =
  let setup, (d, primed) =
    Quant.timed (fun () ->
        let d = spawn c ~cache in
        (d, Daemon.with_client d (fun cl -> Array.map (Daemon.rpc cl) prime)))
  in
  Fun.protect ~finally:(fun () -> Daemon.stop d) @@ fun () ->
  let l0 = Daemon.lru_stats d in
  let run =
    Load.run ~addr:d.Daemon.addr ~clients:c.Ctx.clients
      ~seconds:(segment_seconds c) ~requests ~check:(check primed)
  in
  let l1 = Daemon.lru_stats d in
  {
    setup;
    primed;
    run;
    lru =
      {
        Daemon.hits = l1.Daemon.hits - l0.Daemon.hits;
        misses = l1.Daemon.misses - l0.Daemon.misses;
        evictions = l1.Daemon.evictions - l0.Daemon.evictions;
      };
    rss = Daemon.peak_rss_mb d;
  }

let end_to_end segs =
  let med f = Quant.median (List.map f segs) in
  let lat sg = sg.run.Load.tally.Load.latencies in
  [
    ("throughput_per_s", med (fun sg -> Load.rate sg.run));
    ("latency_p50_ms", med (fun sg -> ms (p50 (lat sg))));
    ("latency_tail_ms", med (fun sg -> ms (p90 (lat sg))));
    ("setup_s", med (fun sg -> sg.setup));
  ]

(* the daemon's peak resident set, median over the segments' daemons *)
let peak_rss segs = ("peak_rss_mb", Quant.median (List.map (fun sg -> sg.rss) segs))

(* all segments as one run, for the per-layer accounting *)
let merged segs =
  let tallies = List.map (fun sg -> sg.run.Load.tally) segs in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  ( {
      Load.tally =
        {
          Load.latencies = List.concat_map (fun t -> t.Load.latencies) tallies;
          completed = sum (fun t -> t.Load.completed);
          failed = sum (fun t -> t.Load.failed);
          request_bytes = sum (fun t -> t.Load.request_bytes);
          reply_bytes = sum (fun t -> t.Load.reply_bytes);
        };
      elapsed = Quant.sum (List.map (fun sg -> sg.run.Load.elapsed) segs);
    },
    List.fold_left
      (fun acc sg ->
        {
          Daemon.hits = acc.Daemon.hits + sg.lru.Daemon.hits;
          misses = acc.Daemon.misses + sg.lru.Daemon.misses;
          evictions = acc.Daemon.evictions + sg.lru.Daemon.evictions;
        })
      { Daemon.hits = 0; misses = 0; evictions = 0 }
      segs )

(* ---- warm-hits ---- *)

let warm_hits (c : Ctx.t) =
  let lines = Array.init warm_set (Inputs.warm_request ~seed:c.Ctx.seed) in
  let requests =
    Array.init (segment_requests c ~rate_cap:warm_rate_cap) (fun i -> lines.(i mod warm_set))
  in
  (* set-up: start the daemon and put the whole working set in its LRU;
     every timed reply must replay its priming reply's result bytes *)
  let results primed = Array.map (fun r -> Option.value ~default:"" (Daemon.result_bytes r)) primed in
  let warm_segment c =
    segment c ~cache:warm_cache ~prime:lines ~requests ~check:(fun primed ->
        let expected = results primed in
        fun i reply -> Daemon.cached reply && Daemon.result_bytes reply = Some expected.(i mod warm_set))
  in
  let segs = List.init segments (fun _ -> warm_segment c) in
  (* every priming reply is a fresh solve, and every segment's daemon
     answered with the same bytes *)
  let expected = results (List.hd segs).primed in
  let wrong_primes sg =
    Array.fold_left ( + ) 0
      (Array.mapi
         (fun k r ->
           if Daemon.cached r || Daemon.result_bytes r <> Some expected.(k) || expected.(k) = "" then 1
           else 0)
         sg.primed)
  in
  let run, lru = merged segs in
  let attempted = (segments * warm_set) + run.Load.tally.Load.completed + run.Load.tally.Load.failed in
  let failed = Quant.sum_int (List.map wrong_primes segs) + run.Load.tally.Load.failed in
  if not c.Ctx.trace then { Ctx.attempted; failed; metrics = end_to_end segs }
  else begin
    let single = warm_segment { c with Ctx.clients = 1 } in
    let s = Quant.samples () in
    let rounds = 4 in
    let bad = Frontend.warm s ~lines ~expected ~rounds in
    let metrics = front_end s ~run ~single:single.run ~lru in
    (* the layer accounting is a check: the layers timed inside respond
       must cover all of it but [max_unattributed] *)
    let respond = List.assoc "server.respond_us.p50" metrics in
    let unattributed = List.assoc "unattributed_us.p50" metrics in
    let unaccounted = Float.abs unattributed > max_unattributed *. respond in
    if unaccounted then
      Printf.eprintf "perfbench: the timed layers leave %.0f of %.0f us of respond unattributed\n%!"
        unattributed respond;
    let single_t = single.run.Load.tally in
    {
      Ctx.attempted =
        attempted + warm_set + single_t.Load.completed + single_t.Load.failed + (rounds * warm_set) + 1;
      failed = failed + wrong_primes single + single_t.Load.failed + bad + Bool.to_int unaccounted;
      metrics = peak_rss segs :: metrics;
    }
  end

(* ---- cold-solves ---- *)

(* Re-solve a sampled request in-process and compare its rendered result
   with the daemon's bytes. *)
let reference_result line =
  match Service.Json.parse line with
  | Error _ -> None
  | Ok json -> (
      match Service.Protocol.parse_request json with
      | Ok (_, Service.Protocol.Solve q) -> (
          match Service.Engine.prepare q with
          | Error _ -> None
          | Ok p -> (
              match Service.Engine.solve p q with
              | Ok o -> Some (Service.Json.render (Service.Engine.outcome_json o))
              | Error _ -> None))
      | _ -> None)

let dispatch_metrics s (d : Frontend.dispatch) =
  let g = Quant.get s in
  let total = Quant.sum (g "engine.solve_ms") in
  let per_branch b =
    let k = "engine.solve." ^ Inputs.branch_name b in
    [ (k ^ "_ms.p50", p50 (g (k ^ "_ms"))); (k ^ ".share", Quant.ratio (Quant.sum (g (k ^ "_ms"))) total) ]
  in
  [
    ("engine.solve_ms.p50", p50 (g "engine.solve_ms"));
    ("engine.solve_ms.p99", p99 (g "engine.solve_ms"));
  ]
  @ List.concat_map per_branch Inputs.branches
  @ [
      ("tpn.build_ms.p50", p50 (g "tpn.build_ms"));
      ("deterministic.analyse_tpn_ms.p50", p50 (g "deterministic.analyse_tpn_ms"));
      ( "young.pattern.hit_ratio",
        Quant.ratio (float_of_int d.Frontend.pattern_hits)
          (float_of_int (d.Frontend.pattern_hits + d.Frontend.pattern_misses)) );
      ("young.pattern.misses", float_of_int d.Frontend.pattern_misses);
      ("engine.pattern_states.sum", float_of_int d.Frontend.pattern_states);
      ( "ladder.iterative_frac",
        Quant.ratio (float_of_int d.Frontend.strict_iterative) (float_of_int d.Frontend.strict_solves) );
    ]

let cold_solves (c : Ctx.t) =
  let seed = c.Ctx.seed in
  (* set-up: start the daemon and send a priming set disjoint from the
     timed requests, so lazy initialisation and the per-shape structure
     caches are warm *)
  let prime = Array.init prime_count Inputs.prime_request in
  let per_segment = segment_requests c ~rate_cap:cold_rate_cap in
  (* segment k sends requests k * per_segment, ...: every request of the
     run, the single-connection segment included, is distinct *)
  let index k i = (k * per_segment) + i in
  (* up to [max_samples / segments] sampled replies per segment, to be
     checked against an in-process solve *)
  let samples = ref [] and lock = Mutex.create () in
  let cold_segment c k =
    let requests = Array.init per_segment (fun i -> Inputs.cold_request ~seed (index k i)) in
    let taken = ref 0 in
    segment c ~cache:cold_cache ~prime ~requests ~check:(fun _ i reply ->
        match Daemon.result_bytes reply with
        | Some result when not (Daemon.cached reply) ->
            if i mod sample_every = 0 then begin
              Mutex.lock lock;
              if !taken < max_samples / segments then begin
                incr taken;
                samples := (index k i, result) :: !samples
              end;
              Mutex.unlock lock
            end;
            true
        | _ -> false)
  in
  let segs = List.init segments (cold_segment c) in
  let wrong_primes sg =
    Array.fold_left (fun a r -> if Daemon.result_bytes r = None then a + 1 else a) 0 sg.primed
  in
  let run, lru = merged segs in
  let base_attempted = (segments * prime_count) + run.Load.tally.Load.completed + run.Load.tally.Load.failed in
  let base_failed = Quant.sum_int (List.map wrong_primes segs) + run.Load.tally.Load.failed in
  (* the traced replay runs first: the reference solves below fill the
     process's pattern memo, and the replay must see every request cold *)
  let attempted, failed, metrics =
    if not c.Ctx.trace then (base_attempted, base_failed, end_to_end segs)
    else begin
      let single = cold_segment { c with Ctx.clients = 1 } segments in
      let single_t = single.run.Load.tally in
      let s = Quant.samples () in
      let requests =
        Array.init trace_cold_requests (fun i -> (Inputs.branch_of i, Inputs.cold_request ~seed i))
      in
      let d = Frontend.cold s ~prime ~requests in
      ( base_attempted + prime_count + single_t.Load.completed + single_t.Load.failed + trace_cold_requests,
        base_failed + wrong_primes single + single_t.Load.failed + d.Frontend.bad,
        (peak_rss segs :: front_end s ~run ~single:single.run ~lru) @ dispatch_metrics s d )
    end
  in
  (* the sampled replies against an in-process solve of the same query *)
  let mismatches =
    List.length
      (List.filter
         (fun (i, result) -> reference_result (Inputs.cold_request ~seed i) <> Some result)
         !samples)
  in
  { Ctx.attempted = attempted + List.length !samples; failed = failed + mismatches; metrics }
