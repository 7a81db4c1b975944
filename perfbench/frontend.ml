(* The daemon's request path, layer by layer, timed in-process.  The
   traced service runs replay the same request bytes through an
   in-process {!Service.Server.t} and time each layer's public function
   on its own: JSON decode, request decode, instance parse and canonical
   rendering ([Engine.prepare]), the LRU lookup, the engine solve, the
   reply render and the whole [Server.respond].  Nothing inside the
   library is instrumented. *)

open Service

let null_log = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let server ~cache =
  Server.create { (Server.default_config ()) with Server.cache_capacity = cache; log = null_log }

let us = Quant.time_us
let ms = Quant.time_ms

let get_ok what = function Ok x -> x | Error _ -> failwith (what ^ " failed on a generated request")

(* decode, parse, canonicalize and look up one request: everything the
   daemon does before it knows whether it must solve *)
let front s srv line =
  let json = get_ok "Json.parse" (us s "json.parse_us" (fun () -> Json.parse line)) in
  let q =
    match us s "protocol.parse_request_us" (fun () -> Protocol.parse_request json) with
    | Ok (_, Protocol.Solve q) -> q
    | _ -> failwith "Protocol.parse_request: not a solve request"
  in
  let mapping =
    get_ok "Instance_io.parse"
      (us s "instance_io.parse_us" (fun () -> Streaming.Instance_io.parse q.Engine.instance))
  in
  ignore (us s "instance_io.to_string_us" (fun () -> Streaming.Instance_io.to_string mapping));
  let prepared = get_ok "Engine.prepare" (us s "engine.prepare_us" (fun () -> Engine.prepare q)) in
  let hit = us s "lru.find_us" (fun () -> Lru.find (Server.cache srv) prepared.Engine.key) in
  (q, prepared, hit)

(* Warm path: [rounds] replays of [lines] after a priming pass.  Returns
   the number of replies whose result bytes differ from [expected] (the
   daemon's first replies) or that missed the cache. *)
let warm s ~lines ~expected ~rounds =
  let srv = server ~cache:(2 * Array.length lines) in
  Array.iter (fun line -> ignore (Server.respond srv line)) lines;
  let bad = ref 0 in
  for _ = 1 to rounds do
    Array.iteri
      (fun k line ->
        let _, _, hit = front s srv line in
        (match hit with
        | Some entry ->
            ignore
              (us s "protocol.ok_reply_us" (fun () ->
                   Protocol.ok_reply ~id:None ~cached:true ~result:entry.Server.rendered ()))
        | None -> incr bad);
        let reply, _ = us s "server.respond_us" (fun () -> Server.respond srv line) in
        if Daemon.result_bytes reply <> Some expected.(k) then incr bad)
      lines
  done;
  !bad

type dispatch = {
  mutable pattern_hits : int;
  mutable pattern_misses : int;
  mutable pattern_states : int;
  mutable strict_solves : int;
  mutable strict_iterative : int;
  mutable bad : int;
}

(* Cold path over [requests] (branch, line), after priming with [prime].
   Whole 20-request cycles alternate between the two halves, so each half
   sees the full traffic mix and every request is a miss in both the LRU
   and the pattern memo: even cycles go through [Server.respond] whole,
   odd cycles layer by layer. *)
let cold s ~prime ~requests =
  let whole = server ~cache:64 and layered = server ~cache:64 in
  Array.iter (fun line -> ignore (Server.respond whole line)) prime;
  let d =
    { pattern_hits = 0; pattern_misses = 0; pattern_states = 0; strict_solves = 0;
      strict_iterative = 0; bad = 0 }
  in
  Array.iteri
    (fun idx (branch, line) ->
      if idx / Array.length Inputs.cycle mod 2 = 0 then
        ignore (us s "server.respond_us" (fun () -> Server.respond whole line))
      else begin
        let q, prepared, hit = front s layered line in
        if hit <> None then d.bad <- d.bad + 1;
        let c0 = Young.Pattern.cache_stats () in
        let dt, outcome = Quant.timed (fun () -> Engine.solve prepared q) in
        let c1 = Young.Pattern.cache_stats () in
        d.pattern_hits <- d.pattern_hits + c1.Young.Pattern.hits - c0.Young.Pattern.hits;
        d.pattern_misses <- d.pattern_misses + c1.Young.Pattern.misses - c0.Young.Pattern.misses;
        Quant.add s "engine.solve_ms" (dt *. 1e3);
        Quant.add s ("engine.solve." ^ Inputs.branch_name branch ^ "_ms") (dt *. 1e3);
        (match outcome with
        | Ok o ->
            let rendered = Json.render (Engine.outcome_json o) in
            ignore
              (us s "protocol.ok_reply_us" (fun () ->
                   Protocol.ok_reply ~id:None ~cached:false ~result:rendered ()));
            d.pattern_states <- d.pattern_states + o.Engine.pattern_states;
            if branch = Inputs.Strict_expo then begin
              d.strict_solves <- d.strict_solves + 1;
              if o.Engine.quality <> "exact" then d.strict_iterative <- d.strict_iterative + 1
            end
        | Error _ -> d.bad <- d.bad + 1);
        if branch = Inputs.Det then begin
          let tpn =
            ms s "tpn.build_ms" (fun () ->
                Streaming.Tpn.build prepared.Engine.mapping Streaming.Model.Strict)
          in
          ignore (ms s "deterministic.analyse_tpn_ms" (fun () -> Streaming.Deterministic.analyse_tpn tpn))
        end
      end)
    requests;
  d
