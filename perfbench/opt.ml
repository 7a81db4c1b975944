(* The optimize workload: in-process [Optimize.Engine.run] with all four
   rungs and the Exponential objective, one distinct seeded (5,14)
   instance per ladder.  Each ladder starts with empty pattern caches, as
   a fresh [optimize] process would. *)

open Streaming

let rungs = Optimize.Engine.[ Greedy; Local; Anneal; Exhaustive ]
let procs = List.init 14 Fun.id
let checked = 2
let traced = 6

(* The timed phase is split into [blocks] of equal length; each figure is
   the median over the blocks of the block's candidates per second, p50
   or p90 ladder wall time, so a stall of the machine moves one block,
   not the figure. *)
let blocks = 5

let ladder ?(rungs = rungs) ~pool ~seed metric (app, platform) =
  Young.Pattern.clear_caches ();
  let objective = Optimize.Objective.create metric in
  Optimize.Engine.run ~rungs ~app ~platform
    { (Optimize.Search.default_settings ~pool ~objective ~procs) with Optimize.Search.seed }

let instance ~seed i = Inputs.optimize_instance ~seed ~tag:Inputs.tag_optimize i

let counters (r : Optimize.Engine.report) =
  (r.Optimize.Engine.candidates, r.Optimize.Engine.evaluated, r.Optimize.Engine.pruned,
   r.Optimize.Engine.failed, Option.map snd r.Optimize.Engine.best)

(* The Theorem 7 bound and the exponential value, timed from outside: a
   Custom metric around the very calls [Objective.Exponential] makes. *)
let timed_metric s =
  let cap = Optimize.Objective.cap (Optimize.Objective.create Optimize.Objective.Exponential) in
  let clocked name f m =
    let t0 = Quant.now_s () in
    Fun.protect ~finally:(fun () -> Quant.add s name (Quant.now_s () -. t0)) (fun () -> f m)
  in
  Optimize.Objective.Custom
    {
      name = "exponential";
      bound = clocked "bound" Deterministic.overlap_throughput_decomposed;
      value = clocked "value" (Expo.overlap_throughput ~pattern_cap:cap);
    }

let trace_metrics (c : Ctx.t) =
  let seed = c.Ctx.seed in
  let s = Quant.samples () in
  let pool = Parallel.Pool.get () in
  let sum = ref (0, 0, 0, 0) and wall = ref 0.0 and mismatched = ref 0 in
  for i = 0 to traced - 1 do
    let inst = instance ~seed i in
    let plain = ladder ~pool ~seed Optimize.Objective.Exponential inst in
    (* one domain, so bound + value + the rest add up to the wall time *)
    Parallel.Pool.set_domains 1;
    let dt, r = Quant.timed (fun () -> ladder ~pool:(Parallel.Pool.get ()) ~seed (timed_metric s) inst) in
    Parallel.Pool.set_domains c.Ctx.domains;
    if counters r <> counters plain then incr mismatched;
    let cands, evald, pruned, failed = !sum in
    sum :=
      ( cands + r.Optimize.Engine.candidates,
        evald + r.Optimize.Engine.evaluated,
        pruned + r.Optimize.Engine.pruned,
        failed + r.Optimize.Engine.failed );
    wall := !wall +. dt
  done;
  let cands, evald, pruned, failed = !sum in
  let bound = Quant.get s "bound" and value = Quant.get s "value" in
  let f = float_of_int in
  ( 2 * traced,
    !mismatched,
    [
      ("objective.bound_us.p50", 1e6 *. Quant.percentile bound 50.0);
      ("objective.bound_us.p99", 1e6 *. Quant.percentile bound 99.0);
      ("objective.bound_s.total", Quant.sum bound);
      ("objective.value_ms.p50", 1e3 *. Quant.percentile value 50.0);
      ("objective.value_ms.p99", 1e3 *. Quant.percentile value 99.0);
      ("objective.value_s.total", Quant.sum value);
      ("search.candidates", f cands);
      ("search.evaluated", f evald);
      ("search.pruned", f pruned);
      ("search.failed", f failed);
      ("search.prune_ratio", Quant.ratio (f pruned) (f cands));
      ("search.wall_s", !wall);
      ("search.other_s", !wall -. Quant.sum bound -. Quant.sum value);
      ("peak_rss_mb", Quant.peak_rss_mb 0);
    ] )

let optimize (c : Ctx.t) =
  let seed = c.Ctx.seed in
  (* set-up: a fresh domain pool and one short ladder on a priming
     instance (the same for every seed), so the pool's domains and the
     code paths are warm; the compaction gives every run the same heap to
     start from *)
  let setup_s =
    Ctx.setup ~reps:5 (fun () ->
        Parallel.Pool.set_domains c.Ctx.domains;
        ignore
          (ladder ~rungs:Optimize.Engine.[ Greedy; Local ] ~pool:(Parallel.Pool.get ()) ~seed:0
             Optimize.Objective.Exponential
             (Inputs.optimize_instance ~seed:0 ~tag:Inputs.tag_opt_prime 0)))
  in
  Gc.compact ();
  if c.Ctx.trace then
    let attempted, failed, metrics = trace_metrics c in
    { Ctx.attempted; failed; metrics }
  else begin
    let pool = Parallel.Pool.get () in
    let block_s = c.Ctx.seconds /. float_of_int blocks in
    (* each block runs ladders, numbered on from the last block's, until
       its time is up *)
    let rec go i stop acc =
      if Quant.now_s () >= stop then (i, List.rev acc)
      else
        let dt, r = Quant.timed (fun () -> ladder ~pool ~seed Optimize.Objective.Exponential (instance ~seed i)) in
        go (i + 1) stop ((dt, r) :: acc)
    in
    let _, per_block =
      List.fold_left
        (fun (i, acc) _ ->
          let i, b = go i (Quant.now_s () +. block_s) [] in
          (i, b :: acc))
        (0, []) (List.init blocks Fun.id)
    in
    let per_block = List.rev per_block in
    let runs = List.concat per_block in
    let rate b =
      float_of_int (List.fold_left (fun acc (_, r) -> acc + r.Optimize.Engine.candidates) 0 b)
      /. Quant.sum (List.map fst b)
    in
    (* the report bytes equal a one-domain run of the same ladder *)
    Parallel.Pool.set_domains 1;
    let mismatched =
      List.length
        (List.filteri
           (fun i (_, r) ->
             i < checked
             && Optimize.Engine.report_to_string
                  (ladder ~pool:(Parallel.Pool.get ()) ~seed Optimize.Objective.Exponential (instance ~seed i))
                <> Optimize.Engine.report_to_string r)
           runs)
    in
    Parallel.Pool.set_domains c.Ctx.domains;
    let median_over_blocks f = Quant.median (List.map f per_block) in
    let wall_percentile p b = 1e3 *. Quant.percentile (List.map fst b) p in
    {
      Ctx.attempted = List.length runs + min checked (List.length runs);
      failed = mismatched;
      metrics =
        [
          ("throughput_per_s", median_over_blocks rate);
          ("latency_p50_ms", median_over_blocks (wall_percentile 50.0));
          ("latency_tail_ms", median_over_blocks (wall_percentile 90.0));
          ("setup_s", setup_s);
        ];
    }
  end
