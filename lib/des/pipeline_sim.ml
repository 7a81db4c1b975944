open Streaming

type timing =
  | Independent of Laws.t
  | Associated of { work : int -> Dist.t; files : int -> Dist.t }
  | Scaled of Dist.t

let raw_completions ?release mapping model ~timing ~seed ~data_sets =
  if data_sets < 1 then invalid_arg "Pipeline_sim.completions: need at least one data set";
  Obs.Trace.span "des:pipeline_sim" @@ fun () ->
  Obs.Trace.add_attr "data_sets" (string_of_int data_sets);
  let n = Mapping.n_stages mapping in
  let cols = (2 * n) - 1 in
  let replication = Mapping.replication mapping in
  let proc_of ~data_set ~stage = Mapping.proc_at mapping ~stage ~row:data_set in
  let op ~data_set ~col = (data_set * cols) + col in
  let engine = Engine.create ~n_tasks:(data_sets * cols) in
  (match release with
  | None -> ()
  | Some release ->
      for ds = 0 to data_sets - 1 do
        Engine.set_earliest engine ~task:(op ~data_set:ds ~col:0) (release ds)
      done);
  for ds = 0 to data_sets - 1 do
    for col = 1 to cols - 1 do
      (* the data set moves through receive/compute/send in order *)
      Engine.add_dep engine ~task:(op ~data_set:ds ~col) ~after:(op ~data_set:ds ~col:(col - 1))
    done;
    for stage = 0 to n - 1 do
      let r_i = replication.(stage) in
      let prev = ds - r_i in
      match model with
      | Model.Overlap ->
          if prev >= 0 then begin
            (* compute unit of the processor is busy with its previous
               data set *)
            Engine.add_dep engine
              ~task:(op ~data_set:ds ~col:(2 * stage))
              ~after:(op ~data_set:prev ~col:(2 * stage));
            (* one-port out: previous send of the same processor *)
            if stage < n - 1 then
              Engine.add_dep engine
                ~task:(op ~data_set:ds ~col:((2 * stage) + 1))
                ~after:(op ~data_set:prev ~col:((2 * stage) + 1));
            (* one-port in: previous receive of the same processor *)
            if stage > 0 then
              Engine.add_dep engine
                ~task:(op ~data_set:ds ~col:((2 * stage) - 1))
                ~after:(op ~data_set:prev ~col:((2 * stage) - 1))
          end
      | Model.Strict ->
          if prev >= 0 then begin
            let first_col = if stage > 0 then (2 * stage) - 1 else 2 * stage in
            let last_col = if stage < n - 1 then (2 * stage) + 1 else 2 * stage in
            (* the processor is a single server: its receive for this data
               set waits for the send of its previous one *)
            Engine.add_dep engine
              ~task:(op ~data_set:ds ~col:first_col)
              ~after:(op ~data_set:prev ~col:last_col)
          end
    done
  done;
  let g = Prng.create ~seed in
  let duration =
    match timing with
    | Independent laws ->
        fun id ->
          let ds = id / cols and col = id mod cols in
          if col mod 2 = 0 then
            let stage = col / 2 in
            Dist.sample (laws (Resource.Compute (proc_of ~data_set:ds ~stage))) g
          else
            let stage = col / 2 in
            let src = proc_of ~data_set:ds ~stage and dst = proc_of ~data_set:ds ~stage:(stage + 1) in
            Dist.sample (laws (Resource.Transfer (src, dst))) g
    | Associated { work; files } ->
        (* one size draw per (data set, stage) and per (data set, file),
           shared by every resource that touches it *)
        let work_sizes =
          Array.init data_sets (fun _ -> Array.init n (fun i -> Dist.sample (work i) g))
        in
        let file_sizes =
          Array.init data_sets (fun _ -> Array.init (max 0 (n - 1)) (fun i -> Dist.sample (files i) g))
        in
        fun id ->
          let ds = id / cols and col = id mod cols in
          let stage = col / 2 in
          if col mod 2 = 0 then
            let p = proc_of ~data_set:ds ~stage in
            work_sizes.(ds).(stage) /. Platform.speed (Mapping.platform mapping) p
          else
            let src = proc_of ~data_set:ds ~stage and dst = proc_of ~data_set:ds ~stage:(stage + 1) in
            file_sizes.(ds).(stage)
            /. Platform.bandwidth (Mapping.platform mapping) ~src ~dst
    | Scaled law ->
        let factors = Array.init data_sets (fun _ -> Dist.sample law g) in
        fun id ->
          let ds = id / cols and col = id mod cols in
          let stage = col / 2 in
          let nominal =
            if col mod 2 = 0 then
              Mapping.comp_time mapping ~stage ~proc:(proc_of ~data_set:ds ~stage)
            else
              Mapping.comm_time mapping ~file:stage ~src:(proc_of ~data_set:ds ~stage)
                ~dst:(proc_of ~data_set:ds ~stage:(stage + 1))
          in
          factors.(ds) *. nominal
  in
  let completion = Engine.run engine ~duration in
  Array.init data_sets (fun ds -> completion.(op ~data_set:ds ~col:(cols - 1)))

let completions ?release mapping model ~timing ~seed ~data_sets =
  let result = raw_completions ?release mapping model ~timing ~seed ~data_sets in
  (* truncate at the earliest per-row final completion: each round-robin
     row receives a fixed share of the data sets, so beyond the fastest
     row's horizon the merged stream under-counts the system rate when
     rows are decoupled *)
  let m = Mapping.rows mapping in
  let horizon = ref infinity in
  for row = 0 to min m data_sets - 1 do
    let last = row + ((data_sets - 1 - row) / m * m) in
    if result.(last) < !horizon then horizon := result.(last)
  done;
  let kept = Array.of_list (List.filter (fun c -> c <= !horizon) (Array.to_list result)) in
  Array.sort compare kept;
  kept

let latencies ~release mapping model ~timing ~seed ~data_sets =
  let result = raw_completions ~release mapping model ~timing ~seed ~data_sets in
  Array.mapi (fun ds c -> c -. release ds) result

let throughput ?warmup_fraction ?release mapping model ~timing ~seed ~data_sets =
  let series = completions ?release mapping model ~timing ~seed ~data_sets in
  Stats.Series.throughput_of_completions ?warmup_fraction series

let replicated_throughputs ?pool ?warmup_fraction ?release mapping model ~timing ~seeds ~data_sets
    =
  let pool = match pool with Some p -> p | None -> Parallel.Pool.get () in
  Parallel.Pool.map_list pool
    (fun seed -> throughput ?warmup_fraction ?release mapping model ~timing ~seed ~data_sets)
    seeds

(* The last rung of the escalation ladder: when the exact and iterative
   solvers have both failed (state space over the cap, no convergence,
   budget spent, fill past GTH's bound), estimate the throughput by
   simulation and report an honest batch-means confidence interval
   alongside. *)
let estimate ?(data_sets = 20_000) ~seed mapping model () =
  let completions =
    completions mapping model ~timing:(Independent (Streaming.Laws.exponential mapping)) ~seed
      ~data_sets
  in
  let bm = Stats.Batch_means.throughput_of_completions completions in
  (bm.Stats.Batch_means.mean, bm.Stats.Batch_means.half_width)
