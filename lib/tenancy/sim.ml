open Streaming

type event = { time : float; tenant : int }

let interleaved_completions ps model ~seed ~data_sets =
  let k = Platform_share.n_tenants ps in
  let events = Array.make (k * data_sets) { time = 0.0; tenant = 0 } in
  for i = 0 to k - 1 do
    let scaled = Platform_share.scaled_mapping ps ~tenant:i in
    let completions =
      Des.Pipeline_sim.completions scaled model
        ~timing:(Des.Pipeline_sim.Independent (Laws.exponential scaled))
        ~seed:(seed + (7919 * i))
        ~data_sets
    in
    Array.iteri (fun n c -> events.((i * data_sets) + n) <- { time = c; tenant = i }) completions
  done;
  Array.sort (fun a b -> compare a.time b.time) events;
  events

type estimate = { id : string; des : float; exact : float; rel_err : float }

let cross_check ?cap ?(warmup_fraction = 0.2) ps model ~seed ~data_sets =
  let k = Platform_share.n_tenants ps in
  let events = interleaved_completions ps model ~seed ~data_sets in
  (* measure on the window where every tenant is still producing: up to
     the earliest tenant's last completion, past the warm-up prefix *)
  let last = Array.make k 0.0 in
  Array.iter (fun e -> if e.time > last.(e.tenant) then last.(e.tenant) <- e.time) events;
  let horizon = Array.fold_left Float.min last.(0) last in
  let warm = warmup_fraction *. horizon in
  let counts = Array.make k 0 in
  Array.iter
    (fun e -> if e.time > warm && e.time <= horizon then counts.(e.tenant) <- counts.(e.tenant) + 1)
    events;
  List.init k (fun i ->
      let des = float_of_int counts.(i) /. (horizon -. warm) in
      let exact, _ =
        Throughput.solve ?cap Throughput.Exponential model
          (Platform_share.scaled_mapping ps ~tenant:i)
      in
      {
        id = (Platform_share.decl ps i).Instance_io.tenant_id;
        des;
        exact;
        rel_err = Float.abs (des -. exact) /. exact;
      })
