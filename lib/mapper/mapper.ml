open Streaming

type metric = Deterministic | Exponential

(* Only typed, recoverable solver failures (state space over the cap, a
   stalled iteration, an exhausted budget, an elimination past its fill
   bound) may demote a candidate to a zero score: they are information
   about the candidate, not about the code.  Everything else —
   [Non_ergodic], [Numerical], [Invalid_argument] — propagates, so a
   genuine programming error can never masquerade as a "worthless
   mapping" that the climbs silently route around. *)
let evaluate metric mapping =
  let law =
    match metric with
    | Deterministic -> Throughput.Deterministic
    | Exponential -> Throughput.Exponential
  in
  match Throughput.solve ~cap:200_000 law Model.Overlap mapping with
  | rho, _ -> rho
  | exception Supervise.Error.Solver_error err when Supervise.Error.is_recoverable err -> 0.0

let default_pool platform = List.init (Platform.n_processors platform) Fun.id

let stages_by_work app =
  List.init (Application.n_stages app) Fun.id
  |> List.sort (fun i j -> compare (Application.work app j) (Application.work app i))

let pool_by_speed platform pool =
  List.sort (fun p q -> compare (Platform.speed platform q) (Platform.speed platform p)) pool

let mapping_of_teams app platform teams = Mapping.create ~app ~platform ~teams

let baseline_teams ~app ~platform pool =
  let n = Application.n_stages app in
  if List.length pool < n then invalid_arg "Mapper: pool smaller than the number of stages";
  let sorted_pool = Array.of_list (pool_by_speed platform pool) in
  let teams = Array.make n [||] in
  List.iteri (fun k stage -> teams.(stage) <- [| sorted_pool.(k) |]) (stages_by_work app);
  teams

let baseline_fastest ~app ~platform ?pool () =
  let pool = Option.value pool ~default:(default_pool platform) in
  mapping_of_teams app platform (baseline_teams ~app ~platform pool)

let greedy ?(metric = Exponential) ~app ~platform ?pool () =
  let pool = Option.value pool ~default:(default_pool platform) in
  let teams = baseline_teams ~app ~platform pool in
  let used = Hashtbl.create 16 in
  Array.iter (Array.iter (fun p -> Hashtbl.replace used p ())) teams;
  let remaining = pool_by_speed platform (List.filter (fun p -> not (Hashtbl.mem used p)) pool) in
  let best = ref (mapping_of_teams app platform teams) in
  let best_score = ref (evaluate metric !best) in
  (* Place every remaining processor on whichever stage scores best at
     this point, keeping the best mapping seen: neutral moves are
     accepted so that plateaus (where two additions are needed before the
     throughput moves) do not stop the climb early. *)
  List.iter
    (fun candidate ->
      let choice = ref None in
      Array.iteri
        (fun stage team ->
          let grown = Array.copy teams in
          grown.(stage) <- Array.append team [| candidate |];
          let mapping = mapping_of_teams app platform grown in
          let score = evaluate metric mapping in
          match !choice with
          | Some (_, best_candidate_score) when score <= best_candidate_score -> ()
          | _ -> choice := Some (stage, score))
        teams;
      match !choice with
      | None -> ()
      | Some (stage, score) ->
          teams.(stage) <- Array.append teams.(stage) [| candidate |];
          if score > !best_score then begin
            best := mapping_of_teams app platform teams;
            best_score := score
          end)
    remaining;
  !best

(* all compositions of [total] into [parts] positive integers; [] when
   [total < parts] or [parts <= 0] — the recursion below keeps the
   invariant [total >= parts >= 1], so [List.init] never sees a negative
   length *)
let compositions total parts =
  let rec go total parts =
    if parts = 1 then [ [ total ] ]
    else
      List.concat_map
        (fun first -> List.map (List.cons first) (go (total - first) (parts - 1)))
        (List.init (total - parts + 1) (fun i -> i + 1))
  in
  if parts <= 0 || total < parts then [] else go total parts

let exhaustive ?(metric = Exponential) ~app ~platform ?pool () =
  let pool = Option.value pool ~default:(default_pool platform) in
  let n = Application.n_stages app in
  if List.length pool < n then invalid_arg "Mapper: pool smaller than the number of stages";
  let sorted_pool = Array.of_list (pool_by_speed platform pool) in
  let stage_order = stages_by_work app in
  let best = ref None in
  List.iter
    (fun sizes ->
      let sizes = Array.of_list sizes in
      (* per-processor load work/size decides which stages deserve the
         fastest processors *)
      let order =
        List.sort
          (fun i j ->
            compare
              (Application.work app j /. float_of_int sizes.(j))
              (Application.work app i /. float_of_int sizes.(i)))
          stage_order
      in
      let teams = Array.make n [||] in
      let next = ref 0 in
      List.iter
        (fun stage ->
          teams.(stage) <- Array.sub sorted_pool !next sizes.(stage);
          next := !next + sizes.(stage))
        order;
      let mapping = mapping_of_teams app platform teams in
      let score = evaluate metric mapping in
      match !best with
      | Some (_, s) when s >= score -> ()
      | _ -> best := Some (mapping, score))
    (compositions (List.length pool) n);
  match !best with
  | Some (m, _) -> m
  | None ->
      Supervise.Error.raise_
        (Supervise.Error.Numerical
           {
             what = "empty search space: no composition of the pool into positive team sizes";
             where = "Mapper.exhaustive";
           })
