open Streaming

module Rmap = Map.Make (Resource)

type t = {
  tenants : Instance_io.tenant_decl array;
  platform : Platform.t;
  load : float Rmap.t;  (* aggregate weight per shared resource *)
  scaled : Mapping.t array;  (* per-tenant derated mapping, in decl order *)
}

let same_platform a b =
  a == b
  ||
  let m = Platform.n_processors a in
  Platform.n_processors b = m
  &&
  let ok = ref true in
  for i = 0 to m - 1 do
    if Platform.speed a i <> Platform.speed b i then ok := false;
    for j = 0 to m - 1 do
      if i <> j && Platform.bandwidth a ~src:i ~dst:j <> Platform.bandwidth b ~src:i ~dst:j then
        ok := false
    done
  done;
  !ok

let validate tenants =
  match tenants with
  | [] -> Error "Platform_share.create: at least one tenant"
  | first :: rest -> (
      let platform = Mapping.platform first.Instance_io.tenant_mapping in
      let mismatch =
        List.exists
          (fun d -> not (same_platform platform (Mapping.platform d.Instance_io.tenant_mapping)))
          rest
      in
      if mismatch then Error "Platform_share.create: tenants do not share one platform"
      else
        let seen = Hashtbl.create 8 in
        let dup =
          List.find_opt
            (fun d ->
              let id = d.Instance_io.tenant_id in
              if Hashtbl.mem seen id then true
              else begin
                Hashtbl.add seen id ();
                false
              end)
            tenants
        in
        match dup with
        | Some d -> Error (Printf.sprintf "Platform_share.create: duplicate tenant id %s" d.Instance_io.tenant_id)
        | None -> (
            let bad_number =
              List.find_opt
                (fun d ->
                  let w = d.Instance_io.weight and f = d.Instance_io.floor in
                  (not (Float.is_finite w)) || w <= 0.0 || (not (Float.is_finite f)) || f < 0.0)
                tenants
            in
            match bad_number with
            | Some d ->
                Error
                  (Printf.sprintf
                     "Platform_share.create: tenant %s needs a finite positive weight and a \
                      finite non-negative floor"
                     d.Instance_io.tenant_id)
            | None -> Ok platform))

let aggregate tenants =
  List.fold_left
    (fun load d ->
      List.fold_left
        (fun load r ->
          let w = d.Instance_io.weight in
          Rmap.update r (function None -> Some w | Some acc -> Some (acc +. w)) load)
        load
        (Mapping.resources d.Instance_io.tenant_mapping))
    Rmap.empty tenants

let share_of load d r =
  match Rmap.find_opt r load with
  | None -> 1.0
  | Some total -> d.Instance_io.weight /. total

(* the tenant's pipeline on the platform derated to its reserved shares:
   every resource the tenant uses runs at [share] times its nominal rate *)
let scale load platform d =
  let mapping = d.Instance_io.tenant_mapping in
  let m = Platform.n_processors platform in
  let speeds = Array.init m (Platform.speed platform) in
  let bandwidth =
    Array.init m (fun p -> Array.init m (fun q -> Platform.bandwidth platform ~src:p ~dst:q))
  in
  List.iter
    (fun r ->
      let s = share_of load d r in
      match r with
      | Resource.Compute p -> speeds.(p) <- speeds.(p) *. s
      | Resource.Transfer (p, q) -> bandwidth.(p).(q) <- bandwidth.(p).(q) *. s)
    (Mapping.resources mapping);
  let app = Mapping.app mapping in
  let teams = Array.init (Mapping.n_stages mapping) (Mapping.team mapping) in
  Mapping.create ~app ~platform:(Platform.create ~speeds ~bandwidth) ~teams

let create ~tenants =
  match validate tenants with
  | Error _ as e -> e
  | Ok platform -> (
      let load = aggregate tenants in
      match List.map (scale load platform) tenants with
      | scaled ->
          Ok
            {
              tenants = Array.of_list tenants;
              platform;
              load;
              scaled = Array.of_list scaled;
            }
      | exception Invalid_argument msg -> Error ("Platform_share.create: " ^ msg))

let n_tenants t = Array.length t.tenants
let decl t i = t.tenants.(i)
let decls t = Array.to_list t.tenants

let index_of t id =
  let rec go i =
    if i >= Array.length t.tenants then None
    else if t.tenants.(i).Instance_io.tenant_id = id then Some i
    else go (i + 1)
  in
  go 0

let platform t = t.platform

let aggregate_weight t r = match Rmap.find_opt r t.load with None -> 0.0 | Some w -> w
let share t ~tenant r = share_of t.load t.tenants.(tenant) r
let scaled_mapping t ~tenant = t.scaled.(tenant)

let bound t ~tenant model = fst (Throughput.solve Throughput.Deterministic model t.scaled.(tenant))
