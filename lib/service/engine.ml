open Streaming

type law = Throughput.law = Deterministic | Exponential | Erlang of int | Ph of Markov.Ph.t

type query = {
  instance : string;
  model : Model.t;
  law : law;
  cap : int;
  wall : float option;
  sweeps : int option;
  states : int option;
  simulate : bool;
}

let default_cap = Throughput.default_cap

type prepared = { key : string; mapping : Mapping.t }

let prepare q =
  match Instance_io.parse q.instance with
  | Error msg -> Error msg
  | Ok mapping ->
      let header =
        Printf.sprintf "v2|model=%s|law=%s|cap=%d|sim=%b\n" (Model.to_string q.model)
          (Throughput.law_to_string q.law) q.cap q.simulate
      in
      Ok { key = Instance_io.key ~header mapping; mapping }

type outcome = {
  throughput : float;
  quality : string;
  degraded : bool;
  provenance : string;
  pattern_states : int;
}

(* state-space-size proxy: every communication pattern of the mapping
   contributes its Young-lattice size S(u,v) — the quantity that actually
   drives the cost of the exact solvers *)
let pattern_state_count mapping =
  let r = Mapping.replication mapping in
  let total = ref 0 in
  for i = 0 to Array.length r - 2 do
    total := !total + Young.Combin.state_count ~u:r.(i) ~v:r.(i + 1)
  done;
  !total

let quality_string = function
  | Supervise.Provenance.Exact -> "exact"
  | Supervise.Provenance.Iterative _ -> "iterative"
  | Supervise.Provenance.Simulated _ -> "simulated"

(* the DES rung's seed: simulated replies are cached, so it is fixed *)
let des_seed = 20260706

(* one row of the solve table, under a budget that starts now *)
let solve_mapping ~cap ?wall ?sweeps ?states ~simulate law model mapping =
  match
    Throughput.solve ~cap
      ?budget:(Supervise.Budget.of_limits ?wall ?sweeps ?states ())
      ?simulate:
        (if simulate then Some (Des.Pipeline_sim.estimate ~seed:des_seed mapping model) else None)
      law model mapping
  with
  | rho, prov ->
      Ok
        {
          throughput = rho;
          quality = quality_string prov.Supervise.Provenance.quality;
          degraded = prov.Supervise.Provenance.degraded;
          provenance = Supervise.Provenance.describe prov;
          pattern_states = pattern_state_count mapping;
        }
  | exception Supervise.Error.Solver_error err -> Error err
  | exception Invalid_argument msg ->
      Error (Supervise.Error.Numerical { what = msg; where = "Service.Engine.solve" })

let solve prepared q =
  solve_mapping ~cap:q.cap ?wall:q.wall ?sweeps:q.sweeps ?states:q.states ~simulate:q.simulate q.law
    q.model prepared.mapping

let outcome_json o =
  Json.Obj
    [
      ("throughput", Json.Float o.throughput);
      ("quality", Json.String o.quality);
      ("degraded", Json.Bool o.degraded);
      ("provenance", Json.String o.provenance);
      ("pattern_states", Json.Int o.pattern_states);
    ]

(* ---- multi-tenant queries ---- *)

type multi_query = {
  m_instance : string;
  m_model : Model.t;
  m_law : law;
  m_cap : int;
  m_wall : float option;
}

type prepared_multi = { m_key : string; m_share : Tenancy.Platform_share.t }

let prepare_multi q =
  match Instance_io.parse_multi q.m_instance with
  | Error msg -> Error msg
  | Ok decls -> (
      match Tenancy.Platform_share.create ~tenants:decls with
      | Error msg -> Error msg
      | Ok share ->
          let header =
            Printf.sprintf "v2|multi|model=%s|law=%s|cap=%d\n" (Model.to_string q.m_model)
              (Throughput.law_to_string q.m_law) q.m_cap
          in
          Ok { m_key = Instance_io.multi_key ~header decls; m_share = share })

type tenant_outcome = {
  t_id : string;
  t_weight : float;
  t_floor : float;
  t_bound : float;
  t_wall : float option;
  t_outcome : outcome;
}

type multi_error =
  | Rejected of { tenant : string; victim : string; floor : float; bound : float }
  | Solver_failed of Supervise.Error.t

(* admission first — the cheap deterministic bounds decide before any
   exact solve is paid for; then each tenant solves on its scaled
   mapping under a weighted-fair split of the request's wall budget *)
let solve_multi prepared q =
  let share = prepared.m_share in
  let k = Tenancy.Platform_share.n_tenants share in
  let bounds = Array.init k (fun i -> Tenancy.Platform_share.bound share ~tenant:i q.m_model) in
  let rejection =
    let rec go i =
      if i >= k then None
      else
        let d = Tenancy.Platform_share.decl share i in
        if bounds.(i) < d.Instance_io.floor then
          Some
            (Rejected
               {
                 tenant = d.Instance_io.tenant_id;
                 victim = d.Instance_io.tenant_id;
                 floor = d.Instance_io.floor;
                 bound = bounds.(i);
               })
        else go (i + 1)
    in
    go 0
  in
  match rejection with
  | Some r -> Error r
  | None -> (
      let total_weight =
        List.fold_left
          (fun acc d -> acc +. d.Instance_io.weight)
          0.0
          (Tenancy.Platform_share.decls share)
      in
      let rec go i acc =
        if i >= k then Ok (List.rev acc)
        else
          let d = Tenancy.Platform_share.decl share i in
          (* weighted-fair budget accounting: tenant i's slice of the
             request's wall budget is proportional to its weight *)
          let wall =
            Option.map (fun w -> w *. d.Instance_io.weight /. total_weight) q.m_wall
          in
          match
            solve_mapping ~cap:q.m_cap ?wall ~simulate:false q.m_law q.m_model
              (Tenancy.Platform_share.scaled_mapping share ~tenant:i)
          with
          | Error err -> Error (Solver_failed err)
          | Ok outcome ->
              go (i + 1)
                ({
                   t_id = d.Instance_io.tenant_id;
                   t_weight = d.Instance_io.weight;
                   t_floor = d.Instance_io.floor;
                   t_bound = bounds.(i);
                   t_wall = wall;
                   t_outcome = outcome;
                 }
                :: acc)
      in
      go 0 [])

let multi_result_json q outcomes =
  Json.Obj
    [
      ("model", Json.String (Model.to_string q.m_model));
      ("law", Json.String (Throughput.law_to_string q.m_law));
      ( "tenants",
        Json.List
          (List.map
             (fun t ->
               Json.Obj
                 ([
                    ("tenant", Json.String t.t_id);
                    ("weight", Json.Float t.t_weight);
                    ("floor", Json.Float t.t_floor);
                    ("bound", Json.Float t.t_bound);
                  ]
                 @ (match t.t_wall with
                   | Some w -> [ ("wall", Json.Float w) ]
                   | None -> [])
                 @ [ ("result", outcome_json t.t_outcome) ]))
             outcomes) );
    ]

let admit prepared q =
  Tenancy.Admission.sequence ~model:q.m_model (Tenancy.Platform_share.decls prepared.m_share)
