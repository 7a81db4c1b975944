type analysis = {
  model : Model.t;
  tpn_period : float;
  paper_period : float;
  period : float;
  throughput : float;
  mct : float;
  bottleneck : string;
  critical_transitions : string list;
}

let critical_resource_gap a = (a.paper_period -. a.mct) /. a.mct
let has_critical_resource ?(tolerance = 1e-6) a = critical_resource_gap a <= tolerance

(* weakly connected components of the transition graph: when the
   replication factors share a common divisor the TPN splits into
   independent sub-pipelines, each with its own critical cycle *)
let weak_components teg =
  let n = Petrinet.Teg.n_transitions teg in
  let parent = Array.init n Fun.id in
  let rec find x = if parent.(x) = x then x else (parent.(x) <- find parent.(x); parent.(x)) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  List.iter (fun p -> union p.Petrinet.Teg.src p.Petrinet.Teg.dst) (Petrinet.Teg.places teg);
  let groups = Hashtbl.create 8 in
  for v = 0 to n - 1 do
    let root = find v in
    Hashtbl.replace groups root (v :: Option.value ~default:[] (Hashtbl.find_opt groups root))
  done;
  Hashtbl.fold (fun _ members acc -> members :: acc) groups []

let analyse_tpn tpn =
  let teg = Tpn.teg tpn in
  let m = float_of_int (Tpn.n_rows tpn) in
  let mct, bottleneck = Tpn.max_cycle_time tpn in
  match Petrinet.Cycle_time.analyse teg with
  | None -> invalid_arg "Deterministic.analyse: acyclic TPN"
  | Some { Petrinet.Cycle_time.period = tpn_period; critical } ->
      (* each weakly connected component runs at its own pace: the system
         rate is the sum of (last-column transitions in the component)
         divided by the component's critical cycle.  On a fully coupled
         net this reduces to the paper's m / P. *)
      let last_column = Tpn.last_column tpn in
      let throughput =
        List.fold_left
          (fun acc members ->
            let in_component = Hashtbl.create 16 in
            List.iter (fun v -> Hashtbl.replace in_component v ()) members;
            let outputs =
              List.length (List.filter (fun v -> Hashtbl.mem in_component v) last_column)
            in
            if outputs = 0 then acc
            else begin
              let sub = Graphs.Digraph.create (Petrinet.Teg.n_transitions teg) in
              List.iter
                (fun pl ->
                  if Hashtbl.mem in_component pl.Petrinet.Teg.src then
                    Graphs.Digraph.add_edge sub ~src:pl.Petrinet.Teg.src ~dst:pl.Petrinet.Teg.dst
                      ~weight:(Petrinet.Teg.time teg pl.Petrinet.Teg.dst)
                      ~tokens:pl.Petrinet.Teg.tokens ())
                (Petrinet.Teg.places teg);
              match Graphs.Cycle_ratio.max_cycle_ratio sub with
              | None -> acc
              | Some { Graphs.Cycle_ratio.ratio; _ } -> acc +. (float_of_int outputs /. ratio)
            end)
          0.0 (weak_components teg)
      in
      {
        model = Tpn.model tpn;
        tpn_period;
        paper_period = tpn_period /. m;
        period = 1.0 /. throughput;
        throughput;
        mct;
        bottleneck;
        critical_transitions =
          List.map (fun e -> Petrinet.Teg.label teg e.Graphs.Digraph.dst) critical;
      }

let analyse mapping model = analyse_tpn (Tpn.build mapping model)

(* The components run in the calling domain: each is a closed form or a
   critical cycle of a few nodes, cheaper than a hop through the pool. *)
let overlap_throughput_decomposed mapping =
  let inner = function
    | Columns.Compute { stage; proc } -> 1.0 /. Mapping.comp_time mapping ~stage ~proc
    | Columns.Communication comm ->
        Young.Pattern.deterministic_inner_throughput ~u:comm.Columns.u ~v:comm.Columns.v
          ~time:(fun ~sender ~receiver -> Columns.pattern_time mapping comm ~sender ~receiver)
  in
  let comps = Array.of_list (Columns.components mapping) in
  Columns.propagate mapping comps (Array.map inner comps)


(* Under Strict, the blocking sends couple every row of a weakly connected
   component, so the per-component critical cycles are exact; under
   Overlap, rows of one component can still drift apart (a slow consumer
   only gates its own round-robin share), and the per-column per-row
   decomposition is the exact value. *)
let throughput mapping model =
  match model with
  | Model.Overlap -> overlap_throughput_decomposed mapping
  | Model.Strict -> (analyse mapping model).throughput
