type communication = {
  file : int;
  residue : int;
  u : int;
  v : int;
  senders : int array;
  receivers : int array;
}

type component = Compute of { stage : int; proc : int } | Communication of communication

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let pattern_time mapping comm ~sender ~receiver =
  Mapping.comm_time mapping ~file:comm.file ~src:comm.senders.(sender)
    ~dst:comm.receivers.(receiver)

let is_homogeneous mapping comm =
  let reference = pattern_time mapping comm ~sender:0 ~receiver:0 in
  (* relative tolerance with an absolute floor: a (near-)zero reference
     time would otherwise collapse the tolerance to zero and declare a
     homogeneous component heterogeneous on float noise *)
  let tol = Float.max (1e-12 *. abs_float reference) 1e-15 in
  let same = ref true in
  for s = 0 to comm.u - 1 do
    for r = 0 to comm.v - 1 do
      let t = pattern_time mapping comm ~sender:s ~receiver:r in
      if abs_float (t -. reference) > tol then same := false
    done
  done;
  !same

let communication_components mapping file =
  let senders_team = Mapping.team mapping file in
  let receivers_team = Mapping.team mapping (file + 1) in
  let r_in = Array.length senders_team and r_out = Array.length receivers_team in
  let g = gcd r_in r_out in
  let u = r_in / g and v = r_out / g in
  List.init g (fun residue ->
      Communication
        {
          file;
          residue;
          u;
          v;
          senders = Array.init u (fun a -> senders_team.((residue + (a * g)) mod r_in));
          receivers = Array.init v (fun b -> receivers_team.((residue + (b * g)) mod r_out));
        })

let components mapping =
  let n = Mapping.n_stages mapping in
  let per_stage stage =
    let computes =
      Array.to_list (Mapping.team mapping stage) |> List.map (fun p -> Compute { stage; proc = p })
    in
    if stage < n - 1 then computes @ communication_components mapping stage else computes
  in
  List.concat_map per_stage (List.init n Fun.id)

(* A component's rows are [first], [first + step], ... below
   [Mapping.rows]: its processor's share of a computation column, or its
   residue class mod g of a communication column.  [replication] is
   [Mapping.replication]. *)
let row_class mapping replication = function
  | Compute { stage; proc } ->
      let r_i = replication.(stage) in
      let rec find idx =
        if idx = r_i then invalid_arg "Columns: processor not in team"
        else if Mapping.proc_at mapping ~stage ~row:idx = proc then idx
        else find (idx + 1)
      in
      (find 0, r_i)
  | Communication { file; residue; _ } ->
      (residue, gcd replication.(file) replication.(file + 1))

(* [propagate], reporting to [on_input] each component's input rate per
   row — the least rate of its rows before it — and its row count *)
let sweep mapping comps inners ~on_input =
  let m = Mapping.rows mapping in
  let replication = Mapping.replication mapping in
  let row_rate = Array.make m infinity in
  Array.iteri
    (fun k component ->
      let first, step = row_class mapping replication component in
      let count = m / step in
      let inner_per_row = inners.(k) /. float_of_int count in
      let input_rate = ref infinity in
      for i = 0 to count - 1 do
        input_rate := min !input_rate row_rate.(first + (i * step))
      done;
      on_input k ~count !input_rate;
      let rate = min inner_per_row !input_rate in
      for i = 0 to count - 1 do
        row_rate.(first + (i * step)) <- rate
      done)
    comps;
  Array.fold_left ( +. ) 0.0 row_rate

let propagate mapping comps inners = sweep mapping comps inners ~on_input:(fun _ ~count:_ _ -> ())

let fold_throughput ?pool mapping ~inner =
  let pool = match pool with Some p -> p | None -> Parallel.Pool.get () in
  let comps = Array.of_list (components mapping) in
  (* the inner solves (one CTMC per communication component) are
     independent and dominate the cost: run them on the pool, then do the
     cheap rate propagation sequentially in column order *)
  propagate mapping comps (Parallel.Pool.map pool inner comps)

(* ---- pruned folds ----

   [propagate] keeps min(inner rate per row, input rate per row) for every
   component, and it is monotone in every inner rate.  Propagating upper
   bounds therefore bounds every component's input from above, and a
   component whose lower bound per row already reaches that bound cannot
   set a row's rate: [min] returns the input whatever the exact inner
   rate, so +∞ stands in for it and the sum is the same float. *)

type bound = Exact of float | Between of { lower : float; upper : float }

let skip_margin = 1e-9

let m_bound_violations =
  Obs.Metrics.Counter.create
    ~labels:[ ("check", "pattern_bounds") ]
    ~help:"Solved values outside the bounds the paper proves for them"
    "solver_invariant_violations_total"

let within ~lower ~upper x =
  lower *. (1.0 -. skip_margin) <= x && x <= upper *. (1.0 +. skip_margin)

let fold_pruned ?pool mapping ~bound ~solve ~skip =
  let pool = match pool with Some p -> p | None -> Parallel.Pool.get () in
  let comps = Array.of_list (components mapping) in
  (* a saturated serial server completes at 1/mean under any law *)
  let bounds =
    Array.map
      (function
        | Compute { stage; proc } -> Exact (1.0 /. Mapping.comp_time mapping ~stage ~proc)
        | Communication comm -> bound comm)
      comps
  in
  let open_ = ref [] and needed = Array.make (Array.length comps) false in
  ignore
    (sweep mapping comps
       (Array.map (function Exact x -> x | Between { upper; _ } -> upper) bounds)
       ~on_input:(fun k ~count input ->
         match (bounds.(k), comps.(k)) with
         | Between { lower; _ }, Communication comm ->
             open_ := (k, comm) :: !open_;
             (* a margin far above solver error, so rounding in the exact
                solve cannot put it under the input *)
             needed.(k) <- lower /. float_of_int count *. (1.0 -. skip_margin) < input
         | Between _, Compute _ | Exact _, _ -> ()));
  let open_ = Array.of_list (List.rev !open_) in
  let values =
    Parallel.Pool.map pool
      (fun (k, comm) ->
        if needed.(k) then solve comm
        else begin
          skip comm;
          infinity
        end)
      open_
  in
  let inners = Array.map (function Exact x -> x | Between _ -> infinity) bounds in
  Array.iteri
    (fun i (k, _) ->
      inners.(k) <- values.(i);
      match bounds.(k) with
      | Between { lower; upper } when needed.(k) && not (within ~lower ~upper values.(i)) ->
          Obs.Metrics.Counter.incr m_bound_violations
      | _ -> ())
    open_;
  propagate mapping comps inners
