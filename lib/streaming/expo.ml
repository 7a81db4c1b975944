(* Theorem 7's sandwich for a pattern with N.B.U.E. times (exponential or
   Erlang): Theorem 4's closed form at the slowest link below — an event
   graph's throughput cannot fall when a firing time shrinks, and the
   exponential value sits below every N.B.U.E. law's — and the
   deterministic value above. *)
let pattern_bounds mapping comm =
  let u = comm.Columns.u and v = comm.Columns.v in
  let time ~sender ~receiver = Columns.pattern_time mapping comm ~sender ~receiver in
  let slowest = ref 0.0 in
  for sender = 0 to u - 1 do
    for receiver = 0 to v - 1 do
      slowest := Float.max !slowest (time ~sender ~receiver)
    done
  done;
  Columns.Between
    {
      lower = Young.Pattern.homogeneous_inner_throughput ~u ~v ~lambda:(1.0 /. !slowest);
      upper = Young.Pattern.deterministic_inner_throughput ~u ~v ~time;
    }

let pattern_rate mapping comm ~sender ~receiver =
  1.0 /. Columns.pattern_time mapping comm ~sender ~receiver

let m_skipped law =
  Obs.Metrics.Counter.create
    ~labels:[ ("law", law) ]
    ~help:"Pattern solves skipped because their bounds cannot set the throughput"
    "pattern_solves_skipped_total"

let m_skipped_exponential = m_skipped "exponential"

(* a skipped pattern still walks its shape (or finds it cached), so one
   past the cap raises as its solve would have *)
let skip_pattern ?pattern_cap ~phases ~skipped comm =
  Young.Pattern.prepare_shape ?cap:pattern_cap ~phases ~u:comm.Columns.u ~v:comm.Columns.v ();
  Obs.Metrics.Counter.incr skipped

let overlap_throughput ?pool ?pattern_cap ?(closed_form_only = false) mapping =
  let bound comm =
    let u = comm.Columns.u and v = comm.Columns.v in
    if Columns.is_homogeneous mapping comm then
      let lambda = 1.0 /. Columns.pattern_time mapping comm ~sender:0 ~receiver:0 in
      Columns.Exact (Young.Pattern.homogeneous_inner_throughput ~u ~v ~lambda)
    else if closed_form_only then
      invalid_arg "Expo.overlap_throughput: heterogeneous component under closed_form_only"
    else pattern_bounds mapping comm
  in
  Columns.fold_pruned ?pool mapping ~bound
    ~solve:(fun comm ->
      Young.Pattern.exponential_inner_throughput ?cap:pattern_cap ~u:comm.Columns.u
        ~v:comm.Columns.v ~rate:(pattern_rate mapping comm) ())
    ~skip:(skip_pattern ?pattern_cap ~phases:1 ~skipped:m_skipped_exponential)

(* The Strict net's places and tokens come from the replication vector
   alone, so its walk — on the net, or on its Erlang expansion — is taken
   from the shape cache under that key; only the rates are the
   mapping's. *)
let strict_shape ?cap ?budget ~phases tpn =
  Markov.Tpn_markov.cached_shape ?cap ?budget
    (Markov.Tpn_markov.Strict (Mapping.replication (Tpn.mapping tpn)))
    ~phases
    ~walk:(fun () -> Markov.Tpn_markov.walk_shape ?cap ?budget (Tpn.teg tpn) ~phases)

(* Theorem 2's general method on the cached walk: the escalation ladder on
   the recurrent class *)
let strict_solve ?cap ?budget ~phases mapping =
  let tpn = Tpn.build mapping Model.Strict in
  let teg = Tpn.teg tpn in
  let shape = strict_shape ?cap ?budget ~phases tpn in
  let rates, outputs =
    Markov.Tpn_markov.shape_rates shape
      ~original_rate:(fun v -> 1.0 /. Petrinet.Teg.time teg v)
      (Tpn.last_column tpn)
  in
  let chain, provenance =
    Markov.Tpn_markov.analyse_with_supervised ?budget shape.Markov.Tpn_markov.structure ~rates
  in
  (Markov.Tpn_markov.throughput_of chain outputs, provenance)

let strict_throughput ?cap mapping = fst (strict_solve ?cap ~phases:1 mapping)

let m_des_fallback =
  Obs.Metrics.Counter.create
    ~help:"Supervised strict solves that degraded to the DES simulation rung"
    "expo_des_fallback_total"

(* Supervised variant: the exact/iterative pipeline runs under a budget and
   the escalation ladder; if the whole ladder fails (or the state space
   blows the cap) and a [simulate] rung is supplied, the result degrades
   to a simulation estimate instead of an exception. *)
let strict_throughput_supervised ?cap ?budget ?simulate mapping =
  Obs.Trace.span "expo:strict_supervised" @@ fun () ->
  try strict_solve ?cap ?budget ~phases:1 mapping
  with Supervise.Error.Solver_error err as exn -> (
    match simulate with
    | None -> raise exn
    | Some sim ->
        let prior =
          [ { Supervise.Provenance.rung = "general-method"; outcome = Error err } ]
        in
        Obs.Metrics.Counter.incr m_des_fallback;
        let value, ci =
          Obs.Trace.span "expo:des_fallback" (fun () -> sim ())
        in
        (value, Supervise.Provenance.solved ~rung:"des" ~prior (Supervise.Provenance.Simulated { ci })))

(* Bound every row-forward place of the Overlap TPN by a back-place with
   [buffer] tokens: the marking space becomes finite, at the price of a
   blocking semantics that underestimates the true throughput (the gap
   vanishes as the buffer grows). *)
let bound_row_places tpn ~buffer =
  let teg = Tpn.teg tpn in
  let forward =
    List.filter
      (fun p ->
        (* row-forward places: same row, next column (ring places stay in
           one column, self-loops are excluded by the column test) *)
        Tpn.row_of tpn p.Petrinet.Teg.src = Tpn.row_of tpn p.Petrinet.Teg.dst
        && Tpn.col_of tpn p.Petrinet.Teg.dst = Tpn.col_of tpn p.Petrinet.Teg.src + 1)
      (Petrinet.Teg.places teg)
  in
  List.iter
    (fun p -> Petrinet.Teg.add_place teg ~src:p.Petrinet.Teg.dst ~dst:p.Petrinet.Teg.src ~tokens:buffer)
    forward

(* the general method on a fresh walk: a bounded Overlap net is no shape
   the cache knows *)
let general_throughput ?cap ?(buffer = 4) mapping model =
  let tpn = Tpn.build mapping model in
  (match model with
  | Model.Overlap -> bound_row_places tpn ~buffer
  | Model.Strict -> ());
  let teg = Tpn.teg tpn in
  let chain, _ =
    Markov.Tpn_markov.analyse_supervised ?cap ~rates:(fun v -> 1.0 /. Petrinet.Teg.time teg v) teg
  in
  Markov.Tpn_markov.throughput_of chain (Tpn.last_column tpn)

let overlap_throughput_erlang ?pool ?pattern_cap ~phases mapping =
  if phases < 1 then invalid_arg "Expo.overlap_throughput_erlang: phases must be at least 1";
  Columns.fold_pruned ?pool mapping ~bound:(pattern_bounds mapping)
    ~solve:(fun comm ->
      Young.Pattern.erlang_inner_throughput ?cap:pattern_cap ~phases ~u:comm.Columns.u
        ~v:comm.Columns.v ~rate:(pattern_rate mapping comm) ())
    ~skip:
      (skip_pattern ?pattern_cap ~phases ~skipped:(m_skipped (Printf.sprintf "erlang:%d" phases)))

let strict_throughput_erlang_supervised ?cap ?budget ~phases mapping =
  if phases < 1 then invalid_arg "Expo.strict_throughput_erlang: phases must be at least 1";
  strict_solve ?cap ?budget ~phases mapping

let overlap_throughput_ph ?pool ?pattern_cap ~ph mapping =
  let inner = function
    | Columns.Compute { stage; proc } ->
        (* a saturated single server completes at 1/mean for any law *)
        1.0 /. Mapping.comp_time mapping ~stage ~proc
    | Columns.Communication comm ->
        Young.Pattern.ph_inner_throughput ?cap:pattern_cap ~u:comm.Columns.u ~v:comm.Columns.v
          ~ph:(fun ~sender ~receiver ->
            ph (Resource.Transfer (comm.Columns.senders.(sender), comm.Columns.receivers.(receiver))))
          ()
  in
  Columns.fold_throughput ?pool mapping ~inner

let strict_throughput_ph_supervised ?cap ?budget ~ph mapping =
  let tpn = Tpn.build mapping Model.Strict in
  let chain =
    Markov.Tpn_markov_ph.analyse ?cap ?budget
      ~ph_of:(fun v -> ph (Tpn.resource_of tpn v))
      (Tpn.teg tpn)
  in
  ( Markov.Tpn_markov_ph.throughput_of chain (Tpn.last_column tpn),
    Markov.Tpn_markov_ph.provenance chain )
