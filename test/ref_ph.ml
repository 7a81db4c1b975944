(* The reference phase-augmented explorer the product walk of
   [Markov.Tpn_markov_ph] is checked against: (marking, phases) records in
   a hash table, a (src, dst, rate) edge list, [Graphs.Digraph] SCCs and
   the unsupervised stationary solve, as the module stood before it moved
   onto the packed marking graph. *)

open Markov
open Petrinet

type state = { marking : Marking.t; phases : int array  (** -1 when disabled *) }

type t = {
  states : state array;  (** recurrent class *)
  pi : float array;
  laws : Ph.t array;
  total_states : int;
}

module Table = Hashtbl.Make (struct
  type t = state

  let equal a b = a.marking = b.marking && a.phases = b.phases
  let hash s = Hashtbl.hash (Array.to_list s.marking, Array.to_list s.phases)
end)

(* all (probability, phase assignment patch) combinations for the newly
   enabled transitions, each drawing from its law's initial distribution *)
let initial_assignments laws newly =
  List.fold_left
    (fun acc v ->
      let options =
        Array.to_list laws.(v).Ph.initial
        |> List.mapi (fun phase p -> (phase, p))
        |> List.filter (fun (_, p) -> p > 0.0)
      in
      List.concat_map
        (fun (prob, patch) ->
          List.map (fun (phase, p) -> (prob *. p, (v, phase) :: patch)) options)
        acc)
    [ (1.0, []) ]
    newly

let analyse ?(cap = 500_000) ?budget ~ph_of teg =
  let cap = match budget with None -> cap | Some b -> Supervise.Budget.cap_allowed b cap in
  let n_trans = Teg.n_transitions teg in
  let laws = Array.init n_trans ph_of in
  Array.iteri
    (fun v law ->
      match Ph.validate law with
      | Ok () -> ()
      | Error msg -> invalid_arg (Printf.sprintf "Tpn_markov_ph: law of t%d: %s" v msg))
    laws;
  (* breadth-first construction of the (marking, phases) chain *)
  let index = Table.create 1024 in
  let states = ref [] in
  let count = ref 0 in
  let queue = Queue.create () in
  let edges = ref [] in
  (* (src, dst, rate) *)
  let register s =
    match Table.find_opt index s with
    | Some i -> i
    | None ->
        if !count >= cap then
          Supervise.Error.raise_
            (Supervise.Error.State_space_exceeded { cap; explored = !count });
        (match budget with
        | Some b when !count land 1023 = 0 -> Supervise.Budget.check b
        | _ -> ());
        let i = !count in
        Table.add index s i;
        incr count;
        states := s :: !states;
        Queue.add (s, i) queue;
        i
  in
  (* initial states: initial marking, enabled transitions draw their
     starting phases *)
  let m0 = Marking.initial teg in
  let enabled0 = Marking.enabled teg m0 in
  let base_phases = Array.make n_trans (-1) in
  List.iter
    (fun (_, patch) ->
      let phases = Array.copy base_phases in
      List.iter (fun (v, phase) -> phases.(v) <- phase) patch;
      ignore (register { marking = m0; phases }))
    (initial_assignments laws enabled0);
  while not (Queue.is_empty queue) do
    let s, i = Queue.pop queue in
    Array.iteri
      (fun v phase ->
        if phase >= 0 then begin
          let law = laws.(v) in
          (* phase jumps *)
          Array.iteri
            (fun j r ->
              if j <> phase && r > 0.0 then begin
                let phases = Array.copy s.phases in
                phases.(v) <- j;
                let dst = register { marking = s.marking; phases } in
                edges := (i, dst, r) :: !edges
              end)
            law.Ph.jump.(phase);
          (* completion *)
          let ex = law.Ph.exit.(phase) in
          if ex > 0.0 then begin
            let m' = Marking.fire teg s.marking v in
            let enabled' = Marking.enabled teg m' in
            (* transitions other than v keep their phase; v and the
               freshly enabled ones restart *)
            (* the event-graph property (one consumer per place) means
               firing v can never disable another enabled transition, so
               running phases are simply kept *)
            let kept = Array.copy s.phases in
            kept.(v) <- -1;
            let newly = List.filter (fun w -> kept.(w) < 0) enabled' in
            List.iter
              (fun (prob, patch) ->
                let phases = Array.copy kept in
                List.iter (fun (w, phase') -> phases.(w) <- phase') patch;
                let dst = register { marking = m'; phases } in
                edges := (i, dst, ex *. prob) :: !edges)
              (initial_assignments laws newly)
          end
        end)
      s.phases
  done;
  let n = !count in
  let all_states = Array.of_list (List.rev !states) in
  (* recurrent class via bottom SCC, as in Tpn_markov *)
  let graph = Graphs.Digraph.create n in
  List.iter
    (fun (src, dst, _) -> Graphs.Digraph.add_edge graph ~src ~dst ~weight:0.0 ~tokens:0 ())
    !edges;
  let components = Graphs.Digraph.sccs graph in
  let component_of = Array.make n (-1) in
  List.iteri (fun c nodes -> List.iter (fun s -> component_of.(s) <- c) nodes) components;
  let is_bottom = Array.make (List.length components) true in
  List.iter
    (fun (src, dst, _) ->
      if component_of.(src) <> component_of.(dst) then is_bottom.(component_of.(src)) <- false)
    !edges;
  let bottoms = List.filteri (fun c _ -> is_bottom.(c)) components in
  let recurrent_states =
    match bottoms with
    | [ nodes ] -> List.sort compare nodes
    | _ ->
        let recurrent = List.fold_left (fun acc nodes -> acc + List.length nodes) 0 bottoms in
        Supervise.Error.raise_
          (Supervise.Error.Non_ergodic { recurrent; transient = n - recurrent })
  in
  let recurrent = Array.of_list recurrent_states in
  let local = Array.make n (-1) in
  Array.iteri (fun k s -> local.(s) <- k) recurrent;
  let chain = Ctmc.create (Array.length recurrent) in
  List.iter
    (fun (src, dst, rate) ->
      if local.(src) >= 0 && local.(dst) >= 0 && local.(src) <> local.(dst) then
        Ctmc.add_rate chain local.(src) local.(dst) rate)
    !edges;
  let pi = Ctmc.stationary chain in
  { states = Array.map (fun s -> all_states.(s)) recurrent; pi; laws; total_states = n }

let n_states t = t.total_states

let completion_rate t v =
  let acc = ref 0.0 in
  Array.iteri
    (fun k s ->
      let phase = s.phases.(v) in
      if phase >= 0 then acc := !acc +. (t.pi.(k) *. t.laws.(v).Ph.exit.(phase)))
    t.states;
  !acc

let throughput_of t vs = List.fold_left (fun acc v -> acc +. completion_rate t v) 0.0 vs
