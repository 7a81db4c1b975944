open Petrinet

(* A product over the marking graph: a state is a marking id, then the
   phases of the transitions of its CSR row, packed in row order into bit
   fields that never straddle a 62-bit word.  Breadth first, per state:
   transitions in increasing order, each one's phase jumps before its
   completion; newly enabled transitions draw starting phases in
   lexicographic order.  Each edge has a rate and the transition it
   completes (-1 for a phase jump). *)

type t = {
  n_states : int;
  completion : float array;  (** per transition *)
  provenance : Supervise.Provenance.t;
}

(* bits that hold the phases 0 .. n-1 *)
let rec bits n = if n <= 1 then 0 else 1 + bits ((n + 1) / 2)

(* [a.(i) <- x], doubling [a] when [i] is past its end *)
let push a i x =
  if i = Array.length !a then begin
    let b = Array.make (2 * i) x in
    Array.blit !a 0 b 0 i;
    a := b
  end;
  !a.(i) <- x

let analyse ?(cap = 500_000) ?budget ~ph_of teg =
  let cap = match budget with None -> cap | Some b -> Supervise.Budget.cap_allowed b cap in
  let laws = Array.init (Teg.n_transitions teg) ph_of in
  Array.iteri
    (fun v law ->
      match Ph.validate law with
      | Ok () -> ()
      | Error msg -> invalid_arg (Printf.sprintf "Tpn_markov_ph: law of t%d: %s" v msg))
    laws;
  (* every marking is in some product state: the walk shares the cap *)
  let { Marking.row_ptr; succ; via; _ } = Marking.explore_graph ~cap ?budget teg in
  (* the phase field of edge [e] in its source marking's codes *)
  let width = Array.map (fun law -> bits (Ph.n_phases law)) laws in
  let e_word = Array.make (Array.length via) 1 and e_shift = Array.make (Array.length via) 0 in
  let words = ref 2 and widest = ref 0 in
  for m = 0 to Array.length row_ptr - 2 do
    widest := max !widest (row_ptr.(m + 1) - row_ptr.(m));
    let w = ref 1 and used = ref 0 in
    for e = row_ptr.(m) to row_ptr.(m + 1) - 1 do
      let b = width.(via.(e)) in
      if !used + b > 62 then begin
        incr w;
        used := 0
      end;
      e_word.(e) <- !w;
      e_shift.(e) <- !used;
      used := !used + b
    done;
    words := max !words (!w + 1)
  done;
  let words = !words in
  let get code e = (code.(e_word.(e)) lsr e_shift.(e)) land ((1 lsl width.(via.(e))) - 1) in
  let set code e x =
    let i = e_word.(e) and s = e_shift.(e) in
    code.(i) <- code.(i) land lnot (((1 lsl width.(via.(e))) - 1) lsl s) lor (x lsl s)
  in
  let seen = Marking.store ~words in
  let parent = Array.make words 0 and next = Array.make words 0 in
  let row = ref [| 0 |] and dst = ref [| 0 |] in
  let rate = ref [| 0.0 |] and completes = ref [| 0 |] in
  let n_edges = ref 0 in
  let edge r v =
    push dst !n_edges (Marking.intern seen ~cap ?budget next);
    push rate !n_edges r;
    push completes !n_edges v;
    incr n_edges
  in
  (* [f prob] for each joint starting phase of the edges [newly.(i .. k-1)] *)
  let newly = Array.make !widest 0 in
  let rec draw k i prob f =
    if i = k then f prob
    else
      Array.iteri
        (fun phase p ->
          if p > 0.0 then begin
            set next newly.(i) phase;
            draw k (i + 1) (prob *. p) f
          end)
        laws.(via.(newly.(i))).Ph.initial
  in
  for e = row_ptr.(0) to row_ptr.(1) - 1 do
    newly.(e) <- e
  done;
  draw row_ptr.(1) 0 1.0 (fun _ -> ignore (Marking.intern seen ~cap ?budget next));
  let head = ref 0 in
  while !head < Marking.stored seen do
    Marking.load seen !head parent;
    push row !head !n_edges;
    let m = parent.(0) in
    for e = row_ptr.(m) to row_ptr.(m + 1) - 1 do
      let v = via.(e) in
      let law = laws.(v) and phase = get parent e in
      Array.iteri
        (fun j r ->
          if j <> phase && r > 0.0 then begin
            Array.blit parent 0 next 0 words;
            set next e j;
            edge r (-1)
          end)
        law.Ph.jump.(phase);
      let ex = law.Ph.exit.(phase) in
      if ex > 0.0 then begin
        (* in an event graph firing [v] disables no other transition: they
           keep their phases, [v] and the newly enabled ones draw theirs *)
        let m' = succ.(e) in
        Array.fill next 0 words 0;
        next.(0) <- m';
        let k = ref 0 and before = ref row_ptr.(m) in
        for e' = row_ptr.(m') to row_ptr.(m' + 1) - 1 do
          let w = via.(e') in
          while !before < row_ptr.(m + 1) && via.(!before) < w do
            incr before
          done;
          if w <> v && !before < row_ptr.(m + 1) && via.(!before) = w then set next e' (get parent !before)
          else begin
            newly.(!k) <- e';
            incr k
          end
        done;
        draw !k 0 1.0 (fun prob -> edge (ex *. prob) v)
      end
    done;
    incr head
  done;
  push row !head !n_edges;
  let row = Array.sub !row 0 (!head + 1) and dst = !dst and rate = !rate and completes = !completes in
  let recurrent, local = Tpn_markov.recurrent_class ~row_ptr:row ~succ:dst in
  let chain = Ctmc.create (Array.length recurrent) in
  Array.iteri
    (fun k s ->
      for e = row.(s) to row.(s + 1) - 1 do
        let j = local.(dst.(e)) in
        if j <> k then Ctmc.add_rate chain k j rate.(e)
      done)
    recurrent;
  let pi, provenance = Ctmc.stationary_supervised ?budget chain in
  let completion = Array.make (Array.length laws) 0.0 in
  Array.iteri
    (fun k s ->
      for e = row.(s) to row.(s + 1) - 1 do
        let v = completes.(e) in
        if v >= 0 then completion.(v) <- completion.(v) +. (pi.(k) *. rate.(e))
      done)
    recurrent;
  { n_states = !head; completion; provenance }

let n_states t = t.n_states
let provenance t = t.provenance
let completion_rate t v = t.completion.(v)
let throughput_of t vs = List.fold_left (fun acc v -> acc +. completion_rate t v) 0.0 vs
