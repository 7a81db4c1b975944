open Petrinet

type t = {
  rates : float array;
  pi : float array;  (** stationary distribution over the recurrent class *)
  total_markings : int;
  chain : Ctmc.t;  (** generator restricted to the recurrent class *)
  initial_state : int option;  (** local index of the initial marking *)
  rec_row : int array;  (** per recurrent state, slice of [rec_via] *)
  rec_via : int array;  (** transitions enabled at each recurrent state *)
  enab : float array;  (** per transition, stationary P(enabled) *)
}

(* The reachable marking graph and its recurrent class depend only on the
   structure of the net (places, tokens), never on the transition rates, so
   they can be computed once and reused across rate assignments — this is
   what the shape cache below shares between solves.  The graph is kept as
   [Marking.explore_graph] produces it: packed codes and three flat CSR int
   arrays.  Only the net's transition count is kept, not the net, so a
   stored structure holds no firing time of the net it was walked on. *)
type structure = {
  transitions : int;  (** transitions of the explored net *)
  graph : Marking.graph;
  s_recurrent : int array;  (** global state ids of the recurrent class *)
  local : int array;  (** global id -> recurrent index, -1 if transient *)
}

(* Iterative Tarjan on the CSR adjacency; returns the component id of every
   state (components numbered in completion order, as they are popped). *)
let scc_components ~n ~row_ptr ~succ =
  let comp = Array.make n (-1) in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = Array.make n 0 in
  let sp = ref 0 in
  let next_index = ref 0 in
  let n_comps = ref 0 in
  (* explicit DFS stack: state and position in its edge slice *)
  let dfs_state = Array.make n 0 in
  let dfs_edge = Array.make n 0 in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      let top = ref 0 in
      dfs_state.(0) <- root;
      dfs_edge.(0) <- row_ptr.(root);
      index.(root) <- !next_index;
      lowlink.(root) <- !next_index;
      incr next_index;
      stack.(!sp) <- root;
      incr sp;
      on_stack.(root) <- true;
      while !top >= 0 do
        let v = dfs_state.(!top) in
        let e = dfs_edge.(!top) in
        if e < row_ptr.(v + 1) then begin
          dfs_edge.(!top) <- e + 1;
          let w = succ.(e) in
          if index.(w) < 0 then begin
            index.(w) <- !next_index;
            lowlink.(w) <- !next_index;
            incr next_index;
            stack.(!sp) <- w;
            incr sp;
            on_stack.(w) <- true;
            incr top;
            dfs_state.(!top) <- w;
            dfs_edge.(!top) <- row_ptr.(w)
          end
          else if on_stack.(w) && index.(w) < lowlink.(v) then lowlink.(v) <- index.(w)
        end
        else begin
          if lowlink.(v) = index.(v) then begin
            let c = !n_comps in
            incr n_comps;
            let continue = ref true in
            while !continue do
              decr sp;
              let w = stack.(!sp) in
              on_stack.(w) <- false;
              comp.(w) <- c;
              if w = v then continue := false
            done
          end;
          decr top;
          if !top >= 0 then begin
            let parent = dfs_state.(!top) in
            if lowlink.(v) < lowlink.(parent) then lowlink.(parent) <- lowlink.(v)
          end
        end
      done
    end
  done;
  (comp, !n_comps)

let recurrent_class ~row_ptr ~succ =
  let n = Array.length row_ptr - 1 in
  (* Bottom SCCs = recurrent classes. *)
  let component_of, n_comps = scc_components ~n ~row_ptr ~succ in
  let is_bottom = Array.make n_comps true in
  for i = 0 to n - 1 do
    for e = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      if component_of.(succ.(e)) <> component_of.(i) then is_bottom.(component_of.(i)) <- false
    done
  done;
  let bottom =
    let found = ref (-1) in
    let several = ref false in
    for c = 0 to n_comps - 1 do
      if is_bottom.(c) then if !found < 0 then found := c else several := true
    done;
    if !several || !found < 0 then begin
      (* not ergodic: no unique recurrent class — report how the states
         split between (any) bottom SCC and the transient part *)
      let recurrent = ref 0 in
      Array.iter (fun c -> if c >= 0 && is_bottom.(c) then incr recurrent) component_of;
      Supervise.Error.raise_
        (Supervise.Error.Non_ergodic { recurrent = !recurrent; transient = n - !recurrent })
    end;
    !found
  in
  let n_rec = ref 0 in
  Array.iter (fun c -> if c = bottom then incr n_rec) component_of;
  let s_recurrent = Array.make !n_rec 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    (* states in increasing id order, as the seed's [List.sort compare] *)
    if component_of.(i) = bottom then begin
      s_recurrent.(!k) <- i;
      incr k
    end
  done;
  let local = Array.make n (-1) in
  Array.iteri (fun k s -> local.(s) <- k) s_recurrent;
  (s_recurrent, local)

let structure_of_graph teg (g : Marking.graph) =
  let s_recurrent, local = recurrent_class ~row_ptr:g.Marking.row_ptr ~succ:g.Marking.succ in
  { transitions = Teg.n_transitions teg; graph = g; s_recurrent; local }

let structure ?cap ?budget ?pool teg =
  structure_of_graph teg (Marking.explore_graph ?cap ?budget ?pool teg)

let structure_states s = Marking.n_states s.graph
let structure_edges s = Array.length s.graph.Marking.succ

let rate_array s rates =
  Array.init s.transitions (fun v ->
      let r = rates v in
      if r <= 0.0 then invalid_arg (Printf.sprintf "Tpn_markov: rate of t%d not positive" v);
      r)

let build_chain s ~rates =
  let rate_array = rate_array s rates in
  let { Marking.row_ptr; succ; via; _ } = s.graph and recurrent = s.s_recurrent and local = s.local in
  let chain = Ctmc.create (Array.length recurrent) in
  Array.iter
    (fun st ->
      for e = row_ptr.(st) to row_ptr.(st + 1) - 1 do
        (* A marking-preserving firing (e.g. a transition whose only place
           is a token self-loop) is a CTMC self-loop: it does not affect
           the stationary distribution and is skipped. *)
        let j = succ.(e) in
        if local.(j) >= 0 && local.(j) <> local.(st) then
          Ctmc.add_rate chain local.(st) local.(j) rate_array.(via.(e))
      done)
    recurrent;
  (rate_array, chain)

let assemble s ~rate_array ~chain ~pi =
  let { Marking.row_ptr; via; _ } = s.graph and recurrent = s.s_recurrent and local = s.local in
  (* Per-recurrent-state enabled-transition slices, extracted from the CSR
     rows (exactly one edge per enabled firing), so the throughput queries
     below never rescan markings.  The per-transition stationary enabled
     probability accumulates in recurrent-state order — the same float
     summation order as a per-transition [Marking.is_enabled] scan. *)
  let n_rec = Array.length recurrent in
  let rec_row = Array.make (n_rec + 1) 0 in
  for k = 0 to n_rec - 1 do
    let st = recurrent.(k) in
    rec_row.(k + 1) <- rec_row.(k) + row_ptr.(st + 1) - row_ptr.(st)
  done;
  let rec_via = Array.make rec_row.(n_rec) 0 in
  for k = 0 to n_rec - 1 do
    let st = recurrent.(k) in
    Array.blit via row_ptr.(st) rec_via rec_row.(k) (row_ptr.(st + 1) - row_ptr.(st))
  done;
  let enab = Array.make s.transitions 0.0 in
  for k = 0 to n_rec - 1 do
    for e = rec_row.(k) to rec_row.(k + 1) - 1 do
      enab.(rec_via.(e)) <- enab.(rec_via.(e)) +. pi.(k)
    done
  done;
  {
    rates = rate_array;
    pi;
    total_markings = Marking.n_states s.graph;
    chain;
    initial_state = (if local.(0) >= 0 then Some local.(0) else None);
    rec_row;
    rec_via;
    enab;
  }

let analyse_with s ~rates =
  let rate_array, chain = build_chain s ~rates in
  let pi = Ctmc.stationary chain in
  assemble s ~rate_array ~chain ~pi

let analyse_with_supervised ?budget ?ladder s ~rates =
  let rate_array, chain = build_chain s ~rates in
  let pi, provenance = Ctmc.stationary_supervised ?budget ?ladder chain in
  (assemble s ~rate_array ~chain ~pi, provenance)

(* ---- symmetry quotients ----

   A place permutation σ_P that is an automorphism of the net induces a
   permutation of the reachable markings (m ↦ m ∘ σ_P⁻¹); if a matching
   transition permutation σ_T preserves rates, the orbit partition of the
   marking permutation is exactly lumpable: σ maps the edges out of x
   bijectively onto the edges out of σ(x) with equal rates, so aggregate
   rates into every orbit agree across an orbit's members.  The quotient
   chain solves at 1/|orbit| the size, and because the permuted chain is
   the same chain, π ∘ σ = π: stationary mass is constant on each orbit,
   which makes the uniform lift of [Ctmc.lift] exact, not just
   class-sum-correct. *)

let state_permutation s ~place_perm =
  let g = s.graph in
  let c = g.Marking.codec in
  let w = Marking.words c in
  let index = Marking.index g in
  let image = Array.make w 0 in
  Array.init (Marking.n_states g) (fun i ->
      let j =
        if Marking.permute c ~place_perm g.Marking.codes (i * w) ~into:image then Marking.find index image
        else -1
      in
      if j < 0 then
        Supervise.Error.raise_
          (Supervise.Error.Numerical
             {
               what = Printf.sprintf "place permutation maps marking %d outside the reachable set" i;
               where = "Tpn_markov.state_permutation";
             });
      j)

let orbit_partition s ~state_perm =
  let { s_recurrent = recurrent; local; _ } = s in
  let n_rec = Array.length recurrent in
  let classes = Array.make n_rec (-1) in
  let n_classes = ref 0 in
  for k = 0 to n_rec - 1 do
    if classes.(k) < 0 then begin
      let c = !n_classes in
      incr n_classes;
      let g = ref recurrent.(k) in
      let continue = ref true in
      while !continue do
        let l = local.(!g) in
        if l < 0 then
          Supervise.Error.raise_
            (Supervise.Error.Numerical
               {
                 what = "automorphism does not preserve the recurrent class";
                 where = "Tpn_markov.orbit_partition";
               });
        if classes.(l) >= 0 then continue := false
        else begin
          classes.(l) <- c;
          g := state_perm.(!g)
        end
      done
    end
  done;
  (classes, !n_classes)

type lump_stats = { lump_states : int; lump_classes : int }

let m_lumped_analyses =
  Obs.Metrics.Counter.create ~help:"Stationary analyses solved on a symmetry quotient"
    "tpn_lumped_analyses_total"

let analyse_with_lumped ?budget ?ladder s ~rates ~place_perm ~trans_perm =
  Obs.Trace.span "ctmc:analyse_lumped" (fun () ->
      let rate_array = rate_array s rates in
      let n_trans = Array.length rate_array in
      (* lumpability needs the symmetry to preserve rates exactly *)
      for v = 0 to n_trans - 1 do
        if rate_array.(trans_perm.(v)) <> rate_array.(v) then
          Supervise.Error.raise_
            (Supervise.Error.Numerical
               {
                 what = Printf.sprintf "rates are not invariant under the symmetry at t%d" v;
                 where = "Tpn_markov.analyse_with_lumped";
               })
      done;
      let state_perm = state_permutation s ~place_perm in
      let classes, n_classes = orbit_partition s ~state_perm in
      let { Marking.row_ptr; succ; via; _ } = s.graph and recurrent = s.s_recurrent and local = s.local in
      let n_rec = Array.length recurrent in
      (* quotient generator straight from class-representative CSR rows —
         the full n_rec-state chain is never materialised *)
      let q = Ctmc.create n_classes in
      let reps = Array.make n_classes (-1) in
      for k = 0 to n_rec - 1 do
        let c = classes.(k) in
        if reps.(c) < 0 then reps.(c) <- k
      done;
      let acc = Array.make n_classes 0.0 in
      let touched = Array.make n_classes 0 in
      for c = 0 to n_classes - 1 do
        let st = recurrent.(reps.(c)) in
        let nt = ref 0 in
        for e = row_ptr.(st) to row_ptr.(st + 1) - 1 do
          let lj = local.(succ.(e)) in
          if lj >= 0 then begin
            let c' = classes.(lj) in
            if c' <> c then begin
              if acc.(c') = 0.0 then begin
                touched.(!nt) <- c';
                incr nt
              end;
              acc.(c') <- acc.(c') +. rate_array.(via.(e))
            end
          end
        done;
        for i = 0 to !nt - 1 do
          Ctmc.add_rate q c touched.(i) acc.(touched.(i));
          acc.(touched.(i)) <- 0.0
        done
      done;
      let pi_hat, provenance = Ctmc.stationary_supervised ?budget ?ladder q in
      let pi = Ctmc.lift ~classes ~n_classes pi_hat in
      Obs.Metrics.Counter.incr m_lumped_analyses;
      Obs.Trace.add_attr "states" (string_of_int n_rec);
      Obs.Trace.add_attr "classes" (string_of_int n_classes);
      (* [initial_state] indexes [chain], which is now the quotient:
         transient analysis is not preserved by lumping, so it is off *)
      let t = { (assemble s ~rate_array ~chain:q ~pi) with initial_state = None } in
      (t, provenance, { lump_states = n_rec; lump_classes = n_classes }))

let analyse_supervised ?cap ?budget ?ladder ~rates teg =
  analyse_with_supervised ?budget ?ladder (structure ?cap ?budget teg) ~rates

let n_markings t = t.total_markings
let n_recurrent t = Array.length t.pi
let enabled_probability t v = t.enab.(v)
let firing_rate t v = t.rates.(v) *. enabled_probability t v
let throughput_of t vs = List.fold_left (fun acc v -> acc +. firing_rate t v) 0.0 vs

let stationary_distribution t = Array.copy t.pi

let expected_firings ?tol t ~horizon transitions =
  match t.initial_state with
  | None ->
      invalid_arg "Tpn_markov.expected_firings: the initial marking is transient"
  | Some initial ->
      let occupancy = Transient.occupancy ?tol t.chain ~initial ~horizon in
      List.fold_left
        (fun acc v ->
          let time_enabled = ref 0.0 in
          for k = 0 to Array.length t.pi - 1 do
            for e = t.rec_row.(k) to t.rec_row.(k + 1) - 1 do
              if t.rec_via.(e) = v then time_enabled := !time_enabled +. occupancy.(k)
            done
          done;
          acc +. (t.rates.(v) *. !time_enabled))
        0.0 transitions

(* ---- the shape cache ----

   One bounded table of completed walks, shared by every solver whose net
   shape recurs: the u×v patterns of [Young.Pattern] and the Strict nets
   of [Streaming.Tpn].  A walk runs outside the lock, so a slow
   exploration never blocks a lookup; two domains that miss on one key
   both walk and store equal values, and the second store is dropped.  An
   entry's size is measured once, when it is stored, and the least
   recently used entries leave until the new one fits.  An eviction scans
   the table for its victim, which is cheap at the few hundred shapes a
   process meets. *)

type net = Pattern of { u : int; v : int } | Strict of int array
type shape = { structure : structure; expansion : Expand.t option }

let shape_capacity_words = 8 * 1024 * 1024

let walk_shape ?cap ?budget ?pool teg ~phases =
  if phases = 1 then { structure = structure ?cap ?budget ?pool teg; expansion = None }
  else
    let e = Expand.erlang ~phases:(fun _ -> phases) teg in
    { structure = structure ?cap ?budget ?pool (Expand.teg e); expansion = Some e }

(* an expansion into one phase would leave the rates and outputs as they
   are, so the net itself carries none *)
let shape_rates shape ~original_rate outputs =
  match shape.expansion with
  | None -> (original_rate, outputs)
  | Some e -> (Expand.phase_rates e ~original_rate, List.map (Expand.last e) outputs)

(* the one key derivation: family, phases, then the dimensions, each a
   fixed-width int after its count, so the encoding is prefix-free *)
let shape_key net ~phases =
  let family, dims = match net with Pattern { u; v } -> (0, [| u; v |]) | Strict r -> (1, r) in
  let n = Array.length dims in
  let b = Bytes.create (8 * (3 + n)) in
  Bytes.set_int64_le b 0 (Int64.of_int family);
  Bytes.set_int64_le b 8 (Int64.of_int phases);
  Bytes.set_int64_le b 16 (Int64.of_int n);
  for i = 0 to n - 1 do
    Bytes.set_int64_le b (8 * (3 + i)) (Int64.of_int dims.(i))
  done;
  Bytes.unsafe_to_string b

type entry = { shape : shape; states : int; words : int; mutable used : int }

let shapes : (string, entry) Hashtbl.t = Hashtbl.create 64
let shapes_mutex = Mutex.create ()
let stored_words = ref 0
let tick = ref 0

let m_shape_hits =
  Obs.Metrics.Counter.create ~help:"Shape-cache lookups answered by a stored walk"
    "shape_cache_hits_total"

let m_shape_misses =
  Obs.Metrics.Counter.create ~help:"Shape-cache lookups that walked the net"
    "shape_cache_misses_total"

let m_shape_evictions =
  Obs.Metrics.Counter.create ~help:"Walks the shape cache dropped to stay within its bound"
    "shape_cache_evictions_total"

let g_shape_words =
  Obs.Metrics.Gauge.create ~help:"Words held by the shape cache's walks" "shape_cache_words"

let with_shapes f =
  Mutex.lock shapes_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock shapes_mutex) f

let set_stored words =
  stored_words := words;
  Obs.Metrics.Gauge.set g_shape_words (float_of_int words)

let lookup key ~cap =
  with_shapes (fun () ->
      match Hashtbl.find_opt shapes key with
      | Some e when e.states <= cap ->
          incr tick;
          e.used <- !tick;
          Some e.shape
      | _ -> None)

let evict_lru () =
  let victim =
    Hashtbl.fold
      (fun k e acc -> match acc with Some (_, u) when u <= e.used -> acc | _ -> Some (k, e.used))
      shapes None
  in
  Option.iter
    (fun (k, _) ->
      set_stored (!stored_words - (Hashtbl.find shapes k).words);
      Hashtbl.remove shapes k;
      Obs.Metrics.Counter.incr m_shape_evictions)
    victim

let store key shape =
  let words = Obj.reachable_words (Obj.repr shape) in
  if words <= shape_capacity_words then
    with_shapes (fun () ->
        if not (Hashtbl.mem shapes key) then begin
          while !stored_words + words > shape_capacity_words do
            evict_lru ()
          done;
          incr tick;
          Hashtbl.add shapes key
            { shape; states = structure_states shape.structure; words; used = !tick };
          set_stored (!stored_words + words)
        end)

let cached_shape ?cap ?budget net ~phases ~walk =
  let key = shape_key net ~phases in
  match lookup key ~cap:(Marking.effective_cap ?cap ?budget ()) with
  | Some shape ->
      Obs.Metrics.Counter.incr m_shape_hits;
      (* the wall poll a walk makes at its first state *)
      Option.iter Supervise.Budget.check budget;
      shape
  | None ->
      Obs.Metrics.Counter.incr m_shape_misses;
      let shape = walk () in
      store key shape;
      shape

type shape_stats = { entries : int; words : int; hits : int; misses : int; evictions : int }

let shape_stats () =
  with_shapes (fun () ->
      {
        entries = Hashtbl.length shapes;
        words = !stored_words;
        hits = Obs.Metrics.Counter.value m_shape_hits;
        misses = Obs.Metrics.Counter.value m_shape_misses;
        evictions = Obs.Metrics.Counter.value m_shape_evictions;
      })

let clear_shapes () =
  with_shapes (fun () ->
      Hashtbl.reset shapes;
      set_stored 0)
