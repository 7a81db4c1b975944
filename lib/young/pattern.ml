let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let check u v =
  if u < 1 || v < 1 then invalid_arg "Pattern: u and v must be at least 1";
  if gcd u v <> 1 then invalid_arg "Pattern: u and v must be coprime"

let transition_of ~u ~v k = (k mod u, k mod v)

let build ~u ~v ~time =
  check u v;
  let n = u * v in
  let labels =
    Array.init n (fun k ->
        let s, r = transition_of ~u ~v k in
        Printf.sprintf "xfer(s%d->r%d,k%d)" s r k)
  in
  let times =
    Array.init n (fun k ->
        let s, r = transition_of ~u ~v k in
        time ~sender:s ~receiver:r)
  in
  let teg = Petrinet.Teg.create ~labels ~times in
  let add_ring members =
    let k = Array.length members in
    for l = 0 to k - 1 do
      Petrinet.Teg.add_place teg ~src:members.(l) ~dst:members.((l + 1) mod k)
        ~tokens:(if l = k - 1 then 1 else 0)
    done
  in
  (* one-port rings: each sender's v transfers, each receiver's u ones *)
  for s = 0 to u - 1 do
    add_ring (Array.init v (fun i -> s + (i * u)))
  done;
  for r = 0 to v - 1 do
    add_ring (Array.init u (fun i -> r + (i * v)))
  done;
  teg

(* ---- direct Young-lattice enumeration ----

   The reachable markings of the pattern are pairs of Young diagrams
   (Theorem 3); operationally, every serialisation ring carries exactly one
   token, so a marking is fully described by the *position* of the token in
   each of the u sender rings and v receiver rings.  The enumerator below
   walks that lattice directly on a packed (positions) code — u fields of
   width ⌈log₂ v⌉ and v fields of width ⌈log₂ u⌉ — instead of running the
   generic breadth-first search over the 2·u·v-place marking vector:
   transition k is enabled iff sender ring [k mod u] sits one slot before k
   and receiver ring [k mod v] likewise, and firing k advances both rings.
   Traversal order (breadth-first, transitions in increasing k) matches
   [Marking.explore_graph] exactly, and the states are emitted in the
   generic explorer's marking codes, so the resulting graph — codec,
   codes, order and edges — is identical to the generic one, just cheaper
   to produce. *)

let nbits bound =
  let rec go b acc = if b = 0 then max acc 1 else go (b lsr 1) (acc + 1) in
  go bound 0

(* The lattice walk can only decline for one reason today (position code
   wider than a machine int), but the reason label keeps the Prometheus
   series extensible — and the fallback visible, where it used to be a
   silent [None]. *)
let m_lattice_fallback =
  Obs.Metrics.Counter.create
    ~labels:[ ("reason", "code-width") ]
    ~help:"Young-lattice direct enumerations that fell back to generic BFS"
    "young_lattice_fallback_total"

let young_graph ?(cap = 200_000) ?budget ~u ~v () =
  check u v;
  let n = u * v in
  let pw = nbits (v - 1) and qw = nbits (u - 1) in
  if (u * pw) + (v * qw) > 62 then begin
    Obs.Metrics.Counter.incr m_lattice_fallback;
    None
  end
  else begin
    let cap = match budget with None -> cap | Some b -> Supervise.Budget.cap_allowed b cap in
    let p_shift = Array.init u (fun s -> s * pw) in
    let q_shift = Array.init v (fun r -> (u * pw) + (r * qw)) in
    let p_mask = (1 lsl pw) - 1 and q_mask = (1 lsl qw) - 1 in
    (* per transition k: the ring fields it reads and the positions they
       must hold for k to be enabled, and the positions firing k writes *)
    let sender = Array.init n (fun k -> k mod u) in
    let receiver = Array.init n (fun k -> k mod v) in
    let p_next = Array.init n (fun k -> k / u) in
    let q_next = Array.init n (fun k -> k / v) in
    let p_need = Array.init n (fun k -> ((k / u) - 1 + v) mod v) in
    let q_need = Array.init n (fun k -> ((k / v) - 1 + u) mod u) in
    let initial =
      let c = ref 0 in
      for s = 0 to u - 1 do
        c := !c lor ((v - 1) lsl p_shift.(s))
      done;
      for r = 0 to v - 1 do
        c := !c lor ((u - 1) lsl q_shift.(r))
      done;
      !c
    in
    let codes = ref (Array.make 1024 0) in
    let count = ref 0 in
    let index : (int, int) Hashtbl.t = Hashtbl.create 1024 in
    let succ = ref (Array.make 1024 0) in
    let via = ref (Array.make 1024 0) in
    let n_edges = ref 0 in
    let row_ptr = ref (Array.make 1025 0) in
    let push_state code =
      match Hashtbl.find_opt index code with
      | Some id -> id
      | None ->
          if !count >= cap then
            Supervise.Error.raise_
              (Supervise.Error.State_space_exceeded { cap; explored = !count });
          (* the explorers' wall-deadline cadence *)
          (match budget with
          | Some b when !count land (Petrinet.Marking.budget_poll_stride - 1) = 0 ->
              Supervise.Budget.check b
          | _ -> ());
          let id = !count in
          if id = Array.length !codes then begin
            let a = Array.make (2 * id) 0 in
            Array.blit !codes 0 a 0 id;
            codes := a;
            let rp = Array.make ((2 * id) + 1) 0 in
            Array.blit !row_ptr 0 rp 0 (id + 1);
            row_ptr := rp
          end;
          !codes.(id) <- code;
          Hashtbl.add index code id;
          incr count;
          id
    in
    let push_edge dst k =
      if !n_edges = Array.length !succ then begin
        let grow a = let a' = Array.make (2 * !n_edges) 0 in Array.blit a 0 a' 0 !n_edges; a' in
        succ := grow !succ;
        via := grow !via
      end;
      !succ.(!n_edges) <- dst;
      !via.(!n_edges) <- k;
      incr n_edges
    in
    ignore (push_state initial);
    let head = ref 0 in
    while !head < !count do
      let code = !codes.(!head) in
      !row_ptr.(!head) <- !n_edges;
      for k = 0 to n - 1 do
        let s = sender.(k) and r = receiver.(k) in
        if
          (code lsr p_shift.(s)) land p_mask = p_need.(k)
          && (code lsr q_shift.(r)) land q_mask = q_need.(k)
        then begin
          let code' =
            code
            land lnot (p_mask lsl p_shift.(s))
            land lnot (q_mask lsl q_shift.(r))
            lor (p_next.(k) lsl p_shift.(s))
            lor (q_next.(k) lsl q_shift.(r))
          in
          push_edge (push_state code') k
        end
      done;
      incr head
    done;
    !row_ptr.(!count) <- !n_edges;
    (* ring positions to the marking code of the 2·u·v-place net, one bit
       per place (every ring holds one token) as the generic BFS packs it,
       in the place order [build] creates: sender ring s occupies places
       [s·v .. s·v+v-1], receiver ring r places [u·v + r·u .. + u-1] *)
    let codec = Petrinet.Marking.codec_of_widths (Array.make (2 * n) 1) in
    let w = Petrinet.Marking.words codec in
    let out = Array.make (!count * w) 0 in
    let m = Array.make (2 * n) 0 in
    for id = 0 to !count - 1 do
      let code = !codes.(id) in
      Array.fill m 0 (2 * n) 0;
      for s = 0 to u - 1 do
        m.((s * v) + ((code lsr p_shift.(s)) land p_mask)) <- 1
      done;
      for r = 0 to v - 1 do
        m.(n + (r * u) + ((code lsr q_shift.(r)) land q_mask)) <- 1
      done;
      Petrinet.Marking.encode codec m out (id * w)
    done;
    Some
      {
        Petrinet.Marking.codec;
        codes = out;
        row_ptr = Array.sub !row_ptr 0 (!count + 1);
        succ = Array.sub !succ 0 !n_edges;
        via = Array.sub !via 0 !n_edges;
      }
  end

(* ---- rotation symmetry ----

   Transition k of the pattern is performed by sender k mod u towards
   receiver k mod v, so the shift k ↦ k+1 (mod uv) maps the pattern onto
   itself: sender ring s becomes ring s+1 (and ring u-1 wraps onto ring 0
   advanced by one slot), receivers likewise.  It is an automorphism of
   the net — every place (a ring arc) maps to a place — and therefore
   permutes the reachable markings.  When the transfer rates are invariant
   under the shift (e.g. homogeneous rates, or rates depending only on
   k mod d for a divisor d of uv), the orbit partition of σ^d is exactly
   lumpable and the stationary vector is constant on orbits — the quotient
   solve of [Tpn_markov.analyse_with_lumped] is exact, up to uv times
   smaller. *)

(* place and transition permutation of the 1-step shift on the base net *)
let rotation_base ~u ~v =
  let n = u * v in
  let pp = Array.make (2 * n) 0 in
  (* sender ring s, slot l is place s·v+l; the last ring wraps onto ring 0
     advanced one slot *)
  for s = 0 to u - 1 do
    for l = 0 to v - 1 do
      pp.((s * v) + l) <- (if s < u - 1 then ((s + 1) * v) + l else (l + 1) mod v)
    done
  done;
  for r = 0 to v - 1 do
    for l = 0 to u - 1 do
      pp.(n + (r * u) + l) <-
        (if r < v - 1 then n + ((r + 1) * u) + l else n + ((l + 1) mod u))
    done
  done;
  let tp = Array.init n (fun k -> (k + 1) mod n) in
  (pp, tp)

let perm_power perm d =
  let out = Array.init (Array.length perm) Fun.id in
  for _ = 1 to d do
    Array.iteri (fun i x -> out.(i) <- perm.(x)) (Array.copy out)
  done;
  out

let rotation_perms ~u ~v ~phases ~shift =
  check u v;
  if phases < 1 then invalid_arg "Pattern.rotation_perms: phases must be at least 1";
  let n = u * v in
  if shift < 1 || shift > n then invalid_arg "Pattern.rotation_perms: shift out of range";
  let pp1, tp1 = rotation_base ~u ~v in
  let pp = perm_power pp1 shift and tp = perm_power tp1 shift in
  if phases = 1 then (pp, tp)
  else begin
    (* Erlang expansion with uniform phase count p: transition (k, j) has
       id k·p+j; intra-chain place (k, j) has id k·(p-1)+j, and the base
       places follow at offset n·(p-1) in base order (see Expand.erlang) *)
    let p = phases in
    let tp' = Array.make (n * p) 0 in
    for k = 0 to n - 1 do
      for j = 0 to p - 1 do
        tp'.((k * p) + j) <- (tp.(k) * p) + j
      done
    done;
    let pp' = Array.make ((n * (p - 1)) + (2 * n)) 0 in
    for k = 0 to n - 1 do
      for j = 0 to p - 2 do
        pp'.((k * (p - 1)) + j) <- (tp.(k) * (p - 1)) + j
      done
    done;
    for b = 0 to (2 * n) - 1 do
      pp'.((n * (p - 1)) + b) <- (n * (p - 1)) + pp.(b)
    done;
    (pp', tp')
  end

(* Minimal divisor d of u·v with rates invariant under the d-step shift
   (exact float equality — lumpability tolerates no rate error); u·v means
   "no usable symmetry" (the full shift is the identity). *)
let invariant_shift ~u ~v rates =
  check u v;
  let n = u * v in
  if Array.length rates <> n then invalid_arg "Pattern.invariant_shift: rates length mismatch";
  let invariant d =
    let ok = ref true in
    for k = 0 to n - 1 do
      if rates.((k + d) mod n) <> rates.(k) then ok := false
    done;
    !ok
  in
  let rec search d = if d >= n then n else if n mod d = 0 && invariant d then d else search (d + 1) in
  search 1

(* ---- pattern-solve caches ----

   The reachable marking graph of a [u x v] pattern (and of its Erlang
   expansion) depends only on the shape, never on the transfer times, so
   the explored structure is cached per [(u, v, phases, cap)] and reused
   across rate assignments.  On top of that, the solved throughput itself
   is memoised per rate matrix, keyed on the rates' IEEE-754 bits:
   parameter sweeps that revisit an identical communication component skip
   both the exploration and the elimination.  The memo holds at most
   [result_capacity] entries and is emptied when an insertion would pass
   that, so a long-lived process that keeps meeting new rates stays
   bounded.  Both tables are guarded by one mutex so pooled domains can
   share them; values are deterministic functions of their key, so a
   racing duplicate computation is only wasted work, never a wrong
   answer. *)

type cache_stats = { hits : int; misses : int; structures : int; results : int }

type shape = {
  expansion : Petrinet.Expand.t option;  (** [None] for the 1-phase net *)
  structure : Markov.Tpn_markov.structure;
}

let cache_mutex = Mutex.create ()
let shape_cache : (int * int * int * int, shape) Hashtbl.t = Hashtbl.create 16
let result_capacity = 4096
let result_cache : (string, float) Hashtbl.t = Hashtbl.create 64
let cache_hits = ref 0
let cache_misses = ref 0

let locked f =
  Mutex.lock cache_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_mutex) f

let cache_stats () =
  locked (fun () ->
      {
        hits = !cache_hits;
        misses = !cache_misses;
        structures = Hashtbl.length shape_cache;
        results = Hashtbl.length result_cache;
      })

let clear_caches () =
  locked (fun () ->
      Hashtbl.reset shape_cache;
      Hashtbl.reset result_cache;
      cache_hits := 0;
      cache_misses := 0)

let cap_key = function None -> -1 | Some c -> c

(* Fixed-width fields, so the encoding is prefix-free; the rates go in as
   their IEEE-754 bits, so two keys are equal exactly when every rate is
   the same float. *)
let result_key ~u ~v ~phases ~cap rates =
  let b = Bytes.create (8 * (4 + Array.length rates)) in
  let put i x = Bytes.set_int64_le b (8 * i) x in
  List.iteri (fun i x -> put i (Int64.of_int x)) [ u; v; phases; cap_key cap ];
  Array.iteri (fun i r -> put (4 + i) (Int64.bits_of_float r)) rates;
  Bytes.unsafe_to_string b

let find_result key =
  locked (fun () ->
      match Hashtbl.find_opt result_cache key with
      | Some rho ->
          incr cache_hits;
          Some rho
      | None ->
          incr cache_misses;
          None)

let store_result key rho =
  locked (fun () ->
      if Hashtbl.length result_cache >= result_capacity && not (Hashtbl.mem result_cache key) then
        Hashtbl.reset result_cache;
      Hashtbl.replace result_cache key rho)

let shape_of ?budget ?pool ~u ~v ~phases ~cap () =
  let key = (u, v, phases, cap_key cap) in
  match locked (fun () -> Hashtbl.find_opt shape_cache key) with
  | Some shape -> shape
  | None ->
      Obs.Trace.span "young:structure" @@ fun () ->
      Obs.Trace.add_attr "pattern" (Printf.sprintf "%dx%d ph%d" u v phases);
      (* built outside the lock: exploration can be slow, and a duplicate
         build by a racing domain yields an equal value.  A budget-aborted
         exploration raises here, before anything reaches the cache.  The
         key ignores [budget] and [pool]: both leave the cached value
         byte-identical (the sharded exploration reproduces the serial
         graph exactly, and a completed budgeted build is a full build). *)
      let base = build ~u ~v ~time:(fun ~sender:_ ~receiver:_ -> 1.0) in
      let shape =
        if phases = 1 then
          (* the direct lattice walk produces the same graph as the generic
             BFS; fall back when the position code would not fit an int *)
          let structure =
            match young_graph ?cap ?budget ~u ~v () with
            | Some g -> Markov.Tpn_markov.structure_of_graph base g
            | None -> Markov.Tpn_markov.structure ?cap ?budget ?pool base
          in
          { expansion = None; structure }
        else
          let expansion = Petrinet.Expand.erlang ~phases:(fun _ -> phases) base in
          {
            expansion = Some expansion;
            structure = Markov.Tpn_markov.structure ?cap ?budget ?pool (Petrinet.Expand.teg expansion);
          }
      in
      locked (fun () -> if not (Hashtbl.mem shape_cache key) then Hashtbl.add shape_cache key shape);
      shape

(* The critical cycle of [build]'s net without building it: transition k
   is node k, its out-edges are its sender-ring place (towards k + u) and
   then its receiver-ring place (towards k + v), indices mod u·v, which is
   the order [Teg.to_digraph] gives them.  Each edge weighs its
   destination's time, and a ring's wrap-around place (the one that leaves
   [0, u·v)) holds its token.  For coprime u and v the graph is strongly
   connected and every cycle crosses a wrap-around place. *)
let deterministic_inner_throughput ~u ~v ~time =
  check u v;
  let n = u * v in
  let times =
    Array.init n (fun k ->
        let s, r = transition_of ~u ~v k in
        time ~sender:s ~receiver:r)
  in
  if Array.exists (fun d -> d < 0.0) times then
    invalid_arg "Pattern.deterministic_inner_throughput: negative duration";
  let dst = Array.make (2 * n) 0 and tokens = Array.make (2 * n) 0 in
  let ring e k step =
    let next = k + step in
    if next >= n then begin
      dst.(e) <- next - n;
      tokens.(e) <- 1
    end
    else dst.(e) <- next
  in
  for k = 0 to n - 1 do
    ring (2 * k) k u;
    ring ((2 * k) + 1) k v
  done;
  let period =
    Graphs.Cycle_ratio.max_cycle_ratio_flat
      ~first:(Array.init (n + 1) (fun k -> 2 * k))
      ~dst
      ~weight:(Array.map (fun d -> times.(d)) dst)
      ~tokens
  in
  float_of_int n /. period

let exponential_inner_throughput ?cap ~u ~v ~rate () =
  check u v;
  let rates =
    Array.init (u * v) (fun k ->
        let s, r = transition_of ~u ~v k in
        rate ~sender:s ~receiver:r)
  in
  let key = result_key ~u ~v ~phases:1 ~cap rates in
  match find_result key with
  | Some rho -> rho
  | None ->
      let shape = shape_of ~u ~v ~phases:1 ~cap () in
      let chain = Markov.Tpn_markov.analyse_with shape.structure ~rates:(fun id -> rates.(id)) in
      let rho = Markov.Tpn_markov.throughput_of chain (List.init (u * v) Fun.id) in
      store_result key rho;
      rho

let homogeneous_inner_throughput ~u ~v ~lambda =
  check u v;
  float_of_int (u * v) *. lambda /. float_of_int (u + v - 1)

let erlang_inner_throughput ?cap ~phases ~u ~v ~rate () =
  if phases < 1 then invalid_arg "Pattern.erlang_inner_throughput: phases must be at least 1";
  if phases = 1 then
    (* a 1-phase Erlang is exponential: share that shape and result memo
       instead of building an (absent) expansion *)
    exponential_inner_throughput ?cap ~u ~v ~rate ()
  else begin
  check u v;
  let base_rates =
    Array.init (u * v) (fun k ->
        let s, r = transition_of ~u ~v k in
        rate ~sender:s ~receiver:r)
  in
  let key = result_key ~u ~v ~phases ~cap base_rates in
  match find_result key with
  | Some rho -> rho
  | None ->
      let shape = shape_of ~u ~v ~phases ~cap () in
      let expansion = Option.get shape.expansion in
      let rates id = Petrinet.Expand.phase_rates expansion ~original_rate:(fun k -> base_rates.(k)) id in
      let chain = Markov.Tpn_markov.analyse_with shape.structure ~rates in
      (* one data set completes per firing of a transfer's LAST phase *)
      let rho =
        Markov.Tpn_markov.throughput_of chain
          (List.init (u * v) (fun k -> Petrinet.Expand.last expansion k))
      in
      store_result key rho;
      rho
  end

(* ---- supervised solve with the rotation quotient ---- *)

type supervised_result = {
  throughput : float;
  provenance : Supervise.Provenance.t;
  states : int;
  edges : int;
  lump : Markov.Tpn_markov.lump_stats option;
}

let supervised_inner_throughput ?cap ?budget ?pool ?(lump = true) ~phases ~u ~v ~rate () =
  check u v;
  if phases < 1 then
    invalid_arg "Pattern.supervised_inner_throughput: phases must be at least 1";
  let n = u * v in
  let base_rates =
    Array.init n (fun k ->
        let s, r = transition_of ~u ~v k in
        rate ~sender:s ~receiver:r)
  in
  (* never memoised: this entry point reports provenance and lump stats of
     an actual solve, which a cache hit would have nothing to say about *)
  let shape = shape_of ?budget ?pool ~u ~v ~phases ~cap () in
  let rates, outputs =
    match shape.expansion with
    | None -> ((fun id -> base_rates.(id)), List.init n Fun.id)
    | Some e ->
        (* one data set completes per firing of a transfer's LAST phase *)
        ( (fun id -> Petrinet.Expand.phase_rates e ~original_rate:(fun k -> base_rates.(k)) id),
          List.init n (fun k -> Petrinet.Expand.last e k) )
  in
  let d = invariant_shift ~u ~v base_rates in
  let chain, provenance, lstats =
    if lump && d < n then begin
      (* rate invariance under the d-step shift of the base transitions
         carries to the Erlang expansion (phase j of transfer k maps to
         phase j of transfer k+d, with the same rate p·λ(k)) *)
      let place_perm, trans_perm = rotation_perms ~u ~v ~phases ~shift:d in
      let t, prov, ls =
        Markov.Tpn_markov.analyse_with_lumped ?budget shape.structure ~rates ~place_perm
          ~trans_perm
      in
      (t, prov, Some ls)
    end
    else
      let t, prov = Markov.Tpn_markov.analyse_with_supervised ?budget shape.structure ~rates in
      (t, prov, None)
  in
  {
    throughput = Markov.Tpn_markov.throughput_of chain outputs;
    provenance;
    states = Markov.Tpn_markov.structure_states shape.structure;
    edges = Markov.Tpn_markov.structure_edges shape.structure;
    lump = lstats;
  }

let ph_inner_throughput ?cap ~u ~v ~ph () =
  let laws =
    Array.init (u * v) (fun k ->
        let s, r = transition_of ~u ~v k in
        ph ~sender:s ~receiver:r)
  in
  let teg = build ~u ~v ~time:(fun ~sender ~receiver -> Markov.Ph.mean (ph ~sender ~receiver)) in
  let chain = Markov.Tpn_markov_ph.analyse ?cap ~ph_of:(fun k -> laws.(k)) teg in
  Markov.Tpn_markov_ph.throughput_of chain (List.init (u * v) Fun.id)
