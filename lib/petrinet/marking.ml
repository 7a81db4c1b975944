type t = int array

let initial teg = Array.of_list (List.map (fun p -> p.Teg.tokens) (Teg.places teg))

let is_enabled teg m v = List.for_all (fun p -> m.(p) > 0) (Teg.in_places teg v)

let enabled teg m =
  let n = Teg.n_transitions teg in
  let rec collect v acc = if v < 0 then acc else collect (v - 1) (if is_enabled teg m v then v :: acc else acc) in
  collect (n - 1) []

let fire teg m v =
  if not (is_enabled teg m v) then invalid_arg "Marking.fire: transition not enabled";
  let m' = Array.copy m in
  List.iter (fun p -> m'.(p) <- m'.(p) - 1) (Teg.in_places teg v);
  List.iter (fun p -> m'.(p) <- m'.(p) + 1) (Teg.out_places teg v);
  m'

let capacity_exceeded ~cap ~explored =
  Supervise.Error.raise_ (Supervise.Error.State_space_exceeded { cap; explored })

(* The budget's wall deadline is polled once per [budget_poll_stride]
   registered states — BFS registration is the explorer's unit of progress.
   Serial and sharded exploration share this cadence (a power of two, so
   the poll test is a mask), and the sharded explorer additionally polls
   before allocating each frontier block so a spent wall clock cannot
   overshoot by a whole level of work. *)
let budget_poll_stride = 1024

let budget_tick budget count =
  match budget with
  | None -> ()
  | Some b -> if count land (budget_poll_stride - 1) = 0 then Supervise.Budget.check b

(* ---- packed codes ----

   Exploration never stores a marking as an int array.  A codec gives each
   place a bit field sized for the tokens it can hold and packs the fields
   into as many 62-bit words as they need, opening a new word rather than
   splitting a field, so a code is [words] non-negative ints.  Firing a
   transition then adds a constant per-word delta (its net token movement)
   and deduplication hashes and compares [words] ints.  Field widths climb
   a ladder — per-place initial counts, then the total token count T of
   the net (a sound per-place bound for every net whose exploration
   terminates: such nets are covered by token-invariant cycles), then one
   62-bit field per place — with an overflow guard on every firing that
   restarts the walk on the next rung.  The last rung cannot overflow
   before the state cap stops an unbounded net. *)

let word_bits = 62

type codec = {
  words : int;
  word : int array;  (** per place: index of its word *)
  shift : int array;  (** per place: offset of its field in the word *)
  mask : int array;  (** per place: field mask, shifted to bit 0 *)
  at : int array;  (** [at.(w * word_bits + b)]: the place whose field holds bit [b] of word [w] *)
}

(* bits needed to store values 0..bound *)
let nbits bound =
  let rec go b acc = if b = 0 then max acc 1 else go (b lsr 1) (acc + 1) in
  go bound 0

let codec_of_widths widths =
  let n = Array.length widths in
  let word = Array.make n 0 and shift = Array.make n 0 and mask = Array.make n 0 in
  let w = ref 0 and used = ref 0 in
  for p = 0 to n - 1 do
    let b = widths.(p) in
    if b < 1 || b > word_bits then invalid_arg "Marking.codec_of_widths: width outside 1..62";
    if !used + b > word_bits then begin
      incr w;
      used := 0
    end;
    word.(p) <- !w;
    shift.(p) <- !used;
    mask.(p) <- (1 lsl b) - 1;
    used := !used + b
  done;
  let at = Array.make ((!w + 1) * word_bits) (-1) in
  Array.iteri (fun p b -> Array.fill at ((word.(p) * word_bits) + shift.(p)) b p) widths;
  { words = !w + 1; word; shift; mask; at }

let words c = c.words
let field c codes off p = (codes.(off + c.word.(p)) lsr c.shift.(p)) land c.mask.(p)

let encode c m codes off =
  Array.fill codes off c.words 0;
  Array.iteri
    (fun p x ->
      if x < 0 || x > c.mask.(p) then invalid_arg "Marking.encode: token count exceeds its field";
      let i = off + c.word.(p) in
      codes.(i) <- codes.(i) lor (x lsl c.shift.(p)))
    m

let decode c codes off = Array.init (Array.length c.word) (field c codes off)

(* index of the single set bit of a power of two below 2^62: the powers
   of two are distinct modulo 67, a prime of which 2 is a primitive root *)
let bit_of_pow2 =
  let t = Array.make 67 0 in
  for b = 0 to word_bits - 1 do
    t.((1 lsl b) mod 67) <- b
  done;
  t

(* visits the non-empty fields only, lowest bit first *)
let permute c ~place_perm codes off ~into =
  Array.fill into 0 c.words 0;
  let fits = ref true in
  for w = 0 to c.words - 1 do
    let rest = ref codes.(off + w) in
    while !rest <> 0 do
      let p = c.at.((w * word_bits) + bit_of_pow2.((!rest land - !rest) mod 67)) in
      let x = (!rest lsr c.shift.(p)) land c.mask.(p) in
      rest := !rest lxor (x lsl c.shift.(p));
      let q = place_perm.(p) in
      if x > c.mask.(q) then fits := false
      else into.(c.word.(q)) <- into.(c.word.(q)) lor (x lsl c.shift.(q))
    done
  done;
  !fits

(* the width ladder, without repeated rungs *)
let codecs teg =
  let m0 = initial teg in
  let total = Array.fold_left ( + ) 0 m0 in
  let rec distinct = function
    | a :: (b :: _ as rest) -> if a = b then distinct rest else a :: distinct rest
    | l -> l
  in
  List.map codec_of_widths
    (distinct
       [ Array.map nbits m0; Array.map (fun _ -> nbits total) m0; Array.map (fun _ -> word_bits) m0 ])

exception Field_overflow

(* Per transition, as flat arrays: [e_in.(v)] and [e_out.(v)] hold the
   (word, shift, mask) triples of its input places and of its output
   places that are not also inputs; [e_delta.(v)] holds the (word, delta)
   pairs of the code change of one firing. *)
type effects = { e_in : int array array; e_out : int array array; e_delta : int array array }

let effects_of teg c =
  let triples ps = Array.of_list (List.concat_map (fun p -> [ c.word.(p); c.shift.(p); c.mask.(p) ]) ps) in
  let nt = Teg.n_transitions teg in
  let e_in = Array.init nt (fun v -> triples (Teg.in_places teg v)) in
  let e_out =
    Array.init nt (fun v ->
        let ins = Teg.in_places teg v in
        triples (List.filter (fun p -> not (List.mem p ins)) (Teg.out_places teg v)))
  in
  let e_delta =
    Array.init nt (fun v ->
        let d = Array.make c.words 0 in
        let move sign p = d.(c.word.(p)) <- d.(c.word.(p)) + (sign * (1 lsl c.shift.(p))) in
        List.iter (move 1) (Teg.out_places teg v);
        List.iter (move (-1)) (Teg.in_places teg v);
        let pairs = ref [] in
        for w = c.words - 1 downto 0 do
          if d.(w) <> 0 then pairs := w :: d.(w) :: !pairs
        done;
        Array.of_list !pairs)
  in
  { e_in; e_out; e_delta }

(* Calls [f v] for every transition [v] enabled in the code [parent], in
   increasing order, with the code after firing [v] in [next].  Raises
   [Field_overflow] when a firing would outgrow a field. *)
let scan eff ~words parent next f =
  for v = 0 to Array.length eff.e_in - 1 do
    let ins = eff.e_in.(v) in
    let k = ref 0 in
    while !k < Array.length ins && (parent.(ins.(!k)) lsr ins.(!k + 1)) land ins.(!k + 2) <> 0 do
      k := !k + 3
    done;
    if !k = Array.length ins then begin
      let outs = eff.e_out.(v) in
      for k = 0 to (Array.length outs / 3) - 1 do
        let m = outs.((3 * k) + 2) in
        if (parent.(outs.(3 * k)) lsr outs.((3 * k) + 1)) land m = m then raise Field_overflow
      done;
      Array.blit parent 0 next 0 words;
      let d = eff.e_delta.(v) in
      for k = 0 to (Array.length d / 2) - 1 do
        let w = d.(2 * k) in
        next.(w) <- next.(w) + d.((2 * k) + 1)
      done;
      f v
    end
  done

(* splitmix-style finaliser: the shard index consumes the low 6 bits and
   linear probing the rest, so codes need both well mixed *)
let mix_int x =
  let h = x lxor (x lsr 33) in
  let h = h * 0x27d4eb2f165667c5 land max_int in
  h lxor (h lsr 29)

(* one multiply per further word, then one finaliser *)
let hash_code a off words =
  let h = ref a.(off) in
  for i = 1 to words - 1 do
    h := (!h * 0x100000001b3) lxor a.(off + i)
  done;
  mix_int !h

let n_shards = 64
let shard_bits = 6 (* log2 n_shards; probing starts above them *)

(* Open-addressing table of codes stored elsewhere: slot [i] holds a state
   id at [slots.(2i)] (-1 when empty) and the code's hash at
   [slots.(2i+1)].  The code of an id [x >= 0] is at [codes.(x * words)];
   during a sharded level, a provisional id [x <= -2] names the code at
   [pending.((-2 - x) * words)].  Load stays at or below one half. *)
module Table = struct
  type t = { words : int; mutable slots : int array; mutable mask : int; mutable used : int }

  let create ~words n =
    let cap = ref 16 in
    while !cap < 2 * (n + 1) do
      cap := 2 * !cap
    done;
    { words; slots = Array.make (2 * !cap) (-1); mask = !cap - 1; used = 0 }

  let same a ai b bi w =
    let rec go k = k = w || (a.(ai + k) = b.(bi + k) && go (k + 1)) in
    go 0

  (* offset of the slot holding the code at [key.(off)], or of the empty
     slot where it belongs *)
  let probe t ~codes ~pending h key off =
    let s = t.slots and w = t.words and mask = t.mask in
    let rec go i =
      let b = 2 * i in
      let id = s.(b) in
      if
        id = -1
        || s.(b + 1) = h
           && (if id >= 0 then same codes (id * w) key off w else same pending ((-2 - id) * w) key off w)
      then b
      else go ((i + 1) land mask)
    in
    go ((h lsr shard_bits) land mask)

  let grow t =
    let old = t.slots in
    let cap = 2 * (t.mask + 1) in
    let s = Array.make (2 * cap) (-1) in
    let mask = cap - 1 in
    for i = 0 to (Array.length old / 2) - 1 do
      if old.(2 * i) <> -1 then begin
        let j = ref ((old.((2 * i) + 1) lsr shard_bits) land mask) in
        while s.(2 * !j) <> -1 do
          j := (!j + 1) land mask
        done;
        s.(2 * !j) <- old.(2 * i);
        s.((2 * !j) + 1) <- old.((2 * i) + 1)
      end
    done;
    t.slots <- s;
    t.mask <- mask

  (* room for [n] more entries: slot offsets from [probe] then stay valid
     through the next [n] fills *)
  let reserve t n =
    while 2 * (t.used + n) > t.mask do
      grow t
    done

  (* fills the empty slot [b] returned by [probe] *)
  let fill t b h id =
    t.slots.(b) <- id;
    t.slots.(b + 1) <- h;
    t.used <- t.used + 1;
    if 2 * t.used > t.mask then grow t
end

module Ibuf = struct
  type t = { mutable a : int array; mutable len : int }

  let create n = { a = Array.make (max n 16) 0; len = 0 }

  (* room for [n] more ints *)
  let ensure b n =
    let need = b.len + n in
    if need > Array.length b.a then begin
      let cap = ref (Array.length b.a) in
      while !cap < need do
        cap := 2 * !cap
      done;
      let a' = Array.make !cap 0 in
      Array.blit b.a 0 a' 0 b.len;
      b.a <- a'
    end

  let push b x =
    if b.len = Array.length b.a then ensure b 1;
    b.a.(b.len) <- x;
    b.len <- b.len + 1

  let append b src off n =
    ensure b n;
    Array.blit src off b.a b.len n;
    b.len <- b.len + n

  (* grow by [n] slots written later through [b.a] (sharded CSR assembly) *)
  let extend b n =
    ensure b n;
    b.len <- b.len + n

  let to_array b = Array.sub b.a 0 b.len
end

type graph = { codec : codec; codes : int array; row_ptr : int array; succ : int array; via : int array }

let n_states g = Array.length g.row_ptr - 1
let marking g i = decode g.codec g.codes (i * g.codec.words)

(* ---- code stores: the serial walk's set of visited codes ---- *)

type store = { s_words : int; s_codes : Ibuf.t; s_table : Table.t; mutable stored : int }

let store ~words =
  { s_words = words; s_codes = Ibuf.create (1024 * words); s_table = Table.create ~words 1024; stored = 0 }

let stored s = s.stored

let intern s ~cap ?budget key =
  let w = s.s_words in
  let h = hash_code key 0 w in
  let b = Table.probe s.s_table ~codes:s.s_codes.Ibuf.a ~pending:[||] h key 0 in
  let id = s.s_table.Table.slots.(b) in
  if id >= 0 then id
  else begin
    let id = s.stored in
    if id >= cap then capacity_exceeded ~cap ~explored:id;
    budget_tick budget id;
    Ibuf.append s.s_codes key 0 w;
    Table.fill s.s_table b h id;
    s.stored <- id + 1;
    id
  end

let load s id into = Array.blit s.s_codes.Ibuf.a (id * s.s_words) into 0 s.s_words

(* ---- serial BFS ---- *)

let explore_serial ~cap ~budget teg c =
  let eff = effects_of teg c and w = c.words in
  let seen = store ~words:w in
  let row = Ibuf.create 1024 and succ = Ibuf.create 1024 and via = Ibuf.create 1024 in
  let parent = Array.make w 0 and next = Array.make w 0 in
  encode c (initial teg) next 0;
  ignore (intern seen ~cap ?budget next);
  let edge v =
    Ibuf.push succ (intern seen ~cap ?budget next);
    Ibuf.push via v
  in
  let head = ref 0 in
  while !head < seen.stored do
    load seen !head parent;
    Ibuf.push row succ.Ibuf.len;
    scan eff ~words:w parent next edge;
    incr head
  done;
  Ibuf.push row succ.Ibuf.len;
  { codec = c; codes = Ibuf.to_array seen.s_codes; row_ptr = Ibuf.to_array row;
    succ = Ibuf.to_array succ; via = Ibuf.to_array via }

(* ---- sharded level-synchronous exploration ----

   BFS sharded over the domain pool, with the graph byte-identical to the
   serial explorer at any pool size.  The frontier is processed in
   level-synchronous rounds of three parallel phases and one serial merge:

     phase 1  parents are split into contiguous chunks; each chunk worker
              enumerates successors and resolves them against the shard
              tables READ-ONLY (they only hold pre-level states, so no
              synchronisation is needed).  Unknown successors are appended
              to the chunk's key buffer in scan order and linked into one
              list per shard.
     phase 2  the hash space is statically split into [n_shards] shards,
              each owned by one task, so insertion needs no locks.  A task
              walks its own lists chunk by chunk — global discovery order —
              claims the first occurrence of each code with a provisional
              entry and points every later occurrence at that claim.
     merge    (serial) the claims are registered by walking every chunk's
              unknowns in order, which is exactly the (parent id,
              transition) order in which serial BFS discovers them, with
              the same cap test and budget cadence.  Ids therefore
              coincide with serial ids.
     phase 3  chunk workers write their succ/via slices at offsets fixed by
              a serial prefix sum — the serial edge order — and shard
              workers turn their provisional entries into state ids.

   The number of chunks depends on the pool size, but chunks are contiguous
   parent ranges, so (chunk, position) order never depends on it; neither do
   shard ownership (fixed [n_shards]) or id assignment (serial merge). *)

type chunk = {
  deg : Ibuf.t;  (** edges per parent *)
  c_via : Ibuf.t;
  c_ref : Ibuf.t;  (** state id [>= 0], or [-1 - u] with [u] an unknown of the chunk *)
  ukeys : Ibuf.t;  (** codes of the unknowns, [words] ints each *)
  uhash : Ibuf.t;
  unext : Ibuf.t;  (** next unknown in the same shard, -1 at the end *)
  head : int array;  (** per shard: first unknown, -1 if none *)
  tail : int array;
  count : int array;  (** per shard: unknowns *)
}

let explore_sharded ~cap ~budget ~pool teg c =
  let eff = effects_of teg c and w = c.words in
  let shards = Array.init n_shards (fun _ -> Table.create ~words:w 16) in
  let all = Ibuf.create (1024 * w) in
  let n = ref 0 in
  let row = Ibuf.create 1024 and succ = Ibuf.create 1024 and via = Ibuf.create 1024 in
  (* the serial registration: same cap test, same budget poll cadence *)
  let register key off =
    if !n >= cap then capacity_exceeded ~cap ~explored:!n;
    budget_tick budget !n;
    Ibuf.append all key off w;
    incr n;
    !n - 1
  in
  let () =
    let k0 = Array.make w 0 in
    encode c (initial teg) k0 0;
    let h = hash_code k0 0 w in
    let t = shards.(h land (n_shards - 1)) in
    let b = Table.probe t ~codes:all.Ibuf.a ~pending:[||] h k0 0 in
    Table.fill t b h (register k0 0)
  in
  let scan_chunk (clo, chi) =
    let ch =
      {
        deg = Ibuf.create (chi - clo);
        c_via = Ibuf.create (4 * (chi - clo));
        c_ref = Ibuf.create (4 * (chi - clo));
        ukeys = Ibuf.create (4 * (chi - clo) * w);
        uhash = Ibuf.create (4 * (chi - clo));
        unext = Ibuf.create (4 * (chi - clo));
        head = Array.make n_shards (-1);
        tail = Array.make n_shards (-1);
        count = Array.make n_shards 0;
      }
    in
    let parent = Array.make w 0 and next = Array.make w 0 in
    let deg = ref 0 in
    let edge v =
      incr deg;
      let h = hash_code next 0 w in
      let s = h land (n_shards - 1) in
      let t = shards.(s) in
      let id = t.Table.slots.(Table.probe t ~codes:all.Ibuf.a ~pending:[||] h next 0) in
      Ibuf.push ch.c_via v;
      if id >= 0 then Ibuf.push ch.c_ref id
      else begin
        let u = ch.uhash.Ibuf.len in
        Ibuf.push ch.c_ref (-1 - u);
        Ibuf.append ch.ukeys next 0 w;
        Ibuf.push ch.uhash h;
        Ibuf.push ch.unext (-1);
        if ch.head.(s) < 0 then ch.head.(s) <- u else ch.unext.Ibuf.a.(ch.tail.(s)) <- u;
        ch.tail.(s) <- u;
        ch.count.(s) <- ch.count.(s) + 1
      end
    in
    for i = clo to chi - 1 do
      Array.blit all.Ibuf.a (i * w) parent 0 w;
      deg := 0;
      scan eff ~words:w parent next edge;
      Ibuf.push ch.deg !deg
    done;
    ch
  in
  let lo = ref 0 in
  while !lo < !n do
    let hi = !n in
    (* poll the wall deadline before allocating the next frontier block so
       a spent budget cannot overshoot by a whole level of work *)
    (match budget with None -> () | Some b -> Supervise.Budget.check b);
    let width = hi - !lo in
    let nchunks = min width (4 * Parallel.Pool.size pool) in
    let lo0 = !lo in
    let chunks =
      Parallel.Pool.map pool scan_chunk
        (Array.init nchunks (fun k ->
             (lo0 + (k * width / nchunks), lo0 + ((k + 1) * width / nchunks))))
    in
    (* unknown [u] of chunk [k] is [uoff.(k) + u] in level order *)
    let uoff = Array.make (nchunks + 1) 0 in
    Array.iteri (fun k ch -> uoff.(k + 1) <- uoff.(k) + ch.uhash.Ibuf.len) chunks;
    (* the level's unknown codes, back to back in level order: the codes
       of the provisional ids *)
    let pending = Array.make (uoff.(nchunks) * w) 0 in
    Array.iteri (fun k ch -> Array.blit ch.ukeys.Ibuf.a 0 pending (uoff.(k) * w) ch.ukeys.Ibuf.len) chunks;
    (* per unknown, the level index of the first occurrence of its code *)
    let first = Array.make uoff.(nchunks) 0 in
    let claims =
      Parallel.Pool.init pool n_shards (fun s ->
          let t = shards.(s) in
          Table.reserve t (Array.fold_left (fun acc ch -> acc + ch.count.(s)) 0 chunks);
          let claims = Ibuf.create 16 in
          Array.iteri
            (fun k ch ->
              let u = ref ch.head.(s) in
              while !u >= 0 do
                let g = uoff.(k) + !u in
                let h = ch.uhash.Ibuf.a.(!u) in
                let b = Table.probe t ~codes:all.Ibuf.a ~pending h pending (g * w) in
                let id = t.Table.slots.(b) in
                if id = -1 then begin
                  Table.fill t b h (-2 - g);
                  first.(g) <- g;
                  Ibuf.push claims b;
                  Ibuf.push claims g
                end
                else first.(g) <- -2 - id;
                u := ch.unext.Ibuf.a.(!u)
              done)
            chunks;
          claims)
    in
    let ids = Array.make uoff.(nchunks) (-1) in
    for g = 0 to uoff.(nchunks) - 1 do
      if first.(g) = g then ids.(g) <- register pending (g * w)
    done;
    let base = Array.make (nchunks + 1) succ.Ibuf.len in
    Array.iteri (fun k ch -> base.(k + 1) <- base.(k) + ch.c_via.Ibuf.len) chunks;
    let off = ref base.(0) in
    Array.iter
      (fun ch ->
        for j = 0 to ch.deg.Ibuf.len - 1 do
          Ibuf.push row !off;
          off := !off + ch.deg.Ibuf.a.(j)
        done)
      chunks;
    Ibuf.extend succ (base.(nchunks) - base.(0));
    Ibuf.extend via (base.(nchunks) - base.(0));
    Parallel.Pool.run_all pool
      (Array.append
         (Array.mapi
            (fun k ch () ->
              let o = base.(k) in
              Array.blit ch.c_via.Ibuf.a 0 via.Ibuf.a o ch.c_via.Ibuf.len;
              for j = 0 to ch.c_ref.Ibuf.len - 1 do
                let r = ch.c_ref.Ibuf.a.(j) in
                succ.Ibuf.a.(o + j) <- (if r >= 0 then r else ids.(first.(uoff.(k) - 1 - r)))
              done)
            chunks)
         (Array.mapi
            (fun s claims () ->
              let slots = shards.(s).Table.slots in
              for j = 0 to (claims.Ibuf.len / 2) - 1 do
                slots.(claims.Ibuf.a.(2 * j)) <- ids.(claims.Ibuf.a.((2 * j) + 1))
              done)
            claims));
    lo := hi
  done;
  Ibuf.push row succ.Ibuf.len;
  { codec = c; codes = Ibuf.to_array all; row_ptr = Ibuf.to_array row; succ = Ibuf.to_array succ;
    via = Ibuf.to_array via }

(* the width ladder: each rung restarts the walk after a field overflow *)
let explore_codes ~cap ~budget ~pool teg =
  let explore c =
    match pool with
    | Some pool -> explore_sharded ~cap ~budget ~pool teg c
    | None -> explore_serial ~cap ~budget teg c
  in
  let rec climb = function
    | [ c ] -> explore c
    | c :: rest -> ( try explore c with Field_overflow -> climb rest)
    | [] -> assert false
  in
  climb (codecs teg)

let default_cap = 200_000

let effective_cap ?(cap = default_cap) ?budget () =
  match budget with None -> cap | Some b -> Supervise.Budget.cap_allowed b cap

let m_states_explored =
  Obs.Metrics.Counter.create ~help:"Markings discovered by reachability exploration"
    "marking_states_explored_total"

let m_edges_explored =
  Obs.Metrics.Counter.create ~help:"Marking-graph edges discovered by reachability exploration"
    "marking_edges_total"

let m_sharded_explorations =
  Obs.Metrics.Counter.create
    ~help:"Explorations that took the sharded level-synchronous path"
    "marking_sharded_explorations_total"

let explore_graph ?cap ?budget ?pool teg =
  Obs.Trace.span "petrinet:explore_graph" (fun () ->
      let cap = effective_cap ?cap ?budget () in
      let pool =
        match pool with
        | Some p when Parallel.Pool.size p > 1 ->
            Obs.Metrics.Counter.incr m_sharded_explorations;
            Obs.Trace.add_attr "mode" "sharded";
            Some p
        | _ -> None
      in
      let g = explore_codes ~cap ~budget ~pool teg in
      (* counters bump once per exploration, not per state, so the
         disabled-tracing overhead stays negligible *)
      let states = n_states g and edges = Array.length g.succ in
      Obs.Metrics.Counter.add m_states_explored states;
      Obs.Metrics.Counter.add m_edges_explored edges;
      Obs.Trace.add_attr "states" (string_of_int states);
      Obs.Trace.add_attr "edges" (string_of_int edges);
      g)

let explore ?cap ?budget teg =
  let g = explore_codes ~cap:(effective_cap ?cap ?budget ()) ~budget ~pool:None teg in
  Array.init (n_states g) (marking g)

(* ---- code table over a finished graph ---- *)

type index = { table : Table.t; icodes : int array }

let index g =
  let w = g.codec.words and n = n_states g in
  let t = Table.create ~words:w n in
  for i = 0 to n - 1 do
    let h = hash_code g.codes (i * w) w in
    Table.fill t (Table.probe t ~codes:g.codes ~pending:[||] h g.codes (i * w)) h i
  done;
  { table = t; icodes = g.codes }

let find ix key =
  let t = ix.table in
  t.Table.slots.(Table.probe t ~codes:ix.icodes ~pending:[||] (hash_code key 0 t.Table.words) key 0)
