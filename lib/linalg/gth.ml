(* Up-looking GTH on the frozen CSR.  Row i is eliminated against the rows
   above it, pivot by pivot in descending order, in one dense accumulator
   [x]; only the pattern of row i (its CSR entries plus fill) is touched.
   The pattern's columns above i wait in a max-heap, which hands out the
   pivots in descending order (fill from pivot k lands below k, so it is
   never late); its columns below i are bits of a bitset, read back in
   ascending order.  Row i of the factor is L(i, j < i), kept undivided
   with its sum s_i, and U(i, k > i) = x_k / s_k at pivot k; both are
   appended to flat buffers as rows finish, row n−1 first.

   This is the dense loop re-ordered, not re-associated: every entry
   receives U(i,k)·L(k,j) for the same pivots in the same descending
   order, a term the sparse loop skips is an exact zero added to a
   non-negative sum (w·0 = 0 for finite w), the row sums run in ascending
   column order and the back-substitution in ascending row order — so for
   finite intermediates every float equals the dense solver's. *)

type buf = { mutable col : int array; mutable v : float array; mutable len : int }

let buf_create cap = { col = Array.make cap 0; v = Array.make cap 0.0; len = 0 }

(* room for one more entry; the callers store it themselves, because a
   float passed to a function is boxed *)
let reserve b =
  if b.len = Array.length b.col then begin
    let cap = 2 * b.len in
    let col = Array.make cap 0 and v = Array.make cap 0.0 in
    Array.blit b.col 0 col 0 b.len;
    Array.blit b.v 0 v 0 b.len;
    b.col <- col;
    b.v <- v
  end

type heap = { h : int array; mutable size : int }

let heap_push hp j =
  let h = hp.h in
  let c = ref hp.size in
  hp.size <- hp.size + 1;
  while !c > 0 && h.((!c - 1) / 2) < j do
    h.(!c) <- h.((!c - 1) / 2);
    c := (!c - 1) / 2
  done;
  h.(!c) <- j

let heap_pop hp =
  let h = hp.h in
  let top = h.(0) in
  let size = hp.size - 1 in
  hp.size <- size;
  let last = h.(size) and c = ref 0 and sifting = ref true in
  while !sifting do
    let a = (2 * !c) + 1 in
    let m = if a + 1 < size && h.(a + 1) > h.(a) then a + 1 else a in
    if m < size && h.(m) > last then begin
      h.(!c) <- h.(m);
      c := m
    end
    else sifting := false
  done;
  h.(!c) <- last;
  top

(* 32 columns per bitset word; 2^b mod 37 is distinct for b < 36, so the
   table recovers a lone bit's position *)
let bit_of_lone =
  let t = Array.make 37 0 in
  for b = 0 to 31 do
    t.((1 lsl b) mod 37) <- b
  done;
  t

(* The working storage of a solve, sized for at least n states.  A solve
   that returns leaves [x] all zero, [below] without a bit and [above]
   empty, and writes [sum] and the pointers before reading them.  [mark]
   is never reset: fill reaches column j of row i only through a pivot
   row k > i holding j, which stamped j during this solve, so every mark
   row i reads was written in this solve, and is i only if row i wrote it. *)
type scratch = {
  x : float array;
  mark : int array;
  above : heap;
  below : int array;
  sum : float array;
  l_ptr : int array;
  u_ptr : int array;
  l : buf;
  u : buf;
}

(* The scratch of the last solve on this domain, kept for the next one:
   the factor buffers are most of what a Strict solve allocates, and a
   stream of similar chains then allocates only its results.  A solve
   takes the scratch out of the slot while it runs, so another thread
   solving on the same domain finds the slot empty and allocates its own.
   A scratch of more than [spare_words] words (16 MB) is not kept. *)
let spare = Domain.DLS.new_key (fun () -> Atomic.make None)
let spare_words = 1 lsl 21

let take n nnz =
  match Atomic.exchange (Domain.DLS.get spare) None with
  | Some sc when Array.length sc.x >= n ->
      sc.l.len <- 0;
      sc.u.len <- 0;
      sc
  | _ ->
      {
        x = Array.make n 0.0;
        mark = Array.make n (-1);
        above = { h = Array.make n 0; size = 0 };
        below = Array.make ((n + 31) / 32) 0;
        sum = Array.make n 0.0;
        l_ptr = Array.make (n + 1) 0;
        u_ptr = Array.make (n + 1) 0;
        l = buf_create (max 64 (8 * nnz));
        u = buf_create n;
      }

let give_back sc =
  let words = (7 * Array.length sc.x) + (2 * (Array.length sc.l.col + Array.length sc.u.col)) in
  if words <= spare_words then Atomic.set (Domain.DLS.get spare) (Some sc)

(* The most L and U entries a solve may store: 2^22, 8 Mi words of column
   and value, the shape cache's bound.  Measured one solve each on a
   2-vCPU host: the 15 Strict (3,7) exponential chains (576–3 456 states)
   store 37 k – 1.13 M entries in 2–104 ms, and the 11 820-state 5×6
   Erlang:2 pattern 3.65 M in 251 ms.  Past the bound: 4×9 Erlang:2 would
   store 8.43 M (it is refused at 4.19 M, after 0.37 s), 4×9 Erlang:3
   92.7 M (about 1.5 GB and 9.7 s), and Strict (3,7) Erlang:2 chains
   9.3 – 32 M (1.0–9.6 s).  Checked once per finished row, so a solve
   overshoots by at most one row's entries (457 on 4×9 Erlang:2). *)
let fill_bound = 1 lsl 22

(* The budget's wall deadline is polled after every [poll_rows] finished
   rows: 5×6 Erlang:2 finishes 64 rows in 1.4 ms on average, against
   about 40 ns for a clock read. *)
let poll_rows = 64

let stationary_stats ?budget s =
  let n = Sparse.size s in
  if n = 0 then ([||], 0)
  else if n = 1 then ([| 1.0 |], 0)
  else begin
    let sc = take n (Sparse.nnz s) in
    let { x; mark; above; below; sum; l_ptr; u_ptr; l; u } = sc in
    (* row k's entries: [l_ptr.(k+1), l_ptr.(k)) and [u_ptr.(k+1), u_ptr.(k)) *)
    l_ptr.(n) <- 0;
    u_ptr.(n) <- 0;
    let enter i j =
      mark.(j) <- i;
      if j > i then heap_push above j
      else below.(j lsr 5) <- below.(j lsr 5) lor (1 lsl (j land 31))
    in
    for i = n - 1 downto 0 do
      Sparse.iter_outgoing s i (fun j r ->
          x.(j) <- r;
          enter i j);
      while above.size > 0 do
        let k = heap_pop above in
        let w = x.(k) /. sum.(k) in
        x.(k) <- 0.0;
        if w > 0.0 then begin
          reserve u;
          u.col.(u.len) <- k;
          u.v.(u.len) <- w;
          u.len <- u.len + 1;
          let lc = l.col and lv = l.v in
          for e = l_ptr.(k + 1) to l_ptr.(k) - 1 do
            let j = lc.(e) in
            if j <> i then begin
              if mark.(j) <> i then enter i j;
              x.(j) <- x.(j) +. (w *. lv.(e))
            end
          done
        end
      done;
      let si = ref 0.0 in
      for word = 0 to (i - 1) asr 5 do
        let bits = ref below.(word) in
        below.(word) <- 0;
        while !bits <> 0 do
          let lone = !bits land (- !bits) in
          bits := !bits lxor lone;
          let j = (word lsl 5) + bit_of_lone.(lone mod 37) in
          si := !si +. x.(j);
          reserve l;
          l.col.(l.len) <- j;
          l.v.(l.len) <- x.(j);
          l.len <- l.len + 1;
          x.(j) <- 0.0
        done
      done;
      if i >= 1 && !si <= 0.0 then
        Supervise.Error.raise_
          (Supervise.Error.Numerical
             {
               what = Printf.sprintf "reducible chain: no outflow mass eliminating state %d" i;
               where = "Gth.stationary";
             });
      sum.(i) <- !si;
      l_ptr.(i) <- l.len;
      u_ptr.(i) <- u.len;
      let entries = l.len + u.len in
      if entries > fill_bound then
        Supervise.Error.raise_ (Supervise.Error.Fill_exceeded { entries; bound = fill_bound });
      match budget with
      | Some b when (n - i) mod poll_rows = 0 -> Supervise.Budget.check b
      | _ -> ()
    done;
    let pi = Array.make n 0.0 in
    pi.(0) <- 1.0;
    for i = 0 to n - 2 do
      let p = pi.(i) in
      for e = u_ptr.(i + 1) to u_ptr.(i) - 1 do
        let k = u.col.(e) in
        pi.(k) <- pi.(k) +. (p *. u.v.(e))
      done
    done;
    let entries = l.len + u.len in
    give_back sc;
    let total = Array.fold_left ( +. ) 0.0 pi in
    (Array.map (fun v -> v /. total) pi, entries)
  end

let stationary s = fst (stationary_stats s)
