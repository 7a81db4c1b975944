(* Edges accumulate in flat append-only arrays; the first solve (or
   structural query) freezes them into a CSR form — outgoing and incoming —
   with duplicate i→j entries merged in insertion order, so the merged rate
   is bit-identical to an incremental hash-table accumulation.  The frozen
   arrays are what the solvers sweep: no cons cells on the hot path. *)

type frozen = {
  row_ptr : int array;  (** outgoing CSR, per source *)
  cols : int array;
  vals : float array;
  in_ptr : int array;  (** incoming CSR, per target *)
  in_src : int array;
  in_vals : float array;
}

type t = {
  n : int;
  mutable nnz : int;
  mutable e_src : int array;
  mutable e_dst : int array;
  mutable e_rate : float array;
  exit : float array;  (** maintained at insertion, in insertion order *)
  mutable frozen : frozen option;
}

let create n =
  {
    n;
    nnz = 0;
    e_src = Array.make 16 0;
    e_dst = Array.make 16 0;
    e_rate = Array.make 16 0.0;
    exit = Array.make n 0.0;
    frozen = None;
  }

let add_rate t i j r =
  if i < 0 || i >= t.n || j < 0 || j >= t.n then invalid_arg "Sparse.add_rate: state out of range";
  if i = j then invalid_arg "Sparse.add_rate: no self loops in a generator";
  if r <= 0.0 then invalid_arg "Sparse.add_rate: rate must be positive";
  if t.nnz = Array.length t.e_src then begin
    let cap = 2 * t.nnz in
    let grow_i a = let a' = Array.make cap 0 in Array.blit a 0 a' 0 t.nnz; a' in
    let grow_f a = let a' = Array.make cap 0.0 in Array.blit a 0 a' 0 t.nnz; a' in
    t.e_src <- grow_i t.e_src;
    t.e_dst <- grow_i t.e_dst;
    t.e_rate <- grow_f t.e_rate
  end;
  t.e_src.(t.nnz) <- i;
  t.e_dst.(t.nnz) <- j;
  t.e_rate.(t.nnz) <- r;
  t.nnz <- t.nnz + 1;
  t.exit.(i) <- t.exit.(i) +. r;
  t.frozen <- None

(* one direction of the CSR: group edges by [key], merging duplicate
   [other] entries within a group in insertion order *)
let csr_of ~n ~nnz ~key ~other ~rate =
  let count = Array.make (n + 1) 0 in
  for e = 0 to nnz - 1 do
    count.(key.(e) + 1) <- count.(key.(e) + 1) + 1
  done;
  for i = 1 to n do
    count.(i) <- count.(i) + count.(i - 1)
  done;
  (* stable bucket sort by key *)
  let next = Array.copy count in
  let by_key = Array.make nnz 0 in
  for e = 0 to nnz - 1 do
    let k = key.(e) in
    by_key.(next.(k)) <- e;
    next.(k) <- next.(k) + 1
  done;
  let ptr = Array.make (n + 1) 0 in
  let cols = Array.make nnz 0 in
  let vals = Array.make nnz 0.0 in
  let slot = Array.make n (-1) in
  let stamp = Array.make n (-1) in
  let w = ref 0 in
  for i = 0 to n - 1 do
    ptr.(i) <- !w;
    for idx = count.(i) to count.(i + 1) - 1 do
      let e = by_key.(idx) in
      let j = other.(e) in
      if stamp.(j) = i then vals.(slot.(j)) <- vals.(slot.(j)) +. rate.(e)
      else begin
        stamp.(j) <- i;
        slot.(j) <- !w;
        cols.(!w) <- j;
        vals.(!w) <- rate.(e);
        incr w
      end
    done
  done;
  ptr.(n) <- !w;
  if !w = nnz then (ptr, cols, vals) else (ptr, Array.sub cols 0 !w, Array.sub vals 0 !w)

let freeze t =
  match t.frozen with
  | Some f -> f
  | None ->
      let row_ptr, cols, vals =
        csr_of ~n:t.n ~nnz:t.nnz ~key:t.e_src ~other:t.e_dst ~rate:t.e_rate
      in
      let in_ptr, in_src, in_vals =
        csr_of ~n:t.n ~nnz:t.nnz ~key:t.e_dst ~other:t.e_src ~rate:t.e_rate
      in
      let f = { row_ptr; cols; vals; in_ptr; in_src; in_vals } in
      t.frozen <- Some f;
      f

let size t = t.n
let nnz t = t.nnz
let exit_rate t i = t.exit.(i)

let iter_outgoing t i fn =
  let f = freeze t in
  for k = f.row_ptr.(i) to f.row_ptr.(i + 1) - 1 do
    fn f.cols.(k) f.vals.(k)
  done

let normalize pi =
  let total = Array.fold_left ( +. ) 0.0 pi in
  if total <= 0.0 then
    Supervise.Error.raise_
      (Supervise.Error.Numerical { what = "zero distribution mass"; where = "Sparse.normalize" });
  Array.iteri (fun i v -> pi.(i) <- v /. total) pi

let residual_frozen t f pi =
  (* L1 norm of pi.Q *)
  let acc = ref 0.0 in
  for j = 0 to t.n - 1 do
    let inflow = ref 0.0 in
    for k = f.in_ptr.(j) to f.in_ptr.(j + 1) - 1 do
      inflow := !inflow +. (pi.(f.in_src.(k)) *. f.in_vals.(k))
    done;
    acc := !acc +. abs_float (!inflow -. (pi.(j) *. t.exit.(j)))
  done;
  !acc

(* The L1 residual costs a full sweep, so Gauss–Seidel only checks it
   every [check_every] sweeps — a converged iterate only gets more
   converged, and the saved residual passes outweigh the few extra
   sweeps. *)
let check_every = 8

type stats = { sweeps : int; residual : float }

(* the budget's wall deadline is polled at the residual cadence: a handful
   of gettimeofday calls per thousand sweeps *)
let budget_check budget k =
  match budget with
  | None -> ()
  | Some b -> if k mod check_every = 0 then Supervise.Budget.check b

let stationary_gauss_seidel_stats ?budget ?(tol = 1e-12) ?(max_sweeps = 100_000) t =
  let max_sweeps =
    match budget with None -> max_sweeps | Some b -> Supervise.Budget.sweeps_allowed b max_sweeps
  in
  let f = freeze t in
  let pi = Array.make t.n (1.0 /. float_of_int t.n) in
  let rec sweep k =
    if k > max_sweeps then
      Supervise.Error.raise_
        (Supervise.Error.No_convergence { sweeps = max_sweeps; residual = residual_frozen t f pi });
    budget_check budget k;
    for j = 0 to t.n - 1 do
      if t.exit.(j) > 0.0 then begin
        let inflow = ref 0.0 in
        for e = f.in_ptr.(j) to f.in_ptr.(j + 1) - 1 do
          inflow := !inflow +. (pi.(f.in_src.(e)) *. f.in_vals.(e))
        done;
        pi.(j) <- !inflow /. t.exit.(j)
      end
    done;
    normalize pi;
    if k mod check_every = 0 || k >= max_sweeps then begin
      let r = residual_frozen t f pi in
      if r <= tol then { sweeps = k; residual = r } else sweep (k + 1)
    end
    else sweep (k + 1)
  in
  let st = sweep 1 in
  (pi, st)
