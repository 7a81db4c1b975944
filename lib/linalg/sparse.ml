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

(* Outgoing edges regrouped by destination block (stable within a block, so
   row-major order is preserved per column): a scatter sweep then keeps its
   random writes inside a cache-sized window.  Per fixed column the
   contributions arrive in exactly the row-major order, so blocked sweeps
   are bit-identical to the plain CSR loop. *)
type blocked = { b_row : int array; b_col : int array; b_val : float array }

type t = {
  n : int;
  mutable nnz : int;
  mutable e_src : int array;
  mutable e_dst : int array;
  mutable e_rate : float array;
  exit : float array;  (** maintained at insertion, in insertion order *)
  mutable frozen : frozen option;
  mutable blocked : blocked option;
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
    blocked = None;
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
  t.frozen <- None;
  t.blocked <- None

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

let outgoing t i =
  let f = freeze t in
  let rec collect k acc =
    if k < f.row_ptr.(i) then acc else collect (k - 1) ((f.cols.(k), f.vals.(k)) :: acc)
  in
  collect (f.row_ptr.(i + 1) - 1) []

let rate t i j =
  let f = freeze t in
  let r = ref 0.0 in
  for k = f.row_ptr.(i) to f.row_ptr.(i + 1) - 1 do
    if f.cols.(k) = j then r := f.vals.(k)
  done;
  !r

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

(* Chains below this size fit their accumulator vector in cache and gain
   nothing from blocking; above it, sweeps go through the blocked edge
   order.  8192 columns of float64 is a 64 KB write window. *)
let blocked_threshold = 1 lsl 15
let block_cols = 8192

let blocked_of t f =
  match t.blocked with
  | Some b -> b
  | None ->
      let m = Array.length f.cols in
      let nblocks = ((t.n + block_cols - 1) / block_cols) + 1 in
      let count = Array.make (nblocks + 1) 0 in
      for e = 0 to m - 1 do
        let b = f.cols.(e) / block_cols in
        count.(b + 1) <- count.(b + 1) + 1
      done;
      for b = 1 to nblocks do
        count.(b) <- count.(b) + count.(b - 1)
      done;
      let b_row = Array.make m 0 in
      let b_col = Array.make m 0 in
      let b_val = Array.make m 0.0 in
      (* stable by construction: rows visited in ascending order *)
      for i = 0 to t.n - 1 do
        for e = f.row_ptr.(i) to f.row_ptr.(i + 1) - 1 do
          let b = f.cols.(e) / block_cols in
          let w = count.(b) in
          count.(b) <- w + 1;
          b_row.(w) <- i;
          b_col.(w) <- f.cols.(e);
          b_val.(w) <- f.vals.(e)
        done
      done;
      let b = { b_row; b_col; b_val } in
      t.blocked <- Some b;
      b

(* y := x · (I + Q/λ), the uniformised left matvec shared by the power and
   Arnoldi solvers.  Bit-identical whether the scatter runs row-major or
   blocked: per destination column the additions arrive in row order either
   way, and the per-edge product ((x_i/λ)·q_ij) rounds identically. *)
let matvec_uniformized t f ~lambda x y =
  for j = 0 to t.n - 1 do
    y.(j) <- x.(j) *. (1.0 -. (t.exit.(j) /. lambda))
  done;
  if t.n <= blocked_threshold then
    for i = 0 to t.n - 1 do
      let w = x.(i) /. lambda in
      for e = f.row_ptr.(i) to f.row_ptr.(i + 1) - 1 do
        y.(f.cols.(e)) <- y.(f.cols.(e)) +. (w *. f.vals.(e))
      done
    done
  else begin
    let b = blocked_of t f in
    for e = 0 to Array.length b.b_col - 1 do
      y.(b.b_col.(e)) <- y.(b.b_col.(e)) +. (x.(b.b_row.(e)) /. lambda *. b.b_val.(e))
    done
  end

(* The L1 residual costs a full sweep, so the iterative solvers only check
   it every [check_every] sweeps — a converged iterate only gets more
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

let stationary_power_stats ?budget ?(tol = 1e-12) ?(max_iters = 1_000_000) t =
  let max_iters =
    match budget with None -> max_iters | Some b -> Supervise.Budget.sweeps_allowed b max_iters
  in
  let f = freeze t in
  let lambda = 1.01 *. Array.fold_left max 1e-12 t.exit in
  let pi = Array.make t.n (1.0 /. float_of_int t.n) in
  let next = Array.make t.n 0.0 in
  let rec iterate k =
    if k > max_iters then
      Supervise.Error.raise_
        (Supervise.Error.No_convergence { sweeps = max_iters; residual = residual_frozen t f pi });
    budget_check budget k;
    matvec_uniformized t f ~lambda pi next;
    let diff = ref 0.0 in
    for j = 0 to t.n - 1 do
      diff := !diff +. abs_float (next.(j) -. pi.(j));
      pi.(j) <- next.(j)
    done;
    normalize pi;
    if (k mod check_every = 0 || k >= max_iters) && !diff <= tol then
      { sweeps = k; residual = residual_frozen t f pi }
    else iterate (k + 1)
  in
  let st = iterate 1 in
  (pi, st)

(* ---- restarted Arnoldi ----

   Krylov subspace method on the uniformised chain P = I + Q/λ: build an
   orthonormal basis v_0..v_{m-1} of span{x, xP, ..., xP^{m-1}} by modified
   Gram–Schmidt, so that v_j P = Σ_i h_ij v_i with H the small (m×m)
   Hessenberg projection.  The stationary direction is P's left eigenvector
   for eigenvalue 1 — the eigenvalue of H closest to 1 — so its
   H-coordinates z are recovered by inverse iteration on (H − I): near-
   singularity of the shifted factor is the good case (the amplified solve
   direction IS the eigendirection).  The Ritz vector Σ z_j v_j is clamped
   to the nonnegative cone, L1-normalised, and either accepted (residual
   ‖πQ‖₁ ≤ tol) or used to seed the next restart; the best iterate seen is
   retained so late restarts can never un-converge the answer.  Memory is
   (m+1) vectors; each basis extension is one sweep, which is what the
   budget's sweep ceiling counts. *)

let dot a b =
  let n = Array.length a in
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. (a.(i) *. b.(i))
  done;
  !s

(* right eigenvector of the leading k×k block of hessenberg [h] for the
   eigenvalue closest to 1 (the stationary direction of the projected
   chain), by inverse iteration on (H − I).  One LU factorisation with
   partial pivoting, then a handful of solves; a hard zero pivot is
   perturbed at the underflow scale — near-singularity only makes the
   iteration converge faster.  Deterministic start and iteration count. *)
let stationary_eig h k =
  let a =
    Array.init k (fun i -> Array.init k (fun j -> h.(i).(j) -. if i = j then 1.0 else 0.0))
  in
  let piv = Array.init k Fun.id in
  for c = 0 to k - 1 do
    let best = ref c in
    for r = c + 1 to k - 1 do
      if abs_float a.(r).(c) > abs_float a.(!best).(c) then best := r
    done;
    if !best <> c then begin
      let row = a.(c) in
      a.(c) <- a.(!best);
      a.(!best) <- row;
      let t = piv.(c) in
      piv.(c) <- piv.(!best);
      piv.(!best) <- t
    end;
    if abs_float a.(c).(c) < 1e-300 then a.(c).(c) <- 1e-300;
    for r = c + 1 to k - 1 do
      let f = a.(r).(c) /. a.(c).(c) in
      a.(r).(c) <- f;
      for j = c + 1 to k - 1 do
        a.(r).(j) <- a.(r).(j) -. (f *. a.(c).(j))
      done
    done
  done;
  let z = Array.make k (1.0 /. float_of_int k) in
  let y = Array.make k 0.0 in
  for _ = 1 to 8 do
    for i = 0 to k - 1 do
      y.(i) <- z.(piv.(i))
    done;
    for i = 1 to k - 1 do
      let s = ref y.(i) in
      for j = 0 to i - 1 do
        s := !s -. (a.(i).(j) *. y.(j))
      done;
      y.(i) <- !s
    done;
    for i = k - 1 downto 0 do
      let s = ref y.(i) in
      for j = i + 1 to k - 1 do
        s := !s -. (a.(i).(j) *. y.(j))
      done;
      y.(i) <- !s /. a.(i).(i)
    done;
    let nrm = sqrt (dot y y) in
    if nrm > 0.0 then
      for i = 0 to k - 1 do
        z.(i) <- y.(i) /. nrm
      done
  done;
  z

let stationary_arnoldi_stats ?budget ?(tol = 1e-10) ?(restart = 30) ?(max_matvecs = 100_000) t =
  let max_matvecs =
    match budget with None -> max_matvecs | Some b -> Supervise.Budget.sweeps_allowed b max_matvecs
  in
  let f = freeze t in
  let n = t.n in
  let lambda = 1.01 *. Array.fold_left max 1e-12 t.exit in
  let m = max 2 (min restart n) in
  let v = Array.init (m + 1) (fun _ -> Array.make n 0.0) in
  let h = Array.make_matrix (m + 1) m 0.0 in
  let x = Array.make n (1.0 /. float_of_int n) in
  let best = Array.make n 0.0 in
  let best_r = ref infinity in
  let matvecs = ref 0 in
  let rec restart_loop () =
    let nrm = sqrt (dot x x) in
    for i = 0 to n - 1 do
      v.(0).(i) <- x.(i) /. nrm
    done;
    Array.iter (fun row -> Array.fill row 0 m 0.0) h;
    let k = ref m in
    (try
       for j = 0 to m - 1 do
         incr matvecs;
         budget_check budget !matvecs;
         let w = v.(j + 1) in
         matvec_uniformized t f ~lambda v.(j) w;
         for i = 0 to j do
           let hij = dot w v.(i) in
           h.(i).(j) <- hij;
           let vi = v.(i) in
           for l = 0 to n - 1 do
             w.(l) <- w.(l) -. (hij *. vi.(l))
           done
         done;
         let hh = sqrt (dot w w) in
         h.(j + 1).(j) <- hh;
         (* the Krylov space closed early: the basis already spans an
            invariant subspace containing the stationary direction *)
         if hh <= 1e-13 then begin
           k := j + 1;
           raise Exit
         end;
         for l = 0 to n - 1 do
           w.(l) <- w.(l) /. hh
         done
       done
     with Exit -> ());
    let k = !k in
    let z = stationary_eig h k in
    for l = 0 to n - 1 do
      x.(l) <- 0.0
    done;
    for j = 0 to k - 1 do
      let zj = z.(j) and vj = v.(j) in
      for l = 0 to n - 1 do
        x.(l) <- x.(l) +. (zj *. vj.(l))
      done
    done;
    (* the Ritz vector's global sign is arbitrary; orient it positive, then
       clamp the rounding-level negative entries before normalising *)
    let mass = Array.fold_left ( +. ) 0.0 x in
    if mass < 0.0 then
      for l = 0 to n - 1 do
        x.(l) <- -.x.(l)
      done;
    for l = 0 to n - 1 do
      if x.(l) < 0.0 then x.(l) <- 0.0
    done;
    normalize x;
    let r = residual_frozen t f x in
    if r < !best_r then begin
      best_r := r;
      Array.blit x 0 best 0 n
    end;
    if !best_r <= tol then { sweeps = !matvecs; residual = !best_r }
    else if !matvecs >= max_matvecs then
      Supervise.Error.raise_
        (Supervise.Error.No_convergence { sweeps = !matvecs; residual = !best_r })
    else restart_loop ()
  in
  let st = restart_loop () in
  (best, st)
