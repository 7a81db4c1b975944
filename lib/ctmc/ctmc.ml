type t = { n : int; sparse : Linalg.Sparse.t }

let create n = { n; sparse = Linalg.Sparse.create n }

let add_rate t i j r =
  if r <= 0.0 then invalid_arg "Ctmc.add_rate: rate must be positive";
  Linalg.Sparse.add_rate t.sparse i j r

let n_states t = t.n

(* Crossover between sparse GTH elimination and Gauss–Seidel (see
   DESIGN.md): GTH is exact, and its fill stays affordable through roughly
   a thousand states.  Above that the fill of the general method's chains
   grows faster than Gauss–Seidel's sweeps. *)
let gth_threshold = 1200

let m_gth_solves =
  Obs.Metrics.Counter.create ~help:"Exact GTH stationary solves" "ctmc_gth_solves_total"

let m_gth_entries =
  Obs.Metrics.Counter.create ~help:"L and U entries stored by GTH solves (generator plus fill)"
    "ctmc_gth_factor_entries_total"

let gth ?budget t =
  let pi, entries = Linalg.Gth.stationary_stats ?budget t.sparse in
  Obs.Metrics.Counter.incr m_gth_solves;
  Obs.Metrics.Counter.add m_gth_entries entries;
  pi

(* ---- supervised solving: the escalation ladder ---- *)

type rung = Rung_gth | Rung_gauss_seidel of { tol : float }

let rung_name = function
  | Rung_gth -> "gth"
  | Rung_gauss_seidel { tol } -> Printf.sprintf "gauss-seidel(tol=%g)" tol

(* Cheapest first: GTH's fill stays affordable up to the threshold, and
   Gauss–Seidel's sweeps are cheaper above it.  Each rung backs up the
   other: Gauss–Seidel answers a chain whose elimination passes GTH's
   fill bound, and GTH, exact under that bound, answers a chain on which
   Gauss–Seidel stalls, such as a nearly decomposable one. *)
let default_ladder n =
  let gs = Rung_gauss_seidel { tol = 1e-12 } in
  if n <= gth_threshold then [ Rung_gth; gs ] else [ gs; Rung_gth ]

let m_gs_sweeps =
  Obs.Metrics.Counter.create
    ~labels:[ ("method", "gauss-seidel") ]
    ~help:"Iterative stationary-solver sweeps" "ctmc_sweeps_total"

let m_rung_reached rung =
  Obs.Metrics.Counter.create
    ~labels:[ ("rung", rung) ]
    ~help:"Escalation-ladder rung that produced the accepted solution"
    "ctmc_ladder_rung_total"

let m_ladder_failed =
  Obs.Metrics.Counter.create ~help:"Supervised solves where every rung failed"
    "ctmc_ladder_failed_total"

let run_rung ?budget t = function
  | Rung_gth -> (gth ?budget t, Supervise.Provenance.Exact)
  | Rung_gauss_seidel { tol } ->
      let pi, stats = Linalg.Sparse.stationary_gauss_seidel_stats ?budget ~tol t.sparse in
      Obs.Metrics.Counter.add m_gs_sweeps stats.Linalg.Sparse.sweeps;
      (pi, Supervise.Provenance.Iterative { residual = stats.Linalg.Sparse.residual })

(* the ladder's first rung alone: no span and no per-rung counter lookup,
   because the memoised pattern solves call it per rate matrix *)
let stationary t = fst (run_rung t (List.hd (default_ladder t.n)))

let stationary_supervised ?budget ?ladder t =
  let ladder = match ladder with Some l -> l | None -> default_ladder t.n in
  if ladder = [] then invalid_arg "Ctmc.stationary_supervised: empty ladder";
  let rec climb prior = function
    | [] -> assert false
    | rung :: rest -> (
        try
          let pi, quality =
            Obs.Trace.span ("ctmc:" ^ rung_name rung) (fun () -> run_rung ?budget t rung)
          in
          Obs.Metrics.Counter.incr (m_rung_reached (rung_name rung));
          (pi, Supervise.Provenance.solved ~rung:(rung_name rung) ~prior quality)
        with Supervise.Error.Solver_error err ->
          let prior =
            prior @ [ { Supervise.Provenance.rung = rung_name rung; outcome = Error err } ]
          in
          (* a spent wall clock fails every later rung too — stop climbing *)
          let final =
            match err with Supervise.Error.Budget_exhausted _ -> true | _ -> rest = []
          in
          if final then begin
            Obs.Metrics.Counter.incr m_ladder_failed;
            raise (Supervise.Error.Solver_error err)
          end
          else climb prior rest)
  in
  Obs.Trace.span "ctmc:stationary_supervised" (fun () ->
      Obs.Trace.add_attr "states" (string_of_int t.n);
      climb [] ladder)

(* ---- exact lumping ----

   A partition is (strongly) lumpable when every state of a class has the
   same aggregate rate into every OTHER class; the quotient chain over the
   classes is then itself a CTMC whose stationary distribution carries the
   class masses of the original.  The quotient rows are read off any class
   representative (here: the lowest-numbered member, with targets in that
   row's first-touch order, so the quotient build is deterministic). *)

let m_lump_states =
  Obs.Metrics.Counter.create ~help:"States entering exact-lumpability quotients"
    "ctmc_lump_states_total"

let m_lump_classes =
  Obs.Metrics.Counter.create ~help:"Quotient classes produced by exact lumping"
    "ctmc_lump_classes_total"

(* aggregate row of state [i] over classes, written into the scratch pair
   (values + touched-class list in first-touch order) *)
let aggregate_row t ~classes ~acc ~touched i =
  let n_touched = ref 0 in
  Linalg.Sparse.iter_outgoing t.sparse i (fun j r ->
      let c = classes.(j) in
      if acc.(c) = 0.0 then begin
        touched.(!n_touched) <- c;
        incr n_touched
      end;
      acc.(c) <- acc.(c) +. r);
  !n_touched

let lump ?(verify = true) t ~classes ~n_classes =
  Obs.Trace.span "ctmc:lump" (fun () ->
      if Array.length classes <> t.n then invalid_arg "Ctmc.lump: classes length mismatch";
      let reps = Array.make n_classes (-1) in
      for i = 0 to t.n - 1 do
        let c = classes.(i) in
        if c < 0 || c >= n_classes then invalid_arg "Ctmc.lump: class id out of range";
        if reps.(c) < 0 then reps.(c) <- i
      done;
      Array.iteri
        (fun c r -> if r < 0 then invalid_arg (Printf.sprintf "Ctmc.lump: empty class %d" c))
        reps;
      let q = create n_classes in
      let acc = Array.make n_classes 0.0 in
      let touched = Array.make n_classes 0 in
      for c = 0 to n_classes - 1 do
        let k = aggregate_row t ~classes ~acc ~touched reps.(c) in
        for s = 0 to k - 1 do
          let c' = touched.(s) in
          if c' <> c && acc.(c') > 0.0 then add_rate q c c' acc.(c');
          acc.(c') <- 0.0
        done
      done;
      if verify then begin
        (* exactness: every member's aggregate row into other classes must
           match its representative's, or the quotient is not a CTMC of the
           original process *)
        let ref_acc = Array.make n_classes 0.0 in
        let ref_touched = Array.make n_classes 0 in
        for i = 0 to t.n - 1 do
          let c = classes.(i) in
          let r = reps.(c) in
          if i <> r then begin
            let kr = aggregate_row t ~classes ~acc:ref_acc ~touched:ref_touched r in
            let ki = aggregate_row t ~classes ~acc ~touched i in
            let ok = ref true in
            for s = 0 to kr - 1 do
              let c' = ref_touched.(s) in
              if c' <> c then begin
                let a = ref_acc.(c') and b = acc.(c') in
                let scale = max (abs_float a) (abs_float b) in
                if abs_float (a -. b) > 1e-9 *. max scale 1e-300 then ok := false
              end
            done;
            (* classes touched by i but not by the representative *)
            for s = 0 to ki - 1 do
              let c' = touched.(s) in
              if c' <> c && ref_acc.(c') = 0.0 && acc.(c') > 0.0 then ok := false
            done;
            for s = 0 to kr - 1 do
              ref_acc.(ref_touched.(s)) <- 0.0
            done;
            for s = 0 to ki - 1 do
              acc.(touched.(s)) <- 0.0
            done;
            if not !ok then
              Supervise.Error.raise_
                (Supervise.Error.Numerical
                   {
                     what = Printf.sprintf "partition is not exactly lumpable at state %d" i;
                     where = "Ctmc.lump";
                   })
          end
        done
      end;
      Obs.Metrics.Counter.add m_lump_states t.n;
      Obs.Metrics.Counter.add m_lump_classes n_classes;
      Obs.Trace.add_attr "states" (string_of_int t.n);
      Obs.Trace.add_attr "classes" (string_of_int n_classes);
      q)

let lift ~classes ~n_classes pi_hat =
  let n = Array.length classes in
  let sizes = Array.make n_classes 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) classes;
  Array.init n (fun i ->
      let c = classes.(i) in
      pi_hat.(c) /. float_of_int sizes.(c))

let iter_outgoing t i f = Linalg.Sparse.iter_outgoing t.sparse i f
let exit_rate t i = Linalg.Sparse.exit_rate t.sparse i

let max_exit_rate t =
  let best = ref 0.0 in
  for i = 0 to t.n - 1 do
    let r = exit_rate t i in
    if r > !best then best := r
  done;
  !best
