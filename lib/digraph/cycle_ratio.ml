exception Unbounded

type result = { ratio : float; cycle : Digraph.edge list }

(* Σweight / Σtokens, summed in list order. *)
let ratio_of cycle =
  let weight = List.fold_left (fun acc e -> acc +. e.Digraph.weight) 0.0 cycle in
  let tokens = List.fold_left (fun acc e -> acc + e.Digraph.tokens) 0 cycle in
  weight /. float_of_int tokens

(* Howard's policy iteration on one strongly connected component, in
   flat arrays: node [i]'s out-edges are [first.(i) .. first.(i + 1) - 1],
   and edge [e] goes to [dst.(e)] with [weight.(e)] and [tokens.(e)].  A
   policy picks one out-edge per node; its graph is functional, so every
   walk ends in a cycle.  Evaluation gives each node the ratio [eta] of
   the cycle it reaches and a potential [value] (0 at the cycle's smallest
   node).  Improvement first moves nodes towards larger ratios; only when
   none can move does it raise potentials among equal ratios, which closes
   a new cycle only if that cycle has a strictly larger ratio.  A pass
   that switches no edge certifies the maximum.  Returns the final policy
   and the smallest node of its best cycle. *)
let howard ~first ~dst ~weight ~tokens ~tol =
  let k = Array.length first - 1 in
  (* start from each node's heaviest edge *)
  let policy =
    Array.init k (fun i ->
        let best = ref first.(i) in
        for e = first.(i) + 1 to first.(i + 1) - 1 do
          if weight.(e) > weight.(!best) then best := e
        done;
        !best)
  in
  let eta = Array.make k 0.0 and value = Array.make k 0.0 in
  let state = Array.make k 0 (* 0 unseen, 1 on the current walk, 2 evaluated *) in
  let path = Array.make k 0 in
  (* the best cycle of the last evaluation, by its smallest node; the
     first one found wins a tie *)
  let best_root = ref 0 and best_ratio = ref neg_infinity in
  let evaluate () =
    Array.fill state 0 k 0;
    best_ratio := neg_infinity;
    for s = 0 to k - 1 do
      if state.(s) = 0 then begin
        let len = ref 0 and u = ref s in
        while state.(!u) = 0 do
          state.(!u) <- 1;
          path.(!len) <- !u;
          incr len;
          u := dst.(policy.(!u))
        done;
        if state.(!u) = 1 then begin
          (* the walk closed a new cycle: path.(start .. len-1) *)
          let start = ref (!len - 1) in
          while path.(!start) <> !u do decr start done;
          let start = !start in
          let size = !len - start in
          let rpos = ref start in
          for p = start + 1 to !len - 1 do
            if path.(p) < path.(!rpos) then rpos := p
          done;
          let root = path.(!rpos) in
          (* summed from the root, as the witness is summed *)
          let w = ref 0.0 and t = ref 0.0 and v = ref root in
          for _ = 1 to size do
            let e = policy.(!v) in
            w := !w +. weight.(e);
            t := !t +. float_of_int tokens.(e);
            v := dst.(e)
          done;
          let lam = !w /. !t in
          if lam > !best_ratio then begin
            best_root := root;
            best_ratio := lam
          end;
          eta.(root) <- lam;
          value.(root) <- 0.0;
          state.(root) <- 2;
          (* backwards around the cycle from the node before the root *)
          for d = 1 to size - 1 do
            let j = path.(start + ((!rpos - start - d + size) mod size)) in
            let e = policy.(j) in
            eta.(j) <- lam;
            value.(j) <- weight.(e) -. (lam *. float_of_int tokens.(e)) +. value.(dst.(e));
            state.(j) <- 2
          done;
          len := start
        end;
        (* the rest of the walk hangs off evaluated nodes *)
        for p = !len - 1 downto 0 do
          let j = path.(p) in
          let e = policy.(j) in
          let nj = dst.(e) in
          eta.(j) <- eta.(nj);
          value.(j) <- weight.(e) -. (eta.(nj) *. float_of_int tokens.(e)) +. value.(nj);
          state.(j) <- 2
        done
      end
    done
  in
  (* the largest gain a switch of the last improvement pass offered *)
  let gain = ref 0.0 in
  let switch i e best here =
    gain := Float.max !gain (best -. here);
    policy.(i) <- e
  in
  let improve_ratio () =
    let changed = ref false in
    for i = 0 to k - 1 do
      let best = ref (eta.(i) +. tol) and choice = ref (-1) in
      for e = first.(i) to first.(i + 1) - 1 do
        if eta.(dst.(e)) > !best then begin
          best := eta.(dst.(e));
          choice := e
        end
      done;
      if !choice >= 0 then begin
        switch i !choice !best eta.(i);
        changed := true
      end
    done;
    !changed
  in
  let improve_value () =
    let changed = ref false in
    for i = 0 to k - 1 do
      let lam = eta.(i) in
      let best = ref (value.(i) +. tol) and choice = ref (-1) in
      for e = first.(i) to first.(i + 1) - 1 do
        let j = dst.(e) in
        if abs_float (eta.(j) -. lam) <= tol then begin
          let offer = weight.(e) -. (lam *. float_of_int tokens.(e)) +. value.(j) in
          if offer > !best then begin
            best := offer;
            choice := e
          end
        end
      done;
      if !choice >= 0 then begin
        switch i !choice !best value.(i);
        changed := true
      end
    done;
    !changed
  in
  let cap = 4 * ((k * k) + Array.length dst) in
  let rec iterate passes =
    evaluate ();
    gain := 0.0;
    if improve_ratio () || improve_value () then
      if passes >= cap then
        Supervise.Error.raise_
          (Supervise.Error.No_convergence { sweeps = passes; residual = !gain })
      else iterate (passes + 1)
  in
  iterate 1;
  (policy, !best_root)

(* Both entries switch with the tolerance 1e-10 · max(1, max |weight|),
   folding this from 1.0 over every weight of the graph. *)
let max_abs acc w = max acc (abs_float w)

(* Howard on the component of sorted [members]; [local.(u)] is the
   position of node [u] in its component.  Returns the best cycle of the
   final policy graph, starting at its smallest node. *)
let solve_component graph ~component ~local ~tol members =
  let rows =
    Array.map
      (fun u ->
        Digraph.out_edges graph u
        |> List.filter (fun e -> component.(e.Digraph.dst) = component.(u))
        |> List.rev |> Array.of_list)
      members
  in
  if Array.length rows.(0) = 0 then None (* a single node without a self-loop *)
  else begin
    let first = Array.make (Array.length members + 1) 0 in
    Array.iteri (fun i row -> first.(i + 1) <- first.(i) + Array.length row) rows;
    let edges = Array.concat (Array.to_list rows) in
    let dst = Array.map (fun e -> local.(e.Digraph.dst)) edges in
    let weight = Array.map (fun e -> e.Digraph.weight) edges in
    let tokens = Array.map (fun e -> e.Digraph.tokens) edges in
    let policy, root = howard ~first ~dst ~weight ~tokens ~tol in
    let rec walk v acc =
      let e = policy.(v) in
      let acc = edges.(e) :: acc in
      if dst.(e) = root then List.rev acc else walk dst.(e) acc
    in
    let cycle = walk root [] in
    Some { ratio = ratio_of cycle; cycle }
  end

let max_cycle_ratio graph =
  if not (Digraph.zero_token_acyclic graph) then raise Unbounded;
  let n = Digraph.n_nodes graph in
  let tol =
    1e-10 *. List.fold_left (fun acc e -> max_abs acc e.Digraph.weight) 1.0 (Digraph.edges graph)
  in
  let components =
    List.map
      (fun nodes ->
        let a = Array.of_list nodes in
        Array.sort Int.compare a;
        a)
      (Digraph.sccs graph)
  in
  let component = Array.make n 0 and local = Array.make n 0 in
  List.iteri
    (fun c members ->
      Array.iteri
        (fun i u ->
          component.(u) <- c;
          local.(u) <- i)
        members)
    components;
  List.fold_left
    (fun best members ->
      match (solve_component graph ~component ~local ~tol members, best) with
      | Some r, Some b when r.ratio <= b.ratio -> best
      | None, _ -> best
      | found, _ -> found)
    None components

let max_cycle_ratio_flat ~first ~dst ~weight ~tokens =
  let policy, root =
    howard ~first ~dst ~weight ~tokens ~tol:(1e-10 *. Array.fold_left max_abs 1.0 weight)
  in
  (* Σweight / Σtokens along the witness from its smallest node, summed
     as [ratio_of] sums it *)
  let rec sum v w t =
    let e = policy.(v) in
    let w = w +. weight.(e) and t = t + tokens.(e) in
    if dst.(e) = root then w /. float_of_int t else sum dst.(e) w t
  in
  sum root 0.0 0

let karp_max_cycle_mean graph =
  let n = Digraph.n_nodes graph in
  if n = 0 then None
  else begin
    let d = Array.make_matrix (n + 1) n neg_infinity in
    for v = 0 to n - 1 do
      d.(0).(v) <- 0.0
    done;
    let all_edges = Digraph.edges graph in
    for k = 1 to n do
      List.iter
        (fun e ->
          let src = e.Digraph.src and dst = e.Digraph.dst in
          if d.(k - 1).(src) > neg_infinity then begin
            let candidate = d.(k - 1).(src) +. e.Digraph.weight in
            if candidate > d.(k).(dst) then d.(k).(dst) <- candidate
          end)
        all_edges
    done;
    let best = ref neg_infinity in
    for v = 0 to n - 1 do
      if d.(n).(v) > neg_infinity then begin
        let worst = ref infinity in
        for k = 0 to n - 1 do
          if d.(k).(v) > neg_infinity then begin
            let mean = (d.(n).(v) -. d.(k).(v)) /. float_of_int (n - k) in
            if mean < !worst then worst := mean
          end
        done;
        if !worst > !best then best := !worst
      end
    done;
    if !best = neg_infinity then None else Some !best
  end
