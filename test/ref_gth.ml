(* The reference dense GTH elimination the sparse solver is checked
   against, bit for bit: the n×n loop as it stood before elimination moved
   onto the CSR rows, and the dense image of a generator it runs on. *)

open Linalg

(* [n × n] rate matrix of the merged edges, zero diagonal *)
let dense_of_sparse s =
  let n = Sparse.size s in
  let m = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    Sparse.iter_outgoing s i (fun j r -> m.(i).(j) <- r)
  done;
  m

let stationary_dense rates =
  let n = Array.length rates in
  Array.iter
    (fun row -> if Array.length row <> n then invalid_arg "Gth.stationary: non-square matrix")
    rates;
  if n = 0 then [||]
  else if n = 1 then [| 1.0 |]
  else begin
    let m = Array.map Array.copy rates in
    for i = 0 to n - 1 do
      m.(i).(i) <- 0.0
    done;
    (* Eliminate states n-1 .. 1.  After step k, state k is expressed as a
       linear combination of states < k via the (folded) column m.(i).(k). *)
    for k = n - 1 downto 1 do
      let s = ref 0.0 in
      for j = 0 to k - 1 do
        s := !s +. m.(k).(j)
      done;
      if !s <= 0.0 then
        Supervise.Error.raise_
          (Supervise.Error.Numerical
             {
               what = Printf.sprintf "reducible chain: no outflow mass eliminating state %d" k;
               where = "Gth.stationary";
             });
      for i = 0 to k - 1 do
        m.(i).(k) <- m.(i).(k) /. !s
      done;
      for i = 0 to k - 1 do
        let w = m.(i).(k) in
        if w > 0.0 then
          for j = 0 to k - 1 do
            if j <> i then m.(i).(j) <- m.(i).(j) +. (w *. m.(k).(j))
          done
      done
    done;
    let pi = Array.make n 0.0 in
    pi.(0) <- 1.0;
    for j = 1 to n - 1 do
      let acc = ref 0.0 in
      for i = 0 to j - 1 do
        acc := !acc +. (pi.(i) *. m.(i).(j))
      done;
      pi.(j) <- !acc
    done;
    let total = Array.fold_left ( +. ) 0.0 pi in
    Array.map (fun v -> v /. total) pi
  end

let stationary s = stationary_dense (dense_of_sparse s)
