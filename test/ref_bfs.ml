(* The reference breadth-first exploration the packed explorers are
   checked against: whole int-array markings in a hash table, successors
   from [Marking.enabled] and [Marking.fire].  Also a generator of small
   random event graphs whose codes need several words. *)

open Petrinet

module H = Hashtbl.Make (struct
  type t = int array

  let equal = ( = )
  let hash a = Array.fold_left (fun h x -> ((h * 31) + x) land max_int) 17 a
end)

type graph = { markings : Marking.t array; row_ptr : int array; succ : int array; via : int array }

let explore teg =
  let ids = H.create 1024 and queue = Queue.create () in
  let order = ref [] and degrees = ref [] and edges = ref [] in
  let id m =
    match H.find_opt ids m with
    | Some i -> i
    | None ->
        let i = H.length ids in
        H.add ids m i;
        order := m :: !order;
        Queue.add m queue;
        i
  in
  ignore (id (Marking.initial teg));
  while not (Queue.is_empty queue) do
    let m = Queue.pop queue in
    let enabled = Marking.enabled teg m in
    List.iter (fun v -> edges := (id (Marking.fire teg m v), v) :: !edges) enabled;
    degrees := List.length enabled :: !degrees
  done;
  let degrees = Array.of_list (List.rev !degrees) in
  let row_ptr = Array.make (Array.length degrees + 1) 0 in
  Array.iteri (fun i d -> row_ptr.(i + 1) <- row_ptr.(i) + d) degrees;
  let edges = Array.of_list (List.rev !edges) in
  {
    markings = Array.of_list (List.rev !order);
    row_ptr;
    succ = Array.map fst edges;
    via = Array.map snd edges;
  }

(* the first difference between the reference graph and a packed one *)
let mismatch r (g : Marking.graph) =
  let n = Array.length r.markings in
  if Marking.n_states g <> n then Some (Printf.sprintf "%d states, expected %d" (Marking.n_states g) n)
  else
    match List.find_opt (fun i -> Marking.marking g i <> r.markings.(i)) (List.init n Fun.id) with
    | Some i -> Some (Printf.sprintf "marking %d differs" i)
    | None ->
        if g.Marking.row_ptr <> r.row_ptr then Some "row_ptr differs"
        else if g.Marking.succ <> r.succ then Some "succ differs"
        else if g.Marking.via <> r.via then Some "via differs"
        else None

(* largest count a field sized for [x] tokens holds *)
let field_max x =
  let rec bits b acc = if b = 0 then max acc 1 else bits (b lsr 1) (acc + 1) in
  (1 lsl bits x 0) - 1

(* A strongly connected event graph on 3 to 5 transitions that outgrows
   the initial-count widths and needs three or more words on the
   total-token rung: the ring place into t0 holds 2 tokens, so t0 fires
   twice into a place sized for at most 1; extra arcs into t1..t(n-1)
   close more cycles; and constant self-loop places bring the net to at
   least 21 places and 32 tokens, i.e. fields of 6 bits or more, at most
   10 to a word. *)
let random_teg rng =
  let n = 3 + Random.State.int rng 3 in
  let teg = Teg.create ~labels:(Array.init n (Printf.sprintf "t%d")) ~times:(Array.make n 1.0) in
  for l = 0 to n - 1 do
    Teg.add_place teg ~src:l ~dst:((l + 1) mod n) ~tokens:(if l = n - 1 then 2 else Random.State.int rng 2)
  done;
  for _ = 1 to Random.State.int rng 4 do
    Teg.add_place teg ~src:(Random.State.int rng n) ~dst:(1 + Random.State.int rng (n - 1))
      ~tokens:(Random.State.int rng 3)
  done;
  Teg.add_place teg ~src:0 ~dst:0 ~tokens:32;
  while Teg.n_places teg < 21 + Random.State.int rng 4 do
    let t = Random.State.int rng n in
    Teg.add_place teg ~src:t ~dst:t ~tokens:(1 + Random.State.int rng 3)
  done;
  teg
