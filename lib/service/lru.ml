(* Classic hash-table-plus-doubly-linked-list LRU.  The list is threaded
   through the nodes themselves: [head] is the most recently used, [tail]
   the eviction candidate. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type stats = { hits : int; misses : int; entries : int; capacity : int; evictions : int }

type 'a t = {
  capacity : int;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutex : Mutex.t;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  {
    capacity;
    table = Hashtbl.create (min capacity 64);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    mutex = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let unlink t node =
  (match node.prev with Some p -> p.next <- node.next | None -> t.head <- node.next);
  (match node.next with Some nx -> nx.prev <- node.prev | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let lookup t key ~count_miss =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some node ->
          t.hits <- t.hits + 1;
          unlink t node;
          push_front t node;
          Some node.value
      | None ->
          if count_miss then t.misses <- t.misses + 1;
          None)

let find t key = lookup t key ~count_miss:true
let hit t key = lookup t key ~count_miss:false

let add t key value =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some node ->
          node.value <- value;
          unlink t node;
          push_front t node
      | None ->
          if Hashtbl.length t.table >= t.capacity then begin
            match t.tail with
            | Some victim ->
                unlink t victim;
                Hashtbl.remove t.table victim.key;
                t.evictions <- t.evictions + 1
            | None -> ()
          end;
          let node = { key; value; prev = None; next = None } in
          Hashtbl.replace t.table key node;
          push_front t node)

let mem t key = locked t (fun () -> Hashtbl.mem t.table key)

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        entries = Hashtbl.length t.table;
        capacity = t.capacity;
        evictions = t.evictions;
      })

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      t.head <- None;
      t.tail <- None;
      (* a cleared cache starts a fresh life: stale hit/miss/eviction
         counters would skew every post-clear hit-rate computation and the
         daemon's stats reply *)
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0)
