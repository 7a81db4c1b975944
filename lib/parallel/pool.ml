type t = {
  size : int;
  mutex : Mutex.t;
  cond : Condition.t;  (** signalled on enqueue, task completion and close *)
  queue : (unit -> unit) Queue.t;
  inboxes : (unit -> unit) Queue.t array;
      (** [run_on] jobs, one inbox per domain; worker [d] takes from [d]
          before the shared queue, and [0] (the caller's) stays empty *)
  mutable closed : bool;
  mutable drained : bool;  (** workers joined; only ever set after [closed] *)
  mutable workers : unit Domain.t list;
}

let size t = t.size

(* Pool observability: counters/gauges live in the process-wide registry.
   "caller" tasks are the ones the mapping caller steals back while it
   waits (the caller-helps discipline), "worker" tasks ran on a spawned
   domain.  All updates are per-task or per-batch, never per-item, so the
   cost is invisible next to the mutex traffic they ride along with. *)
let m_queue_depth =
  Obs.Metrics.Gauge.create ~help:"Tasks currently waiting in the shared pool queue"
    "pool_queue_depth"

let m_pool_domains =
  Obs.Metrics.Gauge.create ~help:"Domains of the most recently created pool (caller included)"
    "pool_domains"

let m_utilization =
  Obs.Metrics.Gauge.create
    ~help:"Busy fraction of the pool during the most recent run_all batch"
    "pool_utilization"

let m_tasks executor =
  Obs.Metrics.Counter.create
    ~labels:[ ("executor", executor) ]
    ~help:"Pool tasks executed" "pool_tasks_total"

let m_tasks_worker = m_tasks "worker"
let m_tasks_caller = m_tasks "caller"

let m_busy executor =
  Obs.Metrics.Counter.create
    ~labels:[ ("executor", executor) ]
    ~help:"Nanoseconds spent executing pool tasks" "pool_busy_ns_total"

let m_busy_worker = m_busy "worker"
let m_busy_caller = m_busy "caller"

let note_depth pool = Obs.Metrics.Gauge.set m_queue_depth (float_of_int (Queue.length pool.queue))

let timed_task busy tasks task =
  let t0 = Obs.Clock.now_ns () in
  task ();
  Obs.Metrics.Counter.add busy (Obs.Clock.now_ns () - t0);
  Obs.Metrics.Counter.incr tasks

(* Worker [d] runs the jobs in its own inbox first, then the shared
   queue's tasks, and exits once both are empty and the pool is closed. *)
let worker pool d =
  let inbox = pool.inboxes.(d) in
  let rec loop () =
    Mutex.lock pool.mutex;
    let rec next () =
      if not (Queue.is_empty inbox) then Some (Queue.pop inbox)
      else if not (Queue.is_empty pool.queue) then begin
        let task = Queue.pop pool.queue in
        note_depth pool;
        Some (fun () -> timed_task m_busy_worker m_tasks_worker task)
      end
      else if pool.closed then None
      else begin
        Condition.wait pool.cond pool.mutex;
        next ()
      end
    in
    match next () with
    | None -> Mutex.unlock pool.mutex
    | Some run ->
        Mutex.unlock pool.mutex;
        run ();
        loop ()
  in
  loop ()

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: need at least one domain";
  let pool =
    {
      size = domains;
      mutex = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      inboxes = Array.init domains (fun _ -> Queue.create ());
      closed = false;
      drained = false;
      workers = [];
    }
  in
  pool.workers <- List.init (domains - 1) (fun i -> Domain.spawn (fun () -> worker pool (i + 1)));
  Obs.Metrics.Gauge.set m_pool_domains (float_of_int domains);
  pool

(* Idempotent and safe under concurrency: exactly one caller takes the
   worker list (under the mutex) and joins it; every other caller —
   concurrent or later — waits until that join has finished, so all
   shutdown calls return with the workers really gone.  Workers drain the
   queue before honouring [closed] (see [worker]), and a caller blocked in
   [run_all] keeps executing its own tasks, so in-flight maps complete. *)
let shutdown pool =
  Mutex.lock pool.mutex;
  if pool.closed then begin
    while not pool.drained do
      Condition.wait pool.cond pool.mutex
    done;
    Mutex.unlock pool.mutex
  end
  else begin
    pool.closed <- true;
    let workers = pool.workers in
    pool.workers <- [];
    Condition.broadcast pool.cond;
    Mutex.unlock pool.mutex;
    List.iter Domain.join workers;
    Mutex.lock pool.mutex;
    pool.drained <- true;
    Condition.broadcast pool.cond;
    Mutex.unlock pool.mutex
  end

let run_on pool d job =
  if d < 0 || d >= pool.size then invalid_arg "Pool.run_on: no such domain";
  Mutex.lock pool.mutex;
  let queued = d > 0 && not pool.closed in
  if queued then begin
    (* an escaping exception would end the worker's loop, and the domain
       with it *)
    Queue.add (fun () -> try job () with _ -> ()) pool.inboxes.(d);
    Condition.broadcast pool.cond
  end;
  Mutex.unlock pool.mutex;
  if not queued then job ()

let with_pool ~domains f =
  let pool = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* Runs every task, blocking until all have completed.  The caller executes
   tasks too — including, while it waits, tasks enqueued by OTHER concurrent
   [run_all] calls.  That keeps nested parallelism (a pooled task that itself
   calls [map]) deadlock-free: somebody always makes progress.  The first
   exception (in task order of observation) is re-raised once every task has
   finished. *)
let run_all pool tasks =
  let n = Array.length tasks in
  if n > 0 then begin
    let remaining = ref n in
    let first_error = ref None in
    let wrapped task () =
      (try task ()
       with e ->
         Mutex.lock pool.mutex;
         if !first_error = None then first_error := Some e;
         Mutex.unlock pool.mutex);
      Mutex.lock pool.mutex;
      decr remaining;
      Condition.broadcast pool.cond;
      Mutex.unlock pool.mutex
    in
    let batch_t0 = Obs.Clock.now_ns () in
    let busy_before =
      Obs.Metrics.Counter.value m_busy_worker + Obs.Metrics.Counter.value m_busy_caller
    in
    Mutex.lock pool.mutex;
    Array.iter (fun task -> Queue.add (wrapped task) pool.queue) tasks;
    note_depth pool;
    Condition.broadcast pool.cond;
    while !remaining > 0 do
      if Queue.is_empty pool.queue then Condition.wait pool.cond pool.mutex
      else begin
        let task = Queue.pop pool.queue in
        note_depth pool;
        Mutex.unlock pool.mutex;
        timed_task m_busy_caller m_tasks_caller task;
        Mutex.lock pool.mutex
      end
    done;
    Mutex.unlock pool.mutex;
    (* Approximate batch utilization: busy-ns accumulated process-wide over
       the batch's wall time, normalised by pool width.  Concurrent batches
       bleed into each other's figure — good enough for a load gauge. *)
    let wall = Obs.Clock.now_ns () - batch_t0 in
    if wall > 0 then begin
      let busy_after =
        Obs.Metrics.Counter.value m_busy_worker + Obs.Metrics.Counter.value m_busy_caller
      in
      Obs.Metrics.Gauge.set m_utilization
        (float_of_int (busy_after - busy_before) /. float_of_int (pool.size * wall))
    end;
    match !first_error with None -> () | Some e -> raise e
  end

(* Contiguous chunks, a few per domain so that uneven task costs still
   balance.  Results land at their input index, so the output never depends
   on execution order. *)
let chunk_tasks pool n run_range =
  let chunks = min n (4 * pool.size) in
  Array.init chunks (fun c ->
      let lo = c * n / chunks and hi = (c + 1) * n / chunks in
      fun () -> run_range lo hi)

let map pool f input =
  let n = Array.length input in
  if n = 0 then [||]
  else if pool.size = 1 || n = 1 then Array.map f input
  else begin
    let results = Array.make n None in
    run_all pool
      (chunk_tasks pool n (fun lo hi ->
           for i = lo to hi - 1 do
             results.(i) <- Some (f input.(i))
           done));
    Array.map (function Some v -> v | None -> assert false) results
  end

let mapi pool f input =
  let indexed = Array.mapi (fun i x -> (i, x)) input in
  map pool (fun (i, x) -> f i x) indexed

let map_list pool f input = Array.to_list (map pool f (Array.of_list input))

(* Per-item error capture: a failing item yields [Error exn] at its index
   instead of poisoning the whole batch.  [map] keeps first-error-wins
   semantics for callers that want the batch to fail as a unit. *)
let map_result pool f input =
  map pool (fun x -> match f x with v -> Ok v | exception e -> Error e) input

let map_list_result pool f input = Array.to_list (map_result pool f (Array.of_list input))

let mapi_list_result pool f input =
  Array.to_list
    (map_result pool
       (fun (i, x) -> f i x)
       (Array.of_list (List.mapi (fun i x -> (i, x)) input)))

let map_seeded pool ~seed f input =
  Array.to_list
    (mapi pool (fun i x -> f (Prng.stream ~seed i) x) (Array.of_list input))

let init pool n f = map pool f (Array.init n Fun.id)

(* ---- global default pool ---- *)

let env_domains () =
  match Sys.getenv_opt "PAR_DOMAINS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> Some d
      | _ -> None)

let default_domains () =
  match env_domains () with Some d -> d | None -> Domain.recommended_domain_count ()

let default : t option ref = ref None
let default_mutex = Mutex.create ()

let () =
  at_exit (fun () ->
      Mutex.lock default_mutex;
      let p = !default in
      default := None;
      Mutex.unlock default_mutex;
      Option.iter shutdown p)

let get () =
  Mutex.lock default_mutex;
  let pool =
    match !default with
    | Some p -> p
    | None ->
        let p = create ~domains:(default_domains ()) in
        default := Some p;
        p
  in
  Mutex.unlock default_mutex;
  pool

let set_domains domains =
  if domains < 1 then invalid_arg "Pool.set_domains: need at least one domain";
  Mutex.lock default_mutex;
  let old = !default in
  default := Some (create ~domains);
  Mutex.unlock default_mutex;
  Option.iter shutdown old
