(* Worker fleet supervision.

   Each worker is a child process running the query daemon on its own
   socket.  One monitor thread owns the lifecycle: it reaps exits
   (waitpid WNOHANG), schedules restarts on the Backoff policy, probes
   health with deadline-bounded pings, and escalates a wedged worker
   (heartbeat missed, or stuck in Starting past the start deadline) to
   SIGKILL so the reap-and-restart path handles it like any crash.

   State machine per slot:

     Starting --ping ok--> Up --exit/missed beat--> Restarting --delay--> Starting
                                                        \--attempts exhausted--> Dead

   Attempts reset only on a heartbeat of an Up worker — a worker that
   keeps dying before its first full heartbeat period burns through the
   restart budget and is marked Dead, which is what distinguishes a
   crash loop from occasional chaos. *)

type spec = { argv : string array; env : string array; addr : Service.Protocol.addr }

type state = Starting | Up | Restarting of { attempt : int; until : float } | Dead

let state_to_string = function
  | Starting -> "starting"
  | Up -> "up"
  | Restarting _ -> "restarting"
  | Dead -> "dead"

type slot = {
  spec : spec;
  mutable pid : int option;
  mutable st : state;
  mutable attempts : int;  (* restarts consumed since the last healthy beat *)
  mutable spawned_at : float;
  mutable last_beat : float;
  mutable restarts : int;  (* lifetime restarts, for stats *)
}

type t = {
  slots : slot array;
  backoff : Supervise.Backoff.policy;
  heartbeat_period : float;
  heartbeat_deadline : float;
  start_deadline : float;
  slog : Obs.Log.t;  (* structured events, routed through the ?log formatter *)
  lock : Mutex.t;
  stopping : bool Atomic.t;
  mutable monitor : Thread.t option;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let spawn t i slot =
  let now = Unix.gettimeofday () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process_env slot.spec.argv.(0) slot.spec.argv slot.spec.env null Unix.stdout
          Unix.stderr)
  in
  slot.pid <- Some pid;
  slot.st <- Starting;
  slot.spawned_at <- now;
  Obs.Log.info t.slog
    ~attrs:
      [
        ("worker", string_of_int i);
        ("pid", string_of_int pid);
        ("addr", Service.Protocol.addr_to_string slot.spec.addr);
      ]
    "worker_spawn"

let ping addr ~deadline =
  match Service.Client.connect ~deadline addr with
  | Error _ -> false
  | Ok client ->
      Fun.protect
        ~finally:(fun () -> Service.Client.close client)
        (fun () ->
          match Service.Client.ping ~deadline client with
          | Ok reply -> Service.Client.reply_ok reply
          | Error _ -> false)

(* A worker that dies by [_exit] or SIGKILL cannot unlink its own Unix
   socket, so the supervisor removes the path of every slot it gives up
   on, and of every slot once the fleet is down. *)
let remove_socket t i slot =
  match slot.spec.addr with
  | Service.Protocol.Tcp _ -> ()
  | Service.Protocol.Unix_domain path -> (
      try Unix.unlink path with
      | Unix.Unix_error (Unix.ENOENT, _, _) -> ()
      | Unix.Unix_error (e, _, _) ->
          Obs.Log.warn t.slog
            ~attrs:[ ("worker", string_of_int i); ("error", Unix.error_message e) ]
            "socket_unlink_failed")

let mark_dead t i slot =
  slot.pid <- None;
  slot.st <- Dead;
  remove_socket t i slot

let kill_slot slot signal =
  match slot.pid with
  | Some pid -> ( try Unix.kill pid signal with Unix.Unix_error _ -> ())
  | None -> ()

(* One monitor pass.  State transitions happen under the lock; the ping
   (which can block up to its deadline) runs outside it so readers are
   never stalled behind a probe. *)
let tick t =
  let now = Unix.gettimeofday () in
  (* 1. reap exits and schedule restarts *)
  Array.iteri
    (fun i slot ->
      match slot.pid with
      | None -> ()
      | Some pid -> (
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> ()
          | _, status ->
              locked t (fun () ->
                  slot.pid <- None;
                  if Atomic.get t.stopping then mark_dead t i slot
                  else begin
                    let attempt = slot.attempts in
                    if Supervise.Backoff.exhausted t.backoff ~attempt then begin
                      mark_dead t i slot;
                      Obs.Log.error t.slog
                        ~attrs:
                          [ ("worker", string_of_int i); ("attempts", string_of_int attempt) ]
                        "worker_dead"
                    end
                    else begin
                      let wait = Supervise.Backoff.delay t.backoff ~seed:i ~attempt in
                      slot.st <- Restarting { attempt; until = now +. wait };
                      slot.attempts <- attempt + 1;
                      slot.restarts <- slot.restarts + 1;
                      Obs.Log.warn t.slog
                        ~attrs:
                          [
                            ("worker", string_of_int i);
                            ( "status",
                              match status with
                              | Unix.WEXITED c -> Printf.sprintf "exit %d" c
                              | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
                              | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s );
                            ("attempt", string_of_int (attempt + 1));
                            ("wait_s", Printf.sprintf "%.3f" wait);
                          ]
                        "worker_exit"
                    end
                  end)
          | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
              locked t (fun () -> mark_dead t i slot)))
    t.slots;
  (* 2. spawn due restarts *)
  Array.iteri
    (fun i slot ->
      match slot.st with
      | Restarting { until; _ } when now >= until && not (Atomic.get t.stopping) ->
          spawn t i slot
      | _ -> ())
    t.slots;
  (* 3. health: promote Starting workers, heartbeat Up workers *)
  Array.iteri
    (fun i slot ->
      match slot.st with
      | Starting ->
          if ping slot.spec.addr ~deadline:(now +. 0.25) then begin
            locked t (fun () ->
                if slot.st = Starting then begin
                  slot.st <- Up;
                  slot.last_beat <- Unix.gettimeofday ()
                end);
            Obs.Log.info t.slog ~attrs:[ ("worker", string_of_int i) ] "worker_up"
          end
          else if now -. slot.spawned_at > t.start_deadline then begin
            Obs.Log.warn t.slog
              ~attrs:
                [
                  ("worker", string_of_int i);
                  ("deadline_s", Printf.sprintf "%.3g" t.start_deadline);
                ]
              "worker_start_timeout";
            kill_slot slot Sys.sigkill
          end
      | Up when now -. slot.last_beat >= t.heartbeat_period ->
          if ping slot.spec.addr ~deadline:(now +. t.heartbeat_deadline) then
            locked t (fun () ->
                slot.last_beat <- Unix.gettimeofday ();
                slot.attempts <- 0)
          else begin
            Obs.Log.warn t.slog
              ~attrs:[ ("worker", string_of_int i) ]
              "worker_heartbeat_missed";
            kill_slot slot Sys.sigkill
          end
      | _ -> ())
    t.slots

let monitor_loop t =
  while not (Atomic.get t.stopping) do
    (try tick t with _ -> ());
    Thread.delay 0.05
  done

let start ?(backoff = Supervise.Backoff.default_restart) ?(heartbeat_period = 1.0)
    ?(heartbeat_deadline = 1.0) ?(start_deadline = 10.0) ?(log = Format.err_formatter) specs =
  if Array.length specs = 0 then invalid_arg "Supervisor.start: need at least one worker";
  let now = Unix.gettimeofday () in
  let t =
    {
      slots =
        Array.map
          (fun spec ->
            {
              spec;
              pid = None;
              st = Starting;
              attempts = 0;
              spawned_at = now;
              last_beat = now;
              restarts = 0;
            })
          specs;
      backoff;
      heartbeat_period;
      heartbeat_deadline;
      start_deadline;
      slog = Obs.Log.create ~sink:(Obs.Log.formatter_sink log) ~comp:"supervisor" ();
      lock = Mutex.create ();
      stopping = Atomic.make false;
      monitor = None;
    }
  in
  Array.iteri (fun i slot -> spawn t i slot) t.slots;
  t.monitor <- Some (Thread.create monitor_loop t);
  t

let size t = Array.length t.slots
let addr t i = t.slots.(i).spec.addr
let state t i = locked t @@ fun () -> t.slots.(i).st
let alive t i = locked t @@ fun () -> t.slots.(i).st = Up
let restarts t i = locked t @@ fun () -> t.slots.(i).restarts
let restarts_total t = locked t @@ fun () -> Array.fold_left (fun a s -> a + s.restarts) 0 t.slots

let wait_up ?(deadline = infinity) t =
  let rec go () =
    let all = Array.for_all (fun s -> locked t (fun () -> s.st = Up)) t.slots in
    if all then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let shutdown ?(grace = 5.0) t =
  Atomic.set t.stopping true;
  (match t.monitor with
  | Some th ->
      Thread.join th;
      t.monitor <- None
  | None -> ());
  Array.iter (fun slot -> kill_slot slot Sys.sigterm) t.slots;
  let deadline = Unix.gettimeofday () +. grace in
  let pending () =
    Array.exists
      (fun slot ->
        match slot.pid with
        | None -> false
        | Some pid -> (
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ -> true
            | _ | (exception Unix.Unix_error (Unix.ECHILD, _, _)) ->
                slot.pid <- None;
                slot.st <- Dead;
                false))
      t.slots
  in
  while pending () && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  (* stragglers past the grace period get SIGKILL and a blocking reap *)
  Array.iteri
    (fun i slot ->
      match slot.pid with
      | None -> ()
      | Some pid ->
          Obs.Log.warn t.slog
            ~attrs:[ ("worker", string_of_int i) ]
            "sigterm_ignored";
          kill_slot slot Sys.sigkill;
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()))
    t.slots;
  Array.iteri (mark_dead t) t.slots;
  Obs.Log.info t.slog
    ~attrs:[ ("restarts", string_of_int (restarts_total t)) ]
    "fleet_stop"
