(* Clocks and order statistics shared by the workloads. *)

let now_s () = Obs.Clock.ns_to_s (Obs.Clock.now_ns ())

let timed f =
  let t0 = now_s () in
  let x = f () in
  (now_s () -. t0, x)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* nearest-rank percentile, [p] in (0, 100]; 0 on no samples *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* the midpoint median: the value all the repeated set-up phases report *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* named sample lists, filled by the traced runs *)
type samples = (string, float list) Hashtbl.t

let samples () : samples = Hashtbl.create 32
let get (s : samples) k = Option.value ~default:[] (Hashtbl.find_opt s k)
let add (s : samples) k v = Hashtbl.replace s k (v :: get s k)

(* [f ()], its wall time added to the samples [k] in microseconds or
   milliseconds *)
let time_us s k f =
  let dt, x = timed f in
  add s k (dt *. 1e6);
  x

let time_ms s k f =
  let dt, x = timed f in
  add s k (dt *. 1e3);
  x

let sum xs = List.fold_left ( +. ) 0.0 xs
let sum_int xs = List.fold_left ( + ) 0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Peak resident set (VmHWM) of a process, in MiB; 0 when unreadable. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                  float_of_int kb /. 1024.0)
            else scan ()
      in
      scan ()
