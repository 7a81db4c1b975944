type level = Debug | Info | Warn | Error

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type event = {
  lg_ts : float;
  lg_level : level;
  lg_comp : string;
  lg_event : string;
  lg_trace : string option;
  lg_attrs : (string * string) list;
  lg_suppressed : int;
}

let add_json_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  add_json_escaped b s;
  Buffer.contents b

let pid = lazy (Unix.getpid ())

let to_json e =
  let b = Buffer.create 160 in
  Buffer.add_string b (Printf.sprintf "{\"ts\":%.6f" e.lg_ts);
  Buffer.add_string b
    (Printf.sprintf ",\"level\":%S" (level_to_string e.lg_level));
  Buffer.add_string b
    (Printf.sprintf ",\"comp\":\"%s\"" (json_escape e.lg_comp));
  Buffer.add_string b
    (Printf.sprintf ",\"event\":\"%s\"" (json_escape e.lg_event));
  Buffer.add_string b (Printf.sprintf ",\"pid\":%d" (Lazy.force pid));
  (match e.lg_trace with
  | Some tr ->
      Buffer.add_string b (Printf.sprintf ",\"trace\":\"%s\"" (json_escape tr))
  | None -> ());
  if e.lg_suppressed > 0 then
    Buffer.add_string b (Printf.sprintf ",\"suppressed\":%d" e.lg_suppressed);
  (match e.lg_attrs with
  | [] -> ()
  | attrs ->
      Buffer.add_string b ",\"attrs\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
        attrs;
      Buffer.add_char b '}');
  Buffer.add_char b '}';
  Buffer.contents b

type sink = string -> unit

let stderr_sink line = prerr_endline line
(* a formatter is not safe to share between domains, and the service's
   connection threads log from several at once *)
let formatter_mutex = Mutex.create ()
let formatter_sink ppf line =
  Mutex.protect formatter_mutex (fun () -> Format.fprintf ppf "%s@." line)
let null_sink (_ : string) = ()

let tap : (event -> unit) option Atomic.t = Atomic.make None
let set_tap f = Atomic.set tap f

(* Per-event-name rate window: [win] is the start of the current 1 s
   window, [n] emissions within it, [dropped] events since the last
   emission (reported on the next one that gets through). *)
type key_state = { mutable win : float; mutable n : int; mutable dropped : int }

type t = {
  comp : string;
  min_level : level;
  rate : int;
  sink : sink;
  keys : (string, key_state) Hashtbl.t;
  lm : Mutex.t;
}

let create ?(level = Info) ?(rate = 20) ?(sink = stderr_sink) ~comp () =
  { comp; min_level = level; rate; sink; keys = Hashtbl.create 8;
    lm = Mutex.create () }

let log t ?now ?trace ?(attrs = []) level event_name =
  let now = match now with Some n -> n | None -> Unix.gettimeofday () in
  let ev =
    { lg_ts = now; lg_level = level; lg_comp = t.comp; lg_event = event_name;
      lg_trace = trace; lg_attrs = attrs; lg_suppressed = 0 }
  in
  (match Atomic.get tap with
  | Some f -> ( try f ev with _ -> ())
  | None -> ());
  if severity level >= severity t.min_level then begin
    let emit =
      if t.rate <= 0 then Some 0
      else begin
        Mutex.lock t.lm;
        let ks =
          match Hashtbl.find_opt t.keys event_name with
          | Some ks -> ks
          | None ->
              let ks = { win = now; n = 0; dropped = 0 } in
              Hashtbl.replace t.keys event_name ks;
              ks
        in
        if now -. ks.win >= 1.0 then begin
          ks.win <- now;
          ks.n <- 0
        end;
        let r =
          if ks.n < t.rate then begin
            ks.n <- ks.n + 1;
            let d = ks.dropped in
            ks.dropped <- 0;
            Some d
          end
          else begin
            ks.dropped <- ks.dropped + 1;
            None
          end
        in
        Mutex.unlock t.lm;
        r
      end
    in
    match emit with
    | None -> ()
    | Some suppressed -> t.sink (to_json { ev with lg_suppressed = suppressed })
  end

let debug t ?trace ?attrs ev = log t ?trace ?attrs Debug ev
let info t ?trace ?attrs ev = log t ?trace ?attrs Info ev
let warn t ?trace ?attrs ev = log t ?trace ?attrs Warn ev
let error t ?trace ?attrs ev = log t ?trace ?attrs Error ev
