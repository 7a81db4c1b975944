(* What every command family of the front end shares: the argument terms,
   the loaders, the exits and the daemon connection. *)

open Cmdliner
open Streaming

(* every "error: ..." line ends the run here *)
let die ~code msg =
  Format.eprintf "error: %s@." msg;
  exit code

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* ---- files ---- *)

let model_conv =
  let parse = function
    | "overlap" -> Ok Model.Overlap
    | "strict" -> Ok Model.Strict
    | s -> Error (`Msg (Printf.sprintf "unknown model %S (use overlap|strict)" s))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Model.to_string m))

let model_arg =
  Arg.(value & opt model_conv Model.Overlap & info [ "model"; "m" ] ~docv:"MODEL"
         ~doc:"Execution model: overlap or strict.")

let file_arg ?(docv = "INSTANCE") doc = Arg.(required & pos 0 (some file) None & info [] ~docv ~doc)

let instance_arg = file_arg "Instance file."

(* a file that does not parse exits 2: [load Instance_io.parse_file],
   [Instance_io.parse_multi_file] or [Petrinet.Teg_io.parse_file] *)
let load parse path = match parse path with Ok x -> x | Error msg -> die ~code:2 msg

(* the raw text of a file sent to a daemon; an unreadable one exits 1 *)
let read_text path =
  try In_channel.with_open_text path In_channel.input_all with Sys_error msg -> die ~code:1 msg

(* ---- solver failures ---- *)

(* Typed solver failures reach the user as one actionable line (exit 3),
   never as a raw exception backtrace.  [mapping] adds the remedies that
   only a pipeline mapping has. *)
let solver_error_exit ?(mapping = true) ~cap err =
  Format.eprintf "error: %s@." (Supervise.Error.to_string err);
  (match err with
  | Supervise.Error.State_space_exceeded _ ->
      Format.eprintf
        "hint: the marking space does not fit the exploration bound; retry with a larger --cap \
         (currently %d)%s@."
        cap
        (if mapping then
           ", reduce the replication factors, or use the overlap model's per-column decomposition"
         else "")
  | Supervise.Error.No_convergence _ ->
      Format.eprintf "hint: the iterative solver stalled; a looser tolerance may help@."
  | Supervise.Error.Fill_exceeded _ ->
      Format.eprintf
        "hint: the chain is too large for exact elimination, and the iterative solver stalled \
         before it; a smaller model (fewer replicas or phases) may fit@."
  | Supervise.Error.Non_ergodic _ ->
      Format.eprintf "hint: the marking chain has no unique recurrent class@."
  | Supervise.Error.Numerical _ | Supervise.Error.Budget_exhausted _ -> ());
  exit 3

(* ---- tracing ---- *)

(* --trace FILE: record span timelines for the run and export them as a
   Chrome trace_event file (chrome://tracing, Perfetto). *)
let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record a span timeline of the run and write it to $(docv) in Chrome \
               trace_event JSON (open in chrome://tracing or Perfetto).")

(* [~per_process:true] exports silently under our pid and a human name
   (OBS_PROCESS_NAME, default "serve pid N"), so a cluster's worker
   exports merge into one multi-process timeline *)
let with_trace ?(per_process = false) trace f =
  match trace with
  | None -> f ()
  | Some path ->
      Obs.Trace.clear ();
      Obs.Trace.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Obs.Trace.set_enabled false;
          if per_process then begin
            let pid = Unix.getpid () in
            let name =
              match Sys.getenv_opt "OBS_PROCESS_NAME" with
              | Some n -> n
              | None -> Printf.sprintf "serve pid %d" pid
            in
            Obs.Trace.write_chrome ~pid ~process_name:name path
          end
          else begin
            Obs.Trace.write_chrome path;
            Format.eprintf "trace: wrote %d events to %s@."
              (List.length (Obs.Trace.events ())) path
          end)
        f

(* ---- experiments ---- *)

let find_experiment ~code id =
  match Experiments.Registry.find id with
  | Some e -> e
  | None ->
      Format.eprintf "unknown experiment %S; try 'list'@." id;
      exit code

(* ---- daemons ---- *)

let addr_conv =
  Arg.conv
    ( (fun s ->
        match Service.Protocol.addr_of_string s with
        | Ok addr -> Ok addr
        | Error msg -> Error (`Msg msg)),
      fun ppf addr -> Format.pp_print_string ppf (Service.Protocol.addr_to_string addr) )

let socket_info ~doc = Arg.info [ "socket"; "s" ] ~docv:"ADDR" ~doc

let addr_arg =
  Arg.(required & opt (some addr_conv) None
       & socket_info ~doc:"Service address: unix:PATH, tcp:HOST:PORT, or a bare socket path.")

let socket_opt ~doc = Arg.(value & opt (some addr_conv) None & socket_info ~doc)

let law_arg ~doc =
  let law_conv =
    Arg.conv
      ( (fun s ->
          match Throughput.law_of_string s with Ok l -> Ok l | Error msg -> Error (`Msg msg)),
        fun ppf l -> Format.pp_print_string ppf (Throughput.law_to_string l) )
  in
  Arg.(value & opt law_conv Throughput.Exponential & info [ "law"; "l" ] ~docv:"LAW" ~doc)

(* a daemon or router that cannot bind its address exits 2 *)
let cannot_serve addr (err, fn, arg) =
  die ~code:2
    (Printf.sprintf "cannot serve on %s: %s (%s %s)" (Service.Protocol.addr_to_string addr)
       (Unix.error_message err) fn arg)

(* connect or exit [code] with the transport error (prefixed by
   [context]); the connection is closed when [f] returns or raises *)
let with_client ?(code = 1) ?(context = "") addr f =
  match Service.Client.connect addr with
  | Error e -> die ~code (context ^ Service.Client.error_message e)
  | Ok c -> Fun.protect ~finally:(fun () -> Service.Client.close c) (fun () -> f c)

(* one rendered request line out, the raw reply line back (exit 1 on a
   transport error) *)
let rpc client line =
  match Service.Client.rpc_raw client line with
  | Ok reply -> reply
  | Error e -> die ~code:1 (Service.Client.error_message e)
