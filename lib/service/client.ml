type t = { fd : Unix.file_descr; pending : Buffer.t }

type error = Sockets.error =
  | Refused of string
  | Timeout of string
  | Closed of string
  | Transport of string
  | Bad_reply of string

let error_message = Sockets.error_message
let retriable = Sockets.retriable

let connect ?deadline addr =
  match Sockets.connect ?deadline addr with
  | Ok fd -> Ok { fd; pending = Buffer.create 512 }
  | Error _ as e -> e

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let rpc_raw ?deadline t line =
  match Sockets.send_line ?deadline t.fd line with
  | Error _ as e -> e
  | Ok () -> Sockets.recv_line ?deadline t.fd t.pending

let rpc ?deadline t request =
  match rpc_raw ?deadline t (Json.render request) with
  | Error _ as e -> e
  | Ok line -> (
      match Json.parse line with
      | Ok reply -> Ok reply
      | Error msg -> Error (Bad_reply (Printf.sprintf "unparsable reply: %s" msg)))

let reply_ok reply =
  match Option.bind (Json.member "ok" reply) Json.to_bool_opt with Some b -> b | None -> false

let reply_error_kind reply =
  Option.bind (Json.member "error" reply) (fun e ->
      Option.bind (Json.member "kind" e) Json.to_string_opt)

(* a reply is worth retrying when it says so itself: ok:false with
   error.retriable:true (busy, unavailable) *)
let reply_retriable reply =
  (not (reply_ok reply))
  && Option.bind (Json.member "error" reply) (fun e ->
         Option.bind (Json.member "retriable" e) Json.to_bool_opt)
     = Some true

let reply_result reply = Json.member "result" reply

let obs_member = function
  | None -> []
  | Some (trace, span) -> [ Protocol.obs_field ~trace ~span ]

let request ?id ?obs cmd fields =
  Json.Obj
    ([ ("v", Json.Int Protocol.version); ("cmd", Json.String cmd) ]
    @ (match id with Some id -> [ ("id", id) ] | None -> [])
    @ obs_member obs @ fields)

let command cmd ?deadline t = rpc ?deadline t (request cmd [])

let ping ?deadline t = command "ping" ?deadline t
let stats ?deadline t = command "stats" ?deadline t
let shutdown ?deadline t = command "shutdown" ?deadline t

let solve_fields ?model ?law ?cap ?wall ?sweeps ?states ?simulate ~instance () =
  let opt name conv v = Option.map (fun v -> (name, conv v)) v in
  List.filter_map Fun.id
    [
      Some ("instance", Json.String instance);
      opt "model" (fun m -> Json.String (Streaming.Model.to_string m)) model;
      opt "law" (fun l -> Json.String (Streaming.Throughput.law_to_string l)) law;
      opt "cap" (fun c -> Json.Int c) cap;
      opt "wall" (fun w -> Json.Float w) wall;
      opt "sweeps" (fun s -> Json.Int s) sweeps;
      opt "states" (fun s -> Json.Int s) states;
      opt "simulate" (fun b -> Json.Bool b) simulate;
    ]

let fresh_obs () = (Obs.Trace.fresh_id (), Obs.Trace.fresh_id ())

let solve_request ?id ?obs ?(cmd = "solve") ?model ?law ?cap ?wall ?sweeps ?states ?simulate
    ~instance () =
  request ?id ?obs cmd (solve_fields ?model ?law ?cap ?wall ?sweeps ?states ?simulate ~instance ())

let batch_request ?id ?obs items = request ?id ?obs "batch" [ ("requests", Json.List items) ]

let metrics_request ?(fleet = false) () =
  request "metrics" (if fleet then [ ("fleet", Json.Bool true) ] else [])

let metrics_text reply =
  Option.bind (reply_result reply) (fun r -> Option.bind (Json.member "text" r) Json.to_string_opt)
