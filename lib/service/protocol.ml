let version = 1

type error =
  | Parse_error of string
  | Version_mismatch of { got : string }
  | Unknown_command of string
  | Bad_request of string
  | Oversized_frame of { limit : int }
  | Busy of { inflight : int; limit : int }
  | Unavailable of { reason : string }
  | Admission_rejected of { tenant : string; victim : string; floor : float; bound : float }
  | Solver of Supervise.Error.t
  | Internal of string

let error_kind = function
  | Parse_error _ -> "parse_error"
  | Version_mismatch _ -> "version_mismatch"
  | Unknown_command _ -> "unknown_command"
  | Bad_request _ -> "bad_request"
  | Oversized_frame _ -> "oversized_frame"
  | Busy _ -> "busy"
  | Unavailable _ -> "unavailable"
  | Admission_rejected _ -> "admission_rejected"
  | Internal _ -> "internal"
  | Solver err -> (
      match err with
      | Supervise.Error.No_convergence _ -> "no_convergence"
      | Supervise.Error.State_space_exceeded _ -> "state_space_exceeded"
      | Supervise.Error.Non_ergodic _ -> "non_ergodic"
      | Supervise.Error.Numerical _ -> "numerical"
      | Supervise.Error.Budget_exhausted _ -> "budget_exhausted"
      | Supervise.Error.Fill_exceeded _ -> "fill_exceeded")

let error_message = function
  | Parse_error msg -> "malformed JSON: " ^ msg
  | Version_mismatch { got } ->
      Printf.sprintf "protocol version mismatch: daemon speaks %d, request says %s" version got
  | Unknown_command cmd -> Printf.sprintf "unknown command %S" cmd
  | Bad_request msg -> msg
  | Oversized_frame { limit } -> Printf.sprintf "frame exceeds the %d-byte limit" limit
  | Busy { inflight; limit } ->
      Printf.sprintf "daemon busy: %d request(s) in flight (limit %d); retry later" inflight limit
  | Unavailable { reason } -> Printf.sprintf "no worker available: %s; retry later" reason
  | Admission_rejected { tenant; victim; floor; bound } ->
      Printf.sprintf
        "admission rejected for tenant %S: tenant %S's bound %g falls below its floor %g" tenant
        victim bound floor
  | Solver err -> Supervise.Error.to_string err
  | Internal msg -> "internal error: " ^ msg

(* the typed payload survives the wire: a client can react to
   [budget_exhausted] vs [state_space_exceeded] without parsing prose *)
let error_extras = function
  | Solver (Supervise.Error.No_convergence { sweeps; residual }) ->
      [ ("sweeps", Json.Int sweeps); ("residual", Json.Float residual) ]
  | Solver (Supervise.Error.State_space_exceeded { cap; explored }) ->
      [ ("cap", Json.Int cap); ("explored", Json.Int explored) ]
  | Solver (Supervise.Error.Non_ergodic { recurrent; transient }) ->
      [ ("recurrent", Json.Int recurrent); ("transient", Json.Int transient) ]
  | Solver (Supervise.Error.Numerical { what; where }) ->
      [ ("what", Json.String what); ("where", Json.String where) ]
  | Solver (Supervise.Error.Budget_exhausted { elapsed }) ->
      [ ("elapsed_s", Json.Float elapsed) ]
  | Solver (Supervise.Error.Fill_exceeded { entries; bound }) ->
      [ ("entries", Json.Int entries); ("bound", Json.Int bound) ]
  | Busy { inflight; limit } -> [ ("inflight", Json.Int inflight); ("limit", Json.Int limit) ]
  | Unavailable { reason } -> [ ("reason", Json.String reason) ]
  | Admission_rejected { tenant; victim; floor; bound } ->
      [
        ("tenant", Json.String tenant);
        ("victim", Json.String victim);
        ("floor", Json.Float floor);
        ("bound", Json.Float bound);
      ]
  | Oversized_frame { limit } -> [ ("limit", Json.Int limit) ]
  | _ -> []

(* [Unavailable] is the router shedding while every candidate worker is
   down or breaker-open — the sibling of a worker's own [Busy] *)
let retriable = function Busy _ | Unavailable _ -> true | _ -> false

let error_json e =
  Json.Obj
    ([
       ("kind", Json.String (error_kind e));
       ("message", Json.String (error_message e));
       ("retriable", Json.Bool (retriable e));
     ]
    @ error_extras e)

(* the inverse of [error_json] on [Solver _]: kind and typed extras back
   to the solver failure (a NaN residual renders as null, and comes back
   as NaN) *)
let solver_error_of_json err =
  let str k = Option.bind (Json.member k err) Json.to_string_opt in
  let int k d = Option.value ~default:d (Option.bind (Json.member k err) Json.to_int_opt) in
  let flt k d = Option.value ~default:d (Option.bind (Json.member k err) Json.to_float_opt) in
  match str "kind" with
  | Some "no_convergence" ->
      Some
        (Supervise.Error.No_convergence
           { sweeps = int "sweeps" 0; residual = flt "residual" Float.nan })
  | Some "state_space_exceeded" ->
      Some
        (Supervise.Error.State_space_exceeded { cap = int "cap" 0; explored = int "explored" 0 })
  | Some "non_ergodic" ->
      Some
        (Supervise.Error.Non_ergodic { recurrent = int "recurrent" 0; transient = int "transient" 0 })
  | Some "numerical" ->
      Some
        (Supervise.Error.Numerical
           {
             what = Option.value ~default:"(unreported)" (str "what");
             where = Option.value ~default:"(daemon)" (str "where");
           })
  | Some "budget_exhausted" ->
      Some (Supervise.Error.Budget_exhausted { elapsed = flt "elapsed_s" 0. })
  | Some "fill_exceeded" ->
      Some (Supervise.Error.Fill_exceeded { entries = int "entries" 0; bound = int "bound" 0 })
  | _ -> None

(* ---- request decoding ---- *)

let decode_query json =
  let str k = Option.bind (Json.member k json) Json.to_string_opt in
  let int k = Option.bind (Json.member k json) Json.to_int_opt in
  let flt k = Option.bind (Json.member k json) Json.to_float_opt in
  let bool_ k = Option.bind (Json.member k json) Json.to_bool_opt in
  let field_type_ok k conv =
    match Json.member k json with None -> true | Some v -> conv v <> None
  in
  if not (field_type_ok "instance" Json.to_string_opt) then
    Error (Bad_request "field 'instance' must be a string")
  else
    match str "instance" with
    | None -> Error (Bad_request "solve needs a string field 'instance'")
    | Some instance -> (
        let model_result =
          match str "model" with
          | None when field_type_ok "model" Json.to_string_opt -> Ok Streaming.Model.Overlap
          | Some "overlap" -> Ok Streaming.Model.Overlap
          | Some "strict" -> Ok Streaming.Model.Strict
          | Some m -> Error (Bad_request (Printf.sprintf "unknown model %S (overlap|strict)" m))
          | None -> Error (Bad_request "field 'model' must be a string")
        in
        let law_result =
          match str "law" with
          | None when field_type_ok "law" Json.to_string_opt -> Ok Engine.Exponential
          | Some l -> (
              match Streaming.Throughput.law_of_string l with
              | Ok law -> Ok law
              | Error msg -> Error (Bad_request msg))
          | None -> Error (Bad_request "field 'law' must be a string")
        in
        match (model_result, law_result) with
        | Error e, _ | _, Error e -> Error e
        | Ok model, Ok law ->
            let cap = Option.value (int "cap") ~default:Engine.default_cap in
            let wall = flt "wall" in
            let sweeps = int "sweeps" in
            let states = int "states" in
            let simulate = Option.value (bool_ "simulate") ~default:false in
            let bad_opt check = function Some v -> not (check v) | None -> false in
            if cap <= 0 then Error (Bad_request "cap must be positive")
            else if bad_opt (fun w -> w > 0.0 && Float.is_finite w) wall then
              Error (Bad_request "wall must be positive and finite")
            else if bad_opt (fun s -> s > 0) sweeps then Error (Bad_request "sweeps must be positive")
            else if bad_opt (fun s -> s > 0) states then Error (Bad_request "states must be positive")
            else Ok { Engine.instance; model; law; cap; wall; sweeps; states; simulate })

let decode_multi_query json =
  let str k = Option.bind (Json.member k json) Json.to_string_opt in
  let int k = Option.bind (Json.member k json) Json.to_int_opt in
  let flt k = Option.bind (Json.member k json) Json.to_float_opt in
  let field_type_ok k conv =
    match Json.member k json with None -> true | Some v -> conv v <> None
  in
  if not (field_type_ok "instance" Json.to_string_opt) then
    Error (Bad_request "field 'instance' must be a string")
  else
    match str "instance" with
    | None -> Error (Bad_request "solve_multi needs a string field 'instance'")
    | Some instance -> (
        let model_result =
          match str "model" with
          | None when field_type_ok "model" Json.to_string_opt -> Ok Streaming.Model.Overlap
          | Some "overlap" -> Ok Streaming.Model.Overlap
          | Some "strict" -> Ok Streaming.Model.Strict
          | Some m -> Error (Bad_request (Printf.sprintf "unknown model %S (overlap|strict)" m))
          | None -> Error (Bad_request "field 'model' must be a string")
        in
        let law_result =
          match str "law" with
          | None when field_type_ok "law" Json.to_string_opt -> Ok Engine.Exponential
          | Some l -> (
              match Streaming.Throughput.law_of_string l with
              | Ok law -> Ok law
              | Error msg -> Error (Bad_request msg))
          | None -> Error (Bad_request "field 'law' must be a string")
        in
        match (model_result, law_result) with
        | Error e, _ | _, Error e -> Error e
        | Ok m_model, Ok m_law ->
            let m_cap = Option.value (int "cap") ~default:Engine.default_cap in
            let m_wall = flt "wall" in
            if m_cap <= 0 then Error (Bad_request "cap must be positive")
            else if
              match m_wall with
              | Some w -> not (w > 0.0 && Float.is_finite w)
              | None -> false
            then Error (Bad_request "wall must be positive and finite")
            else Ok { Engine.m_instance = instance; m_model; m_law; m_cap; m_wall })

(* re-render a decoded query as a request object: [decode_query (query_json q) = Ok q],
   which is what lets the router re-issue split batches without touching
   the original bytes of each item *)
let query_json (q : Engine.query) =
  let opt k f = function Some v -> [ (k, f v) ] | None -> [] in
  Json.Obj
    ([
       ("instance", Json.String q.Engine.instance);
       ("model", Json.String (Streaming.Model.to_string q.Engine.model));
       ("law", Json.String (Streaming.Throughput.law_to_string q.Engine.law));
       ("cap", Json.Int q.Engine.cap);
     ]
    @ opt "wall" (fun w -> Json.Float w) q.Engine.wall
    @ opt "sweeps" (fun s -> Json.Int s) q.Engine.sweeps
    @ opt "states" (fun s -> Json.Int s) q.Engine.states
    @ [ ("simulate", Json.Bool q.Engine.simulate) ])

type request =
  | Ping
  | Stats
  | Metrics of { fleet : bool }
  | Shutdown
  | Solve of Engine.query
  | Solve_multi of Engine.multi_query
  | Admit of Engine.multi_query
  | Batch of (Engine.query, error) result list

let max_batch = 64

let parse_request json =
  let id = Json.member "id" json in
  match json with
  | Json.Obj _ -> (
      let v_ok =
        match Json.member "v" json with
        | None -> Ok ()
        | Some (Json.Int v) when v = version -> Ok ()
        | Some other -> Error (Version_mismatch { got = Json.render other })
      in
      match v_ok with
      | Error e -> Error (id, e)
      | Ok () -> (
          match Option.bind (Json.member "cmd" json) Json.to_string_opt with
          | None -> Error (id, Bad_request "request needs a string field 'cmd'")
          | Some "ping" -> Ok (id, Ping)
          | Some "stats" -> Ok (id, Stats)
          | Some "metrics" ->
              let fleet =
                match Option.bind (Json.member "fleet" json) Json.to_bool_opt with
                | Some b -> b
                | None -> false
              in
              Ok (id, Metrics { fleet })
          | Some "shutdown" -> Ok (id, Shutdown)
          | Some "solve" -> (
              match decode_query json with
              | Ok q -> Ok (id, Solve q)
              | Error e -> Error (id, e))
          | Some "solve_multi" -> (
              match decode_multi_query json with
              | Ok q -> Ok (id, Solve_multi q)
              | Error e -> Error (id, e))
          | Some "admit" -> (
              match decode_multi_query json with
              | Ok q -> Ok (id, Admit q)
              | Error e -> Error (id, e))
          | Some "batch" -> (
              match Json.member "requests" json with
              | Some (Json.List items) when List.length items <= max_batch ->
                  Ok (id, Batch (List.map decode_query items))
              | Some (Json.List items) ->
                  Error
                    ( id,
                      Bad_request
                        (Printf.sprintf "batch of %d exceeds the %d-request limit"
                           (List.length items) max_batch) )
              | _ -> Error (id, Bad_request "batch needs a list field 'requests'"))
          | Some cmd -> Error (id, Unknown_command cmd)))
  | _ -> Error (None, Parse_error "request must be a JSON object")

(* ---- trace-context envelope ----
   An optional ["obs"] member of any request carries a trace context:
   [{"trace":"<id>","span":"<parent span id>"}]. [decode_query] ignores
   unknown members, so the envelope is invisible to the cache key and to
   daemons that predate it — legacy and traced peers interoperate without
   negotiation. *)

let obs_context json =
  match Json.member "obs" json with
  | Some (Json.Obj _ as o) -> (
      match Option.bind (Json.member "trace" o) Json.to_string_opt with
      | Some trace ->
          let span =
            Option.value ~default:""
              (Option.bind (Json.member "span" o) Json.to_string_opt)
          in
          Some (trace, span)
      | None -> None)
  | _ -> None

let obs_field ~trace ~span =
  ( "obs",
    Json.Obj [ ("trace", Json.String trace); ("span", Json.String span) ] )

(* Splice an ["obs"] envelope into an already-rendered request line. The
   router forwards client bytes verbatim, so when tracing is on it cannot
   re-render the request without risking byte drift — instead the envelope
   is inserted textually before the closing brace. *)
let with_obs line ~trace ~span =
  let rec rstrip i =
    if i > 0 && (match line.[i - 1] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false)
    then rstrip (i - 1)
    else i
  in
  let stop = rstrip (String.length line) in
  if stop = 0 || line.[stop - 1] <> '}' then line
  else
    let rec prev_solid i =
      if i > 0 && (match line.[i - 1] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false)
      then prev_solid (i - 1)
      else i
    in
    let before = prev_solid (stop - 1) in
    let comma = if before > 0 && line.[before - 1] = '{' then "" else "," in
    let envelope =
      Printf.sprintf "%s\"obs\":{\"trace\":%s,\"span\":%s}" comma
        (Json.render (Json.String trace))
        (Json.render (Json.String span))
    in
    String.sub line 0 (stop - 1) ^ envelope ^ "}"

(* ---- reply assembly ----
   Replies are assembled by splicing rendered fragments, so a cached
   [result] string reaches the wire byte-for-byte unchanged. *)

let id_fragment = function
  | None -> ""
  | Some id -> Printf.sprintf "\"id\":%s," (Json.render id)

let ok_reply ~id ?cached ~result () =
  let cached_fragment =
    match cached with
    | None -> ""
    | Some c -> Printf.sprintf "\"cached\":%b," c
  in
  Printf.sprintf "{\"v\":%d,%s\"ok\":true,%s\"result\":%s}" version (id_fragment id)
    cached_fragment result

let error_reply ~id e =
  Printf.sprintf "{\"v\":%d,%s\"ok\":false,\"error\":%s}" version (id_fragment id)
    (Json.render (error_json e))

(* ---- addresses ---- *)

type addr = Unix_domain of string | Tcp of string * int

let addr_of_string s =
  let port_of p =
    match int_of_string_opt p with
    | Some port when port > 0 && port < 65536 -> Ok port
    | _ -> Error (Printf.sprintf "bad port %S" p)
  in
  if String.length s >= 5 && String.sub s 0 5 = "unix:" then
    Ok (Unix_domain (String.sub s 5 (String.length s - 5)))
  else if String.length s >= 4 && String.sub s 0 4 = "tcp:" then
    match String.split_on_char ':' (String.sub s 4 (String.length s - 4)) with
    | [ host; p ] -> Result.map (fun port -> Tcp (host, port)) (port_of p)
    | [ p ] -> Result.map (fun port -> Tcp ("127.0.0.1", port)) (port_of p)
    | _ -> Error (Printf.sprintf "bad tcp address %S (use tcp:HOST:PORT)" s)
  else if s = "" then Error "empty service address"
  else Ok (Unix_domain s)

let addr_to_string = function
  | Unix_domain path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let sockaddr_of = function
  | Unix_domain path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
          | _ -> failwith (Printf.sprintf "cannot resolve host %S" host))
      in
      Unix.ADDR_INET (ip, port)
