type status = Exact | Degraded | Failed

type record = {
  exp : string;
  point : string;
  status : status;
  detail : string;
  output : string;
  elapsed : string;
}

let status_to_string = function Exact -> "exact" | Degraded -> "degraded" | Failed -> "failed"

let status_of_string = function
  | "exact" -> Some Exact
  | "degraded" -> Some Degraded
  | "failed" -> Some Failed
  | _ -> None

(* ---- minimal JSON (objects of string fields, one per line) ---- *)

let encode r =
  let buf = Buffer.create (String.length r.output + 64) in
  let field k v =
    Buffer.add_char buf '"';
    Buffer.add_string buf k;
    Buffer.add_string buf "\":\"";
    Obs.Log.add_json_escaped buf v;
    Buffer.add_char buf '"'
  in
  Buffer.add_char buf '{';
  field "exp" r.exp;
  Buffer.add_char buf ',';
  field "point" r.point;
  Buffer.add_char buf ',';
  field "status" (status_to_string r.status);
  Buffer.add_char buf ',';
  field "detail" r.detail;
  Buffer.add_char buf ',';
  (* wall-clock timing is advisory: omitted when unknown, and ignored by
     the resume byte-identity check (which compares only the payload) *)
  if r.elapsed <> "" then begin
    field "elapsed_s" r.elapsed;
    Buffer.add_char buf ','
  end;
  field "output" r.output;
  Buffer.add_char buf '}';
  Buffer.contents buf

exception Malformed

(* parse one {"k":"v",...} line; raises [Malformed] on anything else,
   including a line truncated by a crash mid-write *)
let decode line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos >= n then raise Malformed else line.[!pos] in
  let advance () = incr pos in
  let expect c = if peek () <> c then raise Malformed else advance () in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      let c = peek () in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          let e = peek () in
          advance ();
          match e with
          | '"' -> Buffer.add_char buf '"'; go ()
          | '\\' -> Buffer.add_char buf '\\'; go ()
          | '/' -> Buffer.add_char buf '/'; go ()
          | 'n' -> Buffer.add_char buf '\n'; go ()
          | 'r' -> Buffer.add_char buf '\r'; go ()
          | 't' -> Buffer.add_char buf '\t'; go ()
          | 'u' ->
              if !pos + 4 > n then raise Malformed;
              let code =
                try int_of_string ("0x" ^ String.sub line !pos 4) with _ -> raise Malformed
              in
              pos := !pos + 4;
              if code > 0xff then raise Malformed;
              Buffer.add_char buf (Char.chr code);
              go ()
          | _ -> raise Malformed)
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  expect '{';
  let fields = ref [] in
  let rec members () =
    let k = parse_string () in
    expect ':';
    let v = parse_string () in
    fields := (k, v) :: !fields;
    match peek () with
    | ',' -> advance (); members ()
    | '}' -> advance ()
    | _ -> raise Malformed
  in
  members ();
  if !pos <> n then raise Malformed;
  let get k = match List.assoc_opt k !fields with Some v -> v | None -> raise Malformed in
  let status = match status_of_string (get "status") with Some s -> s | None -> raise Malformed in
  (* [elapsed_s] is optional: journals written before it existed load fine *)
  let elapsed = Option.value (List.assoc_opt "elapsed_s" !fields) ~default:"" in
  { exp = get "exp"; point = get "point"; status; detail = get "detail"; output = get "output"; elapsed }

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> []
  | text ->
      let lines = String.split_on_char '\n' text in
      (* valid prefix only: a truncated or corrupt line (crash mid-write,
         disk damage) drops it and everything after it *)
      let rec prefix acc = function
        | [] -> List.rev acc
        | "" :: rest when List.for_all (( = ) "") rest -> List.rev acc
        | line :: rest -> (
            match decode line with
            | r -> prefix (r :: acc) rest
            | exception Malformed -> List.rev acc)
      in
      prefix [] lines

let save path records =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      List.iter
        (fun r ->
          Out_channel.output_string oc (encode r);
          Out_channel.output_char oc '\n')
        records;
      Out_channel.flush oc);
  Sys.rename tmp path
