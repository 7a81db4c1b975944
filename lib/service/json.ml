type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* shortest decimal that parses back to the same float, as in
   [Instance_io]: the cache replays rendered results byte for byte, so
   rendering must be stable *)
let exact_float v =
  let short = Printf.sprintf "%.12g" v in
  if float_of_string short = v then short else Printf.sprintf "%.17g" v

let render v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f ->
        if Float.is_finite f then begin
          let s = exact_float f in
          Buffer.add_string buf s;
          (* keep the int/float distinction on the wire *)
          if String.for_all (fun c -> c = '-' || (c >= '0' && c <= '9')) s then
            Buffer.add_string buf ".0"
        end
        else Buffer.add_string buf "null"
    | String s ->
        Buffer.add_char buf '"';
        Obs.Log.add_json_escaped buf s;
        Buffer.add_char buf '"'
    | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            go x)
          xs;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            Obs.Log.add_json_escaped buf k;
            Buffer.add_string buf "\":";
            go x)
          fields;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

exception Bad of string

let parse line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos >= n then fail "unexpected end of input" else line.[!pos] in
  let advance () = incr pos in
  let expect c =
    if !pos >= n || line.[!pos] <> c then fail (Printf.sprintf "expected %C" c) else advance ()
  in
  let skip_ws () =
    while !pos < n && (match line.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  (* BMP code point to UTF-8; surrogates are rejected where they are read *)
  let add_utf8 buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let code =
      try int_of_string ("0x" ^ String.sub line !pos 4) with _ -> fail "bad \\u escape"
    in
    pos := !pos + 4;
    code
  in
  (* skip a run of characters that stand for themselves *)
  let skip_plain () =
    while
      !pos < n
      &&
      let c = line.[!pos] in
      c <> '"' && c <> '\\' && Char.code c >= 0x20
    do
      advance ()
    done
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    skip_plain ();
    if !pos < n && line.[!pos] = '"' then begin
      advance ();
      String.sub line start (!pos - 1 - start)
    end
    else begin
      let buf = Buffer.create (2 * (!pos - start) + 16) in
      Buffer.add_substring buf line start (!pos - start);
      let rec go () =
        let c = peek () in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' ->
            let e = peek () in
            advance ();
            (match e with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let code = hex4 () in
                if code >= 0xd800 && code <= 0xdfff then fail "surrogate in \\u escape"
                else add_utf8 buf code
            | _ -> fail "unknown escape");
            let run = !pos in
            skip_plain ();
            Buffer.add_substring buf line run (!pos - run);
            go ()
        | _ -> fail "raw control character in string"
      in
      go ()
    end
  in
  let parse_number () =
    let start = !pos in
    if peek () = '-' then advance ();
    let is_digit c = c >= '0' && c <= '9' in
    let digits () =
      if !pos >= n || not (is_digit line.[!pos]) then fail "bad number";
      while !pos < n && is_digit line.[!pos] do
        advance ()
      done
    in
    let int_start = !pos in
    digits ();
    if !pos - int_start > 1 && line.[int_start] = '0' then fail "leading zero";
    let fractional = !pos < n && line.[!pos] = '.' in
    if fractional then begin
      advance ();
      digits ()
    end;
    let exponent = !pos < n && (line.[!pos] = 'e' || line.[!pos] = 'E') in
    if exponent then begin
      advance ();
      if !pos < n && (line.[!pos] = '+' || line.[!pos] = '-') then advance ();
      digits ()
    end;
    let text = String.sub line start (!pos - start) in
    if not (fractional || exponent) then
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
    else Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> String (parse_string ())
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | ',' -> advance (); members ()
            | '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | ',' -> advance (); elements ()
            | ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          List (List.rev !items)
        end
    | 't' ->
        if !pos + 4 <= n && String.sub line !pos 4 = "true" then begin
          pos := !pos + 4;
          Bool true
        end
        else fail "bad literal"
    | 'f' ->
        if !pos + 5 <= n && String.sub line !pos 5 = "false" then begin
          pos := !pos + 5;
          Bool false
        end
        else fail "bad literal"
    | 'n' ->
        if !pos + 4 <= n && String.sub line !pos 4 = "null" then begin
          pos := !pos + 4;
          Null
        end
        else fail "bad literal"
    | '-' | '0' .. '9' -> parse_number ()
    | _ -> fail "unexpected character"
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg
  | exception Failure _ -> Error "bad number"

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_string_opt = function String s -> Some s | _ -> None

let to_int_opt = function
  | Int n -> Some n
  | Float f when Float.is_integer f && Float.abs f <= 1e15 -> Some (int_of_float f)
  | _ -> None

let to_float_opt = function Int n -> Some (float_of_int n) | Float f -> Some f | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
