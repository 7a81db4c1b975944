type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let render v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f ->
        if Float.is_finite f then begin
          (* the shortest decimal that parses back to the same float: the
             cache replays rendered results byte for byte, so rendering
             must be stable *)
          let s = Streaming.Decimal.exact_float f in
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

(* the end of the run at [i] of bytes that stand for themselves in a
   string: the first '"', '\\' or control character, or [n] *)
let plain_run line i n =
  let i = ref i in
  while
    !i < n
    &&
    let c = String.unsafe_get line !i in
    c <> '"' && c <> '\\' && c >= ' '
  do
    incr i
  done;
  !i

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
  (* four hex digits, by hand: [int_of_string] would also take a '_' *)
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let code = ref 0 in
    for i = !pos to !pos + 3 do
      let d =
        match line.[i] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail "bad \\u escape"
      in
      code := (!code lsl 4) lor d
    done;
    pos := !pos + 4;
    !code
  in
  (* A string with no escape is one [String.sub].  Otherwise it is
     decoded into a buffer as long as the rest of the line (an escape
     never decodes longer than it is written) and cut once at the end.
     The first such string sizes the buffer and later ones, which start
     further on, reuse it: a line of many escaped strings allocates it
     once, not once per string. *)
  let scratch = ref Bytes.empty in
  let parse_string () =
    expect '"';
    let start = !pos in
    let stop = plain_run line start n in
    if stop < n && line.[stop] = '"' then begin
      pos := stop + 1;
      String.sub line start (stop - start)
    end
    else begin
      if Bytes.length !scratch < n - start then scratch := Bytes.create (n - start);
      let out = !scratch in
      let len = ref (stop - start) in
      Bytes.blit_string line start out 0 !len;
      let put c =
        Bytes.unsafe_set out !len c;
        incr len
      in
      pos := stop;
      let rec go () =
        let c = peek () in
        advance ();
        match c with
        | '"' -> Bytes.sub_string out 0 !len
        | '\\' ->
            let e = peek () in
            advance ();
            (match e with
            | '"' -> put '"'
            | '\\' -> put '\\'
            | '/' -> put '/'
            | 'b' -> put '\b'
            | 'f' -> put '\012'
            | 'n' -> put '\n'
            | 'r' -> put '\r'
            | 't' -> put '\t'
            | 'u' ->
                (* a BMP code point, as UTF-8 *)
                let code = hex4 () in
                if code >= 0xd800 && code <= 0xdfff then fail "surrogate in \\u escape"
                else if code < 0x80 then put (Char.chr code)
                else if code < 0x800 then begin
                  put (Char.chr (0xc0 lor (code lsr 6)));
                  put (Char.chr (0x80 lor (code land 0x3f)))
                end
                else begin
                  put (Char.chr (0xe0 lor (code lsr 12)));
                  put (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                  put (Char.chr (0x80 lor (code land 0x3f)))
                end
            | _ -> fail "unknown escape");
            let run = !pos in
            let stop = plain_run line run n in
            Bytes.blit_string line run out !len (stop - run);
            len := !len + (stop - run);
            pos := stop;
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
