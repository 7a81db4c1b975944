(* ---- reading: one pass over the text, numbers read where they lie ---- *)

exception Bad of string

(* The scanner walks the text once.  Lines end at newlines, a line's
   comment starts at its first '#', and tokens are separated by spaces
   and tabs.  [tok, pos) is the token just read, [kw, kw_end) the line's
   first.  Numbers are converted where they lie; only a token the
   in-place readers cannot decide is copied out, for the standard
   library to read. *)
type scanner = {
  text : string;
  mutable lineno : int;
  mutable kw : int;
  mutable kw_end : int;
  mutable tok : int;
  mutable pos : int;
  cell : float array;  (* where a lone float lands *)
  icell : int array;  (* where a lone int lands *)
}

let fail sc msg = raise (Bad (Printf.sprintf "line %d: %s" sc.lineno msg))
let ends_token c = c = ' ' || c = '\t' || c = '\n' || c = '#'
let is_digit c = c >= '0' && c <= '9'

(* skip spaces and tabs: does another token start on this line? *)
let more sc =
  let s = sc.text in
  let n = String.length s in
  let p = ref sc.pos in
  while !p < n && (String.unsafe_get s !p = ' ' || String.unsafe_get s !p = '\t') do
    incr p
  done;
  sc.pos <- !p;
  !p < n && String.unsafe_get s !p <> '\n' && String.unsafe_get s !p <> '#'

(* the next token of the line, if any *)
let next sc =
  more sc
  &&
  let s = sc.text in
  let n = String.length s in
  let p = ref sc.pos in
  while !p < n && not (ends_token (String.unsafe_get s !p)) do
    incr p
  done;
  sc.tok <- sc.pos;
  sc.pos <- !p;
  true

(* how many tokens are left on the line; none is consumed *)
let count_rest sc =
  let tok = sc.tok and pos = sc.pos and c = ref 0 in
  while next sc do
    incr c
  done;
  sc.tok <- tok;
  sc.pos <- pos;
  !c

(* back to the line's first token, just read *)
let rewind sc =
  sc.tok <- sc.kw;
  sc.pos <- sc.kw_end

let text_of sc = String.sub sc.text sc.tok (sc.pos - sc.tok)

(* the token just read is [word] *)
let is sc word =
  let n = String.length word in
  sc.pos - sc.tok = n
  &&
  let i = ref 0 in
  while !i < n && String.unsafe_get sc.text (sc.tok + !i) = String.unsafe_get word !i do
    incr i
  done;
  !i = n

(* the token after the one just read is [word]; none is consumed *)
let next_is sc word =
  let tok = sc.tok and pos = sc.pos in
  let found = next sc && is sc word in
  sc.tok <- tok;
  sc.pos <- pos;
  found

(* The next token as [int_of_string] reads it, into [a.(i)]; false when
   it does not.  [-?D+] with at most 18 digits, which no int overflows,
   is read in place; any other token goes to [int_of_string]. *)
let int_into sc a i =
  more sc
  &&
  let s = sc.text and start = sc.pos in
  let n = String.length s in
  let neg = String.unsafe_get s start = '-' in
  let first = if neg then start + 1 else start in
  let j = ref first and v = ref 0 in
  while !j < n && is_digit (String.unsafe_get s !j) do
    v := (!v * 10) + Char.code (String.unsafe_get s !j) - 48;
    incr j
  done;
  if !j > first && !j - first <= 18 && (!j = n || ends_token (String.unsafe_get s !j)) then begin
    a.(i) <- (if neg then - !v else !v);
    sc.tok <- start;
    sc.pos <- !j;
    true
  end
  else
    next sc
    &&
    match int_of_string_opt (text_of sc) with
    | Some v ->
        a.(i) <- v;
        true
    | None -> false

(* the next token as an int; [fail msg] when it is none *)
let int_token sc msg = if int_into sc sc.icell 0 then sc.icell.(0) else fail sc msg

(* The next token as [float_of_string] reads it, into [dst.(k)]; false
   when it does not.  {!Decimal.read} decides it in place, or the token
   goes to [float_of_string]. *)
let float_into sc dst k =
  more sc
  &&
  let j = Decimal.read sc.text sc.pos dst k in
  if j >= 0 && (j = String.length sc.text || ends_token (String.unsafe_get sc.text j)) then begin
    sc.tok <- sc.pos;
    sc.pos <- j;
    true
  end
  else
    next sc
    &&
    match float_of_string_opt (text_of sc) with
    | Some v ->
        dst.(k) <- v;
        true
    | None -> false

(* the rest of the line as numbers; [fail msg] at the first that does
   not parse *)
let floats_rest sc msg =
  let a = Array.create_float (count_rest sc) in
  for k = 0 to Array.length a - 1 do
    if not (float_into sc a k) then fail sc msg
  done;
  a

let ints_rest sc msg =
  let a = Array.make (count_rest sc) 0 in
  for k = 0 to Array.length a - 1 do
    if not (int_into sc a k) then fail sc msg
  done;
  a

(* numeric sanity is checked where the line number is still at hand, so a
   NaN three screens into a file is reported as "line 47: ...", not as a
   late [Invalid_argument] from the model constructors *)
let[@inline] bad ~strict v = (not (Float.is_finite v)) || if strict then v <= 0.0 else v < 0.0
let any_bad ~strict a =
  let rec from i = i < Array.length a && (bad ~strict a.(i) || from (i + 1)) in
  from 0

(* The platform lines read so far.  Counts keep their line numbers, so
   the checks made once every line is read can point at them; so do the
   bandwidth overrides, kept in line order as four columns. *)
type platform_lines = {
  mutable procs : (int * int) option;  (* line, processor count *)
  mutable speeds : (int * float array) option;  (* line, speeds *)
  mutable bw_default : float option;
  mutable n_over : int;
  mutable over_line : int array;
  mutable over_src : int array;
  mutable over_dst : int array;
  mutable over_bw : float array;
}

(* one pipeline's lines read so far *)
type pipeline_lines = {
  mutable stages : int option;
  mutable work : float array option;
  mutable files : float array option;
  mutable teams : int array list;  (* reversed *)
}

let platform_lines () =
  {
    procs = None;
    speeds = None;
    bw_default = None;
    n_over = 0;
    over_line = [||];
    over_src = [||];
    over_dst = [||];
    over_bw = [||];
  }

let pipeline_lines () = { stages = None; work = None; files = None; teams = [] }

(* The slot of a new override on [line].  The columns start with room for
   every link of the processors declared so far, if any, and double when
   full. *)
let add_override p line =
  let k = p.n_over in
  if k = Array.length p.over_bw then begin
    let cap =
      match p.procs with
      | Some (_, m) when k = 0 && m > 1 && m <= 16 -> m * (m - 1)
      | _ -> max 16 (2 * k)
    in
    let grow a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 k;
      b
    in
    let bw = Array.create_float cap in
    Array.blit p.over_bw 0 bw 0 k;
    p.over_line <- grow p.over_line;
    p.over_src <- grow p.over_src;
    p.over_dst <- grow p.over_dst;
    p.over_bw <- bw
  end;
  p.over_line.(k) <- line;
  p.n_over <- k + 1;
  k

type platform_line = Processors | Speeds | Bandwidth
type pipeline_line = Stages | Work | Files | Team
type line = Platform of platform_line | Pipeline of pipeline_line | Other

(* What a line is, from its keyword (the token just read) and the number
   of tokens after it.  A bandwidth line's shape is checked as it is
   read, by [bandwidth_shaped] where that fails: most lines of an
   instance are overrides, and counting their tokens first would read
   them twice. *)
let classify sc =
  if is sc "bandwidth" then Platform Bandwidth
  else if is sc "team" then Pipeline Team
  else if is sc "speeds" then Platform Speeds
  else if is sc "work" then Pipeline Work
  else if is sc "files" then Pipeline Files
  else if is sc "processors" then if count_rest sc = 1 then Platform Processors else Other
  else if is sc "stages" then if count_rest sc = 1 then Pipeline Stages else Other
  else Other

(* [bandwidth default B] or [bandwidth SRC DST B], from the keyword *)
let bandwidth_shaped sc =
  rewind sc;
  match count_rest sc with 3 -> true | 2 -> next_is sc "default" | _ -> false

(* [bandwidth SRC DST B], read in place: false when a token does not
   parse or the line holds other than three *)
let read_override p sc =
  let k = add_override p sc.lineno in
  int_into sc p.over_src k
  && int_into sc p.over_dst k
  && float_into sc p.over_bw k
  && not (more sc)

(* the two readers take the lines [classify] sorted to them *)
let read_platform_line p sc = function
  | Processors -> p.procs <- Some (sc.lineno, int_token sc "bad processor count")
  | Speeds ->
      let a = floats_rest sc "bad speeds" in
      if any_bad ~strict:true a then fail sc "speeds must be finite and positive";
      p.speeds <- Some (sc.lineno, a)
  | Bandwidth when next_is sc "default" && count_rest sc = 2 ->
      ignore (next sc);
      if not (float_into sc sc.cell 0) then fail sc "bad default bandwidth";
      if bad ~strict:true sc.cell.(0) then fail sc "default bandwidth must be finite and positive";
      p.bw_default <- Some sc.cell.(0)
  | Bandwidth ->
      if not (read_override p sc) then
        if bandwidth_shaped sc then fail sc "bad bandwidth override"
        else fail sc ("unknown keyword " ^ text_of sc);
      if bad ~strict:true p.over_bw.(p.n_over - 1) then
        fail sc "bandwidth must be finite and positive"

let read_pipeline_line t sc = function
  | Stages -> t.stages <- Some (int_token sc "bad stage count")
  | Work ->
      let a = floats_rest sc "bad work sizes" in
      if any_bad ~strict:true a then fail sc "work sizes must be finite and positive";
      t.work <- Some a
  | Files ->
      let a = floats_rest sc "bad file sizes" in
      if any_bad ~strict:false a then fail sc "file sizes must be finite and non-negative";
      t.files <- Some a
  | Team ->
      let a = ints_rest sc "bad team" in
      if Array.length a = 0 then fail sc "bad team";
      t.teams <- a :: t.teams

(* [f sc] on every line that holds a token, with that first token read;
   [f] reads the line's other tokens, and the rest of the line (its
   comment) is skipped *)
let iter_lines text f =
  let sc =
    { text; lineno = 0; kw = 0; kw_end = 0; tok = 0; pos = 0; cell = Array.create_float 2; icell = [| 0 |] }
  in
  let n = String.length text in
  while sc.pos <= n do
    sc.lineno <- sc.lineno + 1;
    if next sc then begin
      sc.kw <- sc.tok;
      sc.kw_end <- sc.pos;
      f sc
    end;
    let p = ref sc.pos in
    while !p < n && String.unsafe_get text !p <> '\n' do
      incr p
    done;
    sc.pos <- !p + 1
  done

let max_processors = 1024

(* The platform, once every line is read.  The processor count and the
   number of speeds are checked before the m x m bandwidth matrix is
   allocated, so a short text cannot ask for gigabytes: even a text that
   lists all its speeds gets one 8 MiB matrix, which the platform keeps
   without a copy. *)
let build_platform ~procs:(procs_line, m) ~speeds:(speeds_line, speeds) ~default p =
  let out k =
    let src = p.over_src.(k) and dst = p.over_dst.(k) in
    src < 0 || src >= m || dst < 0 || dst >= m
  in
  let rec first_out k = if k = p.n_over || out k then k else first_out (k + 1) in
  if m < 1 then Error (Printf.sprintf "line %d: processor count must be positive" procs_line)
  else if Array.length speeds <> m then
    Error
      (Printf.sprintf "line %d: %d speeds for %d processors" speeds_line (Array.length speeds) m)
  else if m > max_processors then
    Error
      (Printf.sprintf "line %d: %d processors exceed the limit of %d" procs_line m
         max_processors)
  else
    let k = first_out 0 in
    if k < p.n_over then
      Error
        (Printf.sprintf "line %d: bandwidth override %d %d out of range (processors %d)"
           p.over_line.(k) p.over_src.(k) p.over_dst.(k) m)
    else begin
      let bandwidth = Array.init m (fun _ -> Array.make m default) in
      for k = 0 to p.n_over - 1 do
        bandwidth.(p.over_src.(k)).(p.over_dst.(k)) <- p.over_bw.(k)
      done;
      match Platform.create_owned ~speeds ~bandwidth with
      | platform -> Ok platform
      | exception Invalid_argument msg -> Error msg
    end

let build_mapping ~work ~files ~teams platform =
  let files = Option.value files ~default:[||] in
  match Mapping.create ~app:(Application.create ~work ~files) ~platform ~teams with
  | mapping -> Ok mapping
  | exception Invalid_argument msg -> Error msg

let parse text =
  let plat = platform_lines () and pipe = pipeline_lines () in
  match
    iter_lines text (fun sc ->
        match classify sc with
        | Platform k -> read_platform_line plat sc k
        | Pipeline k -> read_pipeline_line pipe sc k
        | Other -> fail sc ("unknown keyword " ^ text_of sc))
  with
  | exception Bad msg -> Error msg
  | () -> (
      match (pipe.stages, pipe.work, plat.procs, plat.speeds, plat.bw_default) with
      | None, _, _, _, _ -> Error "missing 'stages'"
      | _, None, _, _, _ -> Error "missing 'work'"
      | _, _, None, _, _ -> Error "missing 'processors'"
      | _, _, _, None, _ -> Error "missing 'speeds'"
      | _, _, _, _, None -> Error "missing 'bandwidth default'"
      | Some n, Some work, Some procs, Some speeds, Some default ->
          let teams = Array.of_list (List.rev pipe.teams) in
          if Array.length teams <> n then Error "need exactly one 'team' line per stage"
          else
            Result.bind (build_platform ~procs ~speeds ~default plat)
              (build_mapping ~work ~files:pipe.files ~teams))

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

let print ppf mapping =
  let app = Mapping.app mapping in
  let platform = Mapping.platform mapping in
  let n = Application.n_stages app in
  let m = Platform.n_processors platform in
  Format.fprintf ppf "stages %d@\n" n;
  Format.fprintf ppf "work";
  for i = 0 to n - 1 do
    Format.fprintf ppf " %s" (Decimal.exact_float (Application.work app i))
  done;
  Format.fprintf ppf "@\nfiles";
  for i = 0 to n - 2 do
    Format.fprintf ppf " %s" (Decimal.exact_float (Application.file_size app i))
  done;
  Format.fprintf ppf "@\nprocessors %d@\nspeeds" m;
  for p = 0 to m - 1 do
    Format.fprintf ppf " %s" (Decimal.exact_float (Platform.speed platform p))
  done;
  Format.fprintf ppf "@\nbandwidth default %s@\n"
    (Decimal.exact_float (Platform.bandwidth platform ~src:0 ~dst:(min 1 (m - 1))));
  let default = Platform.bandwidth platform ~src:0 ~dst:(min 1 (m - 1)) in
  for p = 0 to m - 1 do
    for q = 0 to m - 1 do
      if p <> q && Platform.bandwidth platform ~src:p ~dst:q <> default then
        Format.fprintf ppf "bandwidth %d %d %s@\n" p q (Decimal.exact_float (Platform.bandwidth platform ~src:p ~dst:q))
    done
  done;
  for i = 0 to n - 1 do
    Format.fprintf ppf "team";
    Array.iter (fun p -> Format.fprintf ppf " %d" p) (Mapping.team mapping i);
    Format.fprintf ppf "@\n"
  done

let to_string mapping =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  print ppf mapping;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* ---- the cache key: the values [print] writes, as raw bits ----

   Every count precedes what it counts, so the encoding is prefix-free.
   Floats go in as their IEEE-754 bits: two finite floats have the same
   bits exactly when [Decimal.exact_float] writes them the same way (-0.0 and 0.0
   differ in both).  A key is measured first and written once into a
   string of its final length, so it is neither grown nor copied. *)

type sink = { bytes : Bytes.t; mutable pos : int }

let sink ~header length =
  let h = String.length header in
  let bytes = Bytes.create (h + length) in
  Bytes.blit_string header 0 bytes 0 h;
  { bytes; pos = h }

let contents s =
  assert (s.pos = Bytes.length s.bytes);
  Bytes.unsafe_to_string s.bytes

let put_int s n =
  Bytes.set_int64_le s.bytes s.pos (Int64.of_int n);
  s.pos <- s.pos + 8

let put_float s v =
  Bytes.set_int64_le s.bytes s.pos (Int64.bits_of_float v);
  s.pos <- s.pos + 8

let put_string s str =
  Bytes.blit_string str 0 s.bytes s.pos (String.length str);
  s.pos <- s.pos + String.length str

let stages_key_length app = 8 * 2 * Application.n_stages app

let put_stages s app =
  let n = Application.n_stages app in
  put_int s n;
  for i = 0 to n - 1 do
    put_float s (Application.work app i)
  done;
  for i = 0 to n - 2 do
    put_float s (Application.file_size app i)
  done

let platform_key_length platform =
  let m = Platform.n_processors platform in
  8 * (2 + m + (m * (m - 1)))

(* the printed default bandwidth ([0 -> min 1 (m-1)], the diagonal when
   m = 1) and every off-diagonal bandwidth; like [print], the key skips
   the other diagonal entries *)
let put_platform s platform =
  let m = Platform.n_processors platform in
  put_int s m;
  for p = 0 to m - 1 do
    put_float s (Platform.speed platform p)
  done;
  put_float s (Platform.bandwidth platform ~src:0 ~dst:(min 1 (m - 1)));
  for p = 0 to m - 1 do
    for q = 0 to m - 1 do
      if p <> q then put_float s (Platform.bandwidth platform ~src:p ~dst:q)
    done
  done

let teams_key_length mapping =
  8 * Array.fold_left (fun acc size -> acc + 1 + size) 0 (Mapping.replication mapping)

let put_teams s mapping =
  Array.iteri
    (fun stage size ->
      put_int s size;
      for row = 0 to size - 1 do
        put_int s (Mapping.proc_at mapping ~stage ~row)
      done)
    (Mapping.replication mapping)

let key ~header mapping =
  let app = Mapping.app mapping and platform = Mapping.platform mapping in
  let s =
    sink ~header
      (stages_key_length app + platform_key_length platform + teams_key_length mapping)
  in
  put_stages s app;
  put_platform s platform;
  put_teams s mapping;
  contents s

(* ---- multi-tenant blocks (version 1) ---- *)

type tenant_decl = {
  tenant_id : string;
  weight : float;
  floor : float;
  tenant_mapping : Mapping.t;
}

(* one tenant being accumulated while its lines stream past *)
type pending = {
  p_line : int;
  p_id : string;
  p_weight : float;
  p_floor : float;
  p_lines : pipeline_lines;
}

let build_tenants platform pendings =
  let seen = Hashtbl.create 8 in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | t :: rest -> (
        if Hashtbl.mem seen t.p_id then
          Error (Printf.sprintf "line %d: duplicate tenant id %s" t.p_line t.p_id)
        else
          let ctx msg = Error (Printf.sprintf "tenant %s: %s" t.p_id msg) in
          Hashtbl.add seen t.p_id ();
          let p = t.p_lines in
          match (p.stages, p.work) with
          | None, _ -> ctx "missing 'stages'"
          | _, None -> ctx "missing 'work'"
          | Some n, Some work -> (
              let teams = Array.of_list (List.rev p.teams) in
              if Array.length teams <> n then ctx "need exactly one 'team' line per stage"
              else
                match build_mapping ~work ~files:p.files ~teams platform with
                | Error msg -> ctx msg
                | Ok mapping ->
                    let decl =
                      {
                        tenant_id = t.p_id;
                        weight = t.p_weight;
                        floor = t.p_floor;
                        tenant_mapping = mapping;
                      }
                    in
                    go (decl :: acc) rest))
  in
  match pendings with
  | [] -> Error "a tenancy block needs at least one tenant"
  | _ -> go [] pendings

(* [tenant ID weight W floor F], the keyword just read *)
let read_tenant sc =
  let shape_error () = fail sc "tenant line is 'tenant ID weight W floor F'" in
  if count_rest sc <> 5 then shape_error ();
  ignore (next sc);
  let id = text_of sc in
  let weight_word = next sc && is sc "weight" in
  let weight_ok = float_into sc sc.cell 0 in
  let floor_word = next sc && is sc "floor" in
  let floor_ok = float_into sc sc.cell 1 in
  if not (weight_word && floor_word) then shape_error ();
  let weight = sc.cell.(0) and floor = sc.cell.(1) in
  if weight_ok && bad ~strict:true weight then fail sc "tenant weight must be finite and positive";
  if floor_ok && bad ~strict:false floor then fail sc "tenant floor must be finite and non-negative";
  if not (weight_ok && floor_ok) then fail sc "bad tenant weight or floor";
  { p_line = sc.lineno; p_id = id; p_weight = weight; p_floor = floor; p_lines = pipeline_lines () }

let parse_multi text =
  let version = ref false in
  let plat = platform_lines () in
  let pendings = ref [] (* reversed *) in
  match
    iter_lines text (fun sc ->
        if is sc "tenancy" && count_rest sc = 1 then begin
          ignore (next sc);
          if !version then fail sc "duplicate 'tenancy' line"
          else if not (is sc "1") then
            fail sc
              (Printf.sprintf "unsupported tenancy version %s (this reader speaks 1)" (text_of sc))
          else version := true
        end
        else if not !version then fail sc "multi-tenant instances start with 'tenancy 1'"
        else
          match classify sc with
          | Platform k ->
              (* the shared platform is declared once, before the first
                 tenant; a bandwidth line of no platform shape is an
                 unknown keyword wherever it stands *)
              if !pendings = [] then read_platform_line plat sc k
              else if k = Bandwidth && not (bandwidth_shaped sc) then
                fail sc ("unknown keyword " ^ text_of sc)
              else fail sc "platform line after the first 'tenant'"
          | Pipeline k -> (
              match !pendings with
              | [] -> fail sc (Printf.sprintf "'%s' outside a tenant declaration" (text_of sc))
              | t :: _ -> read_pipeline_line t.p_lines sc k)
          | Other ->
              if is sc "tenant" then pendings := read_tenant sc :: !pendings
              else fail sc ("unknown keyword " ^ text_of sc))
  with
  | exception Bad msg -> Error msg
  | () -> (
      if not !version then Error "missing 'tenancy 1'"
      else
        match (plat.procs, plat.speeds, plat.bw_default) with
        | None, _, _ -> Error "missing 'processors'"
        | _, None, _ -> Error "missing 'speeds'"
        | _, _, None -> Error "missing 'bandwidth default'"
        | Some procs, Some speeds, Some default ->
            Result.bind (build_platform ~procs ~speeds ~default plat) (fun platform ->
                build_tenants platform (List.rev !pendings)))

let parse_multi_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse_multi text
  | exception Sys_error msg -> Error msg

let shared_platform decls =
  match decls with
  | [] -> invalid_arg "Instance_io.multi_to_string: no tenants"
  | first :: rest ->
      let platform = Mapping.platform first.tenant_mapping in
      let m = Platform.n_processors platform in
      let same p =
        p == platform
        || Platform.n_processors p = m
           &&
           let ok = ref true in
           for i = 0 to m - 1 do
             if Platform.speed p i <> Platform.speed platform i then ok := false;
             for j = 0 to m - 1 do
               if
                 i <> j
                 && Platform.bandwidth p ~src:i ~dst:j
                    <> Platform.bandwidth platform ~src:i ~dst:j
               then ok := false
             done
           done;
           !ok
      in
      List.iter
        (fun d ->
          if not (same (Mapping.platform d.tenant_mapping)) then
            invalid_arg "Instance_io.multi_to_string: tenants do not share one platform")
        rest;
      platform

let print_multi ppf decls =
  let platform = shared_platform decls in
  let m = Platform.n_processors platform in
  Format.fprintf ppf "tenancy 1@\n";
  Format.fprintf ppf "processors %d@\nspeeds" m;
  for p = 0 to m - 1 do
    Format.fprintf ppf " %s" (Decimal.exact_float (Platform.speed platform p))
  done;
  let default = Platform.bandwidth platform ~src:0 ~dst:(min 1 (m - 1)) in
  Format.fprintf ppf "@\nbandwidth default %s@\n" (Decimal.exact_float default);
  for p = 0 to m - 1 do
    for q = 0 to m - 1 do
      if p <> q && Platform.bandwidth platform ~src:p ~dst:q <> default then
        Format.fprintf ppf "bandwidth %d %d %s@\n" p q
          (Decimal.exact_float (Platform.bandwidth platform ~src:p ~dst:q))
    done
  done;
  List.iter
    (fun d ->
      let app = Mapping.app d.tenant_mapping in
      let n = Application.n_stages app in
      Format.fprintf ppf "tenant %s weight %s floor %s@\n" d.tenant_id (Decimal.exact_float d.weight)
        (Decimal.exact_float d.floor);
      Format.fprintf ppf "stages %d@\nwork" n;
      for i = 0 to n - 1 do
        Format.fprintf ppf " %s" (Decimal.exact_float (Application.work app i))
      done;
      Format.fprintf ppf "@\nfiles";
      for i = 0 to n - 2 do
        Format.fprintf ppf " %s" (Decimal.exact_float (Application.file_size app i))
      done;
      Format.fprintf ppf "@\n";
      for i = 0 to n - 1 do
        Format.fprintf ppf "team";
        Array.iter (fun p -> Format.fprintf ppf " %d" p) (Mapping.team d.tenant_mapping i);
        Format.fprintf ppf "@\n"
      done)
    decls

let multi_to_string decls =
  let buf = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buf in
  print_multi ppf decls;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let multi_key ~header decls =
  let platform = shared_platform decls in
  let tenant d =
    24 + String.length d.tenant_id + stages_key_length (Mapping.app d.tenant_mapping)
    + teams_key_length d.tenant_mapping
  in
  let s =
    sink ~header
      (platform_key_length platform + 8 + List.fold_left (fun acc d -> acc + tenant d) 0 decls)
  in
  put_platform s platform;
  put_int s (List.length decls);
  List.iter
    (fun d ->
      put_int s (String.length d.tenant_id);
      put_string s d.tenant_id;
      put_float s d.weight;
      put_float s d.floor;
      put_stages s (Mapping.app d.tenant_mapping);
      put_teams s d.tenant_mapping)
    decls;
  contents s
