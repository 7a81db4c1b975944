(* ---- reading: one pass over the text, tokens found in place ---- *)

exception Bad of string

let fail lineno msg = raise (Bad (Printf.sprintf "line %d: %s" lineno msg))

(* The tokens of the current line as offsets into the text: token [k] is
   [String.sub text starts.(k) (stops.(k) - starts.(k))].  One record
   serves every line of a parse. *)
type line = {
  text : string;
  mutable count : int;
  mutable starts : int array;
  mutable stops : int array;
  mutable keyword : string;  (* token 0 *)
}

let token l k = String.sub l.text l.starts.(k) (l.stops.(k) - l.starts.(k))

let push l start stop =
  if l.count = Array.length l.starts then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    l.starts <- grow l.starts;
    l.stops <- grow l.stops
  end;
  l.starts.(l.count) <- start;
  l.stops.(l.count) <- stop;
  l.count <- l.count + 1

(* [f lineno line] for every line that holds a token, in order.  Lines
   end at newlines, a line's comment starts at its first '#', and tokens
   are separated by spaces and tabs. *)
let iter_lines text f =
  let n = String.length text in
  let l = { text; count = 0; starts = Array.make 16 0; stops = Array.make 16 0; keyword = "" } in
  let lineno = ref 0 and pos = ref 0 in
  while !pos <= n do
    incr lineno;
    l.count <- 0;
    let i = ref !pos and start = ref (-1) and comment = ref false in
    while !i < n && String.unsafe_get text !i <> '\n' do
      (if not !comment then
         match String.unsafe_get text !i with
         | (' ' | '\t' | '#') as c ->
             if !start >= 0 then begin
               push l !start !i;
               start := -1
             end;
             if c = '#' then comment := true
         | _ -> if !start < 0 then start := !i);
      incr i
    done;
    if !start >= 0 then push l !start !i;
    if l.count > 0 then begin
      l.keyword <- token l 0;
      f !lineno l
    end;
    pos := !i + 1
  done

let int_at l k = int_of_string_opt (token l k)
let float_at l k = float_of_string_opt (token l k)

(* tokens 1.. of the line; [None] when one of them does not parse *)
let floats_after l =
  match Array.init (l.count - 1) (fun k -> float_of_string (token l (k + 1))) with
  | a -> Some a
  | exception Failure _ -> None

let ints_after l =
  match Array.init (l.count - 1) (fun k -> int_of_string (token l (k + 1))) with
  | a -> Some a
  | exception Failure _ -> None

(* numeric sanity is checked where the line number is still at hand, so a
   NaN three screens into a file is reported as "line 47: ...", not as a
   late [Invalid_argument] from the model constructors *)
let bad ~strict v = (not (Float.is_finite v)) || if strict then v <= 0.0 else v < 0.0
let any_bad ~strict a = Array.exists (bad ~strict) a

(* The platform lines read so far.  Counts keep their line numbers, so
   the checks made once every line is read can point at them. *)
type platform_lines = {
  mutable procs : (int * int) option;  (* line, processor count *)
  mutable speeds : (int * float array) option;  (* line, speeds *)
  mutable bw_default : float option;
  mutable overrides : (int * int * int * float) list;  (* reversed: line, src, dst, value *)
}

(* one pipeline's lines read so far *)
type pipeline_lines = {
  mutable stages : int option;
  mutable work : float array option;
  mutable files : float array option;
  mutable teams : int array list;  (* reversed *)
}

let platform_lines () = { procs = None; speeds = None; bw_default = None; overrides = [] }
let pipeline_lines () = { stages = None; work = None; files = None; teams = [] }

type kind = Platform_line | Pipeline_line | Other_line

let kind l =
  match (l.keyword, l.count) with
  | "processors", 2 | "speeds", _ | "bandwidth", 4 -> Platform_line
  | "bandwidth", 3 when token l 1 = "default" -> Platform_line
  | "stages", 2 | "work", _ | "files", _ | "team", _ -> Pipeline_line
  | _ -> Other_line

(* the two readers take the lines [kind] sorted to them *)
let read_platform_line p lineno l =
  match (l.keyword, l.count) with
  | "processors", _ -> (
      match int_at l 1 with
      | Some m -> p.procs <- Some (lineno, m)
      | None -> fail lineno "bad processor count")
  | "speeds", _ -> (
      match floats_after l with
      | Some a when any_bad ~strict:true a -> fail lineno "speeds must be finite and positive"
      | Some a -> p.speeds <- Some (lineno, a)
      | None -> fail lineno "bad speeds")
  | _, 3 -> (
      match float_at l 2 with
      | Some b when bad ~strict:true b ->
          fail lineno "default bandwidth must be finite and positive"
      | Some b -> p.bw_default <- Some b
      | None -> fail lineno "bad default bandwidth")
  | _ -> (
      match (int_at l 1, int_at l 2, float_at l 3) with
      | Some _, Some _, Some b when bad ~strict:true b ->
          fail lineno "bandwidth must be finite and positive"
      | Some src, Some dst, Some b -> p.overrides <- (lineno, src, dst, b) :: p.overrides
      | _ -> fail lineno "bad bandwidth override")

let read_pipeline_line t lineno l =
  match l.keyword with
  | "stages" -> (
      match int_at l 1 with
      | Some n -> t.stages <- Some n
      | None -> fail lineno "bad stage count")
  | "work" -> (
      match floats_after l with
      | Some a when any_bad ~strict:true a -> fail lineno "work sizes must be finite and positive"
      | Some a -> t.work <- Some a
      | None -> fail lineno "bad work sizes")
  | "files" -> (
      match floats_after l with
      | Some a when any_bad ~strict:false a ->
          fail lineno "file sizes must be finite and non-negative"
      | Some a -> t.files <- Some a
      | None -> fail lineno "bad file sizes")
  | _ -> (
      match ints_after l with
      | Some a when Array.length a > 0 -> t.teams <- a :: t.teams
      | _ -> fail lineno "bad team")

let max_processors = 1024

(* The platform, once every line is read.  The processor count and the
   number of speeds are checked before the m x m bandwidth matrix is
   allocated, so a short text cannot ask for gigabytes: even a text that
   lists all its speeds gets at most two 8 MiB matrices (the parse and
   the [Platform.create] copy). *)
let build_platform ~procs:(procs_line, m) ~speeds:(speeds_line, speeds) ~default overrides =
  if m < 1 then Error (Printf.sprintf "line %d: processor count must be positive" procs_line)
  else if Array.length speeds <> m then
    Error
      (Printf.sprintf "line %d: %d speeds for %d processors" speeds_line (Array.length speeds) m)
  else if m > max_processors then
    Error
      (Printf.sprintf "line %d: %d processors exceed the limit of %d" procs_line m
         max_processors)
  else
    let overrides = List.rev overrides in
    match List.find_opt (fun (_, p, q, _) -> p < 0 || p >= m || q < 0 || q >= m) overrides with
    | Some (lineno, p, q, _) ->
        Error
          (Printf.sprintf "line %d: bandwidth override %d %d out of range (processors %d)" lineno
             p q m)
    | None -> (
        let bandwidth = Array.init m (fun _ -> Array.make m default) in
        List.iter (fun (_, p, q, b) -> bandwidth.(p).(q) <- b) overrides;
        match Platform.create ~speeds ~bandwidth with
        | platform -> Ok platform
        | exception Invalid_argument msg -> Error msg)

let build_mapping ~work ~files ~teams platform =
  let files = Option.value files ~default:[||] in
  match Mapping.create ~app:(Application.create ~work ~files) ~platform ~teams with
  | mapping -> Ok mapping
  | exception Invalid_argument msg -> Error msg

let parse text =
  let plat = platform_lines () and pipe = pipeline_lines () in
  match
    iter_lines text (fun lineno l ->
        match kind l with
        | Platform_line -> read_platform_line plat lineno l
        | Pipeline_line -> read_pipeline_line pipe lineno l
        | Other_line -> fail lineno ("unknown keyword " ^ l.keyword))
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
            Result.bind (build_platform ~procs ~speeds ~default plat.overrides)
              (build_mapping ~work ~files:pipe.files ~teams))

(* shortest decimal representation that parses back to the same float,
   so that printed instances round-trip exactly *)
let exact_float v =
  let short = Printf.sprintf "%.12g" v in
  if float_of_string short = v then short else Printf.sprintf "%.17g" v

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
    Format.fprintf ppf " %s" (exact_float (Application.work app i))
  done;
  Format.fprintf ppf "@\nfiles";
  for i = 0 to n - 2 do
    Format.fprintf ppf " %s" (exact_float (Application.file_size app i))
  done;
  Format.fprintf ppf "@\nprocessors %d@\nspeeds" m;
  for p = 0 to m - 1 do
    Format.fprintf ppf " %s" (exact_float (Platform.speed platform p))
  done;
  Format.fprintf ppf "@\nbandwidth default %s@\n"
    (exact_float (Platform.bandwidth platform ~src:0 ~dst:(min 1 (m - 1))));
  let default = Platform.bandwidth platform ~src:0 ~dst:(min 1 (m - 1)) in
  for p = 0 to m - 1 do
    for q = 0 to m - 1 do
      if p <> q && Platform.bandwidth platform ~src:p ~dst:q <> default then
        Format.fprintf ppf "bandwidth %d %d %s@\n" p q (exact_float (Platform.bandwidth platform ~src:p ~dst:q))
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
   bits exactly when [exact_float] writes them the same way (-0.0 and 0.0
   differ in both). *)

let add_int buf n = Buffer.add_int64_le buf (Int64.of_int n)
let add_float buf v = Buffer.add_int64_le buf (Int64.bits_of_float v)

let add_stages_key buf app =
  let n = Application.n_stages app in
  add_int buf n;
  for i = 0 to n - 1 do
    add_float buf (Application.work app i)
  done;
  for i = 0 to n - 2 do
    add_float buf (Application.file_size app i)
  done

(* the printed default bandwidth ([0 -> min 1 (m-1)], the diagonal when
   m = 1) and every off-diagonal bandwidth; like [print], the key skips
   the other diagonal entries *)
let add_platform_key buf platform =
  let m = Platform.n_processors platform in
  add_int buf m;
  for p = 0 to m - 1 do
    add_float buf (Platform.speed platform p)
  done;
  add_float buf (Platform.bandwidth platform ~src:0 ~dst:(min 1 (m - 1)));
  for p = 0 to m - 1 do
    for q = 0 to m - 1 do
      if p <> q then add_float buf (Platform.bandwidth platform ~src:p ~dst:q)
    done
  done

let add_teams_key buf mapping =
  Array.iteri
    (fun stage size ->
      add_int buf size;
      for row = 0 to size - 1 do
        add_int buf (Mapping.proc_at mapping ~stage ~row)
      done)
    (Mapping.replication mapping)

let add_key buf mapping =
  add_stages_key buf (Mapping.app mapping);
  add_platform_key buf (Mapping.platform mapping);
  add_teams_key buf mapping

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

let parse_multi text =
  let version = ref false in
  let plat = platform_lines () in
  let pendings = ref [] (* reversed *) in
  match
    iter_lines text (fun lineno l ->
        match (l.keyword, l.count) with
        | "tenancy", 2 ->
            let v = token l 1 in
            if !version then fail lineno "duplicate 'tenancy' line"
            else if v <> "1" then
              fail lineno (Printf.sprintf "unsupported tenancy version %s (this reader speaks 1)" v)
            else version := true
        | _ when not !version -> fail lineno "multi-tenant instances start with 'tenancy 1'"
        | _ -> (
            match kind l with
            | Platform_line ->
                (* the shared platform is declared once, before the first tenant *)
                if !pendings <> [] then fail lineno "platform line after the first 'tenant'"
                else read_platform_line plat lineno l
            | Pipeline_line -> (
                match !pendings with
                | [] ->
                    fail lineno (Printf.sprintf "'%s' outside a tenant declaration" l.keyword)
                | t :: _ -> read_pipeline_line t.p_lines lineno l)
            | Other_line -> (
                match (l.keyword, l.count) with
                | "tenant", 6 when token l 2 = "weight" && token l 4 = "floor" -> (
                    match (float_at l 3, float_at l 5) with
                    | Some w, _ when bad ~strict:true w ->
                        fail lineno "tenant weight must be finite and positive"
                    | _, Some f when bad ~strict:false f ->
                        fail lineno "tenant floor must be finite and non-negative"
                    | Some w, Some f ->
                        pendings :=
                          {
                            p_line = lineno;
                            p_id = token l 1;
                            p_weight = w;
                            p_floor = f;
                            p_lines = pipeline_lines ();
                          }
                          :: !pendings
                    | _ -> fail lineno "bad tenant weight or floor")
                | "tenant", _ -> fail lineno "tenant line is 'tenant ID weight W floor F'"
                | keyword, _ -> fail lineno ("unknown keyword " ^ keyword))))
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
            Result.bind (build_platform ~procs ~speeds ~default plat.overrides) (fun platform ->
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
    Format.fprintf ppf " %s" (exact_float (Platform.speed platform p))
  done;
  let default = Platform.bandwidth platform ~src:0 ~dst:(min 1 (m - 1)) in
  Format.fprintf ppf "@\nbandwidth default %s@\n" (exact_float default);
  for p = 0 to m - 1 do
    for q = 0 to m - 1 do
      if p <> q && Platform.bandwidth platform ~src:p ~dst:q <> default then
        Format.fprintf ppf "bandwidth %d %d %s@\n" p q
          (exact_float (Platform.bandwidth platform ~src:p ~dst:q))
    done
  done;
  List.iter
    (fun d ->
      let app = Mapping.app d.tenant_mapping in
      let n = Application.n_stages app in
      Format.fprintf ppf "tenant %s weight %s floor %s@\n" d.tenant_id (exact_float d.weight)
        (exact_float d.floor);
      Format.fprintf ppf "stages %d@\nwork" n;
      for i = 0 to n - 1 do
        Format.fprintf ppf " %s" (exact_float (Application.work app i))
      done;
      Format.fprintf ppf "@\nfiles";
      for i = 0 to n - 2 do
        Format.fprintf ppf " %s" (exact_float (Application.file_size app i))
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

let add_multi_key buf decls =
  add_platform_key buf (shared_platform decls);
  add_int buf (List.length decls);
  List.iter
    (fun d ->
      add_int buf (String.length d.tenant_id);
      Buffer.add_string buf d.tenant_id;
      add_float buf d.weight;
      add_float buf d.floor;
      add_stages_key buf (Mapping.app d.tenant_mapping);
      add_teams_key buf d.tenant_mapping)
    decls
