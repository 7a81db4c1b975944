(* The reference instance reader the one-pass scanner in [Instance_io]
   is checked against: the line tokenizer as it stood before the numbers
   were read in place.  Each line's tokens are copied out with
   [String.sub] and converted by [float_of_string] and [int_of_string];
   the checks, their order and the line-numbered messages are the ones
   [Instance_io] must reproduce, byte for byte. *)

open Streaming
open Instance_io

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

