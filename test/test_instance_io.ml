open Streaming

let sample =
  {|# four stages on seven processors
stages    4
work      52 48 72 32
files     24 36 28
processors 7
speeds    2 0.8 1.1 0.9 1.3 0.7 1.6
bandwidth default 0.5
bandwidth 0 1 0.35        # src dst value
team 0
team 1 2
team 3 4 5
team 6
|}

let test_parse_ok () =
  match Instance_io.parse sample with
  | Error msg -> Alcotest.fail msg
  | Ok mapping ->
      Alcotest.(check int) "stages" 4 (Mapping.n_stages mapping);
      Alcotest.(check int) "processors" 7 (Mapping.n_processors mapping);
      Alcotest.(check int) "rows" 6 (Mapping.rows mapping);
      Alcotest.(check (float 1e-12)) "override bandwidth" 0.35
        (Platform.bandwidth (Mapping.platform mapping) ~src:0 ~dst:1);
      Alcotest.(check (float 1e-12)) "default bandwidth" 0.5
        (Platform.bandwidth (Mapping.platform mapping) ~src:0 ~dst:2);
      Alcotest.(check (float 1e-12)) "work" 48.0 (Application.work (Mapping.app mapping) 1)

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let expect_error fragment text =
  match Instance_io.parse text with
  | Ok _ -> Alcotest.fail ("expected parse error mentioning " ^ fragment)
  | Error msg ->
      Alcotest.(check bool) (Printf.sprintf "%S mentions %S" msg fragment) true
        (contains fragment msg)

let test_parse_errors () =
  expect_error "stages" "work 1\nprocessors 1\nspeeds 1\nbandwidth default 1\nteam 0\n";
  expect_error "unknown keyword" (sample ^ "frobnicate 3\n");
  expect_error "team" "stages 2\nwork 1 1\nfiles 1\nprocessors 2\nspeeds 1 1\nbandwidth default 1\nteam 0\n";
  expect_error "bad speeds" "stages 1\nwork 1\nprocessors 1\nspeeds abc\nbandwidth default 1\nteam 0\n"

(* the platform lines of [m] processors that list all [m] speeds *)
let over_cap_platform m =
  Printf.sprintf "processors %d\nspeeds%s\nbandwidth default 1\n" m
    (String.concat "" (List.init m (fun _ -> " 1")))

(* numeric sanity: NaN, infinities, wrong signs and dangling overrides are
   rejected with the offending line number *)
let test_parse_insane_numbers () =
  expect_error "line 2: work sizes must be finite and positive"
    "stages 1\nwork nan\nprocessors 1\nspeeds 1\nbandwidth default 1\nteam 0\n";
  expect_error "line 2: work sizes must be finite and positive"
    "stages 1\nwork -3\nprocessors 1\nspeeds 1\nbandwidth default 1\nteam 0\n";
  expect_error "line 4: speeds must be finite and positive"
    "stages 1\nwork 1\nprocessors 2\nspeeds 1 inf\nbandwidth default 1\nteam 0\n";
  expect_error "line 4: speeds must be finite and positive"
    "stages 1\nwork 1\nprocessors 1\nspeeds 0\nbandwidth default 1\nteam 0\n";
  expect_error "line 5: default bandwidth must be finite and positive"
    "stages 1\nwork 1\nprocessors 1\nspeeds 1\nbandwidth default -0.5\nteam 0\n";
  expect_error "line 6: bandwidth must be finite and positive"
    "stages 1\nwork 1\nprocessors 2\nspeeds 1 1\nbandwidth default 1\nbandwidth 0 1 nan\nteam 0\n";
  expect_error "line 3: file sizes must be finite and non-negative"
    "stages 2\nwork 1 1\nfiles -1\nprocessors 2\nspeeds 1 1\nbandwidth default 1\nteam 0\nteam 1\n";
  expect_error "line 6: bandwidth override 0 7 out of range (processors 2)"
    "stages 1\nwork 1\nprocessors 2\nspeeds 1 1\nbandwidth default 1\nbandwidth 0 7 0.5\nteam 0\n";
  (* a zero file size passes numeric validation (non-negative) but the
     model still rejects it: a zero-time communication would need an
     infinite exponential rate *)
  expect_error "communication time"
    "stages 2\nwork 1 1\nfiles 0\nprocessors 2\nspeeds 1 1\nbandwidth default 1\nteam 0\nteam 1\n";
  (* the processor count is checked before the m x m bandwidth matrix is
     allocated: a negative count must not raise, and a huge one with a
     single speed must not allocate its matrix *)
  expect_error "line 3: processor count must be positive"
    "stages 1\nwork 1\nprocessors -1\nspeeds 1\nbandwidth default 1\nteam 0\n";
  expect_error "line 4: 1 speeds for 4000 processors"
    "stages 1\nwork 1\nprocessors 4000\nspeeds 1\nbandwidth default 1\nteam 0\n";
  (* a text that really lists its speeds is capped too: 20 000 of them fit
     in 40 KB but would ask for two 3.2 GB matrices *)
  let over = Instance_io.max_processors + 1 in
  let listed = over_cap_platform over in
  expect_error
    (Printf.sprintf "line 3: %d processors exceed the limit of %d" over Instance_io.max_processors)
    ("stages 1\nwork 1\n" ^ listed ^ "team 0\n");
  let expect_multi_error fragment text =
    match Instance_io.parse_multi text with
    | Ok _ -> Alcotest.fail ("expected parse_multi error mentioning " ^ fragment)
    | Error msg ->
        Alcotest.(check bool) (Printf.sprintf "%S mentions %S" msg fragment) true
          (contains fragment msg)
  in
  let tenant = "tenant a weight 1 floor 0\nstages 1\nwork 1\nteam 0\n" in
  expect_multi_error "line 2: processor count must be positive"
    ("tenancy 1\nprocessors -1\nspeeds 1\nbandwidth default 1\n" ^ tenant);
  expect_multi_error "line 3: 1 speeds for 4000 processors"
    ("tenancy 1\nprocessors 4000\nspeeds 1\nbandwidth default 1\n" ^ tenant);
  expect_multi_error (Printf.sprintf "line 2: %d processors exceed the limit" over)
    ("tenancy 1\n" ^ listed ^ tenant)

(* ---- the parsers never raise ---- *)

let never_raises name parse text =
  match parse text with
  | Ok _ | Error _ -> true
  | exception e ->
      QCheck.Test.fail_reportf "%s raised %s on %S" name (Printexc.to_string e) text

let both_never_raise text =
  never_raises "parse" Instance_io.parse text
  && never_raises "parse_multi" Instance_io.parse_multi text

let qcheck_random_bytes_never_raise =
  QCheck.Test.make ~name:"parse and parse_multi never raise on random bytes" ~count:300
    QCheck.string both_never_raise

(* keyword and number soup: reaches the value checks, unlike raw bytes *)
let qcheck_token_soup_never_raises =
  let pieces =
    [ "stages "; "work "; "files "; "processors "; "speeds "; "bandwidth "; "default "; "team ";
      "tenancy "; "tenant "; "weight "; "floor "; "1 "; "0 "; "-1 "; "2 "; "4000 "; "nan ";
      "inf "; "-0 "; "0.5 "; "1e0 "; "x "; "\t"; "\n"; "\n"; "# " ]
  in
  let gen = QCheck.Gen.(map (String.concat "") (list_size (int_bound 60) (oneofl pieces))) in
  QCheck.Test.make ~name:"parse and parse_multi never raise on token soup" ~count:300
    (QCheck.make ~print:String.escaped gen) both_never_raise

(* one mutation of a valid text: a bad count on its first processors or
   stages line, a processor count above the cap that lists all its
   speeds, a bad number in place of any token, or one line dropped or
   duplicated *)
let mutate g text =
  let lines = String.split_on_char '\n' text in
  let pick a = a.(Prng.int g (Array.length a)) in
  let replace_token k v l =
    String.split_on_char ' ' l |> List.mapi (fun j t -> if j = k then v else t) |> String.concat " "
  in
  let edit f = String.concat "\n" (List.concat (List.mapi f lines)) in
  let first prefix =
    let rec go k = function
      | [] -> -1
      | l :: rest -> if String.starts_with ~prefix l then k else go (k + 1) rest
    in
    go 0 lines
  in
  let i = Prng.int g (List.length lines) in
  match Prng.int g 5 with
  | 0 ->
      let target = first (if Prng.int g 2 = 0 then "processors " else "stages ") in
      let count = pick [| "-1"; "0"; "4000"; string_of_int max_int |] in
      edit (fun k l -> [ (if k = target then replace_token 1 count l else l) ])
  | 1 ->
      let m = Instance_io.max_processors + 1 + Prng.int g 64 in
      let platform = String.split_on_char '\n' (over_cap_platform m) in
      let procs = first "processors " and speeds = first "speeds " in
      edit (fun k l ->
          if k = procs then [ List.nth platform 0 ]
          else if k = speeds then [ List.nth platform 1 ]
          else [ l ])
  | 2 ->
      let number = pick [| "-1"; "0"; "nan"; "inf"; "-inf"; "-0"; "1e308" |] in
      edit (fun k l ->
          [ (if k = i then replace_token (Prng.int g (List.length (String.split_on_char ' ' l))) number l
             else l) ])
  | 3 -> edit (fun k l -> if k = i then [] else [ l ])
  | _ -> edit (fun k l -> if k = i then [ l; l ] else [ l ])

let qcheck_mutations_never_raise =
  QCheck.Test.make ~name:"parse and parse_multi never raise on mutated instances" ~count:300
    QCheck.small_int (fun seed ->
      let g = Prng.create ~seed:(7_000 + seed) in
      let params =
        {
          Workload.Gen.n_stages = 1 + (seed mod 4);
          n_procs = 4 + (seed mod 6);
          comp_range = (0.5, 20.);
          comm_range = (0.25, 10.);
          max_rows = 40;
        }
      in
      let single = Instance_io.to_string (Workload.Gen.random_mapping g params) in
      let multi = Instance_io.multi_to_string (Workload.Gen.random_tenant_mix g Workload.Gen.default_mix) in
      never_raises "parse" Instance_io.parse (mutate g single)
      && never_raises "parse_multi" Instance_io.parse_multi (mutate g multi))

let test_roundtrip () =
  let mapping = Workload.Scenarios.example_a in
  let text = Format.asprintf "%a" Instance_io.print mapping in
  match Instance_io.parse text with
  | Error msg -> Alcotest.fail msg
  | Ok mapping' ->
      Alcotest.(check int) "stages" (Mapping.n_stages mapping) (Mapping.n_stages mapping');
      Alcotest.(check int) "rows" (Mapping.rows mapping) (Mapping.rows mapping');
      (* the analysis of the reparsed instance is identical *)
      List.iter
        (fun model ->
          Alcotest.(check (float 1e-9))
            (Model.to_string model)
            (Deterministic.throughput mapping model)
            (Deterministic.throughput mapping' model))
        Model.all

(* canonical rendering: [to_string] is a fixed point of [parse] — render,
   reparse, render again and the bytes are identical.  The query service
   derives its cache keys from this rendering, so two textually different
   descriptions of the same instance collide exactly when this property
   holds. *)
let qcheck_render_roundtrip =
  QCheck.Test.make ~name:"parse (to_string m) renders back byte-identically" ~count:60
    QCheck.small_int (fun seed ->
      let g = Prng.create ~seed:(9_000 + seed) in
      let params =
        {
          Workload.Gen.n_stages = 2 + (seed mod 4);
          n_procs = 6 + (seed mod 7);
          comp_range = (0.5, 20.);
          comm_range = (0.25, 10.);
          max_rows = 40;
        }
      in
      let mapping = Workload.Gen.random_mapping g params in
      let text = Instance_io.to_string mapping in
      match Instance_io.parse text with
      | Error msg -> QCheck.Test.fail_reportf "reparse failed: %s" msg
      | Ok mapping' -> String.equal text (Instance_io.to_string mapping'))

(* The query service keys its cache on [key], not on the rendering;
   the two must group mappings identically.  Pairs differ in at most one
   value, often by one ulp, or only in what the printer drops (the
   diagonal of a multi-processor platform).  The property keeps the name
   it had when the encoder was [add_key], appending to a buffer. *)
let key_of mapping = Instance_io.key ~header:"" mapping

let variant g mapping =
  let app = Mapping.app mapping and platform = Mapping.platform mapping in
  let n = Application.n_stages app and m = Platform.n_processors platform in
  let work = Array.init n (Application.work app) in
  let files = Array.init (n - 1) (Application.file_size app) in
  let speeds = Array.init m (Platform.speed platform) in
  let bandwidth =
    Array.init m (fun p -> Array.init m (fun q -> Platform.bandwidth platform ~src:p ~dst:q))
  in
  let teams = Array.init n (Mapping.team mapping) in
  let p = Prng.int g m and q = Prng.int g m and i = Prng.int g n in
  (match Prng.int g 8 with
  | 0 -> work.(i) <- Float.succ work.(i)
  | 1 -> if n > 1 then files.(i mod (n - 1)) <- Float.succ files.(i mod (n - 1))
  | 2 -> speeds.(p) <- Float.pred speeds.(p)
  | 3 -> bandwidth.(p).(q) <- Float.succ bandwidth.(p).(q)
  | 4 -> bandwidth.(p).(p) <- 2.0 *. bandwidth.(p).(p)
  | 5 -> bandwidth.(p).(q) <- bandwidth.(0).(min 1 (m - 1))
  | 6 ->
      let team = teams.(i) in
      let k = Array.length team - 1 in
      if k > 0 then begin
        let last = team.(k) in
        team.(k) <- team.(k - 1);
        team.(k - 1) <- last
      end
  | _ -> ());
  Mapping.create ~app:(Application.create ~work ~files) ~platform:(Platform.create ~speeds ~bandwidth)
    ~teams

let qcheck_key_groups_as_rendering =
  QCheck.Test.make ~name:"add_key equal iff to_string equal" ~count:300 QCheck.small_int
    (fun seed ->
      let g = Prng.create ~seed:(11_000 + seed) in
      let n = 1 + (seed mod 4) in
      let params =
        {
          Workload.Gen.n_stages = n;
          n_procs = n + (seed mod 5);
          comp_range = (0.5, 20.);
          comm_range = (0.25, 10.);
          max_rows = 40;
        }
      in
      let a = Workload.Gen.random_mapping g params in
      let b =
        if seed mod 3 = 0 then Result.get_ok (Instance_io.parse (Instance_io.to_string a))
        else variant g a
      in
      Bool.equal
        (String.equal (key_of a) (key_of b))
        (String.equal (Instance_io.to_string a) (Instance_io.to_string b)))

(* a single processor's default bandwidth is its diagonal, and the
   printer writes it: the key must see it too *)
let test_key_single_processor () =
  let text bw = Printf.sprintf "stages 1\nwork 1\nprocessors 1\nspeeds 1\nbandwidth default %s\nteam 0\n" bw in
  let key t = key_of (Result.get_ok (Instance_io.parse t)) in
  Alcotest.(check bool) "diagonal default in the key" false (key (text "1") = key (text "2"));
  Alcotest.(check bool) "diagonal override in the key" false
    (key (text "1") = key (text "1\nbandwidth 0 0 2"));
  Alcotest.(check bool) "same value, other spelling" true (key (text "2") = key (text "2e0"))

(* a floor may be -0, which renders as "-0": the key keeps the sign *)
let test_key_signed_zero () =
  let text floor =
    Printf.sprintf
      "tenancy 1\nprocessors 1\nspeeds 1\nbandwidth default 1\n\
       tenant a weight 1 floor %s\nstages 1\nwork 1\nteam 0\n" floor
  in
  let key t = Instance_io.multi_key ~header:"" (Result.get_ok (Instance_io.parse_multi t)) in
  Alcotest.(check bool) "-0 and 0 differ" false (key (text "0") = key (text "-0"));
  Alcotest.(check bool) "0 and 0.0 agree" true (key (text "0") = key (text "0.0"))

let test_parse_file_missing () =
  match Instance_io.parse_file "/nonexistent/instance.txt" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error _ -> ()

(* Example C (§5.2): stages replicated (5,21,27,11).  The second
   communication (21 senders, 27 receivers) must decompose into g=3
   components, each made of 55 copies of a 7x9 pattern whose marking chain
   has S(7,9) states. *)
let test_example_c_structure () =
  let sizes = Workload.Scenarios.example_c_teams in
  let n_procs = Array.fold_left ( + ) 0 sizes in
  let app = Application.uniform ~n:4 ~work:1.0 ~file:1.0 in
  let platform = Platform.fully_connected ~speeds:(Array.make n_procs 1.0) ~bw:1.0 in
  let teams =
    let next = ref 0 in
    Array.map
      (fun size ->
        let t = Array.init size (fun k -> !next + k) in
        next := !next + size;
        t)
      sizes
  in
  let mapping = Mapping.create ~app ~platform ~teams in
  Alcotest.(check int) "m = lcm(5,21,27,11)" 10395 (Mapping.rows mapping);
  let comms =
    List.filter_map
      (function Columns.Communication c when c.Columns.file = 1 -> Some c | _ -> None)
      (Columns.components mapping)
  in
  Alcotest.(check int) "g = 3 components" 3 (List.length comms);
  List.iter
    (fun c ->
      Alcotest.(check int) "u = 7" 7 c.Columns.u;
      Alcotest.(check int) "v = 9" 9 c.Columns.v;
      (* rows per component = copies * u * v with 55 copies *)
      Alcotest.(check int) "55 copies of the 7x9 pattern" (55 * 7 * 9) (10395 / 3))
    comms;
  Alcotest.(check int) "S(7,9) = C(15,6) * 9" (5005 * 9) (Young.Combin.state_count ~u:7 ~v:9);
  (* homogeneous network: Theorem 4 end to end on example C *)
  let rho = Expo.overlap_throughput mapping in
  (* with unit times everywhere the bottleneck is the (5,21) communication:
     a single component with inner throughput 5*21/(5+21-1) = 4.2, below
     stage 1's aggregate rate 5 and every other column *)
  Alcotest.(check (float 1e-9)) "rho = 4.2 (Theorem 4 on example C)" 4.2 rho

(* ---- the decimal reader: bit for bit what float_of_string gives ---- *)

let bits = Int64.bits_of_float

let same_opt a b =
  match (a, b) with
  | Some x, Some y -> Int64.equal (bits x) (bits y)
  | None, None -> true
  | _ -> false

(* the reader on a whole string, and the standard library where it does
   not decide or does not span it: what the instance parser does with a
   token *)
let read_or_defer s =
  let cell = Array.create_float 1 in
  if Decimal.read s 0 cell 0 = String.length s then Some cell.(0) else float_of_string_opt s

let agrees s =
  same_opt (read_or_defer s) (float_of_string_opt s)
  || QCheck.Test.fail_reportf "%S: reader %s, float_of_string %s" s
       (match read_or_defer s with Some v -> Printf.sprintf "%h" v | None -> "none")
       (match float_of_string_opt s with Some v -> Printf.sprintf "%h" v | None -> "none")

(* the reader decides [s] itself, spanning all of it *)
let decides s = Decimal.read s 0 (Array.create_float 1) 0 = String.length s

let test_power_table () =
  let entry q = Decimal.power_of_five q in
  let check q (hi, lo) =
    Alcotest.(check (pair int64 int64)) (Printf.sprintf "5^%d" q) (hi, lo) (entry q)
  in
  (* the entries printed in the paper *)
  check (-342) (0xeef453d6923bd65aL, 0x113faa2906a13b3fL);
  check (-1) (0xccccccccccccccccL, 0xcccccccccccccccdL);
  check 308 (0x8e679c2f5e44ff8fL, 0x570f09eaa7ea7648L);
  check 0 (Int64.min_int, 0L);
  for q = -342 to 308 do
    (* every entry lies in [2^127, 2^128) *)
    Alcotest.(check bool) (Printf.sprintf "5^%d normalised" q) true (Int64.compare (fst (entry q)) 0L < 0);
    (* and reads right at both ends of its decade *)
    List.iter
      (fun m ->
        let s = Printf.sprintf "%se%d" m q in
        Alcotest.(check bool) s true (same_opt (read_or_defer s) (float_of_string_opt s)))
      [ "1"; "9.999999999999999"; "1.2345678901234567"; "7.0000000000000001" ]
  done

let test_decimal_edges () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " agrees") true (agrees s);
      Alcotest.(check bool) (s ^ " decided") true (decides s))
    [ "0"; "-0"; "0.0"; "-0e5"; "1e-400"; "-1e-400"; "1e400"; "-1e400"; "4.9406564584124654e-324";
      "5e-324"; "2.4703282292062328e-324"; "2.4703282292062327e-324"; "2.2250738585072011e-308";
      "2.2250738585072014e-308"; "1.7976931348623157e308"; "1.7976931348623158e308";
      "1.7976931348623159e308"; "9007199254740993"; "9007199254740993.0"; "1e23"; "8.589973e9";
      "123456789012345678"; "1234567890123456789"; "9999999999999999999"; "007.50"; "1E5";
      "1e+5"; "0.000001234"; "1e0000000000000000000000000003" ];
  (* forms the reader leaves to the standard library *)
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " agrees") true (agrees s);
      Alcotest.(check bool) (s ^ " deferred") false (decides s))
    [ "1_0"; "0x1p3"; "nan"; "-nan"; "inf"; "-inf"; "infinity"; ".5"; "1."; "+1"; "1e"; "1e+";
      "-"; ""; " 1"; "1 "; "1\r"; "12345678901234567890"; "0.12345678901234567890" ]

(* random doubles, negative and subnormal ones included *)
let gen_double =
  QCheck.Gen.(
    map2
      (fun b sub -> Int64.float_of_bits (if sub then Int64.logand b 0x800F_FFFF_FFFF_FFFFL else b))
      ui64 (map (fun k -> k = 0) (int_bound 9)))

let finite_double = QCheck.Gen.(map (fun v -> if Float.is_finite v then v else 1.5) gen_double)

let qcheck_decimal_exact_float =
  QCheck.Test.make ~name:"reader decides every exact_float rendering, bit for bit" ~count:2000
    ~long_factor:200
    (QCheck.make ~print:(Printf.sprintf "%h") finite_double)
    (fun v ->
      let s = Decimal.exact_float v in
      agrees s && (decides s || QCheck.Test.fail_reportf "%s deferred" s))

let qcheck_decimal_renderings =
  QCheck.Test.make ~name:"reader agrees on %.17g and %.16e renderings" ~count:2000
    ~long_factor:150
    (QCheck.make ~print:(Printf.sprintf "%h") gen_double)
    (fun v -> agrees (Printf.sprintf "%.17g" v) && agrees (Printf.sprintf "%.16e" v))

(* up to 25 digits, maybe a point, an exponent in [-350, 350], a sign *)
let gen_digits =
  QCheck.Gen.(
    let digits k = string_size ~gen:(char_range '0' '9') (return k) in
    let* total = int_range 1 25 in
    let* whole = int_range 1 total in
    let frac = total - whole in
    let* a = digits whole and* b = digits frac in
    let* e = int_range (-350) 350 and* form = int_bound 5 and* neg = bool in
    let body = if frac > 0 then a ^ "." ^ b else a in
    let exp = match form with 0 -> "" | 1 -> Printf.sprintf "E%+d" e | _ -> Printf.sprintf "e%d" e in
    return ((if neg then "-" else "") ^ body ^ exp))

let qcheck_decimal_digits =
  QCheck.Test.make ~name:"reader agrees on random digit strings" ~count:2000 ~long_factor:150
    (QCheck.make ~print:Fun.id gen_digits) agrees

(* Exact decimal digits of m * 2^e (m > 0): an integer's digits and the
   power of ten they are scaled by.  Base-10^9 limbs, little-endian. *)
let exact_decimal m e =
  let mul limbs c =
    let carry = ref 0 in
    let limbs =
      List.map
        (fun x ->
          let v = (x * c) + !carry in
          carry := v / 1_000_000_000;
          v mod 1_000_000_000)
        limbs
    in
    let rec spill c acc = if c = 0 then List.rev acc else spill (c / 1_000_000_000) ((c mod 1_000_000_000) :: acc) in
    limbs @ spill !carry []
  in
  let rec power limbs base chunk chunk_exp k =
    if k = 0 then limbs
    else if k >= chunk_exp then power (mul limbs chunk) base chunk chunk_exp (k - chunk_exp)
    else power (mul limbs base) base chunk chunk_exp (k - 1)
  in
  let limbs = mul [ 1 ] m in
  let limbs =
    if e >= 0 then power limbs 2 (1 lsl 29) 29 e else power limbs 5 1_220_703_125 13 (-e)
  in
  let digits =
    match List.rev limbs with
    | [] -> "0"
    | top :: rest -> String.concat "" (string_of_int top :: List.map (Printf.sprintf "%09d") rest)
  in
  (digits, if e >= 0 then 0 else e)

(* [digits] cut to [k] significant ones, rounded down or up one unit in
   the last place, as scientific text *)
let cut (digits, point) k ~up =
  let k = min k (String.length digits) in
  let head = Bytes.of_string (String.sub digits 0 k) in
  let exponent = point + String.length digits - 1 in
  let exponent =
    if not up then exponent
    else begin
      let i = ref (k - 1) in
      while !i >= 0 && Bytes.get head !i = '9' do
        Bytes.set head !i '0';
        decr i
      done;
      if !i >= 0 then begin
        Bytes.set head !i (Char.chr (Char.code (Bytes.get head !i) + 1));
        exponent
      end
      else begin
        Bytes.set head 0 '1';
        exponent + 1
      end
    end
  in
  let h = Bytes.to_string head in
  Printf.sprintf "%c.%se%d" h.[0] (if k > 1 then String.sub h 1 (k - 1) else "0") exponent

(* The halfway point between a random double and the next, cut to 15-21
   digits: just below or just above a tie, or at it. *)
let gen_near_halfway =
  QCheck.Gen.(
    let* v = map Float.abs finite_double and* k = int_range 15 21 and* up = bool in
    let m, e =
      let f, x = Float.frexp v in
      if v = 0.0 then (0, -1074)
      else if x - 53 < -1074 then (int_of_float (Float.ldexp f (x + 1074)), -1074)
      else (int_of_float (Float.ldexp f 53), x - 53)
    in
    return (cut (exact_decimal ((2 * m) + 1) (e - 1)) k ~up))

let qcheck_decimal_near_halfway =
  QCheck.Test.make ~name:"reader agrees next to halfway points" ~count:1000 ~long_factor:100
    (QCheck.make ~print:Fun.id gen_near_halfway) agrees

(* Exact ties with at most 19 digits: N odd in (2^53, 2^54) is halfway
   between two doubles, as is N * 2^q, which is (N / 5^q) * 10^q, and
   N / 2^k, which is (N * 5^k) * 10^-k. *)
let gen_tie =
  QCheck.Gen.(
    let* negative = int_bound 4 in
    if negative = 0 then
      let* q = int_range 0 23 in
      let p = int_of_float (5.0 ** float_of_int q) in
      let lo = ((1 lsl 53) / p) + 1 and hi = ((1 lsl 54) - 1) / p in
      let* w = int_range lo hi in
      let w = if w land 1 = 0 then w + 1 else w in
      let w = if w > hi then w - 2 else w in
      let* zeros = int_bound 2 in
      return (Printf.sprintf "%d%se%d" w (String.make zeros '0') (q - zeros))
    else
      let k = negative in
      let p = int_of_float (5.0 ** float_of_int k) in
      (* N * 5^k below 10^19, read as an unsigned 64-bit product *)
      let* n = int_range ((1 lsl 53) + 1) (min ((1 lsl 54) - 1) (1_000_000_000_000_000_000 / p * 10)) in
      let n = n lor 1 in
      return (Printf.sprintf "%Lue-%d" (Int64.mul (Int64.of_int n) (Int64.of_int p)) k))

let qcheck_decimal_ties =
  QCheck.Test.make ~name:"reader decides exact ties, to even" ~count:1000 ~long_factor:100
    (QCheck.make ~print:Fun.id gen_tie) (fun s ->
      agrees s && (decides s || QCheck.Test.fail_reportf "%s deferred" s))

(* ---- the one-pass scanner against the line tokenizer it replaced ---- *)

(* everything a mapping holds: its key, and the diagonal the key skips *)
let fingerprint_platform buf platform =
  for p = 0 to Platform.n_processors platform - 1 do
    Buffer.add_int64_le buf (bits (Platform.bandwidth platform ~src:p ~dst:p))
  done

let fingerprint mapping =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (key_of mapping);
  fingerprint_platform buf (Mapping.platform mapping);
  Buffer.contents buf

let fingerprint_multi decls =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Instance_io.multi_key ~header:"" decls);
  List.iter (fun d -> fingerprint_platform buf (Mapping.platform d.Instance_io.tenant_mapping)) decls;
  Buffer.contents buf

let agree name text fingerprint ours reference =
  match (ours, reference) with
  | Ok a, Ok b -> fingerprint a = fingerprint b || QCheck.Test.fail_reportf "%s %S: values differ" name text
  | Error a, Error b -> a = b || QCheck.Test.fail_reportf "%s %S: %S, reference %S" name text a b
  | Ok _, Error b -> QCheck.Test.fail_reportf "%s %S: ok, reference %S" name text b
  | Error a, Ok _ -> QCheck.Test.fail_reportf "%s %S: %S, reference ok" name text a

(* the same values, or the same line-numbered error, from both parsers *)
let same_as_reference text =
  agree "parse" text fingerprint (Instance_io.parse text) (Ref_instance_io.parse text)
  && agree "parse_multi" text fingerprint_multi (Instance_io.parse_multi text)
       (Ref_instance_io.parse_multi text)

let qcheck_reference_random_bytes =
  QCheck.Test.make ~name:"scanner matches the reference tokenizer on random bytes" ~count:500
    QCheck.string same_as_reference

(* keywords, separators and every spelling of a number either reader
   treats apart: plain, deferred to the standard library, out of range *)
let qcheck_reference_token_soup =
  let pieces =
    [ "stages "; "work "; "files "; "processors "; "speeds "; "bandwidth "; "default "; "team ";
      "tenancy "; "tenant "; "weight "; "floor "; "1 "; "0 "; "-1 "; "2 "; "3 "; "4000 "; "nan ";
      "inf "; "-0 "; "0.5 "; "1e0 "; "x "; "\t"; "\n"; "\n"; "\n"; "# "; "1_0 "; "0x1F "; "+1 ";
      ".5 "; "1. "; "1e "; "007 "; "1.5\r"; "4611686018427387903 "; "4611686018427387904 ";
      "-4611686018427387904 "; "1234567890123456789 "; "99999999999999999999 ";
      "0.071428571428571425 "; "7.3456789012345678e-05 "; "1e400 "; "1e-400 "; "2.5#"; "a " ]
  in
  let gen = QCheck.Gen.(map (String.concat "") (list_size (int_bound 80) (oneofl pieces))) in
  QCheck.Test.make ~name:"scanner matches the reference tokenizer on token soup" ~count:1000
    (QCheck.make ~print:String.escaped gen) same_as_reference

let random_single g seed =
  Instance_io.to_string
    (Workload.Gen.random_mapping g
       {
         Workload.Gen.n_stages = 1 + (seed mod 5);
         n_procs = 5 + (seed mod 10);
         comp_range = (0.5, 20.);
         comm_range = (0.25, 10.);
         max_rows = 40;
       })

let qcheck_reference_mutations =
  QCheck.Test.make ~name:"scanner matches the reference tokenizer on mutated instances"
    ~count:500 QCheck.small_int (fun seed ->
      let g = Prng.create ~seed:(13_000 + seed) in
      let single = random_single g seed in
      let multi = Instance_io.multi_to_string (Workload.Gen.random_tenant_mix g Workload.Gen.default_mix) in
      same_as_reference (mutate g single) && same_as_reference (mutate g multi))

(* a canonical rendering with each decimal respelled: more digits, an
   exponent, a leading zero, comments and tabs *)
let respell g text =
  let spell t =
    match float_of_string_opt t with
    | Some v when String.contains t '.' -> (
        match Prng.int g 5 with
        | 0 -> Printf.sprintf "%.17g" v
        | 1 -> Printf.sprintf "%.16e" v
        | 2 -> Printf.sprintf "%.21e" v
        | 3 -> "0" ^ t ^ "0"
        | _ -> t ^ "E0")
    | _ -> t
  in
  String.split_on_char '\n' text
  |> List.map (fun l ->
         String.concat (if Prng.int g 4 = 0 then "\t " else " ")
           (List.map spell (String.split_on_char ' ' l))
         ^ if Prng.int g 6 = 0 then " # a comment 1.5" else "")
  |> String.concat "\n"

let qcheck_reference_renders =
  QCheck.Test.make ~name:"scanner matches the reference tokenizer on respelled renders"
    ~count:200 QCheck.small_int (fun seed ->
      let g = Prng.create ~seed:(17_000 + seed) in
      let single = random_single g seed in
      let multi = Instance_io.multi_to_string (Workload.Gen.random_tenant_mix g Workload.Gen.default_mix) in
      same_as_reference single && same_as_reference multi
      && same_as_reference (respell g single)
      && same_as_reference (respell g multi))

(* the reader holds no state: parses on two domains at once give the
   keys of one sequential pass *)
let test_parse_on_domains () =
  let texts = Array.init 64 (fun seed -> random_single (Prng.create ~seed:(19_000 + seed)) seed) in
  let keys () = Array.map (fun t -> fingerprint (Result.get_ok (Instance_io.parse t))) texts in
  let sequential = keys () in
  let parallel =
    Parallel.Pool.with_pool ~domains:2 (fun pool ->
        Parallel.Pool.map pool
          (fun t ->
            let k = fingerprint (Result.get_ok (Instance_io.parse t)) in
            for _ = 1 to 20 do
              if fingerprint (Result.get_ok (Instance_io.parse t)) <> k then failwith "unstable parse"
            done;
            k)
          texts)
  in
  Alcotest.(check (array string)) "same keys" sequential parallel

let () =
  Alcotest.run "instance_io"
    [
      ( "parse",
        [
          Alcotest.test_case "ok" `Quick test_parse_ok;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "insane numbers" `Quick test_parse_insane_numbers;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_render_roundtrip;
          Alcotest.test_case "missing file" `Quick test_parse_file_missing;
          QCheck_alcotest.to_alcotest qcheck_random_bytes_never_raise;
          QCheck_alcotest.to_alcotest qcheck_token_soup_never_raises;
          QCheck_alcotest.to_alcotest qcheck_mutations_never_raise;
        ] );
      ( "key",
        [
          QCheck_alcotest.to_alcotest qcheck_key_groups_as_rendering;
          Alcotest.test_case "single processor" `Quick test_key_single_processor;
          Alcotest.test_case "signed zero" `Quick test_key_signed_zero;
        ] );
      ("example C", [ Alcotest.test_case "structure" `Quick test_example_c_structure ]);
      ( "decimal",
        [
          Alcotest.test_case "power table" `Quick test_power_table;
          Alcotest.test_case "edges and deferred forms" `Quick test_decimal_edges;
          QCheck_alcotest.to_alcotest qcheck_decimal_exact_float;
          QCheck_alcotest.to_alcotest qcheck_decimal_renderings;
          QCheck_alcotest.to_alcotest qcheck_decimal_digits;
          QCheck_alcotest.to_alcotest qcheck_decimal_near_halfway;
          QCheck_alcotest.to_alcotest qcheck_decimal_ties;
        ] );
      ( "reference",
        [
          QCheck_alcotest.to_alcotest qcheck_reference_random_bytes;
          QCheck_alcotest.to_alcotest qcheck_reference_token_soup;
          QCheck_alcotest.to_alcotest qcheck_reference_mutations;
          QCheck_alcotest.to_alcotest qcheck_reference_renders;
          Alcotest.test_case "parses on two domains" `Quick test_parse_on_domains;
        ] );
    ]
