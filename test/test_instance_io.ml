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

(* The query service keys its cache on [add_key], not on the rendering;
   the two must group mappings identically.  Pairs differ in at most one
   value, often by one ulp, or only in what the printer drops (the
   diagonal of a multi-processor platform). *)
let key_of mapping =
  let buf = Buffer.create 256 in
  Instance_io.add_key buf mapping;
  Buffer.contents buf

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
  let key t =
    let buf = Buffer.create 64 in
    Instance_io.add_multi_key buf (Result.get_ok (Instance_io.parse_multi t));
    Buffer.contents buf
  in
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
    ]
