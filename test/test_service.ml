(* The throughput query service: JSON codec, LRU cache, NDJSON protocol
   semantics (through Server.respond, no socket needed), socket behaviour
   (in-process daemon on a temp Unix socket) and the CLI serve/query pair
   end to end.  Socket tests skip gracefully on platforms without
   Unix-domain sockets. *)

open Service

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let config ?(cache = 8) ?(max_inflight = 4) ?(max_frame = 1 lsl 20) ?wall () =
  {
    Server.cache_capacity = cache;
    max_inflight;
    max_frame;
    default_wall = wall;
    log = null_ppf;
    flight = None;
  }

(* a (1,2)-replicated two-stage system: small enough that every law and
   model solves instantly *)
let instance =
  "stages 2\nwork 1 1\nfiles 1\nprocessors 3\nspeeds 1 1 1\nbandwidth default 1\n\
   bandwidth 1 0 2\nbandwidth 2 1 0.5\nteam 0\nteam 1 2\n"

(* the same system, textually scrambled: comments, spaces and tabs,
   redundant decimals and exponents, lines and overrides reordered, an
   override equal to the default and one on the diagonal (neither is
   printed).  Both must share one cache key.  The overrides sit on links
   the mapping never uses, so the solve stays as cheap as a homogeneous
   one. *)
let instance_messy =
  "# same system, different bytes\nstages    2\nwork 1.0\t  1\nfiles 1e0\n\
   bandwidth 2 1 0.50   # reordered\nprocessors 3\nspeeds 1 1.0 1.000\nbandwidth 2 2 7\n\
   bandwidth\tdefault 1e0\nbandwidth 1 2 1.0\nbandwidth 1 0 2e0\nteam 0\nteam 1 2\n"

(* the four-stage system of the instance_io tests: big enough that the
   strict exponential ladder does real work, so a vanishing wall budget
   reliably exhausts *)
let big_instance =
  "stages 4\nwork 52 48 72 32\nfiles 24 36 28\nprocessors 7\n\
   speeds 2 0.8 1.1 0.9 1.3 0.7 1.6\nbandwidth default 0.5\n\
   team 0\nteam 1 2\nteam 3 4 5\nteam 6\n"

let parse_reply line =
  match Json.parse line with
  | Ok j -> j
  | Error msg -> Alcotest.fail (Printf.sprintf "unparsable reply %S: %s" line msg)

let respond server line = fst (Server.respond server line)

let expect_error_kind server line kind =
  let reply = parse_reply (respond server line) in
  Alcotest.(check bool) "ok:false" false (Client.reply_ok reply);
  Alcotest.(check (option string)) ("kind " ^ kind) (Some kind) (Client.reply_error_kind reply)

let solve_line ?model ?law ?cap ?wall ?states ?simulate inst =
  Json.render (Client.solve_request ?model ?law ?cap ?wall ?states ?simulate ~instance:inst ())

(* ---- JSON codec ---- *)

let test_json_roundtrip () =
  let value =
    Json.Obj
      [
        ("null", Json.Null);
        ("b", Json.Bool true);
        ("n", Json.Int (-42));
        ("x", Json.Float 0.1);
        ("big", Json.Float 1.5e300);
        ("s", Json.String "a\"b\\c\nd\té");
        ("l", Json.List [ Json.Int 1; Json.Float 2.5; Json.String "" ]);
        ("o", Json.Obj [ ("k", Json.List []) ]);
      ]
  in
  let text = Json.render value in
  (match Json.parse text with
  | Error msg -> Alcotest.fail msg
  | Ok value' ->
      Alcotest.(check string) "render ∘ parse ∘ render" text (Json.render value'));
  (* deterministic rendering: same value, same bytes *)
  Alcotest.(check string) "rendering is stable" text (Json.render value)

let test_json_escapes () =
  (match Json.parse {|"café \n A"|} with
  | Ok (Json.String s) -> Alcotest.(check string) "unicode escapes" "café \n A" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error msg -> Alcotest.fail msg);
  match Json.parse "\"tab\tinside\"" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "raw control character accepted"

let test_json_rejects () =
  let bad = [ "{"; "[1,2"; "{} trailing"; "01"; {|{"a":}|}; {|"\ud800"|}; "nul" ] in
  List.iter
    (fun text ->
      match Json.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" text))
    bad

(* ---- framing ---- *)

(* Framing depends on the bytes, not on how reads split them: any
   chunking of a stream yields the events of splitting it at newlines,
   with every line longer than [max_frame] reported once as oversized.
   Each chunk sits in a larger buffer, so bytes past [n] must be
   ignored. *)
let qcheck_frames_chunking =
  let max_frame = 8 in
  let gen =
    QCheck.Gen.(
      pair
        (string_size ~gen:(oneofl [ 'a'; 'b'; '\n' ]) (int_bound 120))
        (list_size (int_range 1 20) (int_range 1 16)))
  in
  let expected stream =
    let rec go acc = function
      | [] -> assert false
      | [ last ] ->
          let over = String.length last > max_frame in
          (List.rev (if over then Frames.Oversized :: acc else acc), last <> "" && not over)
      | l :: rest ->
          go ((if String.length l > max_frame then Frames.Oversized else Frames.Line l) :: acc) rest
    in
    go [] (String.split_on_char '\n' stream)
  in
  let run stream sizes =
    let t = Frames.create ~max_frame in
    let events = ref [] in
    let rec go pos sizes =
      if pos < String.length stream then begin
        let size, rest = match sizes with [] -> (String.length stream, []) | k :: r -> (k, r @ [ k ]) in
        let n = min size (String.length stream - pos) in
        let chunk = Bytes.of_string (String.sub stream pos n ^ "\nx\n") in
        Frames.feed t chunk n (fun e -> events := e :: !events);
        go (pos + n) rest
      end
    in
    go 0 sizes;
    (List.rev !events, Frames.pending t)
  in
  QCheck.Test.make ~name:"Frames.feed: any chunking gives the whole stream's events" ~count:500
    (QCheck.make ~print:(fun (s, _) -> String.escaped s) gen)
    (fun (stream, sizes) ->
      let want = expected stream in
      run stream [] = want && run stream sizes = want)

(* ---- wire-parser fuzzing: a value or a typed error, never an exception ---- *)

(* edits that favour JSON's structural characters *)
let gen_mutated =
  Byte_edits.gen ~specials:[ '{'; '}'; '['; ']'; '"'; '\\'; ','; ':'; '-'; '0'; 'e'; '.'; 'u' ]

(* every constructor; strings of arbitrary bytes; floats that include the
   non-finite ones, which render as null *)
let gen_json =
  let open QCheck.Gen in
  let str = string_size ~gen:char (int_range 0 6) in
  let flt = oneof [ float; oneofl [ nan; infinity; -0.0; 1e300; 5e-324; 2.0 ] ] in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun n -> Json.Int n) (oneof [ int; small_signed_int ]);
        map (fun f -> Json.Float f) flt;
        map (fun s -> Json.String s) str;
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (1, map (fun xs -> Json.List xs) (list_size (int_range 0 4) (self (depth - 1))));
            ( 1,
              map (fun fs -> Json.Obj fs) (list_size (int_range 0 4) (pair str (self (depth - 1))))
            );
          ])
    3

let qcheck_json_parse_total =
  QCheck.Test.make ~name:"Json.parse never raises (random and mutated bytes)" ~count:1000
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(oneof [ string; gen_mutated (map Json.render gen_json) ]))
    (fun text -> match Json.parse text with Ok _ | Error _ -> true)

let qcheck_json_fixed_point =
  QCheck.Test.make ~name:"Json.render is a fixed point of parse . render" ~count:1000
    (QCheck.make ~print:(fun v -> String.escaped (Json.render v)) gen_json)
    (fun v ->
      let text = Json.render v in
      match Json.parse text with Ok v' -> Json.render v' = text | Error _ -> false)

(* request-shaped objects: every field the protocol reads, with values
   that are sometimes valid, sometimes out of range and sometimes of the
   wrong type; [batch] carries up to 70 such items *)
let gen_request =
  let open QCheck.Gen in
  let strings l = map (fun s -> Json.String s) (oneofl l) in
  let number =
    oneof
      [
        map (fun n -> Json.Int n) (oneof [ int_range (-2) 3; int ]);
        map (fun f -> Json.Float f) (oneofl [ 0.5; -1.0; 2.0; 1e300; 1e20; nan; infinity ]);
      ]
  in
  let field k values = map (fun v -> (k, v)) (frequency [ (4, values); (1, gen_json) ]) in
  let query_fields =
    [
      field "instance" (strings [ ""; "application 1"; "garbage\n" ]);
      field "model" (strings [ "overlap"; "strict"; "bogus" ]);
      field "law"
        (strings
           [ "deterministic"; "exponential"; "erlang:2"; "erlang:0"; "erlang:x"; "erlang:";
             "erlang:0x10"; "erlang:99999999999999999999"; "erlang:2:3" ]);
      field "cap" number;
      field "wall" number;
      field "sweeps" number;
      field "states" number;
      field "simulate" (map (fun b -> Json.Bool b) bool);
    ]
  in
  let fields l = list_size (int_range 0 7) (oneof l) in
  let query = map (fun fs -> Json.Obj fs) (fields query_fields) in
  let request_fields =
    [
      field "v" (oneof [ return (Json.Int 1); number ]);
      field "id" gen_json;
      field "fleet" (map (fun b -> Json.Bool b) bool);
      field "requests" (map (fun xs -> Json.List xs) (list_size (int_range 0 70) query));
    ]
    @ query_fields
  in
  let cmd =
    field "cmd"
      (strings
         [ "solve"; "batch"; "stats"; "metrics"; "ping"; "shutdown"; "solve_multi"; "admit"; "nope" ])
  in
  frequency
    [
      (8, map2 (fun c fs -> Json.Obj (c :: fs)) cmd (fields request_fields));
      (1, map (fun fs -> Json.Obj fs) (fields request_fields));
      (1, gen_json);
    ]

(* a decoded solve re-renders to a request that decodes to it again, as
   the router's batch split relies on *)
let requery q = Protocol.decode_query (Protocol.query_json q) = Ok q

let request_total v =
  match Protocol.parse_request v with
  | Ok (_, Protocol.Solve q) -> requery q
  | Ok (_, Protocol.Batch items) ->
      List.for_all (function Ok q -> requery q | Error _ -> true) items
  | Ok _ | Error _ -> true

(* request lines as generated and with random edits, through the JSON
   parser as the daemon reads them *)
let qcheck_parse_request_total =
  let line = QCheck.Gen.map Json.render gen_request in
  QCheck.Test.make ~name:"Protocol.parse_request never raises on a parsed value" ~count:2000
    (QCheck.make ~print:String.escaped QCheck.Gen.(oneof [ line; gen_mutated line ]))
    (fun text -> match Json.parse text with Ok v -> request_total v | Error _ -> true)

(* ---- LRU ---- *)

let test_lru_eviction_order () =
  let lru = Lru.create ~capacity:2 in
  Lru.add lru "a" 1;
  Lru.add lru "b" 2;
  Lru.add lru "c" 3;
  (* capacity 2: inserting c evicts the least recently used, a *)
  Alcotest.(check bool) "a evicted" false (Lru.mem lru "a");
  Alcotest.(check bool) "b kept" true (Lru.mem lru "b");
  Alcotest.(check bool) "c kept" true (Lru.mem lru "c");
  let s = Lru.stats lru in
  Alcotest.(check int) "one eviction" 1 s.Lru.evictions;
  Alcotest.(check int) "two entries" 2 s.Lru.entries

let test_lru_promotion () =
  let lru = Lru.create ~capacity:2 in
  Lru.add lru "a" 1;
  Lru.add lru "b" 2;
  (* touching a makes b the eviction victim *)
  Alcotest.(check (option int)) "hit a" (Some 1) (Lru.find lru "a");
  Lru.add lru "c" 3;
  Alcotest.(check bool) "a survives (promoted)" true (Lru.mem lru "a");
  Alcotest.(check bool) "b evicted" false (Lru.mem lru "b")

let test_lru_counters () =
  let lru = Lru.create ~capacity:4 in
  Alcotest.(check (option int)) "miss" None (Lru.find lru "x");
  Lru.add lru "x" 7;
  Alcotest.(check (option int)) "hit" (Some 7) (Lru.find lru "x");
  Alcotest.(check (option int)) "hit again" (Some 7) (Lru.find lru "x");
  let s = Lru.stats lru in
  Alcotest.(check int) "hits" 2 s.Lru.hits;
  Alcotest.(check int) "misses" 1 s.Lru.misses;
  (* mem neither counts nor promotes *)
  ignore (Lru.mem lru "x");
  Alcotest.(check int) "mem does not count" 2 (Lru.stats lru).Lru.hits;
  Lru.clear lru;
  let s = Lru.stats lru in
  Alcotest.(check int) "cleared" 0 s.Lru.entries;
  (* clear starts a fresh statistical life: stale counters would misreport
     every post-clear hit rate (and the daemon's stats reply) *)
  Alcotest.(check int) "hits reset by clear" 0 s.Lru.hits;
  Alcotest.(check int) "misses reset by clear" 0 s.Lru.misses;
  Alcotest.(check int) "evictions reset by clear" 0 s.Lru.evictions;
  (* the cache still works, and counts from zero *)
  Alcotest.(check (option int)) "post-clear miss" None (Lru.find lru "x");
  Lru.add lru "x" 9;
  Alcotest.(check (option int)) "post-clear hit" (Some 9) (Lru.find lru "x");
  let s = Lru.stats lru in
  Alcotest.(check int) "post-clear hits" 1 s.Lru.hits;
  Alcotest.(check int) "post-clear misses" 1 s.Lru.misses

(* ---- protocol semantics, no socket ---- *)

let test_malformed_json () =
  let server = Server.create (config ()) in
  expect_error_kind server "{not json" "parse_error";
  expect_error_kind server "" "parse_error";
  (* the daemon stays healthy *)
  let reply = parse_reply (respond server {|{"v":1,"cmd":"ping"}|}) in
  Alcotest.(check bool) "ping after garbage" true (Client.reply_ok reply)

let test_unknown_command () =
  let server = Server.create (config ()) in
  expect_error_kind server {|{"v":1,"cmd":"frobnicate"}|} "unknown_command";
  (* no cmd at all is a malformed request, not an unknown command *)
  expect_error_kind server {|{"v":1}|} "bad_request"

let test_version_mismatch () =
  let server = Server.create (config ()) in
  expect_error_kind server {|{"v":2,"cmd":"ping"}|} "version_mismatch";
  (* v defaults to 1 when absent *)
  let reply = parse_reply (respond server {|{"cmd":"ping"}|}) in
  Alcotest.(check bool) "no v means v=1" true (Client.reply_ok reply)

let test_id_echoed () =
  let server = Server.create (config ()) in
  let reply = parse_reply (respond server {|{"v":1,"cmd":"ping","id":42}|}) in
  Alcotest.(check bool) "id echoed" true (Json.member "id" reply = Some (Json.Int 42));
  (* also on errors *)
  let reply = parse_reply (respond server {|{"v":1,"cmd":"nope","id":"q7"}|}) in
  Alcotest.(check bool) "id echoed on error" true
    (Json.member "id" reply = Some (Json.String "q7"))

let test_bad_request () =
  let server = Server.create (config ()) in
  (* no instance at all *)
  expect_error_kind server {|{"v":1,"cmd":"solve"}|} "bad_request";
  (* instance text the hardened parser rejects *)
  expect_error_kind server (solve_line "stages nonsense\n") "bad_request";
  (* a negative processor count is a typed refusal, not a dead
     connection thread *)
  expect_error_kind server
    (solve_line "stages 1\nwork 1\nprocessors -1\nspeeds 1\nbandwidth default 1\nteam 0\n")
    "bad_request";
  (* so is a processor count above the parser's cap, even when the text
     lists every speed: the m x m bandwidth matrix is never allocated *)
  let m = Streaming.Instance_io.max_processors + 1 in
  expect_error_kind server
    (solve_line
       (Printf.sprintf "stages 1\nwork 1\nprocessors %d\nspeeds%s\nbandwidth default 1\nteam 0\n" m
          (String.concat "" (List.init m (fun _ -> " 1")))))
    "bad_request";
  (* well-formed instance, bogus law *)
  expect_error_kind server
    (Json.render
       (Json.Obj
          [
            ("v", Json.Int 1);
            ("cmd", Json.String "solve");
            ("instance", Json.String instance);
            ("law", Json.String "zipf");
          ]))
    "bad_request"

let test_solve_ok () =
  let server = Server.create (config ()) in
  let reply = parse_reply (respond server (solve_line ~law:Engine.Deterministic instance)) in
  Alcotest.(check bool) "ok" true (Client.reply_ok reply);
  match Client.reply_result reply with
  | None -> Alcotest.fail "no result"
  | Some result ->
      (match Json.member "throughput" result with
      | Some (Json.Float rho) -> Alcotest.(check bool) "throughput > 0" true (rho > 0.0)
      | _ -> Alcotest.fail "no throughput");
      Alcotest.(check (option string)) "quality" (Some "exact")
        (Option.bind (Json.member "quality" result) Json.to_string_opt)

(* a (2,7)-replicated communication: its Strict exponential solve explores
   thousands of markings, long enough for concurrent requests to overlap
   it *)
let slow_strict_instance =
  "stages 2\nwork 1 1\nfiles 1\nprocessors 9\nspeeds 1 1 1 1 1 1 1 1 1\nbandwidth default 1\n\
   team 0 1\nteam 2 3 4 5 6 7 8\n"

(* four connection threads miss on one slow solve at the same moment:
   one leads, the other three wait for its result and read it from the
   cache *)
let test_single_flight () =
  let server = Server.create (config ()) in
  let line = solve_line ~model:Streaming.Model.Strict slow_strict_instance in
  let arrived = Atomic.make 0 in
  let replies = Array.make 4 "" in
  let threads =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
            Atomic.incr arrived;
            while Atomic.get arrived < 4 do
              Thread.yield ()
            done;
            replies.(i) <- respond server line)
          ())
  in
  List.iter Thread.join threads;
  let result r =
    match Client.reply_result (parse_reply r) with
    | Some j -> Json.render j
    | None -> Alcotest.fail ("no result in " ^ r)
  in
  Array.iter (fun r -> Alcotest.(check string) "same result" (result replies.(0)) (result r)) replies;
  let s = Lru.stats (Server.cache server) in
  Alcotest.(check int) "misses" 1 s.Lru.misses;
  Alcotest.(check int) "hits" 3 s.Lru.hits

let test_cache_hit_byte_identical () =
  let server = Server.create (config ()) in
  let line = solve_line instance in
  let first = respond server line in
  let second = respond server line in
  let result_of r =
    match Client.reply_result (parse_reply r) with
    | Some j -> Json.render j
    | None -> Alcotest.fail "no result"
  in
  Alcotest.(check string) "byte-identical result" (result_of first) (result_of second);
  Alcotest.(check bool) "first not cached" true
    (Json.member "cached" (parse_reply first) = Some (Json.Bool false));
  Alcotest.(check bool) "second cached" true
    (Json.member "cached" (parse_reply second) = Some (Json.Bool true));
  let s = Lru.stats (Server.cache server) in
  Alcotest.(check int) "one miss" 1 s.Lru.misses;
  Alcotest.(check int) "one hit" 1 s.Lru.hits;
  Alcotest.(check int) "one entry" 1 s.Lru.entries;
  (* the stats command reports the same counters *)
  let reply = parse_reply (respond server {|{"v":1,"cmd":"stats"}|}) in
  match Client.reply_result reply with
  | None -> Alcotest.fail "no stats result"
  | Some stats ->
      Alcotest.(check (option int)) "stats cache hits" (Some 1)
        (Option.bind (Json.member "cache" stats) (fun c ->
             Option.bind (Json.member "hits" c) Json.to_int_opt))

(* two tenants sharing processor 1: contention is real, floors are low
   enough that both are admitted *)
let multi_instance ?(floor_b = 0.01) () =
  Printf.sprintf
    "tenancy 1\nprocessors 3\nspeeds 1 1 1\nbandwidth default 1\n\
     tenant a weight 1 floor 0.01\nstages 2\nwork 1 1\nfiles 1\nteam 0\nteam 1\n\
     tenant b weight 3 floor %g\nstages 2\nwork 1 1\nfiles 1\nteam 1\nteam 2\n"
    floor_b

let multi_line ?floor_b ?(cmd = "solve_multi") () =
  Json.render
    (Json.Obj
       [
         ("v", Json.Int Protocol.version);
         ("cmd", Json.String cmd);
         ("instance", Json.String (multi_instance ?floor_b ()));
         ("model", Json.String "overlap");
         ("law", Json.String "exponential");
       ])

let test_cache_canonical_sharing () =
  let server = Server.create (config ()) in
  ignore (respond server (solve_line instance));
  let reply = parse_reply (respond server (solve_line instance_messy)) in
  Alcotest.(check bool) "messy text is a cache hit" true
    (Json.member "cached" reply = Some (Json.Bool true));
  Alcotest.(check int) "one shared entry" 1 (Lru.stats (Server.cache server)).Lru.entries

(* every solve-relevant parameter is in the key; budgets bound effort,
   not the value, so they are not *)
let test_key_parameters () =
  let key q =
    match Engine.prepare q with Ok p -> p.Engine.key | Error msg -> Alcotest.fail msg
  in
  let base =
    {
      Engine.instance;
      model = Streaming.Model.Overlap;
      law = Engine.Exponential;
      cap = Engine.default_cap;
      wall = None;
      sweeps = None;
      states = None;
      simulate = false;
    }
  in
  let k0 = key base in
  List.iter
    (fun (label, q) -> Alcotest.(check bool) (label ^ " changes the key") false (key q = k0))
    [
      ("model", { base with model = Streaming.Model.Strict });
      ("law", { base with law = Engine.Deterministic });
      ("erlang law", { base with law = Engine.Erlang 1 });
      ("cap", { base with cap = 1000 });
      ("simulate", { base with simulate = true });
    ];
  List.iter
    (fun (label, q) -> Alcotest.(check bool) (label ^ " keeps the key") true (key q = k0))
    [
      ("wall", { base with wall = Some 0.5 });
      ("sweeps", { base with sweeps = Some 10 });
      ("states", { base with states = Some 10 });
      ("messy text", { base with instance = instance_messy });
    ];
  let multi_key q =
    match Engine.prepare_multi q with Ok p -> p.Engine.m_key | Error msg -> Alcotest.fail msg
  in
  let mbase =
    {
      Engine.m_instance = multi_instance ();
      m_model = Streaming.Model.Overlap;
      m_law = Engine.Exponential;
      m_cap = Engine.default_cap;
      m_wall = None;
    }
  in
  let m0 = multi_key mbase in
  List.iter
    (fun (label, q) ->
      Alcotest.(check bool) ("multi " ^ label ^ " changes the key") false (multi_key q = m0))
    [
      ("model", { mbase with m_model = Streaming.Model.Strict });
      ("law", { mbase with m_law = Engine.Deterministic });
      ("cap", { mbase with m_cap = 1000 });
      ("floor", { mbase with m_instance = multi_instance ~floor_b:0.02 () });
    ];
  Alcotest.(check bool) "multi wall keeps the key" true
    (multi_key { mbase with m_wall = Some 0.5 } = m0);
  Alcotest.(check bool) "single and multi keys never meet" false
    (String.equal k0 m0)

(* ---- trace-context propagation: the optional obs envelope ---- *)

let test_obs_envelope_outside_cache_key () =
  let server = Server.create (config ()) in
  let plain = solve_line instance in
  let first = respond server plain in
  (* the same solve wearing a trace envelope: same cache entry, and the
     replayed result bytes are identical to the uninstrumented hit *)
  let enveloped =
    Protocol.with_obs plain ~trace:"0123456789abcdef" ~span:"fedcba9876543210"
  in
  Alcotest.(check bool) "envelope spliced" true (enveloped <> plain);
  let second = respond server enveloped in
  let result_of r =
    match Client.reply_result (parse_reply r) with
    | Some j -> Json.render j
    | None -> Alcotest.fail "no result"
  in
  Alcotest.(check bool) "enveloped solve is a cache hit" true
    (Json.member "cached" (parse_reply second) = Some (Json.Bool true));
  Alcotest.(check string) "byte-identical result across envelopes" (result_of first)
    (result_of second);
  Alcotest.(check int) "one shared entry" 1 (Lru.stats (Server.cache server)).Lru.entries;
  (* and the reverse order: an enveloped miss fills the entry a plain
     legacy client then hits *)
  let server2 = Server.create (config ()) in
  ignore (respond server2 enveloped);
  let reply = parse_reply (respond server2 plain) in
  Alcotest.(check bool) "plain solve hits the enveloped entry" true
    (Json.member "cached" reply = Some (Json.Bool true))

let test_obs_envelope_threads_trace_into_span () =
  let server = Server.create (config ()) in
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.clear ())
  @@ fun () ->
  let trace = Obs.Trace.fresh_id () and span = Obs.Trace.fresh_id () in
  let line = Json.render (Client.solve_request ~obs:(trace, span) ~instance ()) in
  let reply = parse_reply (respond server line) in
  Alcotest.(check bool) "traced solve ok" true (Client.reply_ok reply);
  let solve_ends events =
    List.filter
      (fun e -> e.Obs.Trace.ev_name = "service:solve" && e.Obs.Trace.ev_ph = 'E')
      events
  in
  let ends = solve_ends (Obs.Trace.events ()) in
  Alcotest.(check bool) "solve span recorded" true (ends <> []);
  Alcotest.(check bool) "trace id threaded onto the span" true
    (List.exists (fun e -> List.assoc_opt "trace_id" e.Obs.Trace.ev_args = Some trace) ends);
  Alcotest.(check bool) "parent span threaded onto the span" true
    (List.exists (fun e -> List.assoc_opt "parent_span" e.Obs.Trace.ev_args = Some span) ends);
  (* a legacy client with no envelope against the same traced daemon:
     the span still closes, but carries no trace id *)
  let legacy = parse_reply (respond server (solve_line instance)) in
  Alcotest.(check bool) "legacy solve ok" true (Client.reply_ok legacy);
  let ends = solve_ends (Obs.Trace.events ()) in
  Alcotest.(check int) "both solves spanned" 2 (List.length ends);
  Alcotest.(check int) "exactly one span carries the trace id" 1
    (List.length
       (List.filter
          (fun e -> List.assoc_opt "trace_id" e.Obs.Trace.ev_args <> None)
          ends))

let test_metrics_fleet_flag_single_daemon () =
  let server = Server.create (config ()) in
  let reply = parse_reply (respond server {|{"v":1,"cmd":"metrics","fleet":true}|}) in
  Alcotest.(check bool) "ok" true (Client.reply_ok reply);
  let text =
    match
      Client.reply_result reply
      |> Fun.flip Option.bind (Json.member "text")
      |> Fun.flip Option.bind Json.to_string_opt
    with
    | Some t -> t
    | None -> Alcotest.fail "no exposition text"
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (* fleet is a no-op on a single daemon, which still answers with its
     own registry plus the process-wide identity gauges *)
  Alcotest.(check bool) "uptime gauge exported" true
    (contains text "process_uptime_seconds");
  Alcotest.(check bool) "build info exported" true
    (contains text "streaming_build_info{")

(* every request line the CLI and the router send comes from Client's
   builders: the bytes are the ones the hand-built objects had, and the
   daemon decodes them to the intended request *)
let test_client_request_builders () =
  let check_line label want req = Alcotest.(check string) label want (Json.render req) in
  check_line "ping" {|{"v":1,"cmd":"ping"}|} (Client.request "ping" []);
  check_line "metrics" {|{"v":1,"cmd":"metrics"}|} (Client.metrics_request ());
  check_line "metrics fleet" {|{"v":1,"cmd":"metrics","fleet":true}|}
    (Client.metrics_request ~fleet:true ());
  List.iter
    (fun (fleet, req) ->
      match Protocol.parse_request req with
      | Ok (None, Protocol.Metrics { fleet = f }) -> Alcotest.(check bool) "fleet decoded" fleet f
      | _ -> Alcotest.fail "metrics request did not decode")
    [ (false, Client.metrics_request ()); (true, Client.metrics_request ~fleet:true ()) ];
  (* the multi-tenant lines: v, cmd, instance, model, law, then cap and
     wall when given *)
  let multi cmd extra =
    Json.Obj
      ([
         ("v", Json.Int Protocol.version);
         ("cmd", Json.String cmd);
         ("instance", Json.String "tenancy 1\n");
         ("model", Json.String "strict");
         ("law", Json.String "erlang:2");
       ]
      @ extra)
  in
  check_line "solve_multi"
    (Json.render (multi "solve_multi" [ ("cap", Json.Int 7); ("wall", Json.Float 1.5) ]))
    (Client.solve_request ~cmd:"solve_multi" ~model:Streaming.Model.Strict ~law:(Engine.Erlang 2)
       ~cap:7 ~wall:1.5 ~instance:"tenancy 1\n" ());
  check_line "admit" (Json.render (multi "admit" []))
    (Client.solve_request ~cmd:"admit" ~model:Streaming.Model.Strict ~law:(Engine.Erlang 2)
       ~instance:"tenancy 1\n" ());
  let text line = Option.bind (Result.to_option (Json.parse line)) Client.metrics_text in
  Alcotest.(check (option string)) "text of a metrics reply" (Some "a 1\n")
    (text {|{"ok":true,"result":{"text":"a 1\n"}}|});
  Alcotest.(check (option string)) "no text field" None (text {|{"ok":true,"result":{}}|});
  Alcotest.(check (option string)) "error reply" None
    (text {|{"ok":false,"error":{"kind":"busy"}}|})

(* the daemon's uptime runs on the monotonic clock: never negative, never
   more than the monotonic time since just before the metrics existed *)
let test_uptime_monotonic () =
  let before = Obs.Clock.now_ns () in
  let m = Metrics.create () in
  let j = Metrics.to_json m in
  let bound = Obs.Clock.ns_to_s (Obs.Clock.now_ns () - before) in
  match Json.member "uptime_s" j with
  | Some (Json.Float u) ->
      Alcotest.(check bool) "uptime_s >= 0" true (u >= 0.0);
      Alcotest.(check bool) "uptime_s <= monotonic elapsed" true (u <= bound)
  | _ -> Alcotest.fail "no uptime_s"

(* Golden solve replies: twelve mappings per set, drawn at cold-solves'
   shapes from fixed seeds, solved through [Engine.solve] and rendered as
   the cache would store them.  Floats render in shortest round-trip form,
   so a last-bit move in any solver changes a digest.  The digests were
   recorded with the dense GTH loop that [Ref_gth] keeps; 8 of the 12
   Strict replies come from the GTH rung. *)
let golden_replies ~seed ~model ~law ~stages ~procs =
  let g = Prng.create ~seed in
  let params =
    {
      Workload.Gen.n_stages = stages;
      n_procs = procs;
      comp_range = (4.0, 12.0);
      comm_range = (4.0, 12.0);
      max_rows = 60;
    }
  in
  List.init 12 (fun _ ->
      let mapping = Workload.Gen.random_mapping g params in
      let q =
        {
          Engine.instance = Streaming.Instance_io.to_string mapping;
          model;
          law;
          cap = Engine.default_cap;
          wall = None;
          sweeps = None;
          states = None;
          simulate = false;
        }
      in
      match Engine.prepare q with
      | Error msg -> Alcotest.fail msg
      | Ok p -> (
          match Engine.solve p q with
          | Ok o -> Json.render (Engine.outcome_json o)
          | Error e -> Alcotest.fail (Supervise.Error.to_string e)))

let test_golden_replies () =
  let digest replies = Digest.to_hex (Digest.string (String.concat "\n" replies)) in
  let strict =
    golden_replies ~seed:2 ~model:Streaming.Model.Strict ~law:Engine.Exponential ~stages:3
      ~procs:7
  in
  let exact =
    List.filter
      (fun r ->
        match Json.parse r with
        | Ok j -> Json.member "quality" j = Some (Json.String "exact")
        | Error _ -> false)
      strict
  in
  Alcotest.(check int) "strict replies from the GTH rung" 8 (List.length exact);
  Alcotest.(check string) "strict/exponential (3,7)" "b1964fceef1569ffce70cd77274947f7"
    (digest strict);
  Alcotest.(check string) "overlap/erlang:2 (5,14)" "c4f9d40fb8d7a0d1e1915bbec4557b58"
    (digest
       (golden_replies ~seed:8 ~model:Streaming.Model.Overlap ~law:(Engine.Erlang 2) ~stages:5
          ~procs:14));
  Alcotest.(check string) "overlap/exponential (5,14)" "71fc18d0da6f27e897db12daab7aa753"
    (digest
       (golden_replies ~seed:11 ~model:Streaming.Model.Overlap ~law:Engine.Exponential ~stages:5
          ~procs:14))

let test_budget_exhausted_structured () =
  let server = Server.create (config ()) in
  let line = solve_line ~model:Streaming.Model.Strict ~wall:1e-9 big_instance in
  let reply = parse_reply (respond server line) in
  Alcotest.(check bool) "ok:false" false (Client.reply_ok reply);
  Alcotest.(check (option string)) "budget_exhausted" (Some "budget_exhausted")
    (Client.reply_error_kind reply);
  (match Json.member "error" reply with
  | Some err ->
      Alcotest.(check bool) "elapsed_s present" true (Json.member "elapsed_s" err <> None);
      Alcotest.(check (option bool)) "not retriable" (Some false)
        (Option.bind (Json.member "retriable" err) Json.to_bool_opt)
  | None -> Alcotest.fail "no error object");
  (* the failure is the request's, not the daemon's *)
  let reply = parse_reply (respond server {|{"v":1,"cmd":"ping"}|}) in
  Alcotest.(check bool) "daemon alive" true (Client.reply_ok reply);
  let reply = parse_reply (respond server (solve_line instance)) in
  Alcotest.(check bool) "daemon still solves" true (Client.reply_ok reply)

(* Overlap requests now honour their budget and cap: the pattern
   explorations are bounded as the Strict ones always were.  The (2,3)
   pattern of this instance is heterogeneous (two link overrides on
   links it uses), so it is explored: S(2,3) = 12 states. *)
let hetero_instance =
  "stages 2\nwork 1 1\nfiles 1\nprocessors 5\nspeeds 1 1 1 1 1\nbandwidth default 1\n\
   bandwidth 0 2 2\nbandwidth 1 3 0.5\nteam 0 1\nteam 2 3 4\n"

let test_overlap_budget_binds () =
  let server = Server.create (config ()) in
  let line ?law ?cap ?states () =
    solve_line ~model:Streaming.Model.Overlap ?law ?cap ?states hetero_instance
  in
  let exceeded ~what l =
    let reply = parse_reply (respond server l) in
    Alcotest.(check (option string)) (what ^ ": kind") (Some "state_space_exceeded")
      (Client.reply_error_kind reply);
    Alcotest.(check (option int)) (what ^ ": cap") (Some 2)
      (Option.bind (Json.member "error" reply) (fun e ->
           Option.bind (Json.member "cap" e) Json.to_int_opt))
  in
  exceeded ~what:"states budget" (line ~states:2 ());
  exceeded ~what:"erlang:2 states budget" (line ~law:(Engine.Erlang 2) ~states:2 ());
  exceeded ~what:"cap" (line ~cap:2 ());
  (* without a budget the pattern is solved: the reply bytes are pinned *)
  Alcotest.(check string) "exponential reply"
    {|{"v":1,"ok":true,"cached":false,"result":{"throughput":1.3168927250308262,"quality":"exact","degraded":false,"provenance":"exact","pattern_states":12}}|}
    (respond server (line ()));
  Alcotest.(check string) "erlang:2 reply"
    {|{"v":1,"ok":true,"cached":false,"result":{"throughput":1.4081071130945031,"quality":"exact","degraded":false,"provenance":"exact","pattern_states":12}}|}
    (respond server (line ~law:(Engine.Erlang 2) ()))

(* [Protocol.solver_error_of_json] inverts [error_json] on every solver
   failure kind, through the rendered bytes *)
let test_solver_errors_roundtrip () =
  let errors =
    Supervise.Error.
      [
        No_convergence { sweeps = 7; residual = 1.5e-3 };
        No_convergence { sweeps = 0; residual = Float.nan };
        State_space_exceeded { cap = 50; explored = 50 };
        Non_ergodic { recurrent = 3; transient = 4 };
        Numerical { what = "singular \"pivot\"\n"; where = "Gth.solve" };
        Budget_exhausted { elapsed = 0.125 };
      ]
  in
  List.iter
    (fun e ->
      let text = Json.render (Protocol.error_json (Protocol.Solver e)) in
      match Json.parse text with
      | Error msg -> Alcotest.fail msg
      | Ok json ->
          Alcotest.(check bool) (Supervise.Error.to_string e ^ " via " ^ text) true
            (match Protocol.solver_error_of_json json with
            | Some e' -> compare e e' = 0
            | None -> false))
    errors;
  Alcotest.(check bool) "busy is not a solver error" true
    (Protocol.solver_error_of_json (Protocol.error_json (Protocol.Busy { inflight = 1; limit = 1 }))
    = None)

(* a Strict erlang:2 draw at cold-solves' (3,7) shape: its phase-expanded
   chain has thousands of markings, so the general method's ladder starts
   on Gauss–Seidel, and the request's budget binds as it does for the
   exponential law *)
let test_strict_erlang_budget () =
  let mapping =
    Workload.Gen.random_mapping (Prng.create ~seed:1)
      {
        Workload.Gen.n_stages = 3;
        n_procs = 7;
        comp_range = (4.0, 12.0);
        comm_range = (4.0, 12.0);
        max_rows = 60;
      }
  in
  let line ?wall ?states () =
    solve_line ~model:Streaming.Model.Strict ~law:(Engine.Erlang 2) ?wall ?states
      (Streaming.Instance_io.to_string mapping)
  in
  let server = Server.create (config ()) in
  expect_error_kind server (line ~states:50 ()) "state_space_exceeded";
  expect_error_kind server (line ~wall:1e-6 ()) "budget_exhausted";
  let reply = parse_reply (respond server (line ())) in
  Alcotest.(check bool) "ok" true (Client.reply_ok reply);
  let result = Option.get (Json.member "result" reply) in
  let field name = Option.bind (Json.member name result) Json.to_string_opt in
  Alcotest.(check (option string)) "quality" (Some "iterative") (field "quality");
  Alcotest.(check bool) "provenance names the Gauss–Seidel rung" true
    (List.exists
       (fun attempt -> String.starts_with ~prefix:" gauss-seidel(tol=1e-12): iterative" attempt)
       (String.split_on_char ';' (Option.get (field "provenance"))))

let test_busy_backpressure () =
  let server = Server.create (config ~max_inflight:0 ()) in
  let reply = parse_reply (respond server (solve_line instance)) in
  Alcotest.(check (option string)) "busy" (Some "busy") (Client.reply_error_kind reply);
  (match Json.member "error" reply with
  | Some err ->
      Alcotest.(check (option bool)) "busy is retriable" (Some true)
        (Option.bind (Json.member "retriable" err) Json.to_bool_opt)
  | None -> Alcotest.fail "no error object");
  (* ping and stats are not admission-controlled *)
  let reply = parse_reply (respond server {|{"v":1,"cmd":"ping"}|}) in
  Alcotest.(check bool) "ping unaffected" true (Client.reply_ok reply)

let test_batch_isolates_bad_items () =
  let server = Server.create (config ()) in
  let good = Client.solve_request ~instance () in
  let bad = Json.Obj [ ("model", Json.String "overlap") ] (* no instance *) in
  let line = Json.render (Client.batch_request [ good; bad; good ]) in
  let reply = parse_reply (respond server line) in
  Alcotest.(check bool) "batch ok" true (Client.reply_ok reply);
  match Client.reply_result reply with
  | None -> Alcotest.fail "no result"
  | Some result -> (
      Alcotest.(check (option int)) "count" (Some 3)
        (Option.bind (Json.member "count" result) Json.to_int_opt);
      match Json.member "results" result with
      | Some (Json.List [ a; b; c ]) ->
          let ok j = Json.member "ok" j = Some (Json.Bool true) in
          Alcotest.(check bool) "item 0 ok" true (ok a);
          Alcotest.(check bool) "item 1 failed alone" false (ok b);
          Alcotest.(check bool) "item 2 ok" true (ok c)
      | _ -> Alcotest.fail "expected 3 results")

let test_shutdown_command () =
  let server = Server.create (config ()) in
  let reply, verdict = Server.respond server {|{"v":1,"cmd":"shutdown"}|} in
  Alcotest.(check bool) "shutdown acknowledged" true (Client.reply_ok (parse_reply reply));
  Alcotest.(check bool) "loop told to stop" true (verdict = `Shutdown)

(* ---- multi-tenant requests ---- *)

let test_solve_multi_ok_and_cached () =
  let server = Server.create (config ()) in
  let line = multi_line () in
  let first = respond server line in
  let reply = parse_reply first in
  Alcotest.(check bool) "ok" true (Client.reply_ok reply);
  (match Client.reply_result reply with
  | None -> Alcotest.fail "no result"
  | Some result -> (
      match Json.member "tenants" result with
      | Some (Json.List [ a; b ]) ->
          let id j = Option.bind (Json.member "tenant" j) Json.to_string_opt in
          Alcotest.(check (option string)) "tenant a first" (Some "a") (id a);
          Alcotest.(check (option string)) "tenant b second" (Some "b") (id b);
          let rho j =
            Option.bind (Json.member "result" j) (fun r ->
                Option.bind (Json.member "throughput" r) Json.to_float_opt)
          in
          let bound j = Option.bind (Json.member "bound" j) Json.to_float_opt in
          List.iter
            (fun t ->
              match (rho t, bound t) with
              | Some rho, Some bound ->
                  Alcotest.(check bool) "throughput positive" true (rho > 0.0);
                  Alcotest.(check bool) "bound admissible" true (bound >= rho *. (1.0 -. 1e-9))
              | _ -> Alcotest.fail "tenant entry incomplete")
            [ a; b ]
      | _ -> Alcotest.fail "expected two tenant entries"));
  (* replay: same canonical mix, byte-identical cached result *)
  let second = respond server line in
  let result_of r =
    match Client.reply_result (parse_reply r) with
    | Some j -> Json.render j
    | None -> Alcotest.fail "no result"
  in
  Alcotest.(check string) "byte-identical replay" (result_of first) (result_of second);
  Alcotest.(check bool) "first not cached" true
    (Json.member "cached" (parse_reply first) = Some (Json.Bool false));
  Alcotest.(check bool) "second cached" true
    (Json.member "cached" (parse_reply second) = Some (Json.Bool true))

let test_solve_multi_admission_rejected () =
  let server = Server.create (config ()) in
  (* tenant b demands more than its contended bound can give *)
  let reply = parse_reply (respond server (multi_line ~floor_b:1000.0 ())) in
  Alcotest.(check bool) "ok:false" false (Client.reply_ok reply);
  Alcotest.(check (option string)) "admission_rejected" (Some "admission_rejected")
    (Client.reply_error_kind reply);
  (match Json.member "error" reply with
  | None -> Alcotest.fail "no error object"
  | Some err ->
      let str k = Option.bind (Json.member k err) Json.to_string_opt in
      Alcotest.(check (option string)) "victim b" (Some "b") (str "victim");
      Alcotest.(check (option string)) "tenant b" (Some "b") (str "tenant");
      (match Json.member "floor" err with
      | Some (Json.Float f) -> Alcotest.(check (float 1e-9)) "violated floor" 1000.0 f
      | _ -> Alcotest.fail "no floor");
      (match Json.member "bound" err with
      | Some (Json.Float b) -> Alcotest.(check bool) "bound below floor" true (b < 1000.0)
      | _ -> Alcotest.fail "no bound");
      Alcotest.(check (option bool)) "not retriable" (Some false)
        (Option.bind (Json.member "retriable" err) Json.to_bool_opt));
  (* rejection is the request's failure, not the daemon's *)
  let reply = parse_reply (respond server (multi_line ())) in
  Alcotest.(check bool) "admissible mix still solves" true (Client.reply_ok reply)

let test_solve_multi_bad_instance () =
  let server = Server.create (config ()) in
  (* a single-tenant instance is not a tenancy block *)
  expect_error_kind server
    (Json.render
       (Json.Obj
          [
            ("v", Json.Int 1);
            ("cmd", Json.String "solve_multi");
            ("instance", Json.String instance);
          ]))
    "bad_request";
  expect_error_kind server {|{"v":1,"cmd":"solve_multi"}|} "bad_request";
  expect_error_kind server
    (Json.render
       (Json.Obj
          [
            ("v", Json.Int 1);
            ("cmd", Json.String "solve_multi");
            ( "instance",
              Json.String
                "tenancy 1\nprocessors -1\nspeeds 1\nbandwidth default 1\n\
                 tenant a weight 1 floor 0\nstages 1\nwork 1\nteam 0\n" );
          ]))
    "bad_request"

let test_admit_audit () =
  let server = Server.create (config ()) in
  let reply = parse_reply (respond server (multi_line ~floor_b:1000.0 ~cmd:"admit" ())) in
  (* the audit itself succeeds: rejection is data, not an error *)
  Alcotest.(check bool) "audit ok" true (Client.reply_ok reply);
  match Client.reply_result reply with
  | None -> Alcotest.fail "no result"
  | Some result -> (
      (match Json.member "admitted" result with
      | Some (Json.List [ Json.String "a" ]) -> ()
      | other ->
          Alcotest.fail
            (Printf.sprintf "expected admitted [a], got %s"
               (match other with Some j -> Json.render j | None -> "nothing")));
      match Json.member "steps" result with
      | Some (Json.List [ step_a; step_b ]) -> (
          Alcotest.(check (option bool)) "a admitted" (Some true)
            (Option.bind (Json.member "admitted" step_a) Json.to_bool_opt);
          Alcotest.(check (option bool)) "b rejected" (Some false)
            (Option.bind (Json.member "admitted" step_b) Json.to_bool_opt);
          match Json.member "error" step_b with
          | None -> Alcotest.fail "rejected step carries no error"
          | Some err ->
              Alcotest.(check (option string)) "typed rejection" (Some "admission_rejected")
                (Option.bind (Json.member "kind" err) Json.to_string_opt))
      | _ -> Alcotest.fail "expected two steps")

let test_multi_metrics_labels () =
  let server = Server.create (config ()) in
  ignore (respond server (multi_line ()));
  ignore (respond server (multi_line ~floor_b:1000.0 ()));
  let text = Service.Metrics.prometheus (Server.metrics server) in
  let has needle =
    let nh = String.length text and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "tenant a counter" true
    (has {|service_tenant_solves_total{tenant="a"} 1|});
  Alcotest.(check bool) "tenant b counter" true
    (has {|service_tenant_solves_total{tenant="b"} 1|});
  Alcotest.(check bool) "tenant latency histogram" true
    (has {|service_tenant_solve_seconds_count{tenant="a"}|});
  Alcotest.(check bool) "admitted decision" true
    (has {|service_admission_total{decision="admitted"} 1|});
  Alcotest.(check bool) "rejected decision" true
    (has {|service_admission_total{decision="rejected"} 1|})

(* ---- socket behaviour ---- *)

let temp_socket () =
  let path = Filename.temp_file "test_service" ".sock" in
  Sys.remove path;
  path

(* run [f addr] against an in-process daemon; skip (not fail) where
   Unix-domain sockets are unavailable *)
let with_daemon ?(config = config ()) f =
  let path = temp_socket () in
  let addr = Protocol.Unix_domain path in
  let server = Server.create config in
  match
    let t = Thread.create (fun () -> Server.serve server addr) () in
    (server, t)
  with
  | exception Unix.Unix_error _ -> Printf.eprintf "skipping: no Unix-domain sockets\n%!"
  | server, thread ->
      let rec wait_ready tries =
        if tries = 0 then Alcotest.fail "daemon did not come up"
        else
          match Client.connect addr with
          | Ok c ->
              Client.close c
          | Error _ ->
              Thread.delay 0.02;
              wait_ready (tries - 1)
      in
      Fun.protect
        ~finally:(fun () ->
          Server.request_stop server;
          Thread.join thread;
          if Sys.file_exists path then Sys.remove path)
        (fun () ->
          wait_ready 250;
          f addr)

let connect_exn addr =
  match Client.connect addr with
  | Ok c -> c
  | Error e -> Alcotest.fail (Client.error_message e)

let rpc_exn client request =
  match Client.rpc client request with
  | Ok reply -> reply
  | Error e -> Alcotest.fail (Client.error_message e)

let test_socket_smoke () =
  with_daemon (fun addr ->
      let client = connect_exn addr in
      Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
      (match Client.ping client with
      | Ok reply -> Alcotest.(check bool) "pong" true (Client.reply_ok reply)
      | Error e -> Alcotest.fail (Client.error_message e));
      let request = Client.solve_request ~instance () in
      let reply = rpc_exn client request in
      Alcotest.(check bool) "solve over socket" true (Client.reply_ok reply);
      let reply = rpc_exn client request in
      Alcotest.(check bool) "second solve cached" true
        (Json.member "cached" reply = Some (Json.Bool true));
      match Client.stats client with
      | Error e -> Alcotest.fail (Client.error_message e)
      | Ok stats_reply -> (
          match Client.reply_result stats_reply with
          | None -> Alcotest.fail "no stats"
          | Some stats ->
              Alcotest.(check (option int)) "daemon counted the hit" (Some 1)
                (Option.bind (Json.member "cache" stats) (fun c ->
                     Option.bind (Json.member "hits" c) Json.to_int_opt))))

let test_socket_oversized_frame () =
  with_daemon ~config:(config ~max_frame:256 ()) (fun addr ->
      let client = connect_exn addr in
      Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
      let huge = Printf.sprintf {|{"v":1,"cmd":"ping","pad":"%s"}|} (String.make 600 'x') in
      (match Client.rpc_raw client huge with
      | Error e -> Alcotest.fail (Client.error_message e)
      | Ok reply ->
          Alcotest.(check (option string)) "oversized_frame" (Some "oversized_frame")
            (Client.reply_error_kind (parse_reply reply)));
      (* the connection survives: the daemon skipped to the newline *)
      match Client.ping client with
      | Ok reply -> Alcotest.(check bool) "ping after oversize" true (Client.reply_ok reply)
      | Error e -> Alcotest.fail (Client.error_message e))

let test_socket_truncated_line () =
  with_daemon (fun addr ->
      let path = match addr with Protocol.Unix_domain p -> p | _ -> assert false in
      let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      let partial = {|{"v":1,"cmd":"ping"|} in
      ignore (Unix.write_substring fd partial 0 (String.length partial));
      (* EOF before any newline: the daemon answers a parse_error for the
         dangling bytes instead of dropping them silently *)
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let ic = Unix.in_channel_of_descr fd in
      match input_line ic with
      | reply ->
          Alcotest.(check (option string)) "truncated line" (Some "parse_error")
            (Client.reply_error_kind (parse_reply reply))
      | exception End_of_file -> Alcotest.fail "no reply to a truncated line")

let test_socket_torn_envelope () =
  with_daemon (fun addr ->
      let path = match addr with Protocol.Unix_domain p -> p | _ -> assert false in
      let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      let full =
        Protocol.with_obs {|{"v":1,"cmd":"ping"}|} ~trace:"00ff00ff00ff00ff"
          ~span:"1122334455667788"
      in
      (* tear the frame in the middle of the spliced obs envelope: the
         daemon must answer a typed parse_error, not hang or crash *)
      let cut = String.length full - 12 in
      ignore (Unix.write_substring fd full 0 cut);
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let ic = Unix.in_channel_of_descr fd in
      match input_line ic with
      | reply ->
          Alcotest.(check (option string)) "torn envelope is a parse_error"
            (Some "parse_error")
            (Client.reply_error_kind (parse_reply reply))
      | exception End_of_file -> Alcotest.fail "no reply to a torn envelope")

(* a listener that accepts and then never replies: the per-request
   deadline, not the peer, must bound the wait *)
let test_client_deadline () =
  let path = temp_socket () in
  let listen_fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  let accepted = ref None in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (match !accepted with
      | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ());
      if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 4;
  let acceptor =
    Thread.create
      (fun () ->
        match Unix.accept listen_fd with
        | fd, _ -> accepted := Some fd
        | exception Unix.Unix_error _ -> ())
      ()
  in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. 0.3 in
  (match Client.connect ~deadline (Protocol.Unix_domain path) with
  | Error e -> Alcotest.fail (Client.error_message e)
  | Ok client -> (
      Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
      match Client.ping ~deadline client with
      | Ok _ -> Alcotest.fail "ping against a mute peer should time out"
      | Error (Client.Timeout _) ->
          let elapsed = Unix.gettimeofday () -. t0 in
          Alcotest.(check bool) "timed out near the deadline" true
            (elapsed >= 0.25 && elapsed < 2.0)
      | Error e -> Alcotest.fail ("expected a timeout, got " ^ Client.error_message e)));
  Thread.join acceptor

(* several clients at once, each interleaving valid requests (with unique
   ids) on a clean connection with oversized and torn frames on a dirty
   one: every valid request gets its exact reply back, every fault gets
   its typed error, and the daemon's request accounting balances *)
let test_socket_interleaved_chaos () =
  with_daemon ~config:(config ~cache:64 ~max_inflight:8 ~max_frame:512 ()) (fun addr ->
      let clients = 5 and rounds = 6 in
      let path = match addr with Protocol.Unix_domain p -> p | _ -> assert false in
      let failures = ref [] in
      let failures_mutex = Mutex.create () in
      let record_failure msg =
        Mutex.lock failures_mutex;
        failures := msg :: !failures;
        Mutex.unlock failures_mutex
      in
      let run i () =
        let clean = connect_exn addr in
        Fun.protect ~finally:(fun () -> Client.close clean) @@ fun () ->
        for r = 1 to rounds do
          let id = Printf.sprintf "t%d-r%d" i r in
          (* valid ping, unique id *)
          let ping_req =
            Json.Obj
              [
                ("v", Json.Int Protocol.version);
                ("cmd", Json.String "ping");
                ("id", Json.String id);
              ]
          in
          (match Client.rpc clean ping_req with
          | Error e -> record_failure (id ^ ": ping: " ^ Client.error_message e)
          | Ok reply ->
              if not (Client.reply_ok reply) then record_failure (id ^ ": ping not ok");
              if Json.member "id" reply <> Some (Json.String id) then
                record_failure (id ^ ": ping id not echoed"));
          (* valid solve, unique id *)
          let solve_req =
            match Client.solve_request ~instance () with
            | Json.Obj fields -> Json.Obj (("id", Json.String id) :: fields)
            | _ -> assert false
          in
          (match Client.rpc clean solve_req with
          | Error e -> record_failure (id ^ ": solve: " ^ Client.error_message e)
          | Ok reply ->
              if not (Client.reply_ok reply) then record_failure (id ^ ": solve not ok");
              if Json.member "id" reply <> Some (Json.String id) then
                record_failure (id ^ ": solve id not echoed"));
          (* dirty connection: one oversized frame, then a torn one *)
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          @@ fun () ->
          Unix.connect fd (Unix.ADDR_UNIX path);
          let huge =
            Printf.sprintf {|{"v":1,"cmd":"ping","pad":"%s"}|} (String.make 600 'x') ^ "\n"
          in
          ignore (Unix.write_substring fd huge 0 (String.length huge));
          let torn = {|{"v":1,"cmd":"pi|} in
          ignore (Unix.write_substring fd torn 0 (String.length torn));
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          let ic = Unix.in_channel_of_descr fd in
          (match input_line ic with
          | reply ->
              if Client.reply_error_kind (parse_reply reply) <> Some "oversized_frame" then
                record_failure (id ^ ": expected oversized_frame, got " ^ reply)
          | exception End_of_file -> record_failure (id ^ ": no oversized_frame reply"));
          match input_line ic with
          | reply ->
              if Client.reply_error_kind (parse_reply reply) <> Some "parse_error" then
                record_failure (id ^ ": expected parse_error, got " ^ reply)
          | exception End_of_file -> record_failure (id ^ ": no parse_error reply")
        done
      in
      let threads = List.init clients (fun i -> Thread.create (run i) ()) in
      List.iter Thread.join threads;
      Alcotest.(check (list string)) "no per-request failures" [] !failures;
      (* accounting balances: every valid request counted once, every
         fault typed once *)
      let client = connect_exn addr in
      Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
      match Client.stats client with
      | Error e -> Alcotest.fail (Client.error_message e)
      | Ok reply -> (
          match Client.reply_result reply with
          | None -> Alcotest.fail "no stats"
          | Some stats ->
              let metric path_ key =
                Option.bind (Json.member path_ stats) (fun m ->
                    Option.bind (Json.member key m) Json.to_int_opt)
                |> Option.value ~default:0
              in
              let deep path_ =
                List.fold_left
                  (fun acc key -> Option.bind acc (Json.member key))
                  (Some stats) path_
                |> Fun.flip Option.bind Json.to_int_opt
                |> Option.value ~default:0
              in
              let total = clients * rounds in
              Alcotest.(check int) "every valid solve counted" total
                (deep [ "metrics"; "requests"; "solve" ]);
              Alcotest.(check int) "every solve answered" total (deep [ "metrics"; "solved" ]);
              let errors kind = deep [ "metrics"; "errors"; kind ] in
              Alcotest.(check int) "every oversized frame typed" total (errors "oversized_frame");
              Alcotest.(check int) "every torn frame typed" total (errors "parse_error");
              (* all solves shared one canonical key: exactly one miss *)
              let hits = metric "cache" "hits" and misses = metric "cache" "misses" in
              Alcotest.(check int) "cache accounting balances" total (hits + misses);
              Alcotest.(check int) "one canonical miss" 1 misses))

(* ---- the shared listener, with stub connections on a real socket ---- *)

let await cond =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  cond ()

let wait_until what cond = if not (await cond) then Alcotest.fail (what ^ ": timed out")

type stub = {
  listener : Listener.t;
  path : string;
  closed : int Atomic.t;  (* connections' [close] calls *)
  events : Json.t list Atomic.t;  (* the listener's log lines; one writer *)
  returned : bool Atomic.t;  (* [serve] has returned *)
}

let echo line = if line = "shutdown" then ("bye", `Shutdown) else ("echo " ^ line, `Continue)

let logged s event =
  List.find_opt (fun j -> Json.member "event" j = Some (Json.String event)) (Atomic.get s.events)

let serve_returned s = wait_until "serve returned" (fun () -> Atomic.get s.returned)

(* [f s] runs once a listener serving [respond] on a fresh socket is up;
   afterwards the listener is stopped and [serve] must return *)
let with_stub ?(stop_first = false) respond f =
  let s =
    {
      listener = Listener.create ();
      path = temp_socket ();
      closed = Atomic.make 0;
      events = Atomic.make [];
      returned = Atomic.make false;
    }
  in
  if stop_first then Listener.request_stop s.listener;
  let sink line = Atomic.set s.events (parse_reply line :: Atomic.get s.events) in
  let make_conn () = { Listener.respond; close = (fun () -> Atomic.incr s.closed) } in
  let serve () =
    Fun.protect ~finally:(fun () -> Atomic.set s.returned true) @@ fun () ->
    Listener.serve s.listener ~log:(Obs.Log.create ~sink ~comp:"test" ())
      ~listening:("listening", []) ~max_frame:64 (Protocol.Unix_domain s.path) make_conn
  in
  let thread = Thread.create serve () in
  Fun.protect
    ~finally:(fun () ->
      Listener.request_stop s.listener;
      (* a drain that never ends fails the check that waited for it; it
         is not joined *)
      if await (fun () -> Atomic.get s.returned) then Thread.join thread;
      if Sys.file_exists s.path then Sys.remove s.path)
    (fun () ->
      wait_until "listening" (fun () -> logged s "listening" <> None);
      f s)

let raw_connect s =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  (* a reply that never comes fails the read instead of hanging the test *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  Unix.connect fd (Unix.ADDR_UNIX s.path);
  (fd, Unix.in_channel_of_descr fd)

let raw_send fd bytes = ignore (Unix.write_substring fd bytes 0 (String.length bytes))
let read_reply ic = match input_line ic with line -> Some line | exception End_of_file -> None

(* frame faults get typed replies, blank lines none, and the connection
   answers the lines between them *)
let test_listener_frames () =
  with_stub echo (fun s ->
      let fd, ic = raw_connect s in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      raw_send fd ("\n \t\n" ^ String.make 100 'x' ^ "\nhello\nno newline");
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let kind () = Option.bind (read_reply ic) (fun l -> Client.reply_error_kind (parse_reply l)) in
      Alcotest.(check (option string)) "oversized frame" (Some "oversized_frame") (kind ());
      Alcotest.(check (option string)) "the next line" (Some "echo hello") (read_reply ic);
      Alcotest.(check (option string)) "truncated tail" (Some "parse_error") (kind ());
      Alcotest.(check (option string)) "then EOF" None (read_reply ic))

let test_listener_shutdown_drains_in_flight () =
  let started = Atomic.make false and release = Atomic.make false in
  let respond line =
    if line <> "slow" then echo line
    else begin
      Atomic.set started true;
      while not (Atomic.get release) do
        Thread.delay 0.005
      done;
      ("done", `Continue)
    end
  in
  with_stub respond (fun s ->
      let fd_a, ic_a = raw_connect s in
      let fd_b, ic_b = raw_connect s in
      (* a failed check must not leave the slow request blocking the drain *)
      Fun.protect ~finally:(fun () ->
          Atomic.set release true;
          close_in_noerr ic_a;
          close_in_noerr ic_b)
      @@ fun () ->
      raw_send fd_a "slow\n";
      wait_until "the slow request started" (fun () -> Atomic.get started);
      raw_send fd_b "shutdown\n";
      Alcotest.(check (option string)) "shutdown answered" (Some "bye") (read_reply ic_b);
      Alcotest.(check (option string)) "its connection closes" None (read_reply ic_b);
      Thread.delay 0.1;
      Alcotest.(check bool) "serve waits for the in-flight request" false (Atomic.get s.returned);
      Atomic.set release true;
      Alcotest.(check (option string)) "in-flight request answered" (Some "done") (read_reply ic_a);
      Alcotest.(check (option string)) "then its connection closes" None (read_reply ic_a);
      serve_returned s)

let test_listener_stop_before_serve () =
  with_stub ~stop_first:true echo (fun s ->
      serve_returned s;
      Alcotest.(check int) "nothing accepted" 0 (Atomic.get s.closed);
      Alcotest.(check bool) "socket file removed" false (Sys.file_exists s.path))

(* the drain waits on a live count, which falls back to 0 between
   connections instead of growing with every connection ever accepted *)
let test_listener_sequential_connections () =
  with_stub echo (fun s ->
      for i = 1 to 200 do
        let fd, ic = raw_connect s in
        raw_send fd (Printf.sprintf "n%d\n" i);
        let reply = read_reply ic in
        close_in_noerr ic;
        if reply <> Some (Printf.sprintf "echo n%d" i) then Alcotest.failf "no echo %d" i
      done;
      wait_until "every connection released" (fun () -> Listener.live s.listener = 0);
      Listener.request_stop s.listener;
      serve_returned s;
      Alcotest.(check int) "every connection closed once" 200 (Atomic.get s.closed);
      Alcotest.(check (option string)) "draining counts live connections" (Some "0")
        (Option.bind (logged s "draining") (fun j ->
             Option.bind (Json.member "attrs" j) (Json.member "connections")
             |> Fun.flip Option.bind Json.to_string_opt)))

let test_listener_raising_respond () =
  let raised = Atomic.make [] in
  Thread.set_uncaught_exception_handler (fun e -> Atomic.set raised (e :: Atomic.get raised));
  Fun.protect ~finally:(fun () ->
      Thread.set_uncaught_exception_handler Thread.default_uncaught_exception_handler)
  @@ fun () ->
  let respond line = if line = "boom" then failwith "stub respond raised" else echo line in
  with_stub respond (fun s ->
      let fd, ic = raw_connect s in
      raw_send fd "boom\n";
      Alcotest.(check (option string)) "the client sees EOF" None (read_reply ic);
      close_in_noerr ic;
      wait_until "the connection released" (fun () -> Listener.live s.listener = 0);
      Alcotest.(check int) "close ran exactly once" 1 (Atomic.get s.closed);
      Listener.request_stop s.listener;
      serve_returned s;
      wait_until "the exception left the thread" (fun () -> Atomic.get raised <> []);
      Alcotest.(check bool) "the stub's exception" true
        (Atomic.get raised = [ Failure "stub respond raised" ]))

(* ---- CLI end to end: serve, query, SIGTERM drain, exit 0 ---- *)

let cli =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/streaming_cli.exe"

let sh cmd = Sys.command (cmd ^ " >/dev/null 2>&1")

let test_cli_serve_query_sigterm () =
  let path = temp_socket () in
  let instance_file = Filename.temp_file "instance" ".txt" in
  Out_channel.with_open_bin instance_file (fun oc -> Out_channel.output_string oc instance);
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; path; "--quiet" |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let addr = Protocol.Unix_domain path in
  let rec wait_ready tries =
    if tries = 0 then Alcotest.fail "daemon did not come up"
    else
      match Client.connect addr with
      | Ok c -> Client.close c
      | Error _ ->
          Thread.delay 0.02;
          wait_ready (tries - 1)
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [ Unix.WNOHANG ] pid) with Unix.Unix_error _ -> ());
      if Sys.file_exists path then Sys.remove path;
      Sys.remove instance_file)
    (fun () ->
      wait_ready 250;
      Alcotest.(check int) "query ping" 0 (sh (cli ^ " query -s " ^ path ^ " ping"));
      Alcotest.(check int) "query solve" 0
        (sh (cli ^ " query -s " ^ path ^ " solve " ^ instance_file));
      (* repeated solves on one connection exercise the cache *)
      Alcotest.(check int) "query solve -n 3" 0
        (sh (cli ^ " query -s " ^ path ^ " solve " ^ instance_file ^ " -n 3"));
      Unix.kill pid Sys.sigterm;
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "SIGTERM drains to exit 0" true (status = Unix.WEXITED 0))

let () =
  Alcotest.run "service"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "rejects" `Quick test_json_rejects;
          QCheck_alcotest.to_alcotest qcheck_json_parse_total;
          QCheck_alcotest.to_alcotest qcheck_json_fixed_point;
        ] );
      ("frames", [ QCheck_alcotest.to_alcotest qcheck_frames_chunking ]);
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "promotion" `Quick test_lru_promotion;
          Alcotest.test_case "counters" `Quick test_lru_counters;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "malformed json" `Quick test_malformed_json;
          Alcotest.test_case "unknown command" `Quick test_unknown_command;
          Alcotest.test_case "version mismatch" `Quick test_version_mismatch;
          Alcotest.test_case "id echoed" `Quick test_id_echoed;
          Alcotest.test_case "bad request" `Quick test_bad_request;
          Alcotest.test_case "solve ok" `Quick test_solve_ok;
          Alcotest.test_case "cache hit byte-identical" `Quick test_cache_hit_byte_identical;
          Alcotest.test_case "canonical sharing" `Quick test_cache_canonical_sharing;
          Alcotest.test_case "key parameters" `Quick test_key_parameters;
          Alcotest.test_case "obs envelope outside the cache key" `Quick
            test_obs_envelope_outside_cache_key;
          Alcotest.test_case "obs envelope threads into the span" `Quick
            test_obs_envelope_threads_trace_into_span;
          Alcotest.test_case "metrics fleet flag on a single daemon" `Quick
            test_metrics_fleet_flag_single_daemon;
          Alcotest.test_case "client request builders" `Quick test_client_request_builders;
          Alcotest.test_case "budget exhausted" `Quick test_budget_exhausted_structured;
          Alcotest.test_case "strict erlang budget" `Quick test_strict_erlang_budget;
          Alcotest.test_case "overlap budget binds" `Quick test_overlap_budget_binds;
          Alcotest.test_case "solver errors survive the wire" `Quick test_solver_errors_roundtrip;
          Alcotest.test_case "busy backpressure" `Quick test_busy_backpressure;
          Alcotest.test_case "batch isolates bad items" `Quick test_batch_isolates_bad_items;
          Alcotest.test_case "shutdown command" `Quick test_shutdown_command;
          QCheck_alcotest.to_alcotest qcheck_parse_request_total;
          Alcotest.test_case "uptime on the monotonic clock" `Quick test_uptime_monotonic;
          Alcotest.test_case "golden solve replies" `Quick test_golden_replies;
        ] );
      ( "multi",
        [
          Alcotest.test_case "solve_multi ok and cached replay" `Quick
            test_solve_multi_ok_and_cached;
          Alcotest.test_case "admission rejected typed" `Quick
            test_solve_multi_admission_rejected;
          Alcotest.test_case "bad multi instance" `Quick test_solve_multi_bad_instance;
          Alcotest.test_case "admit audit" `Quick test_admit_audit;
          Alcotest.test_case "per-tenant metric labels" `Quick test_multi_metrics_labels;
        ] );
      ( "socket",
        [
          Alcotest.test_case "smoke" `Quick test_socket_smoke;
          Alcotest.test_case "oversized frame" `Quick test_socket_oversized_frame;
          Alcotest.test_case "truncated line" `Quick test_socket_truncated_line;
          Alcotest.test_case "torn obs envelope" `Quick test_socket_torn_envelope;
          Alcotest.test_case "client deadline on a mute peer" `Quick test_client_deadline;
          Alcotest.test_case "interleaved chaos" `Quick test_socket_interleaved_chaos;
          Alcotest.test_case "single flight" `Quick test_single_flight;
        ] );
      ( "listener",
        [
          Alcotest.test_case "oversized, blank and truncated frames" `Quick test_listener_frames;
          Alcotest.test_case "shutdown drains the in-flight request" `Quick
            test_listener_shutdown_drains_in_flight;
          Alcotest.test_case "request_stop before serve" `Quick test_listener_stop_before_serve;
          Alcotest.test_case "200 connections, bounded bookkeeping" `Quick
            test_listener_sequential_connections;
          Alcotest.test_case "a raising respond" `Quick test_listener_raising_respond;
        ] );
      ("cli", [ Alcotest.test_case "serve/query/SIGTERM" `Quick test_cli_serve_query_sigterm ]);
    ]
