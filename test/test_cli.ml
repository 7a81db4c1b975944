(* The front end's stdout and exit codes, pinned.  Every local report of
   streaming_cli runs as a subprocess; its stdout is digested (MD5) and
   compared with the recorded transcript, so a refactor of the command
   modules cannot move a byte unnoticed.  The digests of the standalone
   timed-event-graph commands are those of the tool [teg] replaced. *)

open Streaming

let here = Filename.dirname Sys.executable_name
let cli = Filename.concat here "../bin/streaming_cli.exe"
let instance name = Filename.concat here ("../examples/instances/" ^ name)

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let run args =
  let out = Filename.temp_file "cli" ".out" in
  let code = Sys.command (Filename.quote_command cli args ~stdout:out ~stderr:Filename.null) in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, text)

let check_golden (label, args, code, md5) =
  let got_code, out = run args in
  Alcotest.(check int) (label ^ ": exit code") code got_code;
  Alcotest.(check string) (label ^ ": stdout md5") md5 (Digest.to_hex (Digest.string out))

(* the §4 regression instance: the whole TPN's critical cycle (rate 0.5)
   is slower than every column (0.75), and Overlap's deterministic value
   is the per-column one *)
let found_instance =
  "stages 2\nwork 1 1\nfiles 0.001\nprocessors 3\nspeeds 1 1 0.25\nbandwidth default 1000\n\
   team 0\nteam 1 2\n"

(* files the cases read, written once per run *)
let scratch =
  lazy
    (let dir = Filename.temp_file "test_cli" "" in
     Sys.remove dir;
     Sys.mkdir dir 0o755;
     at_exit (fun () ->
         Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
         Sys.rmdir dir);
     write_file (Filename.concat dir "found.txt") found_instance;
     write_file (Filename.concat dir "bad.teg") "transitions 2\nt 0 a 1\nplace 0 5 0\n";
     let mix = Filename.concat dir "mix3.tenancy" in
     (match run [ "tenants"; "generate"; "--tenants"; "3"; "--seed"; "11"; "-o"; mix ] with
     | 0, "" -> ()
     | code, _ -> Alcotest.failf "tenants generate exited %d" code);
     dir)

let scratch_file name = Filename.concat (Lazy.force scratch) name

let empty = "d41d8cd98f00b204e9800998ecf8427e"

let test_reports () =
  List.iter check_golden
    [
      ("analyze example_a overlap", [ "analyze"; "-e"; "-u"; "-s"; instance "example_a.txt" ], 0,
       "736d09e4c9fe8c1058cff1de295da4ff");
      ("analyze example_a strict",
       [ "analyze"; "-e"; "-u"; "-s"; "-m"; "strict"; instance "example_a.txt" ], 0,
       "aad0992e1b2a81383450558f5a2122c1");
      ("analyze balanced_pattern overlap",
       [ "analyze"; "-e"; "-u"; "-s"; instance "balanced_pattern.txt" ], 0,
       "d85344998eff0876f677be3704934964");
      ("analyze balanced_pattern strict",
       [ "analyze"; "-e"; "-u"; "-s"; "-m"; "strict"; instance "balanced_pattern.txt" ], 0,
       "4c8c7dcede1c019ced691df43d28cc84");
      ("bounds example_a", [ "bounds"; instance "example_a.txt" ], 0,
       "c98313e44611c201638e9380eee66980");
      ("bounds balanced_pattern", [ "bounds"; instance "balanced_pattern.txt" ], 0,
       "df92ca6d80bd6bf7703ba5a7f47bd446");
      ("dot example_a overlap", [ "dot"; instance "example_a.txt" ], 0,
       "641a33848e96a1be6e54e32fb0b9a6af");
      ("dot example_a strict", [ "dot"; "-m"; "strict"; instance "example_a.txt" ], 0,
       "eeee16585ed96578e3bd4573e18a3802");
      ("dot balanced_pattern overlap", [ "dot"; instance "balanced_pattern.txt" ], 0,
       "104fb142c5a5d0782f1bad676444a590");
      ("dot balanced_pattern strict", [ "dot"; "-m"; "strict"; instance "balanced_pattern.txt" ], 0,
       "5b5da48d0c4b551356dbb38b6b782fc7");
      ("template", [ "template" ], 0, "6f74c5ef18b70d6e0a48406719bb739f");
      ("list", [ "list" ], 0, "8b09d11b6d40f556fb4266e7c7b107bc");
      ("analyze -m strict, §4 instance", [ "analyze"; "-e"; "-m"; "strict"; scratch_file "found.txt" ],
       0, "a6841622a2efe2816fb5c8378699d814");
      ("bounds, §4 instance", [ "bounds"; scratch_file "found.txt" ], 0,
       "4295744a831be9b6d97538edaee4acfc");
    ]

let test_simulate () =
  List.iter
    (fun (inst, engine, model, md5) ->
      check_golden
        ( Printf.sprintf "simulate %s %s %s" inst engine model,
          [ "simulate"; "-n"; "2000"; "--engine"; engine; "-m"; model; instance (inst ^ ".txt") ],
          0,
          md5 ))
    [
      ("example_a", "des", "overlap", "b437a5411a2aa417f9c85ddb6f4600e8");
      ("example_a", "des", "strict", "b5a18b41f48e46dac42543805a695aae");
      ("example_a", "eg_sim", "overlap", "3b43245eed78ea8a418b2bf4d60b6a0d");
      ("example_a", "eg_sim", "strict", "69e3e49c9b6b4c4ed50fd17efc5a7f8e");
      ("balanced_pattern", "des", "overlap", "f21e44190a8b56e8078c5621a6285c46");
      ("balanced_pattern", "des", "strict", "530b9d7f99668fd775f003e26bb7ebe8");
      ("balanced_pattern", "eg_sim", "overlap", "7ff2a351ec16c93ee0d33462e43bc948");
      ("balanced_pattern", "eg_sim", "strict", "dd669d3f0000fc3c047df388b4999c32");
    ]

let test_tenants () =
  let mix = scratch_file "mix3.tenancy" in
  Alcotest.(check string) "generated mix md5" "925f0b45b34b3edf210f0ac9a96acfdc"
    (Digest.to_hex (Digest.file mix));
  let over = scratch_file "mix3over.tenancy" in
  (match
     run [ "tenants"; "generate"; "--tenants"; "3"; "--seed"; "11"; "--over-budget"; "-o"; over ]
   with
  | 0, "" -> ()
  | code, _ -> Alcotest.failf "tenants generate --over-budget exited %d" code);
  List.iter check_golden
    [
      ("generate to stdout", [ "tenants"; "generate"; "--tenants"; "3"; "--seed"; "7"; "-m"; "strict" ],
       0, "00260ade2b7b4ab7c39403023c2b95f9");
      ("solve overlap", [ "tenants"; "solve"; mix ], 0, "2b54a3110df2bf9245c6c5e63c33402c");
      ("solve strict", [ "tenants"; "solve"; "-m"; "strict"; mix ], 0,
       "c310e9dae11e182b16f7f136182fd621");
      ("solve strict erlang:2", [ "tenants"; "solve"; "-m"; "strict"; "-l"; "erlang:2"; mix ], 0,
       "1a5d09bf08f2466979a2fe2704a319e9");
      (* a solver failure: the table head, then the typed error on stderr *)
      ("solve strict over the cap", [ "tenants"; "solve"; "-m"; "strict"; "--cap"; "3"; mix ], 3,
       "1821306103b33d83303dbb20cdc53a8c");
      ("admit overlap", [ "tenants"; "admit"; mix ], 0, "c0c3fec6c710f310b2b1bbcf1cc4f554");
      ("admit strict", [ "tenants"; "admit"; "-m"; "strict"; mix ], 0,
       "856cdb43704a169732dbe9d1ac222e0c");
      ("admit over budget", [ "tenants"; "admit"; over; "--expect-reject" ], 0,
       "9e2ae3e7a65f5cd59873aedcdb9657c6");
      ("admit expecting a rejection", [ "tenants"; "admit"; mix; "--expect-reject" ], 4,
       "c0c3fec6c710f310b2b1bbcf1cc4f554");
    ]

let test_teg () =
  let ring = instance "ring.teg" in
  List.iter check_golden
    [
      ("teg analyze", [ "teg"; "analyze"; ring ], 0, "a01f840c4ea8177c6caef4d69cf5feb4");
      ("teg markov", [ "teg"; "markov"; ring ], 0, "4bd3e6a8be887e08755b8ef491cf0057");
      ("teg markov --cap 1", [ "teg"; "markov"; "--cap"; "1"; ring ], 3, empty);
      ("teg dot", [ "teg"; "dot"; ring ], 0, "972e832f4774d729b872ecba8e305ce8");
      ("teg simulate", [ "teg"; "simulate"; ring ], 0, "90cdd831a055566d74ac4d34c869a8d6");
      ("teg simulate -e", [ "teg"; "simulate"; "-e"; "-n"; "500"; "--seed"; "3"; ring ], 0,
       "bab6e8f7bc53f07ef6ee56424e05bcfc");
      ("teg analyze, malformed net", [ "teg"; "analyze"; scratch_file "bad.teg" ], 2, empty);
    ]

(* analyze reports §4's rate: under Overlap the per-column value that
   bounds and Throughput.solve give, and the Theorem 7 interval ends
   there *)
let test_analyze_section4_rate () =
  let path = scratch_file "found.txt" in
  let mapping =
    match Instance_io.parse_file path with Ok m -> m | Error msg -> Alcotest.fail msg
  in
  let det = fst (Throughput.solve Throughput.Deterministic Model.Overlap mapping) in
  let expo = fst (Throughput.solve Throughput.Exponential Model.Overlap mapping) in
  let code, out = run [ "analyze"; "-e"; path ] in
  Alcotest.(check int) "exit" 0 code;
  let lines = String.split_on_char '\n' out in
  let has line = Alcotest.(check bool) line true (List.mem line lines) in
  has (Printf.sprintf "deterministic period  : %.6g per data set" (1.0 /. det));
  has (Printf.sprintf "deterministic rate    : %.6g data sets per time unit" det);
  has (Printf.sprintf "N.B.U.E. bounds       : [%.6g, %.6g] (Theorem 7)" expo det);
  has "deterministic rate    : 0.75 data sets per time unit";
  (* the TPN-wide cycle still names the slowest resource ring *)
  has "max resource cycle    : 2 (P2(compute))";
  check_golden ("analyze, §4 instance", [ "analyze"; "-e"; path ], 0,
                "86d5763c50ad1dd175e579be95946ed7")

(* tenants solve solves the requested law locally, as the daemon does *)
let test_tenants_law () =
  let path = scratch_file "mix3.tenancy" in
  let decls =
    match Instance_io.parse_multi_file path with Ok d -> d | Error msg -> Alcotest.fail msg
  in
  let ps = match Tenancy.Platform_share.create ~tenants:decls with
    | Ok ps -> ps
    | Error msg -> Alcotest.fail msg
  in
  List.iter
    (fun model ->
      let code, out =
        run [ "tenants"; "solve"; "-m"; Model.to_string model; "-l"; "erlang:2"; path ]
      in
      Alcotest.(check int) "exit" 0 code;
      let rows =
        String.split_on_char '\n' out
        |> List.filter (fun l -> l <> "")
        |> List.map (fun l -> String.split_on_char ' ' l |> List.filter (fun w -> w <> ""))
      in
      match rows with
      | header :: tenants ->
          Alcotest.(check string) "column head" "erlang:2" (List.nth header 4);
          Alcotest.(check int) "one row per tenant" (Tenancy.Platform_share.n_tenants ps)
            (List.length tenants);
          List.iteri
            (fun i row ->
              let want =
                fst
                  (Throughput.solve (Throughput.Erlang 2) model
                     (Tenancy.Platform_share.scaled_mapping ps ~tenant:i))
              in
              Alcotest.(check string)
                (Printf.sprintf "%s tenant %d" (Model.to_string model) i)
                (Printf.sprintf "%.6g" want) (List.nth row 4))
            tenants
      | [] -> Alcotest.fail "no output")
    [ Model.Overlap; Model.Strict ]

let () =
  Alcotest.run "cli"
    [
      ( "golden transcript",
        [
          Alcotest.test_case "instance reports" `Quick test_reports;
          Alcotest.test_case "simulate, both engines" `Quick test_simulate;
          Alcotest.test_case "tenants generate/solve/admit" `Quick test_tenants;
          Alcotest.test_case "teg" `Quick test_teg;
        ] );
      ( "fixes",
        [
          Alcotest.test_case "analyze reports the section 4 rate" `Quick test_analyze_section4_rate;
          Alcotest.test_case "tenants solve honours --law" `Quick test_tenants_law;
        ] );
    ]
