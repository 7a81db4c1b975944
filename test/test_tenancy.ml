open Streaming

(* ---- hand-built fixtures ---- *)

(* two processors, fully connected; each tenant runs a one-stage pipeline
   on its own processor except where the test wants contention *)
let platform2 = Platform.fully_connected ~speeds:[| 2.0; 1.0 |] ~bw:1.0

let one_stage ~platform ~proc ~work ~id ~weight ~floor =
  let app = Application.create ~work:[| work |] ~files:[||] in
  {
    Instance_io.tenant_id = id;
    weight;
    floor;
    tenant_mapping = Mapping.create ~app ~platform ~teams:[| [| proc |] |];
  }

let share_exn tenants =
  match Tenancy.Platform_share.create ~tenants with
  | Ok ps -> ps
  | Error msg -> Alcotest.fail msg

let mix ?(seed = 1) ?(tenants = 3) ?(floor_frac = 0.5) () =
  let g = Prng.create ~seed in
  Workload.Gen.random_tenant_mix g
    { Workload.Gen.default_mix with mix_tenants = tenants; mix_floor_frac = floor_frac }

(* ---- shares ---- *)

let test_equal_weights_halve_the_processor () =
  (* both tenants on processor 0: weights 1,1 give each half the speed *)
  let a = one_stage ~platform:platform2 ~proc:0 ~work:1.0 ~id:"a" ~weight:1.0 ~floor:0.0 in
  let b = one_stage ~platform:platform2 ~proc:0 ~work:3.0 ~id:"b" ~weight:1.0 ~floor:0.0 in
  let ps = share_exn [ a; b ] in
  Alcotest.(check (float 1e-12)) "tenant a share" 0.5
    (Tenancy.Platform_share.share ps ~tenant:0 (Resource.Compute 0));
  Alcotest.(check (float 1e-12)) "tenant b share" 0.5
    (Tenancy.Platform_share.share ps ~tenant:1 (Resource.Compute 0));
  (* one stage, no communication: throughput = scaled speed / work *)
  Alcotest.(check (float 1e-9)) "tenant a bound" (0.5 *. 2.0 /. 1.0)
    (Tenancy.Platform_share.bound ps ~tenant:0 Model.Overlap);
  Alcotest.(check (float 1e-9)) "tenant b bound" (0.5 *. 2.0 /. 3.0)
    (Tenancy.Platform_share.bound ps ~tenant:1 Model.Overlap)

let test_weighted_shares () =
  (* weights 1 and 3 on processor 0: shares 1/4 and 3/4; a lone tenant on
     processor 1 keeps its full speed *)
  let a = one_stage ~platform:platform2 ~proc:0 ~work:1.0 ~id:"a" ~weight:1.0 ~floor:0.0 in
  let b = one_stage ~platform:platform2 ~proc:0 ~work:1.0 ~id:"b" ~weight:3.0 ~floor:0.0 in
  let c = one_stage ~platform:platform2 ~proc:1 ~work:1.0 ~id:"c" ~weight:7.0 ~floor:0.0 in
  let ps = share_exn [ a; b; c ] in
  Alcotest.(check (float 1e-12)) "a quarter" 0.25
    (Tenancy.Platform_share.share ps ~tenant:0 (Resource.Compute 0));
  Alcotest.(check (float 1e-12)) "b three quarters" 0.75
    (Tenancy.Platform_share.share ps ~tenant:1 (Resource.Compute 0));
  Alcotest.(check (float 1e-12)) "c alone" 1.0
    (Tenancy.Platform_share.share ps ~tenant:2 (Resource.Compute 1));
  Alcotest.(check (float 1e-12)) "aggregate weight on 0" 4.0
    (Tenancy.Platform_share.aggregate_weight ps (Resource.Compute 0));
  Alcotest.(check (float 1e-9)) "c keeps the full processor" 1.0
    (Tenancy.Platform_share.bound ps ~tenant:2 Model.Overlap)

let test_create_validations () =
  let a = one_stage ~platform:platform2 ~proc:0 ~work:1.0 ~id:"a" ~weight:1.0 ~floor:0.0 in
  let dup = { a with Instance_io.tenant_id = "a" } in
  (match Tenancy.Platform_share.create ~tenants:[ a; dup ] with
  | Error msg -> Alcotest.(check bool) "duplicate id" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "duplicate tenant id accepted");
  (match Tenancy.Platform_share.create ~tenants:[] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty mix accepted");
  let other = Platform.fully_connected ~speeds:[| 2.0; 1.0; 1.0 |] ~bw:1.0 in
  let b = one_stage ~platform:other ~proc:1 ~work:1.0 ~id:"b" ~weight:1.0 ~floor:0.0 in
  match Tenancy.Platform_share.create ~tenants:[ a; b ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mismatched platforms accepted"

(* ---- generated mixes: scaling consistency and the admissible bound ---- *)

let qcheck_bound_admissible =
  QCheck.Test.make ~name:"deterministic bound dominates the exact exponential throughput"
    ~count:30 QCheck.small_int (fun seed ->
      let decls = mix ~seed:(seed + 11) () in
      let ps = share_exn decls in
      List.for_all
        (fun i ->
          let bound = Tenancy.Platform_share.bound ps ~tenant:i Model.Overlap in
          let exact, _ =
            Throughput.solve Throughput.Exponential Model.Overlap
              (Tenancy.Platform_share.scaled_mapping ps ~tenant:i)
          in
          exact <= bound *. (1.0 +. 1e-9))
        (List.init (Tenancy.Platform_share.n_tenants ps) Fun.id))

let qcheck_shares_partition =
  QCheck.Test.make ~name:"shares of a contended resource sum to one" ~count:30 QCheck.small_int
    (fun seed ->
      let decls = mix ~seed:(seed + 101) () in
      let ps = share_exn decls in
      let k = Tenancy.Platform_share.n_tenants ps in
      let resources =
        List.concat_map
          (fun i ->
            Mapping.resources (List.nth decls i).Instance_io.tenant_mapping
            |> List.map (fun r -> (i, r)))
          (List.init k Fun.id)
      in
      List.for_all
        (fun (_, r) ->
          let total =
            List.fold_left
              (fun acc (j, r') -> if Resource.equal r r' then acc +. Tenancy.Platform_share.share ps ~tenant:j r else acc)
              0.0 resources
          in
          Float.abs (total -. 1.0) < 1e-9)
        resources)

(* ---- the interleaved DES cross-check (acceptance: >= 3 mixes) ---- *)

let test_des_cross_check () =
  List.iter
    (fun seed ->
      let decls = mix ~seed () in
      let ps = share_exn decls in
      let estimates = Tenancy.Sim.cross_check ps Model.Overlap ~seed:(seed * 13) ~data_sets:4000 in
      List.iter
        (fun e ->
          if e.Tenancy.Sim.rel_err > 0.12 then
            Alcotest.failf "mix %d tenant %s: DES %.5f vs exact %.5f (rel err %.3f)" seed
              e.Tenancy.Sim.id e.Tenancy.Sim.des e.Tenancy.Sim.exact e.Tenancy.Sim.rel_err)
        estimates)
    [ 3; 5; 9 ]

(* ---- admission ---- *)

let test_admission_sequence_deterministic_and_typed () =
  let decls = Workload.Gen.with_over_budget (mix ~seed:21 ()) in
  let steps =
    match Tenancy.Admission.sequence decls with
    | Ok s -> s
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check int) "one step per declaration" (List.length decls) (List.length steps);
  let greedy = List.nth steps (List.length steps - 1) in
  Alcotest.(check bool) "greedy tenant rejected" false greedy.Tenancy.Admission.admitted;
  (match greedy.Tenancy.Admission.rejection with
  | None -> Alcotest.fail "rejected step carries no rejection"
  | Some r ->
      Alcotest.(check string) "newcomer named" "greedy" r.Tenancy.Admission.newcomer;
      Alcotest.(check bool) "violated floor above the bound" true
        (r.Tenancy.Admission.floor > r.Tenancy.Admission.bound));
  List.iter
    (fun s ->
      if s.Tenancy.Admission.decl.Instance_io.tenant_id <> "greedy" then
        Alcotest.(check bool)
          ("tenant " ^ s.Tenancy.Admission.decl.Instance_io.tenant_id ^ " admitted")
          true s.Tenancy.Admission.admitted)
    steps;
  (* replay is deterministic *)
  let steps' =
    match Tenancy.Admission.sequence decls with Ok s -> s | Error m -> Alcotest.fail m
  in
  Alcotest.(check (list bool)) "deterministic replay"
    (List.map (fun s -> s.Tenancy.Admission.admitted) steps)
    (List.map (fun s -> s.Tenancy.Admission.admitted) steps')

let test_admission_static_check () =
  let decls = mix ~seed:33 () in
  (match Tenancy.Admission.check decls with
  | Ok (Ok ()) -> ()
  | Ok (Error r) -> Alcotest.failf "feasible mix rejected (%s)" r.Tenancy.Admission.victim
  | Error msg -> Alcotest.fail msg);
  (* floors above the contended bound must be caught *)
  let greedy_first =
    match decls with
    | d :: rest -> { d with Instance_io.floor = d.Instance_io.floor *. 10.0 } :: rest
    | [] -> assert false
  in
  match Tenancy.Admission.check greedy_first with
  | Ok (Error r) ->
      Alcotest.(check string) "victim is the inflated tenant" "t0" r.Tenancy.Admission.victim
  | Ok (Ok ()) -> Alcotest.fail "over-floored mix admitted"
  | Error msg -> Alcotest.fail msg

(* ---- multi-tenant instance text ---- *)

let qcheck_multi_roundtrip =
  QCheck.Test.make ~name:"tenancy blocks roundtrip through the parser" ~count:40 QCheck.small_int
    (fun seed ->
      let decls = mix ~seed:(seed + 211) ~tenants:(1 + (seed mod 4)) () in
      let text = Instance_io.multi_to_string decls in
      match Instance_io.parse_multi text with
      | Error _ -> false
      | Ok decls' -> Instance_io.multi_to_string decls' = text)

(* The tenancy tier keys its cache on [multi_key]; it must group
   blocks exactly as [multi_to_string] does.  Pairs differ in one
   tenant's weight or floor by one ulp, in a floor's sign, in a tenant
   id, only in the reparse, or not at all.  The property keeps the name
   it had when the encoder was [add_multi_key]. *)
let qcheck_multi_key_groups_as_rendering =
  QCheck.Test.make ~name:"add_multi_key equal iff multi_to_string equal" ~count:60
    QCheck.small_int (fun seed ->
      let decls = mix ~seed:(seed + 401) ~tenants:(1 + (seed mod 4)) () in
      let k = seed mod List.length decls in
      let change f = List.mapi (fun i d -> if i = k then f d else d) decls in
      let other =
        match seed mod 6 with
        | 0 -> change (fun d -> { d with Instance_io.weight = Float.succ d.Instance_io.weight })
        | 1 -> change (fun d -> { d with Instance_io.floor = Float.succ d.Instance_io.floor })
        | 2 -> change (fun d -> { d with Instance_io.floor = Float.neg d.Instance_io.floor })
        | 3 -> change (fun d -> { d with Instance_io.tenant_id = d.Instance_io.tenant_id ^ "x" })
        | 4 -> Result.get_ok (Instance_io.parse_multi (Instance_io.multi_to_string decls))
        | _ -> decls
      in
      let key d = Instance_io.multi_key ~header:"" d in
      Bool.equal
        (String.equal (key decls) (key other))
        (String.equal (Instance_io.multi_to_string decls) (Instance_io.multi_to_string other)))

let test_parse_multi_errors () =
  let expect_error label text =
    match Instance_io.parse_multi text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" label
  in
  expect_error "missing version" "processors 2\nspeeds 1 1\nbandwidth default 1\n";
  expect_error "bad version" "tenancy 2\nprocessors 2\nspeeds 1 1\nbandwidth default 1\n";
  expect_error "no tenants" "tenancy 1\nprocessors 2\nspeeds 1 1\nbandwidth default 1\n";
  expect_error "zero weight"
    "tenancy 1\nprocessors 2\nspeeds 1 1\nbandwidth default 1\ntenant a weight 0 floor 0\nstages 1\nwork 1\nteam 0\n";
  expect_error "negative floor"
    "tenancy 1\nprocessors 2\nspeeds 1 1\nbandwidth default 1\ntenant a weight 1 floor -1\nstages 1\nwork 1\nteam 0\n";
  expect_error "duplicate tenant id"
    "tenancy 1\nprocessors 2\nspeeds 1 1\nbandwidth default 1\ntenant a weight 1 floor 0\nstages 1\nwork 1\nteam 0\ntenant a weight 1 floor 0\nstages 1\nwork 1\nteam 1\n";
  expect_error "platform line after tenant"
    "tenancy 1\nprocessors 2\nspeeds 1 1\nbandwidth default 1\ntenant a weight 1 floor 0\nstages 1\nwork 1\nteam 0\nspeeds 2 2\n";
  expect_error "team outside tenant"
    "tenancy 1\nprocessors 2\nspeeds 1 1\nbandwidth default 1\nteam 0\n";
  expect_error "missing team line"
    "tenancy 1\nprocessors 2\nspeeds 1 1\nbandwidth default 1\ntenant a weight 1 floor 0\nstages 2\nwork 1 1\nfiles 1\nteam 0\n"

let test_parse_multi_example () =
  let text =
    "# two tenants, one shared platform\n\
     tenancy 1\n\
     processors 4\n\
     speeds 2 1 1 1.5\n\
     bandwidth default 0.5\n\
     bandwidth 0 1 0.35\n\
     tenant a weight 2 floor 0.05\n\
     stages 2\n\
     work 3 4\n\
     files 2\n\
     team 0\n\
     team 1 2\n\
     tenant b weight 1 floor 0.01\n\
     stages 1\n\
     work 5\n\
     team 3\n"
  in
  match Instance_io.parse_multi text with
  | Error msg -> Alcotest.fail msg
  | Ok decls ->
      Alcotest.(check (list string)) "ids in declaration order" [ "a"; "b" ]
        (List.map (fun d -> d.Instance_io.tenant_id) decls);
      let a = List.hd decls in
      Alcotest.(check (float 0.0)) "weight" 2.0 a.Instance_io.weight;
      Alcotest.(check (float 0.0)) "floor" 0.05 a.Instance_io.floor;
      let pa = Mapping.platform a.Instance_io.tenant_mapping in
      let pb = Mapping.platform (List.nth decls 1).Instance_io.tenant_mapping in
      Alcotest.(check bool) "physically shared platform" true (pa == pb);
      Alcotest.(check (float 0.0)) "override survives" 0.35 (Platform.bandwidth pa ~src:0 ~dst:1)

let () =
  Alcotest.run "tenancy"
    [
      ( "shares",
        [
          Alcotest.test_case "equal weights halve" `Quick test_equal_weights_halve_the_processor;
          Alcotest.test_case "weighted shares" `Quick test_weighted_shares;
          Alcotest.test_case "create validations" `Quick test_create_validations;
          QCheck_alcotest.to_alcotest qcheck_shares_partition;
        ] );
      ( "bounds",
        [ QCheck_alcotest.to_alcotest qcheck_bound_admissible ] );
      ( "des", [ Alcotest.test_case "interleaved cross-check" `Slow test_des_cross_check ] );
      ( "admission",
        [
          Alcotest.test_case "sequence deterministic and typed" `Quick
            test_admission_sequence_deterministic_and_typed;
          Alcotest.test_case "static check" `Quick test_admission_static_check;
        ] );
      ( "instance io",
        [
          QCheck_alcotest.to_alcotest qcheck_multi_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_multi_key_groups_as_rendering;
          Alcotest.test_case "parse errors" `Quick test_parse_multi_errors;
          Alcotest.test_case "worked example" `Quick test_parse_multi_example;
        ] );
    ]
