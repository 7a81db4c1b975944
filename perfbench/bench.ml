(* perfbench: one workload per invocation, end-to-end metrics or (with
   --trace 1) per-layer metrics.  The metric names and units come from
   BENCHMARK.json; the last line of standard output is the result
   object.  Exit code 0 when every output check passed, 1 when one
   failed, 2 when the run could not complete (no result is printed).

   Usually started through perfbench/run.py, which builds this program
   and the daemon first. *)

let workloads =
  [
    ("warm-hits", Svc.warm_hits);
    ("cold-solves", Svc.cold_solves);
    ("optimize", Opt.optimize);
    ("pattern-cold", Pattern_cold.pattern_cold);
  ]

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 2) fmt

(* [(name, unit)] of one metric list of the benchmark spec *)
let spec_metrics path key =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Service.Json.parse (String.trim text) with
  | Error e -> die "%s: %s" path e
  | Ok json -> (
      match Service.Json.member key json with
      | Some (Service.Json.List items) ->
          List.map
            (fun m ->
              match
                ( Option.bind (Service.Json.member "name" m) Service.Json.to_string_opt,
                  Option.bind (Service.Json.member "unit" m) Service.Json.to_string_opt )
              with
              | Some n, Some u -> (n, u)
              | _ -> die "%s: %s entry without name or unit" path key)
            items
      | _ -> die "%s: no %s list" path key)

let json_string s = Service.Json.render (Service.Json.String s)

(* run from the repository root, where the spec lives *)
let spec = "BENCHMARK.json"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0.0 and trace = ref 0 in
  let daemon = ref "" and work = ref "" and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME warm-hits | cold-solves | optimize | pattern-cold");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--daemon", Arg.Set_string daemon, "PATH the streaming_cli executable");
      ("--work", Arg.Set_string work, "DIR working directory for sockets and logs");
      ("--commit", Arg.Set_string commit, "ID commit recorded in the header");
    ]
    (fun a -> die "unexpected argument %s" a)
    "bench --workload NAME --seed N --seconds S --trace 0|1 --daemon PATH --work DIR";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None -> die "unknown workload %S" !workload
  in
  if !daemon = "" || !work = "" then die "--daemon and --work are required";
  if not (!seconds > 0.0) then die "--seconds is required and must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  let catalog = spec_metrics spec (if !trace = 1 then "per_layer" else "end_to_end") in
  let nproc = Domain.recommended_domain_count () in
  let ctx =
    {
      Ctx.seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      domains = nproc;
      clients = max 1 (min 2 nproc);
      daemon = !daemon;
      work = !work;
    }
  in
  Parallel.Pool.set_domains ctx.Ctx.domains;
  Printf.printf
    "{\"header\":{\"bench\":\"perfbench\",\"workload\":%s,\"seed\":%d,\"seconds\":%g,\"trace\":%d,\"commit\":%s,\"nproc\":%d,\"ocaml\":%s,\"pool_domains\":%d,\"clients\":%d}}\n%!"
    (json_string !workload) !seed !seconds !trace (json_string !commit) nproc
    (json_string Sys.ocaml_version) ctx.Ctx.domains ctx.Ctx.clients;
  let outcome =
    try run ctx with
    | Failure msg -> die "%s: %s" !workload msg
    | Unix.Unix_error (e, fn, arg) -> die "%s: %s (%s %s)" !workload (Unix.error_message e) fn arg
  in
  List.iter
    (fun (n, _) -> if not (List.mem_assoc n catalog) then die "metric %s is not in %s" n spec)
    outcome.Ctx.metrics;
  (* every catalogued metric is reported; a layer this workload does not
     exercise reads 0 *)
  let bad_values = ref 0 in
  let values =
    List.map
      (fun (n, u) ->
        let v = Option.value ~default:0.0 (List.assoc_opt n outcome.Ctx.metrics) in
        let v =
          if Float.is_finite v && (!trace = 1 || v > 0.0) then v
          else begin
            Printf.eprintf "perfbench: metric %s reads %g\n%!" n v;
            incr bad_values;
            0.0
          end
        in
        (n, v, u))
      catalog
  in
  let failed = outcome.Ctx.failed + !bad_values in
  let attempted = max 1 outcome.Ctx.attempted in
  List.iter (fun (n, v, u) -> Printf.printf "  %-36s %16.6f %s\n" n v u) values;
  Printf.printf "  %-36s %16.6f (%d failed of %d attempted)\n" "failed_frac"
    (float_of_int failed /. float_of_int attempted)
    failed attempted;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" (failed = 0)
    attempted failed
    (String.concat ","
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%s:{\"value\":%.17g,\"unit\":%s}" (json_string n) v (json_string u))
          values));
  exit (if failed = 0 then 0 else 1)
