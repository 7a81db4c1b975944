(* tenants: the multi-tenant shared-platform tier *)

open Cmdliner
open Streaming
open Common

(* one multi-tenant request to a daemon: prints the raw reply line and
   returns it parsed, so callers can turn typed outcomes into exit codes *)
let multi_rpc addr ~cmd ~model ~law ?cap ?wall path =
  let instance = read_text path in
  with_client addr @@ fun client ->
  let line =
    rpc client
      (Service.Json.render
         (Service.Client.solve_request ~cmd ~model ~law ?cap ?wall ~instance ()))
  in
  print_endline line;
  match Service.Json.parse line with Ok j -> j | Error msg -> die ~code:1 msg

let tenants_generate_run tenants procs stage_range team_range floor_frac seed over_budget model
    out =
  if tenants < 1 then die ~code:1 "need at least one tenant";
  let p =
    {
      Workload.Gen.default_mix with
      Workload.Gen.mix_tenants = tenants;
      mix_procs = procs;
      mix_stage_range = stage_range;
      mix_team_range = team_range;
      mix_floor_frac = floor_frac;
    }
  in
  let g = Prng.create ~seed in
  let decls = Workload.Gen.random_tenant_mix ~model g p in
  let decls = if over_budget then Workload.Gen.with_over_budget ~model decls else decls in
  let text = Instance_io.multi_to_string decls in
  (match out with
  | Some path -> Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text)
  | None -> print_string text);
  0

let tenants_solve_run path model law cap wall socket check_des seed data_sets =
  match socket with
  | Some addr ->
      let reply = multi_rpc addr ~cmd:"solve_multi" ~model ~law ?cap ?wall path in
      if Service.Client.reply_ok reply then 0
      else if Service.Client.reply_error_kind reply = Some "admission_rejected" then 5
      else 1
  | None -> (
      match Tenancy.Platform_share.create ~tenants:(load Instance_io.parse_multi_file path) with
      | Error msg -> die ~code:2 msg
      | Ok ps ->
          let k = Tenancy.Platform_share.n_tenants ps in
          let cap = Option.value cap ~default:Service.Engine.default_cap in
          Format.printf "%-10s %8s %10s %12s %12s@." "tenant" "weight" "floor" "bound"
            (Throughput.law_to_string law);
          let violated = ref [] in
          for i = 0 to k - 1 do
            let d = Tenancy.Platform_share.decl ps i in
            let bound = Tenancy.Platform_share.bound ps ~tenant:i model in
            let rho, _ =
              Throughput.solve ~cap law model (Tenancy.Platform_share.scaled_mapping ps ~tenant:i)
            in
            if bound < d.Instance_io.floor then
              violated := d.Instance_io.tenant_id :: !violated;
            Format.printf "%-10s %8.4f %10.6g %12.6g %12.6g%s@." d.Instance_io.tenant_id
              d.Instance_io.weight d.Instance_io.floor bound rho
              (if bound < d.Instance_io.floor then "  (floor violated)" else "")
          done;
          (match !violated with
          | [] -> ()
          | ids ->
              Format.printf "floor violations      : %s@." (String.concat ", " (List.rev ids)));
          (match check_des with
          | None -> if !violated = [] then () else exit 5
          | Some tol ->
              let estimates =
                Tenancy.Sim.cross_check ~cap ps model ~seed ~data_sets
              in
              Format.printf "-- DES cross-check (seed %d, %d data sets per tenant) --@." seed
                data_sets;
              let worst = ref 0.0 in
              List.iter
                (fun e ->
                  if e.Tenancy.Sim.rel_err > !worst then worst := e.Tenancy.Sim.rel_err;
                  Format.printf "%-10s des %12.6g exact %12.6g rel.err %6.2f%%@."
                    e.Tenancy.Sim.id e.Tenancy.Sim.des e.Tenancy.Sim.exact
                    (100.0 *. e.Tenancy.Sim.rel_err))
                estimates;
              if !worst > tol then
                die ~code:6
                  (Printf.sprintf "DES and exact per-tenant throughput diverge: %.2f%% > %.2f%%"
                     (100.0 *. !worst) (100.0 *. tol));
              if !violated <> [] then exit 5);
          0)

let tenants_admit_run path model law socket expect_reject =
  let finish ~rejected =
    if expect_reject && not rejected then
      die ~code:4 "expected at least one rejection; every tenant was admitted"
    else 0
  in
  match socket with
  | Some addr ->
      let reply = multi_rpc addr ~cmd:"admit" ~model ~law path in
      if not (Service.Client.reply_ok reply) then 1
      else
        let rejected =
          match
            Option.bind (Service.Client.reply_result reply) (Service.Json.member "steps")
          with
          | Some (Service.Json.List steps) ->
              List.exists
                (fun s ->
                  match Service.Json.member "admitted" s with
                  | Some (Service.Json.Bool b) -> not b
                  | _ -> false)
                steps
          | _ -> false
        in
        finish ~rejected
  | None -> (
      match Tenancy.Admission.sequence ~model (load Instance_io.parse_multi_file path) with
      | Error msg -> die ~code:2 msg
      | Ok steps ->
          List.iter
            (fun (s : Tenancy.Admission.step) ->
              let id = s.Tenancy.Admission.decl.Instance_io.tenant_id in
              match s.Tenancy.Admission.rejection with
              | None ->
                  Format.printf "%-10s admitted  (bounds: %s)@." id
                    (String.concat ", "
                       (List.map
                          (fun (t, b) -> Printf.sprintf "%s=%.6g" t b)
                          s.Tenancy.Admission.bounds))
              | Some r ->
                  Format.printf "%-10s REJECTED  victim %s: bound %.6g < floor %.6g@." id
                    r.Tenancy.Admission.victim r.Tenancy.Admission.bound
                    r.Tenancy.Admission.floor)
            steps;
          let admitted = Tenancy.Admission.admitted steps in
          Format.printf "admitted              : %s@."
            (String.concat ", "
               (List.map (fun d -> d.Instance_io.tenant_id) admitted));
          finish
            ~rejected:(List.exists (fun (s : Tenancy.Admission.step) -> not s.Tenancy.Admission.admitted) steps))

let cmd =
  let multi_file = file_arg ~docv:"MIX" "Multi-tenant instance file ([tenancy 1] block)." in
  let socket_opt =
    socket_opt ~doc:"Send the request to a running daemon or cluster instead of solving locally."
  in
  let generate =
    let tenants =
      Arg.(value & opt int 3 & info [ "tenants"; "k" ] ~docv:"K" ~doc:"Number of tenants.")
    in
    let procs =
      Arg.(value & opt int 8 & info [ "procs"; "p" ] ~docv:"M" ~doc:"Shared processor count.")
    in
    let stage_range =
      Arg.(value & opt (pair int int) (2, 3) & info [ "stages" ] ~docv:"LO,HI"
             ~doc:"Stage count per tenant, drawn uniformly in this inclusive range.")
    in
    let team_range =
      Arg.(value & opt (pair int int) (3, 5) & info [ "team" ] ~docv:"LO,HI"
             ~doc:"Processors per tenant, drawn uniformly in this inclusive range.")
    in
    let floor_frac =
      Arg.(value & opt float 0.5 & info [ "floor-frac" ] ~docv:"F"
             ~doc:"Floors as a fraction of each tenant's contended admission bound; below 1.0 \
                   the whole mix is admissible by construction.")
    in
    let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
    let over_budget =
      Arg.(value & flag & info [ "over-budget" ]
             ~doc:"Append a \"greedy\" clone of the last tenant whose floor is set to twice its \
                   own bound — a tenant the admission sequence must reject.")
    in
    let out =
      Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Write the mix here instead of stdout.")
    in
    Cmd.v
      (Cmd.info "generate" ~doc:"Generate a random tenant mix on one shared platform")
      Term.(const tenants_generate_run $ tenants $ procs $ stage_range $ team_range $ floor_frac
            $ seed $ over_budget $ model_arg $ out)
  in
  let solve =
    let cap =
      Arg.(value & opt (some int) None & info [ "cap" ]
             ~doc:"Pattern and marking exploration bound.")
    in
    let wall =
      Arg.(value & opt (some float) None & info [ "wall" ] ~docv:"SECONDS"
             ~doc:"Whole-request wall budget for the daemon-side solve (split across tenants \
                   by weight).")
    in
    let check_des =
      Arg.(value & opt (some float) None & info [ "check-des" ] ~docv:"TOL"
             ~doc:"Cross-check every tenant's exact throughput against an interleaved-tenant \
                   discrete-event simulation; exit 6 if any relative error exceeds $(docv).")
    in
    let seed =
      Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"DES cross-check seed.")
    in
    let data_sets =
      Arg.(value & opt int 4000 & info [ "data-sets" ] ~docv:"N"
             ~doc:"Data sets per tenant in the DES cross-check.")
    in
    Cmd.v
      (Cmd.info "solve"
         ~doc:"Per-tenant throughput of a mix under contention (local table, or solve_multi \
               against a daemon)")
      Term.(const tenants_solve_run $ multi_file $ model_arg
            $ law_arg ~doc:"Law of the per-tenant solve, local or daemon-side: deterministic, \
                            exponential or erlang:K."
            $ cap $ wall $ socket_opt
            $ check_des $ seed $ data_sets)
  in
  let admit =
    let expect_reject =
      Arg.(value & flag & info [ "expect-reject" ]
             ~doc:"Fail (exit 4) unless the audit rejects at least one tenant.")
    in
    Cmd.v
      (Cmd.info "admit"
         ~doc:"Sequential admission audit of a mix in declaration order (local, or the \
               daemon's admit command)")
      Term.(const tenants_admit_run $ multi_file $ model_arg
            $ law_arg ~doc:"Law for the daemon-side solve: deterministic, exponential or erlang:K."
            $ socket_opt $ expect_reject)
  in
  Cmd.group
    (Cmd.info "tenants"
       ~doc:"Multi-tenant tier: generate tenant mixes, solve per-tenant throughput under \
             contention, audit admission control")
    [ generate; solve; admit ]
