(* Crash-safe resumable execution of experiment points.

   An experiment is decomposed into [point]s, each rendering one fragment
   of the experiment's output.  The runner solves the points in registry
   order, journals every completed (experiment, point) as one JSONL record
   (whole-journal atomic rewrite, tmp + rename), and on [resume] replays
   the journaled fragments verbatim instead of re-solving — so a run
   killed between two points and resumed produces byte-identical output.
   Failed points are not reused on resume: they are re-queued, each
   attempt getting a freshly restarted budget, and a point whose first
   attempt raised but whose retry succeeded is recorded as degraded. *)

type outcome = { status : Supervise.Journal.status; detail : string; output : string }

type point = { key : string; solve : ?budget:Supervise.Budget.t -> unit -> outcome }

type task = { exp : string; points : point list }

type health = { exact : int; degraded : int; failed : int; reused : int }

type inject = exp:string -> point:string -> attempt:int -> unit

let inject_of_rules rules =
  let rules =
    List.filter_map
      (fun (kind, target) ->
        let exp, point =
          match String.index_opt target ':' with
          | None -> (target, None)
          | Some j ->
              (String.sub target 0 j, Some (String.sub target (j + 1) (String.length target - j - 1)))
        in
        match kind with
        | "fail" -> Some (`Fail, exp, point)
        | "flaky" | "degrade" -> Some (`Flaky, exp, point)
        | _ -> None)
      rules
  in
  if rules = [] then None
  else
    Some
      (fun ~exp ~point ~attempt ->
        List.iter
          (fun (kind, e, p) ->
            if e = exp && (match p with None -> true | Some p -> p = point) then
              if kind = `Fail || attempt = 0 then
                Supervise.Error.raise_
                  (Supervise.Error.Numerical { what = "injected fault"; where = exp ^ "/" ^ point }))
          rules)

let ok ?(status = Supervise.Journal.Exact) ?(detail = "") output = { status; detail; output }

let render f =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let quick_tag quick = if quick then "quick" else "full"

let meta_record quick =
  {
    Supervise.Journal.exp = "@meta";
    point = quick_tag quick;
    status = Supervise.Journal.Exact;
    detail = "experiment runner journal";
    output = "";
    elapsed = "";
  }

(* The journal is only trusted when its meta record matches the requested
   mode: resuming a quick journal under --full (or vice versa) would splice
   fragments of the wrong series. *)
let load_journal ~quick path =
  match Supervise.Journal.load path with
  | meta :: rest when meta.Supervise.Journal.exp = "@meta" && meta.point = quick_tag quick -> rest
  | _ -> []

let run_tasks ?(quick = false) ?journal ?(resume = false) ?point_budget ?inject
    ?(err = Format.err_formatter) tasks ppf =
  let prior = match journal with Some path when resume -> load_journal ~quick path | _ -> [] in
  let reusable = Hashtbl.create 64 in
  List.iter
    (fun r ->
      match r.Supervise.Journal.status with
      | Supervise.Journal.Exact | Supervise.Journal.Degraded ->
          Hashtbl.replace reusable (r.Supervise.Journal.exp, r.Supervise.Journal.point) r
      | Supervise.Journal.Failed -> ())
    prior;
  (* records accumulate most-recent-first; the journal is rewritten whole
     (atomically) after every point so a kill loses at most the point in
     flight *)
  let records = ref [ meta_record quick ] in
  let save () =
    match journal with
    | None -> ()
    | Some path -> Supervise.Journal.save path (List.rev !records)
  in
  let health = ref { exact = 0; degraded = 0; failed = 0; reused = 0 } in
  let count status ~was_reused =
    let h = !health in
    let h =
      match status with
      | Supervise.Journal.Exact -> { h with exact = h.exact + 1 }
      | Supervise.Journal.Degraded -> { h with degraded = h.degraded + 1 }
      | Supervise.Journal.Failed -> { h with failed = h.failed + 1 }
    in
    health := if was_reused then { h with reused = h.reused + 1 } else h
  in
  let emit r =
    Format.pp_print_string ppf r.Supervise.Journal.output;
    records := r :: !records;
    save ()
  in
  List.iter
    (fun task ->
      List.iter
        (fun pt ->
          match Hashtbl.find_opt reusable (task.exp, pt.key) with
          | Some r ->
              emit r;
              count r.Supervise.Journal.status ~was_reused:true
          | None ->
              let attempt n =
                (match inject with
                | Some f -> f ~exp:task.exp ~point:pt.key ~attempt:n
                | None -> ());
                let budget = Option.map Supervise.Budget.restart point_budget in
                pt.solve ?budget ()
              in
              let t0 = Obs.Clock.now_ns () in
              let outcome, retried =
                Obs.Trace.span ("point:" ^ task.exp ^ "/" ^ pt.key) (fun () ->
                    try (attempt 0, false)
                    with Supervise.Error.Solver_error first -> (
                      Format.fprintf err "supervise: %s/%s: %s; retrying@." task.exp pt.key
                        (Supervise.Error.to_string first);
                      try (attempt 1, true)
                      with Supervise.Error.Solver_error second ->
                        ( {
                            status = Supervise.Journal.Failed;
                            detail = Supervise.Error.to_string second;
                            output = "";
                          },
                          true )))
              in
              let elapsed =
                Printf.sprintf "%.6f" (Obs.Clock.ns_to_s (Obs.Clock.now_ns () - t0))
              in
              let status =
                match (outcome.status, retried) with
                | Supervise.Journal.Exact, true -> Supervise.Journal.Degraded
                | s, _ -> s
              in
              let detail =
                if retried && status = Supervise.Journal.Degraded && outcome.detail = "" then
                  "first attempt failed; retry succeeded"
                else outcome.detail
              in
              emit
                {
                  Supervise.Journal.exp = task.exp;
                  point = pt.key;
                  status;
                  detail;
                  output = outcome.output;
                  elapsed;
                };
              count status ~was_reused:false)
        task.points;
      (* experiment separator, matching [Registry.run_all]'s trailing @\n *)
      Format.pp_print_string ppf "\n")
    tasks;
  Format.pp_print_flush ppf ();
  let h = !health in
  Format.fprintf err "supervise: %d exact, %d degraded, %d failed, %d reused@." h.exact h.degraded
    h.failed h.reused;
  h
