open Streaming

type metric =
  | Deterministic
  | Exponential
  | Strict
  | Custom of {
      name : string;
      bound : Mapping.t -> float;
      value : Mapping.t -> float;
    }

let metric_name = function
  | Deterministic -> "deterministic"
  | Exponential -> "exponential"
  | Strict -> "strict"
  | Custom { name; _ } -> name

type t = {
  m : metric;
  cap : int;
  sweeps : int option;
  states : int option;
  wall : float option;
  seed : int;
}

let create ?(cap = 200_000) ?sweeps ?states ?wall ?(seed = 1) m =
  { m; cap; sweeps; states; wall; seed }

let metric t = t.m
let cap t = t.cap
let sweeps t = t.sweeps
let states t = t.states
let wall t = t.wall
let seed t = t.seed

(* the metric's row of the solve table: the one place a metric picks its
   execution model, its law and whether the DES rung may answer *)
let row = function
  | Deterministic -> (Model.Overlap, Throughput.Deterministic, false)
  | Exponential -> (Model.Overlap, Throughput.Exponential, false)
  | Strict -> (Model.Strict, Throughput.Exponential, true)
  | Custom { name; _ } ->
      invalid_arg (Printf.sprintf "Objective.row: custom objective %S is local-only" name)

let bound t mapping =
  match t.m with
  | Custom { bound; _ } -> bound mapping
  | m ->
      let model, _, _ = row m in
      fst (Throughput.solve Throughput.Deterministic model mapping)

(* a fresh budget per candidate: the wall clock (when any) restarts at
   the candidate's own solve, so one slow candidate cannot starve the
   rest *)
let value t mapping =
  match t.m with
  | Custom { value; _ } -> value mapping
  | m ->
      let model, law, simulate = row m in
      fst
        (Throughput.solve ~cap:t.cap
           ?budget:(Supervise.Budget.of_limits ?wall:t.wall ?sweeps:t.sweeps ?states:t.states ())
           ?simulate:
             (if simulate then Some (Des.Pipeline_sim.estimate ~seed:t.seed mapping model)
              else None)
           law model mapping)

type outcome =
  | Evaluated of float
  | Pruned of float
  | Failed of Supervise.Error.t

let outcome_to_string = function
  | Evaluated v -> Printf.sprintf "evaluated %.6g" v
  | Pruned b -> Printf.sprintf "pruned (upper bound %.6g)" b
  | Failed e -> "failed: " ^ Supervise.Error.to_string e

let evaluate t ~incumbent mapping =
  match t.m with
  | Deterministic ->
      (* bound = value: one computation serves both roles *)
      let v = bound t mapping in
      if v <= incumbent then Pruned v else Evaluated v
  | _ -> (
      let b = bound t mapping in
      if b <= incumbent then Pruned b
      else
        match value t mapping with
        | v -> Evaluated v
        | exception Supervise.Error.Solver_error err -> Failed err)
