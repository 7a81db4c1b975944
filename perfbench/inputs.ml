(* Seeded input generation.  Every input is a pure function of the
   workload seed, a stream tag and an index, so the same seed replays the
   same instances and requests, and the program under test only ever
   receives the generated bytes. *)

open Streaming

(* disjoint generator streams per purpose *)
let tag_warm = 1
let tag_cold = 2
let tag_prime = 3
let tag_optimize = 4
let tag_opt_prime = 5
let tag_pattern = 6

let stream ~seed ~tag i = Prng.stream ~seed:((seed * 64) + tag) i

let mapping g ~stages ~procs ~range ~max_rows =
  Workload.Gen.random_mapping g
    {
      Workload.Gen.n_stages = stages;
      n_procs = procs;
      comp_range = range;
      comm_range = range;
      max_rows;
    }

(* 5 stages on 14 processors: the 6.7 KB instance of the service
   workloads (a full 14 x 14 link matrix) *)
let overlap_5x14 g = mapping g ~stages:5 ~procs:14 ~range:(4.0, 12.0) ~max_rows:60

(* Table 1's (10,20) configuration.  Rows are capped at 12: the
   critical-cycle search grows with the square of the row count (6 ms at
   6 rows, 670 ms at 60), and an uncapped draw would let a handful of
   60-row instances decide a whole run. *)
let deterministic_10x20 g = mapping g ~stages:10 ~procs:20 ~range:(5.0, 15.0) ~max_rows:12

let strict_3x7 g = mapping g ~stages:3 ~procs:7 ~range:(4.0, 12.0) ~max_rows:60

let solve_line ~model ~law mapping =
  Service.Json.render
    (Service.Client.solve_request ~model ~law ~instance:(Instance_io.to_string mapping) ())

(* ---- cold-solves traffic mix ---- *)

type branch = Det | Overlap_expo | Overlap_erlang | Strict_expo

let branch_name = function
  | Det -> "deterministic"
  | Overlap_expo -> "overlap_expo"
  | Overlap_erlang -> "overlap_erlang"
  | Strict_expo -> "strict_expo"

let branches = [ Det; Overlap_expo; Overlap_erlang; Strict_expo ]

(* One 20-request cycle: 2 deterministic, 9 overlap/exponential,
   7 overlap/Erlang-2 and 2 strict/exponential solves, interleaved.  The
   weights keep every branch well under half of the solve time (with 3
   strict solves a cycle, that branch took half), and put the median
   request well inside the cheap overlap requests rather than on the edge
   between cheap and expensive ones. *)
let cycle =
  [|
    Overlap_expo; Overlap_erlang; Strict_expo; Overlap_expo; Overlap_erlang;
    Overlap_expo; Det; Overlap_expo; Overlap_erlang; Overlap_expo;
    Overlap_erlang; Strict_expo; Overlap_expo; Overlap_erlang; Overlap_expo;
    Det; Overlap_erlang; Overlap_expo; Overlap_erlang; Overlap_expo;
  |]

let branch_of i = cycle.(i mod Array.length cycle)

let mixed_line g = function
  | Det -> solve_line ~model:Model.Strict ~law:Service.Engine.Deterministic (deterministic_10x20 g)
  | Overlap_expo -> solve_line ~model:Model.Overlap ~law:Service.Engine.Exponential (overlap_5x14 g)
  | Overlap_erlang -> solve_line ~model:Model.Overlap ~law:(Service.Engine.Erlang 2) (overlap_5x14 g)
  | Strict_expo -> solve_line ~model:Model.Strict ~law:Service.Engine.Exponential (strict_3x7 g)

(* request [i] of the timed cold-solves phase; every index is a distinct
   instance, so no request can be answered from a cache *)
let cold_request ~seed i = mixed_line (stream ~seed ~tag:tag_cold i) (branch_of i)

(* the set-up's priming requests: the same mix from a stream disjoint
   from every seed's timed requests, and the same for every seed, so the
   set-up does the same work whatever the seed *)
let prime_request i = mixed_line (stream ~seed:0 ~tag:tag_prime i) (branch_of i)

let warm_request ~seed i =
  solve_line ~model:Model.Overlap ~law:Service.Engine.Exponential
    (overlap_5x14 (stream ~seed ~tag:tag_warm i))

(* ---- optimizer instances: application and platform, no mapping ---- *)

let optimize_instance ~seed ~tag i =
  Workload.Gen.random_instance (stream ~seed ~tag i)
    {
      Workload.Gen.i_stages = 5;
      i_procs = 14;
      i_comp_range = (1.0, 10.0);
      i_comm_range = (0.2, 2.0);
    }

(* ---- pattern rates ---- *)

(* one rate for every transfer: invariant under every shift, so the
   rotation quotient applies *)
let homogeneous_rate ~seed ~rung = Prng.uniform (stream ~seed ~tag:tag_pattern (2 * rung)) 0.5 2.0

(* independent rates per (sender, receiver): no proper shift leaves them
   invariant, so the chain is solved unlumped *)
let heterogeneous_rates ~seed ~rung ~u ~v =
  let g = stream ~seed ~tag:tag_pattern ((2 * rung) + 1) in
  Array.init u (fun _ -> Array.init v (fun _ -> Prng.uniform g 0.5 2.0))
