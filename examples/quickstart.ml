(* Quickstart: analyse one replicated mapping end to end.

   Build a four-stage pipeline mapped on seven heterogeneous processors
   (the shape of the paper's Example A), then compute:
   - the deterministic throughput (critical cycle of the timed Petri net),
   - the exponential-case throughput (Markov analysis),
   - the N.B.U.E. bounds of Theorem 7,
   and check them against both simulators.

   Run with: dune exec examples/quickstart.exe *)

open Streaming

let () =
  (* A linear chain: T1 (52 flop) -> F1 (24 B) -> T2 (48 flop) -> ... *)
  let app = Application.create ~work:[| 52.; 48.; 72.; 32. |] ~files:[| 24.; 36.; 28. |] in

  (* Seven processors with heterogeneous speeds, all pairs connected. *)
  let speeds = [| 2.0; 0.8; 1.1; 0.9; 1.3; 0.7; 1.6 |] in
  let platform =
    Platform.of_link_function ~n:7 ~speeds ~bw:(fun p q ->
        0.35 +. (0.05 *. float_of_int (((p * 3) + (2 * q)) mod 7)))
  in

  (* One-to-many mapping: T2 replicated on two processors, T3 on three. *)
  let mapping = Mapping.create ~app ~platform ~teams:[| [| 0 |]; [| 1; 2 |]; [| 3; 4; 5 |]; [| 6 |] |] in
  Format.printf "%a@." Mapping.pp mapping;

  List.iter
    (fun model ->
      Format.printf "--- %s model ---@." (Model.to_string model);
      let a = Deterministic.analyse mapping model in
      Format.printf "deterministic throughput: %.6f (period %.3f per data set)@."
        a.Deterministic.throughput a.Deterministic.period;
      Format.printf "critical resource bound : %.3f on %s%s@." a.Deterministic.mct
        a.Deterministic.bottleneck
        (if Deterministic.has_critical_resource a then "" else "  <- no critical resource!");
      let bounds = Bounds.compute ~cap:2_000_000 mapping model in
      Format.printf "Theorem 7 bounds        : any NBUE law gives a throughput in [%.6f, %.6f]@."
        bounds.Bounds.lower bounds.Bounds.upper;
      (* check by simulating a uniform law on every resource *)
      let uniform_family mu = Dist.Uniform (0.5 *. mu, 1.5 *. mu) in
      let rho =
        Des.Pipeline_sim.throughput mapping model
          ~timing:(Des.Pipeline_sim.Independent (Laws.of_family mapping ~family:uniform_family))
          ~seed:1 ~data_sets:30_000
      in
      Format.printf "simulated (uniform law) : %.6f -> %s@.@." rho
        (if Bounds.contains bounds rho then "within the bounds" else "OUTSIDE the bounds"))
    Model.all
