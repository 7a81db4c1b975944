open Petrinet

let check_float tol = Alcotest.(check (float tol))

let ring times =
  let k = Array.length times in
  let teg = Teg.create ~labels:(Array.init k (Printf.sprintf "t%d")) ~times in
  for l = 0 to k - 1 do
    Teg.add_place teg ~src:l ~dst:((l + 1) mod k) ~tokens:(if l = k - 1 then 1 else 0)
  done;
  teg

let test_ctmc_two_state () =
  let chain = Markov.Ctmc.create 2 in
  Markov.Ctmc.add_rate chain 0 1 3.0;
  Markov.Ctmc.add_rate chain 1 0 1.0;
  let pi = Markov.Ctmc.stationary chain in
  check_float 1e-12 "pi0" 0.25 pi.(0);
  check_float 1e-12 "pi1" 0.75 pi.(1);
  check_float 1e-12 "flow 0->1" 0.75 (pi.(0) *. 3.0);
  check_float 1e-12 "flow balance" (pi.(0) *. 3.0) (pi.(1) *. 1.0)

let test_ctmc_add_rate_accumulates () =
  let chain = Markov.Ctmc.create 2 in
  Markov.Ctmc.add_rate chain 0 1 1.0;
  Markov.Ctmc.add_rate chain 0 1 2.0;
  Markov.Ctmc.add_rate chain 1 0 1.0;
  let pi = Markov.Ctmc.stationary chain in
  check_float 1e-12 "accumulated rate" 0.25 pi.(0)

let test_ctmc_solvers_agree () =
  let build () =
    let chain = Markov.Ctmc.create 4 in
    Markov.Ctmc.add_rate chain 0 1 1.0;
    Markov.Ctmc.add_rate chain 1 2 2.0;
    Markov.Ctmc.add_rate chain 2 3 3.0;
    Markov.Ctmc.add_rate chain 3 0 4.0;
    Markov.Ctmc.add_rate chain 0 2 0.5;
    chain
  in
  let chain = build () in
  let on rung = fst (Markov.Ctmc.stationary_supervised ~ladder:[ rung ] chain) in
  let gth = on Markov.Ctmc.Rung_gth in
  let gs = on (Markov.Ctmc.Rung_gauss_seidel { tol = 1e-12 }) in
  Array.iteri (fun i v -> check_float 1e-8 "gth vs gs" v gs.(i)) gth

(* every GTH solve is counted, with its L+U entries: a tridiagonal chain
   has no fill, so an n-state birth-death chain stores 2(n-1) entries *)
let test_ctmc_gth_counters () =
  let solves = Obs.Metrics.Counter.create "ctmc_gth_solves_total" in
  let entries = Obs.Metrics.Counter.create "ctmc_gth_factor_entries_total" in
  let n = 40 in
  let chain = Markov.Ctmc.create n in
  for i = 0 to n - 2 do
    Markov.Ctmc.add_rate chain i (i + 1) 2.0;
    Markov.Ctmc.add_rate chain (i + 1) i 3.0
  done;
  let s0 = Obs.Metrics.Counter.value solves and e0 = Obs.Metrics.Counter.value entries in
  ignore (Markov.Ctmc.stationary chain);
  Alcotest.(check int) "one solve" 1 (Obs.Metrics.Counter.value solves - s0);
  Alcotest.(check int) "2(n-1) entries" (2 * (n - 1)) (Obs.Metrics.Counter.value entries - e0)

(* -- tpn_markov -- *)

let analyse ~rates teg = fst (Markov.Tpn_markov.analyse_supervised ~rates teg)

let test_self_loop_rate () =
  let teg = Teg.create ~labels:[| "only" |] ~times:[| 2.0 |] in
  Teg.add_place teg ~src:0 ~dst:0 ~tokens:1;
  let chain = analyse ~rates:(fun _ -> 0.5) teg in
  Alcotest.(check int) "one marking" 1 (Markov.Tpn_markov.n_markings chain);
  check_float 1e-12 "always enabled" 1.0 (Markov.Tpn_markov.enabled_probability chain 0);
  check_float 1e-12 "firing rate = rate" 0.5 (Markov.Tpn_markov.firing_rate chain 0)

let test_alternating_renewal () =
  (* ring of two exponential transitions: completions of each transition
     form a renewal process of rate 1/(1/l1 + 1/l2) *)
  let teg = ring [| 1.0; 1.0 |] in
  let l1 = 2.0 and l2 = 3.0 in
  let chain = analyse ~rates:(fun v -> if v = 0 then l1 else l2) teg in
  Alcotest.(check int) "two markings" 2 (Markov.Tpn_markov.n_markings chain);
  let expected = 1.0 /. ((1.0 /. l1) +. (1.0 /. l2)) in
  check_float 1e-12 "t0 rate" expected (Markov.Tpn_markov.firing_rate chain 0);
  check_float 1e-12 "t1 rate" expected (Markov.Tpn_markov.firing_rate chain 1);
  check_float 1e-12 "throughput_of sums" (2.0 *. expected)
    (Markov.Tpn_markov.throughput_of chain [ 0; 1 ])

let test_ring_k_rate () =
  (* ring of k identical transitions: one token moving at rate l -> each
     transition fires at rate l/k *)
  let k = 5 and l = 2.0 in
  let teg = ring (Array.make k 1.0) in
  let chain = analyse ~rates:(fun _ -> l) teg in
  check_float 1e-12 "per transition" (l /. float_of_int k) (Markov.Tpn_markov.firing_rate chain 0);
  check_float 1e-12 "total" l (Markov.Tpn_markov.throughput_of chain (List.init k Fun.id))

let test_independent_rings_product_chain () =
  (* two independent rings share the chain; each keeps its own rate *)
  let teg = Teg.create ~labels:[| "a"; "b"; "c" |] ~times:(Array.make 3 1.0) in
  Teg.add_place teg ~src:0 ~dst:0 ~tokens:1;
  Teg.add_place teg ~src:1 ~dst:2 ~tokens:0;
  Teg.add_place teg ~src:2 ~dst:1 ~tokens:1;
  let chain = analyse ~rates:(fun v -> if v = 0 then 5.0 else 2.0) teg in
  Alcotest.(check int) "2 markings (self-loop is invariant)" 2 (Markov.Tpn_markov.n_markings chain);
  check_float 1e-12 "self loop rate" 5.0 (Markov.Tpn_markov.firing_rate chain 0);
  check_float 1e-12 "ring rate" 1.0 (Markov.Tpn_markov.firing_rate chain 1)

let test_rate_validation () =
  let teg = ring [| 1.0; 1.0 |] in
  Alcotest.check_raises "non-positive rate"
    (Invalid_argument "Tpn_markov: rate of t0 not positive") (fun () ->
      ignore (analyse ~rates:(fun _ -> 0.0) teg))

let test_markov_vs_simulation () =
  (* 2x3 pattern with heterogeneous rates: stationary throughput matches a
     long event-graph simulation *)
  let rate ~sender ~receiver = 0.5 +. (0.3 *. float_of_int ((2 * sender) + receiver)) in
  let exact = Young.Pattern.exponential_inner_throughput ~u:2 ~v:3 ~rate () in
  let teg = Young.Pattern.build ~u:2 ~v:3 ~time:(fun ~sender ~receiver -> 1.0 /. rate ~sender ~receiver) in
  let g = Prng.create ~seed:42 in
  let sample ~transition ~firing:_ =
    let s, r = Young.Pattern.transition_of ~u:2 ~v:3 transition in
    Dist.sample (Dist.Exponential (rate ~sender:s ~receiver:r)) g
  in
  let iterations = 30_000 in
  let series = Eg_sim.simulate ~sample teg ~iterations ~watch:(List.init 6 Fun.id) in
  let horizon = Array.fold_left (fun acc s -> max acc s.(iterations - 1)) 0.0 series in
  let simulated = 6.0 *. float_of_int iterations /. horizon in
  Alcotest.(check bool)
    (Printf.sprintf "markov %.4f vs sim %.4f" exact simulated)
    true
    (abs_float (exact -. simulated) /. exact < 0.02)


(* -- transient analysis (uniformisation) -- *)

let test_transient_distribution_t0 () =
  let chain = Markov.Ctmc.create 2 in
  Markov.Ctmc.add_rate chain 0 1 1.0;
  Markov.Ctmc.add_rate chain 1 0 1.0;
  let d = Markov.Transient.distribution chain ~initial:0 ~horizon:0.0 in
  check_float 1e-12 "all mass at the start" 1.0 d.(0)

let test_transient_two_state_exact () =
  (* symmetric 2-state chain, rate r each way:
     P(X_t = start) = (1 + exp (-2 r t)) / 2 *)
  let r = 0.7 in
  let chain = Markov.Ctmc.create 2 in
  Markov.Ctmc.add_rate chain 0 1 r;
  Markov.Ctmc.add_rate chain 1 0 r;
  List.iter
    (fun t ->
      let d = Markov.Transient.distribution chain ~initial:0 ~horizon:t in
      check_float 1e-9 (Printf.sprintf "t=%g" t) ((1.0 +. exp (-2.0 *. r *. t)) /. 2.0) d.(0))
    [ 0.1; 0.5; 1.0; 3.0; 10.0 ]

let test_transient_converges_to_stationary () =
  let chain = Markov.Ctmc.create 3 in
  Markov.Ctmc.add_rate chain 0 1 1.0;
  Markov.Ctmc.add_rate chain 1 2 2.0;
  Markov.Ctmc.add_rate chain 2 0 3.0;
  Markov.Ctmc.add_rate chain 0 2 0.5;
  let pi = Markov.Ctmc.stationary chain in
  let d = Markov.Transient.distribution chain ~initial:1 ~horizon:200.0 in
  Array.iteri (fun i v -> check_float 1e-8 "limit = stationary" v d.(i)) pi

let test_occupancy_sums_to_horizon () =
  let chain = Markov.Ctmc.create 2 in
  Markov.Ctmc.add_rate chain 0 1 2.0;
  Markov.Ctmc.add_rate chain 1 0 0.5;
  let occ = Markov.Transient.occupancy chain ~initial:0 ~horizon:7.5 in
  check_float 1e-8 "total time" 7.5 (Array.fold_left ( +. ) 0.0 occ)

let test_expected_firings_poisson () =
  (* one transition with a token self-loop: completions form a Poisson
     process, E[N_t] = rate * t exactly *)
  let teg = Teg.create ~labels:[| "only" |] ~times:[| 1.0 |] in
  Teg.add_place teg ~src:0 ~dst:0 ~tokens:1;
  let chain = analyse ~rates:(fun _ -> 0.8) teg in
  List.iter
    (fun t ->
      check_float 1e-8 (Printf.sprintf "E[N_%g]" t) (0.8 *. t)
        (Markov.Tpn_markov.expected_firings chain ~horizon:t [ 0 ]))
    [ 0.5; 2.0; 25.0 ]

let test_expected_firings_renewal_slope () =
  (* 2-ring: E[N_t]/t tends to the stationary rate from below *)
  let teg = ring [| 1.0; 1.0 |] in
  let chain = analyse ~rates:(fun v -> if v = 0 then 2.0 else 3.0) teg in
  let stationary = Markov.Tpn_markov.throughput_of chain [ 0; 1 ] in
  let at t = Markov.Tpn_markov.expected_firings chain ~horizon:t [ 0; 1 ] /. t in
  Alcotest.(check bool) "monotone towards the rate" true (at 1.0 <= at 10.0 && at 10.0 <= at 100.0);
  check_float 1e-3 "slope at t=1000" stationary (at 1000.0);
  Alcotest.(check bool) "transient slope below stationary" true (at 1.0 < stationary)


(* -- phase-type distributions -- *)

let test_ph_exponential_moments () =
  let ph = Markov.Ph.exponential ~rate:2.0 in
  check_float 1e-12 "mean" 0.5 (Markov.Ph.mean ph);
  check_float 1e-9 "scv" 1.0 (Markov.Ph.scv ph)

let test_ph_erlang_moments () =
  let ph = Markov.Ph.erlang ~phases:4 ~rate:2.0 in
  check_float 1e-12 "mean k/r" 2.0 (Markov.Ph.mean ph);
  check_float 1e-9 "scv 1/k" 0.25 (Markov.Ph.scv ph)

let test_ph_hyperexponential_moments () =
  let ph = Markov.Ph.hyperexponential [ (0.5, 0.4); (0.5, 4.0) ] in
  (* mean = 0.5/0.4 + 0.5/4 = 1.375; m2 = 2(0.5/0.16 + 0.5/16) = 6.3125 *)
  check_float 1e-9 "mean" 1.375 (Markov.Ph.mean ph);
  check_float 1e-9 "scv" ((6.3125 /. (1.375 *. 1.375)) -. 1.0) (Markov.Ph.scv ph);
  Alcotest.(check bool) "high variance" true (Markov.Ph.scv ph > 1.0)

let test_ph_coxian () =
  (* Coxian with continue probability 1 is an Erlang chain *)
  let cox = Markov.Ph.coxian [ (2.0, 1.0); (2.0, 0.0) ] in
  check_float 1e-9 "coxian = erlang mean" (Markov.Ph.mean (Markov.Ph.erlang ~phases:2 ~rate:2.0))
    (Markov.Ph.mean cox);
  Alcotest.check_raises "last stage must absorb"
    (Invalid_argument "Ph.coxian: last stage must absorb") (fun () ->
      ignore (Markov.Ph.coxian [ (1.0, 0.5) ]))

let test_ph_with_mean () =
  let ph = Markov.Ph.with_mean (Markov.Ph.hyperexponential [ (0.3, 1.0); (0.7, 5.0) ]) 4.0 in
  check_float 1e-9 "rescaled mean" 4.0 (Markov.Ph.mean ph);
  (* scv is scale-invariant *)
  check_float 1e-9 "scv preserved"
    (Markov.Ph.scv (Markov.Ph.hyperexponential [ (0.3, 1.0); (0.7, 5.0) ]))
    (Markov.Ph.scv ph)

let test_ph_validate () =
  Alcotest.(check bool) "bad initial sums" true
    (Markov.Ph.validate
       { Markov.Ph.initial = [| 0.5 |]; jump = [| [| 0.0 |] |]; exit = [| 1.0 |] }
    <> Ok ())

(* -- phase-augmented marking chain -- *)

let test_ph_chain_single_server_insensitive () =
  (* one transition with a token self-loop: completions form a renewal
     process of rate 1/mean for ANY law *)
  let teg = Teg.create ~labels:[| "only" |] ~times:[| 1.0 |] in
  Teg.add_place teg ~src:0 ~dst:0 ~tokens:1;
  List.iter
    (fun (name, ph) ->
      let chain = Markov.Tpn_markov_ph.analyse ~ph_of:(fun _ -> ph) teg in
      check_float 1e-9 name (1.0 /. Markov.Ph.mean ph)
        (Markov.Tpn_markov_ph.completion_rate chain 0))
    [
      ("exponential", Markov.Ph.exponential ~rate:0.8);
      ("erlang", Markov.Ph.erlang ~phases:3 ~rate:2.0);
      ("hyper", Markov.Ph.hyperexponential [ (0.4, 0.5); (0.6, 3.0) ]);
      ("coxian", Markov.Ph.coxian [ (2.0, 0.7); (1.0, 0.0) ]);
    ]

let test_ph_chain_ring_alternating () =
  (* two PH transitions in a ring: renewal of rate 1/(m1+m2) *)
  let teg = ring [| 1.0; 1.0 |] in
  let ph0 = Markov.Ph.erlang ~phases:2 ~rate:4.0 in
  let ph1 = Markov.Ph.hyperexponential [ (0.5, 1.0); (0.5, 2.0) ] in
  let chain = Markov.Tpn_markov_ph.analyse ~ph_of:(fun v -> if v = 0 then ph0 else ph1) teg in
  let expected = 1.0 /. (Markov.Ph.mean ph0 +. Markov.Ph.mean ph1) in
  check_float 1e-9 "t0 rate" expected (Markov.Tpn_markov_ph.completion_rate chain 0);
  check_float 1e-9 "t1 rate" expected (Markov.Tpn_markov_ph.completion_rate chain 1)

let test_ph_chain_matches_exponential_chain () =
  (* with exponential laws the phase augmentation is trivial: both chains
     agree on a 2x3 pattern with heterogeneous rates *)
  let rate ~sender ~receiver = 0.5 +. (0.3 *. float_of_int ((2 * sender) + receiver)) in
  let plain = Young.Pattern.exponential_inner_throughput ~u:2 ~v:3 ~rate () in
  let ph =
    Young.Pattern.ph_inner_throughput ~u:2 ~v:3
      ~ph:(fun ~sender ~receiver -> Markov.Ph.exponential ~rate:(rate ~sender ~receiver))
      ()
  in
  check_float 1e-9 "phase chain = marking chain" plain ph

let test_ph_chain_erlang_matches_expansion () =
  List.iter
    (fun k ->
      let via_ph =
        Young.Pattern.ph_inner_throughput ~u:2 ~v:3
          ~ph:(fun ~sender:_ ~receiver:_ -> Markov.Ph.erlang ~phases:k ~rate:(float_of_int k))
          ()
      in
      let via_expansion =
        Young.Pattern.erlang_inner_throughput ~phases:k ~u:2 ~v:3
          ~rate:(fun ~sender:_ ~receiver:_ -> 1.0)
          ()
      in
      check_float 1e-9 (Printf.sprintf "k=%d" k) via_expansion via_ph)
    [ 2; 3 ]

let test_ph_chain_hyper_below_exponential () =
  let hyper = Markov.Ph.with_mean (Markov.Ph.hyperexponential [ (0.5, 0.4); (0.5, 4.0) ]) 1.0 in
  let value =
    Young.Pattern.ph_inner_throughput ~u:2 ~v:3 ~ph:(fun ~sender:_ ~receiver:_ -> hyper) ()
  in
  let expo =
    Young.Pattern.exponential_inner_throughput ~u:2 ~v:3
      ~rate:(fun ~sender:_ ~receiver:_ -> 1.0)
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "hyper %.4f strictly below exponential %.4f" value expo)
    true (value < expo -. 0.05)

(* -- the product walk against the reference explorer -- *)

let random_law st =
  let rate () = 0.5 +. Random.State.float st 2.5 in
  match Random.State.int st 4 with
  | 0 -> Markov.Ph.exponential ~rate:(rate ())
  | 1 -> Markov.Ph.erlang ~phases:(2 + Random.State.int st 2) ~rate:(rate ())
  | 2 ->
      let p = 0.1 +. Random.State.float st 0.8 in
      Markov.Ph.hyperexponential [ (p, rate ()); (1.0 -. p, rate ()) ]
  | _ -> Markov.Ph.coxian [ (rate (), 0.2 +. Random.State.float st 0.7); (rate (), 0.0) ]

(* a ring with one or two tokens, a 2×3 or 3×4 pattern, or a small Strict
   TPN, picked by [kind] *)
let random_net st kind =
  match kind with
  | 0 ->
      let k = 2 + Random.State.int st 3 in
      let teg = Teg.create ~labels:(Array.init k (Printf.sprintf "t%d")) ~times:(Array.make k 1.0) in
      let second = if Random.State.bool st then Random.State.int st (k - 1) else -1 in
      for l = 0 to k - 1 do
        Teg.add_place teg ~src:l ~dst:((l + 1) mod k)
          ~tokens:(if l = k - 1 || l = second then 1 else 0)
      done;
      teg
  | 1 -> Young.Pattern.build ~u:2 ~v:3 ~time:(fun ~sender:_ ~receiver:_ -> 1.0)
  | 2 -> Young.Pattern.build ~u:3 ~v:4 ~time:(fun ~sender:_ ~receiver:_ -> 1.0)
  | _ ->
      let open Streaming in
      let app = Application.create ~work:[| 4.0; 6.0 |] ~files:[| 2.0 |] in
      let platform = Platform.fully_connected ~speeds:[| 1.0; 1.0; 1.0; 1.0 |] ~bw:1.0 in
      let teams =
        [| [| [| 0 |]; [| 1; 2 |] |]; [| [| 0; 1 |]; [| 2 |] |]; [| [| 0; 1 |]; [| 2; 3 |] |] |]
      in
      Tpn.teg (Tpn.build (Mapping.create ~app ~platform ~teams:teams.(Random.State.int st 3)) Model.Strict)

let error_kind f =
  match f () with
  | _ -> "none"
  | exception Supervise.Error.Solver_error e -> (
      match e with
      | Supervise.Error.No_convergence _ -> "no_convergence"
      | State_space_exceeded _ -> "state_space_exceeded"
      | Non_ergodic _ -> "non_ergodic"
      | Numerical _ -> "numerical"
      | Budget_exhausted _ -> "budget_exhausted"
      | Fill_exceeded _ -> "fill_exceeded")

let qcheck_ph_matches_reference =
  QCheck.Test.make ~name:"phase-type product walk = reference explorer" ~count:100
    QCheck.(pair (int_range 0 3) (int_range 0 100_000))
    (fun (kind, seed) ->
      let st = Random.State.make [| 17; kind; seed |] in
      let teg = random_net st kind in
      let laws = Array.init (Teg.n_transitions teg) (fun _ -> random_law st) in
      let ph_of v = laws.(v) in
      let got = Markov.Tpn_markov_ph.analyse ~ph_of teg and want = Ref_ph.analyse ~ph_of teg in
      let n = Markov.Tpn_markov_ph.n_states got in
      let cap = max 1 (n / 2) in
      n = Ref_ph.n_states want
      && List.for_all
           (fun v ->
             let a = Markov.Tpn_markov_ph.completion_rate got v and b = Ref_ph.completion_rate want v in
             abs_float (a -. b) <= 1e-12 *. abs_float b)
           (List.init (Teg.n_transitions teg) Fun.id)
      && error_kind (fun () -> Markov.Tpn_markov_ph.analyse ~cap ~ph_of teg)
         = error_kind (fun () -> Ref_ph.analyse ~cap ~ph_of teg)
      && error_kind (fun () -> Markov.Tpn_markov_ph.analyse ~cap ~ph_of teg) <> "none")

let test_ph_chain_multi_word_phases () =
  (* seven independent servers whose 1024-phase law starts in phase 0 or
     phase 1023, with mean 1/2·1 + 1/2·1/2: ten bits a phase, so the
     phases of one marking need two words, and every field is sometimes
     all ones *)
  let n = 1024 in
  let law =
    {
      Markov.Ph.initial = Array.init n (fun i -> if i = 0 || i = n - 1 then 0.5 else 0.0);
      jump = Array.init n (fun i -> Array.init n (fun j -> if j = 0 && i > 0 && i < n - 1 then 1.0 else 0.0));
      exit = Array.init n (fun i -> if i = 0 then 1.0 else if i = n - 1 then 2.0 else 0.0);
    }
  in
  let k = 7 in
  let teg = Teg.create ~labels:(Array.init k (Printf.sprintf "s%d")) ~times:(Array.make k 1.0) in
  for v = 0 to k - 1 do
    Teg.add_place teg ~src:v ~dst:v ~tokens:1
  done;
  let got = Markov.Tpn_markov_ph.analyse ~ph_of:(fun _ -> law) teg in
  let want = Ref_ph.analyse ~ph_of:(fun _ -> law) teg in
  Alcotest.(check int) "2^7 phase vectors" 128 (Markov.Tpn_markov_ph.n_states got);
  Alcotest.(check int) "as the reference" (Ref_ph.n_states want) (Markov.Tpn_markov_ph.n_states got);
  for v = 0 to k - 1 do
    check_float 1e-12 "renewal rate 1/mean" (1.0 /. 0.75)
      (Markov.Tpn_markov_ph.completion_rate got v);
    check_float 1e-12 "as the reference" (Ref_ph.completion_rate want v)
      (Markov.Tpn_markov_ph.completion_rate got v)
  done

let test_ph_chain_non_ergodic () =
  (* from its first phase the law jumps into one of two closed pairs of
     phases that never absorb: in a two-transition ring, each marking's
     one enabled transition can be caught in either pair, so four bottom
     classes of two states *)
  let trap =
    {
      Markov.Ph.initial = [| 1.0; 0.0; 0.0; 0.0; 0.0 |];
      jump =
        [|
          [| 0.0; 1.0; 0.0; 1.0; 0.0 |];
          [| 0.0; 0.0; 1.0; 0.0; 0.0 |];
          [| 0.0; 1.0; 0.0; 0.0; 0.0 |];
          [| 0.0; 0.0; 0.0; 0.0; 1.0 |];
          [| 0.0; 0.0; 0.0; 1.0; 0.0 |];
        |];
      exit = [| 1.0; 0.0; 0.0; 0.0; 0.0 |];
    }
  in
  let teg = ring [| 1.0; 1.0 |] in
  let expected = Supervise.Error.Non_ergodic { recurrent = 8; transient = 2 } in
  Alcotest.check_raises "product walk" (Supervise.Error.Solver_error expected) (fun () ->
      ignore (Markov.Tpn_markov_ph.analyse ~ph_of:(fun _ -> trap) teg));
  Alcotest.check_raises "reference" (Supervise.Error.Solver_error expected) (fun () ->
      ignore (Ref_ph.analyse ~ph_of:(fun _ -> trap) teg))

let () =
  Alcotest.run "markov"
    [
      ( "ctmc",
        [
          Alcotest.test_case "two states" `Quick test_ctmc_two_state;
          Alcotest.test_case "rate accumulation" `Quick test_ctmc_add_rate_accumulates;
          Alcotest.test_case "solvers agree" `Quick test_ctmc_solvers_agree;
          Alcotest.test_case "GTH solves and factor entries counted" `Quick test_ctmc_gth_counters;
        ] );
      ( "tpn markov",
        [
          Alcotest.test_case "self loop" `Quick test_self_loop_rate;
          Alcotest.test_case "alternating renewal" `Quick test_alternating_renewal;
          Alcotest.test_case "k-ring" `Quick test_ring_k_rate;
          Alcotest.test_case "independent rings" `Quick test_independent_rings_product_chain;
          Alcotest.test_case "rate validation" `Quick test_rate_validation;
          Alcotest.test_case "markov vs simulation" `Slow test_markov_vs_simulation;
        ] );
      ( "transient",
        [
          Alcotest.test_case "t = 0" `Quick test_transient_distribution_t0;
          Alcotest.test_case "two-state exact" `Quick test_transient_two_state_exact;
          Alcotest.test_case "limit = stationary" `Quick test_transient_converges_to_stationary;
          Alcotest.test_case "occupancy total" `Quick test_occupancy_sums_to_horizon;
          Alcotest.test_case "poisson counts" `Quick test_expected_firings_poisson;
          Alcotest.test_case "renewal slope" `Quick test_expected_firings_renewal_slope;
        ] );
      ( "phase type",
        [
          Alcotest.test_case "exponential moments" `Quick test_ph_exponential_moments;
          Alcotest.test_case "erlang moments" `Quick test_ph_erlang_moments;
          Alcotest.test_case "hyperexponential moments" `Quick test_ph_hyperexponential_moments;
          Alcotest.test_case "coxian" `Quick test_ph_coxian;
          Alcotest.test_case "with_mean" `Quick test_ph_with_mean;
          Alcotest.test_case "validate" `Quick test_ph_validate;
          Alcotest.test_case "single server insensitive" `Quick test_ph_chain_single_server_insensitive;
          Alcotest.test_case "alternating ring" `Quick test_ph_chain_ring_alternating;
          Alcotest.test_case "matches exponential chain" `Quick test_ph_chain_matches_exponential_chain;
          Alcotest.test_case "matches erlang expansion" `Quick test_ph_chain_erlang_matches_expansion;
          Alcotest.test_case "hyper below exponential" `Quick test_ph_chain_hyper_below_exponential;
          QCheck_alcotest.to_alcotest qcheck_ph_matches_reference;
          Alcotest.test_case "multi-word phase codes" `Quick test_ph_chain_multi_word_phases;
          Alcotest.test_case "non-ergodic as the reference" `Quick test_ph_chain_non_ergodic;
        ] );
    ]
