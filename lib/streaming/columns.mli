(** Per-column decomposition of the Overlap TPN (Theorems 1, 3, 4).

    Under the Overlap model, every cycle of the TPN stays within a single
    column, and the columns form a feed-forward DAG of strongly connected
    components: one component per processor in a computation column, and
    [g = gcd(R_i, R_{i+1})] pattern components in a communication column.

    The steady-state throughput follows by saturation: a component's
    per-row rate is the minimum of its own inner per-row rate and the
    per-row rates of the components feeding its rows; the global
    throughput is the sum over the rows of their final rates.  (The
    paper's Theorem 4 states the same min-composition per component; the
    per-row normalisation makes it exact when components span different
    row subsets.) *)

type communication = {
  file : int;  (** file index [0 .. N-2] *)
  residue : int;  (** component id within the column: rows ≡ residue (mod g) *)
  u : int;  (** senders in the pattern, [R_i / g] *)
  v : int;  (** receivers in the pattern, [R_{i+1} / g] *)
  senders : int array;  (** processor id per sender slot *)
  receivers : int array;  (** processor id per receiver slot *)
}

type component =
  | Compute of { stage : int; proc : int }
  | Communication of communication

val pattern_time : Mapping.t -> communication -> sender:int -> receiver:int -> float
(** Nominal transfer time between the processors of two pattern slots. *)

val is_homogeneous : Mapping.t -> communication -> bool
(** Whether all links of the component share the same nominal time. *)

val components : Mapping.t -> component list
(** All components, column by column from the first stage to the last. *)

val propagate : Mapping.t -> component array -> float array -> float
(** [propagate mapping comps inners] propagates per-row rates down the
    columns, where [comps] is {!components} in order and [inners.(k)] is
    the inner throughput of [comps.(k)] (data sets per time unit for the
    whole component, in isolation).  Callers whose [inner] is cheap compute
    [inners] themselves: {!Deterministic.overlap_throughput_decomposed}
    maps its closed forms and critical cycles with [Array.map] in the
    calling domain. *)

val fold_throughput : ?pool:Parallel.Pool.t -> Mapping.t -> inner:(component -> float) -> float
(** {!propagate} over [Array.map inner] of the components, with the
    [inner] calls run on [pool] (default {!Parallel.Pool.get}).  The
    {!Expo} values use it, because their [inner] is a CTMC solve; [inner]
    must therefore be safe to call from several domains, which every
    solver in this repository is.  The result is identical for every pool
    size. *)

(** {1 Pruned folds} *)

type bound =
  | Exact of float  (** the component's inner throughput itself *)
  | Between of { lower : float; upper : float }
      (** bounds on an inner throughput that takes a solve to know *)

val skip_margin : float
(** [1e-9]: the relative slack of the skip test and of the bound check of
    {!fold_pruned}, far above the error of an exact solve. *)

val fold_pruned :
  ?pool:Parallel.Pool.t ->
  Mapping.t ->
  bound:(communication -> bound) ->
  solve:(communication -> float) ->
  skip:(communication -> unit) ->
  float
(** {!fold_throughput} that solves only the communication components
    that can set a row's rate.  A computation component runs at
    1/mean, its inner rate under every law.  The fold first propagates
    the upper bounds (the [Exact] value, else [upper]), which bounds each
    component's input rate per row from above, because {!propagate} is
    monotone in every inner rate.  A [Between] component whose [lower]
    per row, shrunk by {!skip_margin}, still reaches that input bound
    cannot change the answer: {!propagate}'s [min] keeps its input, so it
    gets +∞ and [skip] runs on it instead of [solve].  Both run on [pool]
    (default {!Parallel.Pool.get}); the others' [solve] values are
    propagated as they are.  When every component's exact rate lies
    within its bounds, the result is the float {!fold_throughput} gives
    with [solve] on every communication component.  Each solved value is
    checked against its bounds (up to the margin), and one outside them
    counts in [solver_invariant_violations_total{check="pattern_bounds"}].
    An exception from [solve] or [skip] propagates. *)
