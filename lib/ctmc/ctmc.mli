(** Continuous-time Markov chains with a pluggable stationary solver. *)

type t

val create : int -> t
(** [create n] is an empty chain over states [0..n-1]. *)

val add_rate : t -> int -> int -> float -> unit
(** Accumulates rate onto the i → j transition. *)

val n_states : t -> int

type rung = Rung_gth | Rung_gauss_seidel of { tol : float }
(** One step of an escalation ladder: exact GTH elimination under its fill
    bound ({!Linalg.Gth}), or Gauss–Seidel asked to reach an L1 residual
    of [tol] ({!Linalg.Sparse.stationary_gauss_seidel_stats}). *)

val default_ladder : int -> rung list
(** The standard ladder for an [n]-state chain, cheapest first: GTH then
    Gauss–Seidel at 1e-12 up to 1200 states, Gauss–Seidel at 1e-12 then
    GTH above.  Either rung is the other's backstop: Gauss–Seidel for a
    chain past GTH's fill bound, GTH for a chain on which Gauss–Seidel
    stalls. *)

val stationary : t -> float array
(** Stationary distribution of an irreducible chain on the first rung of
    {!default_ladder} alone: the numerically exact GTH elimination
    ({!Linalg.Gth}, on the generator's CSR rows) up to 1200 states, sparse
    Gauss–Seidel at 1e-12 beyond, where GTH's fill outgrows Gauss–Seidel's
    sweeps.  Raises that rung's [Supervise.Error.Solver_error] instead of
    climbing.  Every GTH solve, here or on a ladder rung, counts in
    [ctmc_gth_solves_total] and adds its L and U entries to
    [ctmc_gth_factor_entries_total]. *)

val stationary_supervised :
  ?budget:Supervise.Budget.t -> ?ladder:rung list -> t -> float array * Supervise.Provenance.t
(** Climbs the ladder (default {!default_ladder}) until a rung succeeds,
    returning the distribution together with a provenance record listing
    every attempt.  A success on any rung after the first is marked
    degraded.  Raises the last rung's [Supervise.Error.Solver_error] if
    all rungs fail, and stops climbing immediately on [Budget_exhausted]
    (a spent wall clock fails every later rung too).  The [budget] is
    threaded into both rungs: its sweep ceiling and wall deadline bound
    Gauss–Seidel, and its wall deadline bounds GTH, which is otherwise
    bounded by its fill. *)

val lump : ?verify:bool -> t -> classes:int array -> n_classes:int -> t
(** Exact-lumpability quotient: [classes.(i)] is the class of state [i]
    (class ids [0 .. n_classes-1], every class non-empty).  The quotient
    chain's row for a class is the aggregate row of its lowest-numbered
    member, with intra-class rates dropped (they are quotient self-loops).
    With [verify] (default [true]) every state's aggregate rates into
    other classes are checked against its representative's, within
    relative 1e-9 — a partition that fails the check is not lumpable and
    raises [Supervise.Error.Solver_error (Numerical _)].  Cost: O(nnz)
    with verification, O(classes + their rows) without. *)

val lift : classes:int array -> n_classes:int -> float array -> float array
(** [lift ~classes ~n_classes pi_hat] spreads each class's stationary mass
    uniformly over its members: π(i) = π̂(classes i) / |class|.  Exact when
    the partition is the orbit partition of a rate-preserving automorphism
    of the generator (the Young-lattice rotation quotients built by
    {!Young.Pattern}); for general lumpable partitions only the class sums
    are meaningful. *)

val iter_outgoing : t -> int -> (int -> float -> unit) -> unit
(** Allocation-free iteration over the merged outgoing edges of a state. *)

val exit_rate : t -> int -> float
val max_exit_rate : t -> float
