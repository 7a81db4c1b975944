(** A CTMC generator in compressed-sparse-row form, and the iterative
    stationary solvers that sweep it.

    The exact solver, {!Gth}, eliminates on the same CSR rows, but its
    fill grows quickly on the Young-diagram pattern chains of Theorem 3
    and the marking chains of the general method, so beyond 1200 states
    the CTMC layer switches to the iterative solvers here. *)

type t
(** A CTMC generator: edges accumulate in flat append-only arrays and are
    frozen on first use into compressed-sparse-row form (outgoing and
    incoming), with duplicate i → j entries merged in insertion order.
    Further [add_rate] calls simply invalidate the frozen view. *)

val create : int -> t
(** [create n] is an empty generator over states [0..n-1]. *)

val add_rate : t -> int -> int -> float -> unit
(** [add_rate t i j r] adds rate [r] to the transition i → j (i ≠ j, r > 0). *)

val size : t -> int

val nnz : t -> int
(** Number of inserted edges (before duplicate merging). *)

val exit_rate : t -> int -> float

val outgoing : t -> int -> (int * float) list
(** Merged outgoing transitions of a state, in first-insertion order. *)

val rate : t -> int -> int -> float
(** Merged rate of i → j; 0 if absent. *)

val iter_outgoing : t -> int -> (int -> float -> unit) -> unit
(** [iter_outgoing t i f] calls [f j r] for every merged edge i → j without
    allocating. *)

type stats = { sweeps : int; residual : float }
(** What an iterative solve achieved: sweeps executed and the L1 residual
    of π·Q at the final iterate — the raw material of a result's
    provenance record. *)

val stationary_gauss_seidel_stats :
  ?budget:Supervise.Budget.t -> ?tol:float -> ?max_sweeps:int -> t -> float array * stats
(** Gauss–Seidel iteration on the balance equations
    π_j · exit_j = Σ_i π_i q_{ij}, renormalised each sweep, with the sweep
    count and achieved residual of the successful solve.  Converges for
    irreducible chains; raises [Supervise.Error.Solver_error
    (No_convergence _)] — carrying the sweeps spent and the residual
    achieved — if the tolerance (default 1e-12 on the L1 residual) is not
    met within [max_sweeps] (default 100_000).  The residual — itself a
    full sweep — is only evaluated every 8th sweep, and the [budget]'s
    wall deadline is polled at the same cadence ([Budget_exhausted] when
    it fires); the budget's sweep ceiling tightens [max_sweeps]. *)

val stationary_power_stats :
  ?budget:Supervise.Budget.t -> ?tol:float -> ?max_iters:int -> t -> float array * stats
(** Power iteration on the uniformised chain, with the iteration count and
    the L1 residual of the final iterate (one extra residual pass); slower
    than Gauss–Seidel but useful as an independent cross-check of it.
    Failure and budget behaviour as in {!stationary_gauss_seidel_stats}.

    Sweeps of chains larger than 2¹⁵ states run on a cache-blocked edge
    ordering (edges grouped by 8192-column destination blocks, row-major
    within a block) — bit-identical results, memory-bandwidth-bound
    scatters. *)

val stationary_arnoldi_stats :
  ?budget:Supervise.Budget.t ->
  ?tol:float ->
  ?restart:int ->
  ?max_matvecs:int ->
  t ->
  float array * stats
(** Restarted Arnoldi on the uniformised chain P = I + Q/λ: an [restart]-
    dimensional (default 30) Krylov basis is built by modified
    Gram–Schmidt, the stationary direction is approximated by the Ritz
    vector of the dominant eigenpair of the small Hessenberg projection,
    clamped to the nonnegative cone and L1-normalised, and the process
    restarts from it until the L1 residual ‖πQ‖₁ meets [tol] (default
    1e-10).  Each basis extension is one matvec, counted against
    [max_matvecs] (default 100_000) and against the [budget]'s sweep
    ceiling; its wall deadline is polled at the usual cadence.  Raises
    [No_convergence] with matvecs spent and residual achieved, like the
    other iterative solvers, and reports them on success.  Sweeps share
    the blocked-CSR path of {!stationary_power_stats}. *)
