(** A CTMC generator in compressed-sparse-row form, and Gauss–Seidel,
    the iterative stationary solver that sweeps it.

    The exact solver, {!Gth}, eliminates on the same CSR rows, but its
    fill grows quickly on the Young-diagram pattern chains of Theorem 3
    and the marking chains of the general method, so beyond 1200 states
    the CTMC layer tries Gauss–Seidel first and keeps GTH, under its fill
    bound, as the exact backstop. *)

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

val iter_outgoing : t -> int -> (int -> float -> unit) -> unit
(** [iter_outgoing t i f] calls [f j r] for every merged edge i → j without
    allocating. *)

type stats = { sweeps : int; residual : float }
(** What a Gauss–Seidel solve achieved: sweeps executed and the L1 residual
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
