(** Grassmann–Taksar–Heyman (GTH) stationary-distribution solver.

    GTH is a pivoting-free Gaussian elimination specialised to Markov
    chains: it uses only additions of non-negative quantities, which makes
    it numerically stable even for badly conditioned generators — exactly
    what the nearly-decoupled chains arising from heterogeneous mappings
    produce.

    The elimination runs on the frozen CSR rows of the generator, row by
    row from state n−1 down to 0 (Stewart, {e Introduction to the
    Numerical Solution of Markov Chains}, 1994, on sparse direct methods).
    Row i is scattered into one dense accumulator x; for every non-zero
    x_k, with k going from the row's highest column down to i+1, it keeps
    U(i,k) = x_k / s_k and, when that is positive, adds U(i,k)·L(k,j) into
    x_j for every stored j ≠ i of row k; it then gathers x_j, j < i, in
    ascending order into L(i,·) and its sum s_i.  Back-substitution pushes
    π_i·U(i,k) into π_k for ascending i.

    Bit-identity: this performs the classic dense GTH loop's floating-point
    operations in the same order, minus terms that are exact zeros added to
    a non-negative sum — so as long as every intermediate is finite (no
    overflow to infinity, whose product with a zero would be NaN), every
    float of the result equals the dense solver's.

    Cost: O(n + fill) memory and O(Σ_(i,k ∈ U) |L(k,·)|) multiply-adds,
    plus a heap operation per pattern entry above the diagonal; no n×n
    matrix is built.  The working storage (factor buffers and per-state
    arrays) is kept between solves, one set per domain and only while it
    is at most 16 MB, so a stream of similar chains allocates little
    beyond its results.  A solve that runs while another holds its
    domain's set allocates its own: concurrent solves from any thread or
    domain are safe.  A solve that raises keeps nothing, so the next one
    on its domain starts from fresh storage.

    Bound: the elimination stores at most 2{^22} L and U entries
    (8 Mi words of column and value, as the shape cache).  It compares its
    count with that bound once per finished row and raises
    [Supervise.Error.Solver_error (Fill_exceeded _)] past it, so it can
    close any ladder without exhausting memory; a solve overshoots by at
    most one row's entries. *)

val stationary : Sparse.t -> float array
(** [stationary q] returns the stationary distribution π (πQ = 0, Σπ = 1)
    of the irreducible chain whose off-diagonal transition rates (or
    probabilities) are the merged entries of [q].  Raises
    [Supervise.Error.Solver_error (Numerical _)] if the chain is reducible
    (a state with no outflow mass into the states below it is reached
    during elimination; the message names that state), and
    [Fill_exceeded _] past the fill bound. *)

val stationary_stats : ?budget:Supervise.Budget.t -> Sparse.t -> float array * int
(** As {!stationary}, also returning the number of L and U entries the
    elimination stored: every column a row's pattern reached (the
    generator's entries plus fill), less U entries that rounded to zero.
    A tridiagonal chain has no fill: 2(n−1) entries.  The [budget]'s wall
    deadline is polled after every 64 finished rows ([Budget_exhausted]
    when it has passed); its sweep ceiling does not apply. *)
