(** Maximum cycle ratio of a weighted, token-carrying digraph.

    For a timed event graph, the steady-state period is
    max over cycles C of (sum of firing times on C) / (sum of tokens on C)
    (Baccelli et al., "Synchronization and Linearity").  This module solves
    that maximisation with Howard's policy iteration, run on each strongly
    connected component (Cochet-Terrasson et al., "Numerical computation
    of spectral elements in max-plus algebra"): keep one out-edge per node,
    evaluate the cycles of that policy graph, and switch a node's edge
    while a neighbour offers a larger ratio, or an equal ratio with a
    larger potential.  The answer is the exact rational ratio of a cycle
    of the final policy graph. *)

exception Unbounded
(** Raised when a cycle carries no token: the event graph is not live
    and the ratio is unbounded. *)

type result = {
  ratio : float;
      (** the maximum cycle ratio: Σweight / Σtokens over [cycle], summed
          in its order *)
  cycle : Digraph.edge list;
      (** a critical cycle achieving it, starting at the edge with the
          smallest source node.  When several cycles tie, the first one in
          {!Digraph.sccs} order wins. *)
}

val max_cycle_ratio : Digraph.t -> result option
(** [None] when the graph has no cycle at all.  Raises {!Unbounded} if a
    zero-token cycle exists.  The ratio is certified: the iteration stops
    only when an improvement pass switches no edge, so a cycle can beat
    the answer by at most about 1e-10 · max(1, max |weight|) per edge of
    that cycle, the switching tolerance.  An
    iteration that does not settle within 4·(k² + e) passes on a
    component of k nodes and e edges raises
    [Supervise.Error.Solver_error (No_convergence _)] rather than return a
    ratio below the maximum. *)

val max_cycle_ratio_flat :
  first:int array -> dst:int array -> weight:float array -> tokens:int array -> float
(** The same Howard iteration on a graph held in flat arrays, for callers
    that would otherwise build a {!Digraph.t} per solve: node [i]'s
    out-edges are [first.(i) .. first.(i + 1) - 1] (so [first] has one
    more entry than there are nodes), and edge [e] goes to node [dst.(e)]
    with [weight.(e)] and [tokens.(e)].

    Precondition, not checked: the graph is strongly connected, has at
    least one edge, and every cycle carries a token.  No Tarjan pass or
    liveness check runs.  Under it the result is {!max_cycle_ratio}'s
    ratio, bit for bit, on the {!Digraph.t} that adds node 0's edges in
    order, then node 1's, and so on: the tolerance, tie rules and pass
    cap are shared, and the ratio is summed along the witness from its
    smallest node. *)

val karp_max_cycle_mean : Digraph.t -> float option
(** Karp's algorithm for the maximum cycle *mean* (every edge counted as
    one token); used as an independent cross-check when all edges carry
    exactly one token. [None] when acyclic. *)
