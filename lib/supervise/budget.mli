(** Per-solve resource budgets, checked cooperatively by the solvers.

    A budget bounds one solve along three axes: wall-clock time (checked
    every few sweeps of the iterative solvers and every batch of
    registered states in the explorers), iteration count (folded into the
    solver's sweep ceiling), and state count (folded into the explorer's
    cap).  Exceeding the deadline raises
    [Error.Solver_error (Budget_exhausted _)]; the other two axes surface
    through the solver's own [No_convergence] / [State_space_exceeded]
    errors with the tightened limits. *)

type t

val unlimited : t
(** No deadline, no sweep ceiling, no state cap: the behaviour of every
    solver when no budget is passed. *)

val create : ?wall:float -> ?sweeps:int -> ?states:int -> unit -> t
(** [create ()] starts the clock now.  [wall] is in seconds of the
    monotonic clock ({!Obs.Clock}), so a step of the system clock neither
    expires nor stretches it; [sweeps] caps iterative sweeps; [states]
    caps explored states. *)

val elapsed : t -> float
(** Seconds since {!create} on the monotonic clock (meaningless for
    {!unlimited}). *)

val check : t -> unit
(** Raises [Error.Solver_error (Budget_exhausted _)] once the wall
    deadline has passed; cheap enough to call inside sweep loops. *)

val sweeps_allowed : t -> int -> int
(** [sweeps_allowed b default] is the solver's effective sweep ceiling. *)

val cap_allowed : t -> int -> int
(** [cap_allowed b default] is the explorer's effective state cap. *)

val restart : t -> t
(** Same limits, wall clock restarted now — the budget handed to a
    degraded retry of a failed experiment point. *)
