(** Per-solve resource budgets, checked cooperatively by the solvers.

    A budget bounds one solve along three axes: wall-clock time (checked
    every few Gauss–Seidel sweeps, every batch of rows the GTH
    elimination finishes and every batch of registered states in the
    explorers), iteration count (folded into Gauss–Seidel's sweep
    ceiling), and state count (folded into the explorer's cap).
    Exceeding the deadline raises [Error.Solver_error (Budget_exhausted
    _)]; the other two axes surface through the solver's own
    [No_convergence] / [State_space_exceeded] errors with the tightened
    limits.  GTH takes no sweeps: besides the deadline, only its own
    fill bound ([Fill_exceeded]) stops it. *)

type t

val unlimited : t
(** No deadline, no sweep ceiling, no state cap: the behaviour of every
    solver when no budget is passed. *)

val create : ?wall:float -> ?sweeps:int -> ?states:int -> unit -> t
(** [create ()] starts the clock now.  [wall] is in seconds of the
    monotonic clock ({!Obs.Clock}), so a step of the system clock neither
    expires nor stretches it; [sweeps] caps Gauss–Seidel sweeps;
    [states] caps explored states. *)

val of_limits : ?wall:float -> ?sweeps:int -> ?states:int -> unit -> t option
(** [None] when no limit is given (the solver runs unbudgeted), else
    [Some (create ?wall ?sweeps ?states ())] — the per-request and
    per-candidate budget of the daemon and the optimizer. *)

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
