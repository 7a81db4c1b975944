(** Typed failure taxonomy of the throughput solvers.

    Every solver entry point of the reproduction — the stationary solvers
    of [Linalg], the marking-space explorer of [Petrinet], the
    recurrent-class pass of [Markov.Tpn_markov] (marking and phase-type
    chains alike), and the throughput drivers built on them —
    reports failure as a {!Solver_error} carrying one of these values
    instead of a bare [Failure _].  Callers can therefore distinguish
    "the chain is too big" from "the iteration stalled" from "the model
    is broken" and react per case (escalate a ladder rung, retry with a
    degraded budget, or surface an actionable message). *)

type t =
  | No_convergence of { sweeps : int; residual : float }
      (** Gauss–Seidel hit its sweep ceiling; [residual] is the L1
          residual achieved when it gave up. *)
  | State_space_exceeded of { cap : int; explored : int }
      (** A state-space exploration outgrew its cap after registering
          [explored] states — the signature of a token-unbounded net or an
          over-replicated pattern. *)
  | Non_ergodic of { recurrent : int; transient : int }
      (** The marking chain has no unique recurrent class ([recurrent]
          states sit in zero or several bottom components). *)
  | Numerical of { what : string; where : string }
      (** A numeric invariant broke ([what]) inside function [where] —
          reducible generator, zero distribution mass, singular matrix. *)
  | Budget_exhausted of { elapsed : float }
      (** A cooperative wall-clock deadline fired [elapsed] seconds into
          the solve. *)
  | Fill_exceeded of { entries : int; bound : int }
      (** The exact GTH elimination had stored [entries] L and U entries
          (the generator's plus fill), more than its [bound], when a row
          finished: the chain's fill is too large to eliminate. *)

exception Solver_error of t

val to_string : t -> string
(** One-line description, suitable for logs and CLI error messages. *)

val raise_ : t -> 'a
(** [raise_ e] is [raise (Solver_error e)]. *)

val is_recoverable : t -> bool
(** Whether a search may treat the failure as information about the
    candidate/budget pair and move on ([State_space_exceeded],
    [No_convergence], [Budget_exhausted], [Fill_exceeded]) rather than a
    broken model that must propagate ([Non_ergodic], [Numerical]).  This
    is the demotion contract of [Mapper.evaluate] and the [Optimize]
    objective layer. *)
