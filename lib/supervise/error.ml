type t =
  | No_convergence of { sweeps : int; residual : float }
  | State_space_exceeded of { cap : int; explored : int }
  | Non_ergodic of { recurrent : int; transient : int }
  | Numerical of { what : string; where : string }
  | Budget_exhausted of { elapsed : float }
  | Fill_exceeded of { entries : int; bound : int }

exception Solver_error of t

let to_string = function
  | No_convergence { sweeps; residual } ->
      Printf.sprintf "no convergence after %d sweeps (achieved residual %.3g)" sweeps residual
  | State_space_exceeded { cap; explored } ->
      Printf.sprintf "state space exceeded: explored %d markings, cap %d" explored cap
  | Non_ergodic { recurrent; transient } ->
      Printf.sprintf "non-ergodic chain: %d recurrent state(s) not in a unique class, %d transient"
        recurrent transient
  | Numerical { what; where } -> Printf.sprintf "numerical failure in %s: %s" where what
  | Budget_exhausted { elapsed } ->
      Printf.sprintf "budget exhausted after %.3g s of wall clock" elapsed
  | Fill_exceeded { entries; bound } ->
      Printf.sprintf "exact elimination stored %d factor entries, past its bound of %d" entries bound

let raise_ e = raise (Solver_error e)

(* Recoverable failures are properties of the *instance/budget pair* — a
   different candidate, cap or budget may succeed — so searches may demote
   the candidate and move on.  The others flag a broken model or a numeric
   invariant violation: routing around them would hide programming errors. *)
let is_recoverable = function
  | State_space_exceeded _ | No_convergence _ | Budget_exhausted _ | Fill_exceeded _ -> true
  | Non_ergodic _ | Numerical _ -> false

let () =
  Printexc.register_printer (function
    | Solver_error e -> Some ("Solver_error: " ^ to_string e)
    | _ -> None)
