type t = {
  started : int;  (** {!Obs.Clock.now_ns} at creation *)
  wall : float option;
  max_sweeps : int option;
  state_cap : int option;
}

let unlimited = { started = 0; wall = None; max_sweeps = None; state_cap = None }

let create ?wall ?sweeps ?states () =
  (match wall with
  | Some w when w <= 0.0 -> invalid_arg "Budget.create: wall must be positive"
  | _ -> ());
  (match sweeps with
  | Some s when s < 1 -> invalid_arg "Budget.create: sweeps must be at least 1"
  | _ -> ());
  (match states with
  | Some c when c < 1 -> invalid_arg "Budget.create: states must be at least 1"
  | _ -> ());
  { started = Obs.Clock.now_ns (); wall; max_sweeps = sweeps; state_cap = states }

let of_limits ?wall ?sweeps ?states () =
  match (wall, sweeps, states) with
  | None, None, None -> None
  | _ -> Some (create ?wall ?sweeps ?states ())

let elapsed b = Obs.Clock.ns_to_s (Obs.Clock.now_ns () - b.started)

let check b =
  match b.wall with
  | None -> ()
  | Some w ->
      let e = elapsed b in
      if e > w then Error.raise_ (Error.Budget_exhausted { elapsed = e })

let sweeps_allowed b default =
  match b.max_sweeps with None -> default | Some s -> min s default

let cap_allowed b default = match b.state_cap with None -> default | Some c -> min c default

let restart b = { b with started = Obs.Clock.now_ns () }
