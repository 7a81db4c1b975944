type t = { lower : float; upper : float }

let compute ?cap mapping model =
  let upper, _ = Throughput.solve Throughput.Deterministic model mapping in
  let lower, _ = Throughput.solve ?cap Throughput.Exponential model mapping in
  { lower; upper }

let contains ?(slack = 0.02) t rho =
  rho >= t.lower *. (1.0 -. slack) && rho <= t.upper *. (1.0 +. slack)

let width t = (t.upper -. t.lower) /. t.upper
