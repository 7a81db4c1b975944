type quality =
  | Exact
  | Iterative of { residual : float }
  | Simulated of { ci : float }

type attempt = { rung : string; outcome : (quality, Error.t) result }

type t = { quality : quality; degraded : bool; attempts : attempt list }

let quality_to_string = function
  | Exact -> "exact"
  | Iterative { residual } -> Printf.sprintf "iterative (residual %.3g)" residual
  | Simulated { ci } -> Printf.sprintf "simulated (95%% ci half-width %.3g)" ci

let exact = { quality = Exact; degraded = false; attempts = [] }

let solved ~rung ~prior quality =
  {
    quality;
    degraded = (prior <> [] || match quality with Simulated _ -> true | _ -> false);
    attempts = prior @ [ { rung; outcome = Ok quality } ];
  }

let describe t =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (quality_to_string t.quality);
  List.iter
    (fun a ->
      match a.outcome with
      | Ok q -> Buffer.add_string buf (Printf.sprintf "; %s: %s" a.rung (quality_to_string q))
      | Error e -> Buffer.add_string buf (Printf.sprintf "; %s: %s" a.rung (Error.to_string e)))
    t.attempts;
  Buffer.contents buf
