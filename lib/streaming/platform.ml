type t = { speeds : float array; bandwidth : float array array }

let create_owned ~speeds ~bandwidth =
  let m = Array.length speeds in
  if m = 0 then invalid_arg "Platform.create: no processors";
  (* plain loops: a closure over a float array would box every element *)
  for p = 0 to m - 1 do
    if speeds.(p) <= 0.0 then invalid_arg "Platform.create: speed must be positive"
  done;
  if Array.length bandwidth <> m then invalid_arg "Platform.create: bandwidth matrix size mismatch";
  for p = 0 to m - 1 do
    let row = bandwidth.(p) in
    if Array.length row <> m then invalid_arg "Platform.create: bandwidth matrix not square";
    for q = 0 to m - 1 do
      if p <> q && row.(q) <= 0.0 then invalid_arg "Platform.create: bandwidth must be positive"
    done
  done;
  { speeds; bandwidth }

let create ~speeds ~bandwidth =
  create_owned ~speeds:(Array.copy speeds) ~bandwidth:(Array.map Array.copy bandwidth)

let of_link_function ~n ~speeds ~bw =
  if Array.length speeds <> n then invalid_arg "Platform.of_link_function: speeds size mismatch";
  let bandwidth = Array.init n (fun p -> Array.init n (fun q -> if p = q then 1.0 else bw p q)) in
  create ~speeds ~bandwidth

let fully_connected ~speeds ~bw =
  of_link_function ~n:(Array.length speeds) ~speeds ~bw:(fun _ _ -> bw)

let n_processors t = Array.length t.speeds
let speed t p = t.speeds.(p)
let bandwidth t ~src ~dst = t.bandwidth.(src).(dst)

let pp ppf t =
  Format.fprintf ppf "platform with %d processors@\n" (n_processors t);
  Array.iteri (fun p s -> Format.fprintf ppf "  P%d speed=%g@\n" p s) t.speeds
