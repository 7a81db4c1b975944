type law = Deterministic | Exponential | Erlang of int | Ph of Markov.Ph.t

let law_of_string s =
  match String.split_on_char ':' s with
  | [ "deterministic" ] -> Ok Deterministic
  | [ "exponential" ] -> Ok Exponential
  | [ "erlang"; k ] -> (
      match int_of_string_opt k with
      | Some k when k >= 1 -> Ok (Erlang k)
      | _ -> Error "erlang:K needs a positive integer phase count")
  | _ -> Error (Printf.sprintf "unknown law %S (deterministic|exponential|erlang:K)" s)

let law_to_string = function
  | Deterministic -> "deterministic"
  | Exponential -> "exponential"
  | Erlang k -> Printf.sprintf "erlang:%d" k
  | Ph { Markov.Ph.initial; jump; exit } ->
      let bits a = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a)) in
      Printf.sprintf "ph:%s/%s/%s" (bits initial)
        (String.concat ";" (Array.to_list (Array.map bits jump)))
        (bits exit)

let default_cap = 500_000

(* pattern solves take no budget of their own: its wall deadline is
   checked once up front and its state ceiling tightens the cap *)
let pattern_cap ?budget cap =
  match budget with
  | None -> cap
  | Some b ->
      Supervise.Budget.check b;
      Supervise.Budget.cap_allowed b cap

let exact rho = (rho, Supervise.Provenance.exact)

(* a phase-type law is a shape: each resource gets it at its nominal mean *)
let ph_of law mapping r = Markov.Ph.with_mean law (Mapping.mean_time mapping r)

let solve ?(cap = default_cap) ?budget ?simulate law model mapping =
  match (law, model) with
  | Deterministic, _ -> exact (Deterministic.throughput mapping model)
  | Exponential, Model.Overlap ->
      exact (Expo.overlap_throughput ~pattern_cap:(pattern_cap ?budget cap) mapping)
  | Erlang phases, Model.Overlap ->
      exact
        (Expo.overlap_throughput_erlang ~pattern_cap:(pattern_cap ?budget cap) ~phases mapping)
  | Ph law, Model.Overlap ->
      exact
        (Expo.overlap_throughput_ph ~pattern_cap:(pattern_cap ?budget cap)
           ~ph:(ph_of law mapping) mapping)
  | Exponential, Model.Strict -> Expo.strict_throughput_supervised ~cap ?budget ?simulate mapping
  | Erlang phases, Model.Strict ->
      Expo.strict_throughput_erlang_supervised ~cap ?budget ~phases mapping
  | Ph law, Model.Strict ->
      Expo.strict_throughput_ph_supervised ~cap ?budget ~ph:(ph_of law mapping) mapping
