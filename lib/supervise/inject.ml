let var = "SUPERVISE_INJECT"

let parse spec =
  String.split_on_char ',' spec
  |> List.filter_map (fun rule ->
         match String.index_opt rule '=' with
         | None -> None
         | Some i -> Some (String.sub rule 0 i, String.sub rule (i + 1) (String.length rule - i - 1)))

let of_env () = match Sys.getenv_opt var with None -> [] | Some spec -> parse spec

let is_binding kv = String.starts_with ~prefix:(var ^ "=") kv
