open Streaming
module Json = Service.Json

let chunks n xs =
  let rec go acc = function
    | [] -> List.rev acc
    | rest ->
        let head = List.filteri (fun i _ -> i < n) rest in
        let tail = List.filteri (fun i _ -> i >= n) rest in
        go (head :: acc) tail
  in
  go [] xs

let decode_item item =
  match Option.bind (Json.member "ok" item) Json.to_bool_opt with
  | Some true -> (
      match
        Option.bind (Json.member "result" item) (fun r ->
            Option.bind (Json.member "throughput" r) Json.to_float_opt)
      with
      | Some rho -> Objective.Evaluated rho
      | None -> failwith "Remote.evaluator: batch item without a throughput field")
  | _ -> (
      match Json.member "error" item with
      | Some err -> (
          match Service.Protocol.solver_error_of_json err with
          | Some solver_err -> Objective.Failed solver_err
          | None ->
              let msg =
                Option.value ~default:"(no message)"
                  (Option.bind (Json.member "message" err) Json.to_string_opt)
              in
              failwith ("Remote.evaluator: daemon refused a batch item: " ^ msg))
      | None -> failwith "Remote.evaluator: malformed batch item")

let evaluator client ~objective mappings =
  let model, law, simulate = Objective.row (Objective.metric objective) in
  let request_of m =
    Service.Client.solve_request ~model ~law ~cap:(Objective.cap objective)
      ?wall:(Objective.wall objective) ?sweeps:(Objective.sweeps objective)
      ?states:(Objective.states objective) ~simulate
      ~instance:(Instance_io.to_string m) ()
  in
  List.concat_map
    (fun chunk ->
      let req = Service.Client.batch_request (List.map request_of chunk) in
      match Service.Client.rpc client req with
      | Error e -> failwith ("Remote.evaluator: transport: " ^ Service.Client.error_message e)
      | Ok reply -> (
          if not (Service.Client.reply_ok reply) then
            failwith
              ("Remote.evaluator: daemon refused the batch: "
              ^ Option.value ~default:"(no kind)" (Service.Client.reply_error_kind reply));
          match
            Option.bind (Service.Client.reply_result reply) (Json.member "results")
          with
          | Some (Json.List items) when List.length items = List.length chunk ->
              List.map decode_item items
          | _ -> failwith "Remote.evaluator: malformed batch reply"))
    (chunks Service.Protocol.max_batch mappings)
