(* Closed-loop load: [clients] connections, one thread each, every
   client waiting for its reply before sending the next request — the
   way [query], [optimize --socket] and the router talk to a daemon.
   Client k sends requests k, k + clients, ... of [requests], which the
   caller generated before the run: the clients share one runtime lock,
   so generating a request inside the loop would hold up the other
   client's receive and show up as daemon latency.  A client stops at the
   deadline or when the requests run out, whichever comes first. *)

type tally = {
  latencies : float list;  (** seconds, client-observed, send to full reply *)
  completed : int;
  failed : int;
  request_bytes : int;
  reply_bytes : int;
}

type run = { tally : tally; elapsed : float }

(* completed requests per second *)
let rate run = float_of_int run.tally.completed /. run.elapsed

let run ~addr ~clients ~seconds ~(requests : string array) ~check =
  let start = Quant.now_s () in
  let deadline = start +. seconds in
  let results = Array.make clients None in
  let client k () =
    let lat = ref [] and completed = ref 0 and failed = ref 0 in
    let req_b = ref 0 and rep_b = ref 0 in
    (match Service.Client.connect addr with
    | Error _ -> incr failed
    | Ok c ->
        let rec loop i =
          if i < Array.length requests && Quant.now_s () < deadline then begin
            let line = requests.(i) in
            let t0 = Quant.now_s () in
            match Service.Client.rpc_raw c line with
            | Error _ -> incr failed (* the connection is gone: this client stops *)
            | Ok reply ->
                let t1 = Quant.now_s () in
                lat := (t1 -. t0) :: !lat;
                incr completed;
                req_b := !req_b + String.length line + 1;
                rep_b := !rep_b + String.length reply + 1;
                if not (check i reply) then incr failed;
                loop (i + clients)
          end
        in
        loop k;
        Service.Client.close c);
    results.(k) <-
      Some
        {
          latencies = !lat;
          completed = !completed;
          failed = !failed;
          request_bytes = !req_b;
          reply_bytes = !rep_b;
        }
  in
  let threads = List.init clients (fun k -> Thread.create (client k) ()) in
  List.iter Thread.join threads;
  let elapsed = Quant.now_s () -. start in
  let tally =
    Array.fold_left
      (fun acc r ->
        match r with
        | None -> { acc with failed = acc.failed + 1 }
        | Some t ->
            {
              latencies = List.rev_append t.latencies acc.latencies;
              completed = acc.completed + t.completed;
              failed = acc.failed + t.failed;
              request_bytes = acc.request_bytes + t.request_bytes;
              reply_bytes = acc.reply_bytes + t.reply_bytes;
            })
      { latencies = []; completed = 0; failed = 0; request_bytes = 0; reply_bytes = 0 }
      results
  in
  { tally; elapsed }
