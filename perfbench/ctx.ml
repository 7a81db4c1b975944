(* What every workload receives and returns. *)

type t = {
  seed : int;
  seconds : float;  (** length of the timed phase *)
  trace : bool;  (** per-layer run instead of the end-to-end run *)
  domains : int;  (** domain-pool size, in-process and in the daemon *)
  clients : int;  (** closed-loop connections of the service workloads *)
  daemon : string;  (** path of the [streaming_cli] executable *)
  work : string;  (** working directory for sockets and the daemon log *)
}

type outcome = {
  attempted : int;  (** operations attempted, checks included *)
  failed : int;  (** operations that failed or returned a wrong output *)
  metrics : (string * float) list;
}

(* Set-up runs [reps] times; the median of its wall times is setup_s. *)
let setup ~reps f = Quant.median (List.init reps (fun _ -> fst (Quant.timed f)))
