type t = {
  randnum : cluster:int -> range:int -> Randnum.outcome * float;
  transmit :
    src_cluster:int -> dst_cluster:int -> label:string -> payload:int ->
    Valchan.result * float;
  barrier_rounds : int;
  clock : unit -> int;
}

let sync cfg =
  let ledger = Config.ledger cfg in
  {
    randnum = (fun ~cluster ~range -> (Randnum.run cfg ~cluster ~range, 0.0));
    transmit =
      (fun ~src_cluster ~dst_cluster ~label ~payload ->
        (Valchan.transmit cfg ~src_cluster ~dst_cluster ~label ~payload (), 0.0));
    barrier_rounds = 1;
    clock = (fun () -> Metrics.Ledger.total_rounds ledger);
  }
