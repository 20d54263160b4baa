(** The data plane the composite primitives run on.

    [randCl] walks ({!Walk}) and exchanges ({!Exchange}) are built from a
    randNum draw and a validated transfer only, so they are written once,
    over this record of what a transport supplies.  {!sync} is the
    synchronous message engine's plane; [Asim.Session.plane] runs the
    same decision logic under per-link delays. *)

type t = {
  randnum : cluster:int -> range:int -> Randnum.outcome * float;
      (** a spanned randNum draw and its makespan (virtual time) *)
  transmit :
    src_cluster:int -> dst_cluster:int -> label:string -> payload:int ->
    Valchan.result * float;
      (** a spanned validated transfer and its makespan *)
  barrier_rounds : int;
      (** rounds charged per bulk step (exchange transfer, view update):
          1 on a round-based kernel, 0 where latency is a makespan *)
  clock : unit -> int;  (** the time stamped on the composite's spans *)
}

val sync : Config.t -> t
(** {!Randnum.run} and {!Valchan.transmit}: zero makespans, one round per
    bulk step, spans stamped with the ledger's round count. *)
