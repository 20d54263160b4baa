(** Validated inter-cluster channels (Section 3.2).

    A node accepts a message claimed to come from cluster [C] if and only
    if it receives the identical payload from more than half of [C]'s
    members.  Combined with the invariant that every cluster is >2/3
    honest, this rule makes inter-cluster communication Byzantine-proof:
    the honest majority determines the accepted value and Byzantine
    members can neither forge nor block it.

    [transmit] runs the exchange as a real 2-round session on a private
    {!Simkernel.Net} (sharing the configuration's ledger): each member of
    the source cluster sends the payload to each member of the destination
    cluster — Byzantine members send whatever their behaviour dictates —
    and each destination node applies the majority rule. *)

val validate : members:int list -> inbox:(int * int) list -> int option
(** Pure majority rule: the payload sent by strictly more than half of
    [members] (counting at most one message per member), if any. *)

(** {2 Pieces every kernel's session shares}

    Each message kernel keeps its own delivery code; these are the
    decisions the sessions make identically on all of them. *)

val deviate :
  Agreement.Byz_behavior.t -> src:int -> label:string -> dsts:int list ->
  payload:int -> (dst:int -> deviant:bool -> int -> unit) -> unit
(** A Byzantine source member's copies of [payload]: for each of [dsts] in
    order, {!Agreement.Byz_behavior.on_channel} (drawing the behaviour's
    stream; {!Agreement.Byz_behavior.Equivocate} splits [dsts] at its
    median id) picks an honest send, a forged value, a redirect to another
    member or silence.  [send ~dst ~deviant v] performs one send on the
    caller's kernel; every deviation emits a [byz.<deviation>] trace
    point. *)

(** First-vote-per-sender, strict-majority tally: {!validate}'s rule,
    evaluated as votes arrive. *)
module Tally : sig
  type t

  val create : members:int -> t
  (** A tally for a source cluster of [members] members. *)

  val add_anonymous : t -> int -> int -> unit
  (** [add_anonymous t v n]: [n] votes for [v] from senders that never
      vote again (the identical honest copies). *)

  val vote : t -> sender:int -> int -> bool
  (** Counts [sender]'s first vote; [true] iff it gave its value the
      majority.  Once a value has it (at most one can), votes are
      ignored. *)

  val verdict : t -> int option
  (** The value that reached the majority, if one did. *)
end

type result = {
  verdicts : (int * int option) list;
      (** per honest destination member: the accepted payload, if any *)
  unanimous : int option;
      (** [Some v] when every honest destination member accepted [v] *)
}

val summarise : (int * int option) list -> result
(** Assemble a {!result} from per-member verdicts ([unanimous] is the
    shared verdict when every member accepted the same [Some] value). *)

val transmit :
  Config.t -> src_cluster:int -> dst_cluster:int -> ?label:string -> payload:int -> unit -> result
(** Raises [Not_found] on unknown cluster ids.  [label] defaults to
    ["valchan"].

    Quorum checks are batched: one pass per (destination, message) built
    from the shared honest vote count plus the destination's recorded
    deviant votes, instead of a full {!validate} scan per sender.  All
    messages still flow through the private net, so charging, counters,
    trace points and Byzantine RNG draws are byte-identical to
    {!transmit_reference}. *)

val transmit_reference :
  Config.t -> src_cluster:int -> dst_cluster:int -> ?label:string -> payload:int -> unit -> result
(** The naive per-sender session ({!validate} over every destination's
    full inbox) — the oracle the batched {!transmit} is equivalence-tested
    against.  Same charging and same RNG trajectory as {!transmit}; only
    the internal evaluation strategy differs. *)
