(** Failure accounting for a scheduled run of ops.

    Ops are attempted in order.  An op that returns [false] (it returned
    [Error], was refused, stalled, or its value was forged or rejected)
    counts as failed.  An op that raises is reported — its index and the
    exception text go to standard output — and it and every op still
    scheduled after it count as failed without running: the state they
    would have run on is gone. *)

type t = {
  mutable attempted : int;
  mutable ran : int;  (** ops that returned, successfully or not *)
  mutable failed : int;
  mutable raised : int;  (** ops that raised *)
}

val create : unit -> t

val run :
  t -> label:string -> ?scheduled_after:int -> first:int -> n:int -> (int -> bool) -> bool
(** [run t ~label ~first ~n op] attempts [op first], ..., [op (first+n-1)].
    Returns [false] when one raised: the rest of the range, and the
    [scheduled_after] (default 0) ops scheduled beyond it on the same
    state, were skipped and counted as failed. *)
