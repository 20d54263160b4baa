(** Communication-cost accounting.

    The paper measures protocols by the number of (equal-size) messages
    exchanged and by round complexity (number of successive communication
    rounds).  Every protocol primitive in this reproduction charges its
    message and round cost to a ledger, tagged with the primitive's label,
    so experiments can report both totals and per-primitive breakdowns. *)

type t

val create : unit -> t
(** An empty ledger: no labels, zero totals. *)

val charge : t -> label:string -> messages:int -> rounds:int -> unit
(** Add [messages] messages and [rounds] sequential rounds under [label]. *)

type handle
(** A pre-resolved label for hot charge sites: skips the per-call label
    hashing of {!charge}.  The underlying entry is looked up lazily on
    the first {!charge_handle}, so an uncharged handle adds no zero-count
    label to {!labels}.  A handle is bound to the ledger it was created
    from; {!reset} detaches live handles (their later charges would land
    on orphaned entries), so do not mix the two. *)

val handle : t -> string -> handle

val charge_handle : handle -> messages:int -> rounds:int -> unit
(** Same accounting as {!charge} on the handle's ledger and label. *)

val total_messages : t -> int
val total_rounds : t -> int

val label_messages : t -> string -> int
(** Messages charged under a label so far (0 if never charged). *)

val label_rounds : t -> string -> int
(** Rounds charged under a label so far (0 if never charged). *)

val labels : t -> (string * int * int) list
(** [(label, messages, rounds)] sorted by label. *)

val reset : t -> unit

type snapshot = { messages : int; rounds : int }
(** Message and round totals at one instant (or, from {!since}, the
    difference between two instants). *)

val snapshot : t -> snapshot
(** The ledger's current {!total_messages} and {!total_rounds}. *)

val since : t -> snapshot -> snapshot
(** Cost accumulated since [snapshot] was taken. *)

val pp : Format.formatter -> t -> unit
