(** In-memory spans around the benchmark's calls into each layer.

    A span is (name, start, end, parent, op id) plus the bytes the calling
    domain allocated and the simulated messages charged while it was open.
    Spans nest through a stack: one opened inside another gets it as
    parent.  Nothing is recorded while the recorder is off, so the timed
    runs pay one boolean test per call.  Spans stay in memory until
    {!write_jsonl} writes them out at the end of the run. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, [-1] for a root *)
  op : int;  (** the benchmark op the span belongs to *)
  start : float;  (** seconds *)
  stop : float;
  alloc : float;  (** bytes allocated by this domain while open *)
  msgs : int;  (** simulated messages charged while open *)
}

val start : unit -> unit
(** Clear the store and begin recording. *)

val stop : unit -> span list
(** Stop recording; the spans in order of opening. *)

val recording : unit -> bool

val set_op : int -> unit
(** Op id stamped on spans opened from now on. *)

val with_span : ?msgs:(unit -> int) -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f], recording a span around it when the
    recorder is on.  [msgs] reads a monotone simulated-message counter
    (a cost ledger's total); it is read at both ends.  A span is
    recorded also when [f] raises, and the exception is re-raised. *)

val self_times : span list -> (span * float) list
(** Each span with its self time: its duration minus the part of its
    interval that its direct children cover. *)

type layer = {
  calls : int;
  busy_s : float;  (** summed self time *)
  alloc_bytes : float;  (** summed self allocation (children excluded) *)
  sim_msgs : int;  (** summed self simulated messages *)
  durations_us : float array;  (** per-call durations, sorted ascending *)
}

val by_name : span list -> (string * layer) list
(** Aggregate spans per name, sorted by name. *)

val write_jsonl : string -> span list -> unit
(** One JSON object per span, creating the file's directory if needed. *)
