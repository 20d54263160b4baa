(** Digests and summary lines recorded for fixed seeds.

    One line per checkpoint: [workload seed block digest summary...].
    A run at a recorded seed must end every block that has a record on
    exactly that digest and summary; a change billed as performance-only
    that alters behaviour fails its run. *)

type t

val load : string -> t
(** Parse a golden file.  Raises [Failure] on a malformed line. *)

val line : workload:string -> seed:int -> block:int -> Workloads.checkpoint -> string

val find : t -> workload:string -> seed:int -> block:int -> Workloads.checkpoint option

val has_seed : t -> workload:string -> seed:int -> bool
