(** The benchmark's declared metrics and its one-line result. *)

type metric = { name : string; unit_ : string }

val declared : Json.t -> trace:bool -> metric list
(** The metrics a run must report, from a parsed [BENCHMARK.json]: its
    [end_to_end] list for an untraced run, its [per_layer] list for a
    traced one. *)

val result :
  correct:bool -> attempted:int -> failed:int -> (metric * float) list -> Json.t
(** [{"correct": .., "attempted": .., "failed": .., "metrics": {name:
    {"value": .., "unit": ..}}}], the last line of standard output. *)

val parse_result : Json.t -> bool * int * int * (metric * float) list
(** Inverse of {!result}.  Raises [Failure] on any other shape, including
    extra or missing keys. *)
