(** The small JSON subset the benchmark reads ([BENCHMARK.json]) and
    writes (its one-line result). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact one-line encoding.  Numbers keep all 17 significant digits
    (whole numbers print without a fraction).  Raises [Invalid_argument]
    on a non-finite number, which JSON cannot carry. *)

val of_string : string -> t
(** Parse one JSON value.  Raises [Failure] on malformed input. *)

val member : string -> t -> t
(** Field of an object.  Raises [Failure] when absent or not an object. *)
