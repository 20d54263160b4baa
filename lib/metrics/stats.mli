(** Streaming univariate statistics (Welford's algorithm).

    Used by every experiment to summarise measured quantities (message
    counts, Byzantine fractions, walk lengths, ...) without storing all
    samples. *)

type t
(** Mutable accumulator. *)

val create : unit -> t

val add : t -> float -> unit
(** Feed one observation. *)

val add_int : t -> int -> unit

val count : t -> int
(** Number of observations fed so far. *)

val mean : t -> float
(** Mean of the observations; [nan] if empty. *)

val variance : t -> float
(** Unbiased sample variance; [0.] with fewer than two observations. *)

val stddev : t -> float
val min : t -> float
(** Smallest observation; [infinity] if empty. *)

val max : t -> float
(** Largest observation; [neg_infinity] if empty. *)

val total : t -> float
(** Sum of the observations. *)

val merge : t -> t -> t
(** [merge a b] is an accumulator equivalent to having seen both streams. *)

(** The accumulator's statistics frozen into a record, for printing. *)
type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

val summary : t -> summary
(** Count, {!mean}, {!stddev}, {!min} and {!max} of the observations. *)

val pp_summary : Format.formatter -> summary -> unit
(** [n=… mean=… sd=… min=… max=…], floats to 4 significant digits. *)
