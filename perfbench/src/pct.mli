(** The percentile rule: a timing is reported as its median and the
    highest percentile that still has at least ten samples beyond it,
    together with the sample count. *)

val quantile : float array -> float -> float
(** [quantile sorted p] is the nearest-rank [p]-quantile ([0 < p <= 1])
    of an ascending array; [0.] when empty. *)

val tail : float array -> string * float
(** The highest of p99.9, p99, p90 and p50 whose nearest rank leaves at
    least ten samples above it, as [(label, value)] (e.g. [("p90", v)]);
    [("max", v)] when fewer than twenty samples leave no such percentile,
    [("none", 0.)] when empty.  The array is ascending. *)
