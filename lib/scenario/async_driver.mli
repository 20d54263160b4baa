(** The {!Driver.S} implementation over the asynchronous engine.

    The message-level driver with its data plane swapped: an inner
    {!Msg_driver} over the shared {!Cluster.Config} does the churn, the
    primitive tallies, the cluster scans and the monitor samples, while
    every walk, randNum draw, validated transfer and exchange the spec
    drives runs on an {!Asim.Session}'s plane under the spec's delay
    model ([Spec.delay], default ["exp"]).  This driver adds the two
    asynchronous observables: accumulated virtual time and deadline hits
    ({!Driver.Stats.t}'s [virtual_time] / [session_timeouts]), plus the
    session's latency gauges.

    Determinism: one root stream seeds the configuration exactly as the
    message driver would; the delay stream is split off it after
    construction, and each step's audit frame folds the delay cursor into
    the [rng] digest, so a mis-seeded delay stream is bisectable like any
    other stream drift. *)

type t

val kind : string
(** ["async"]. *)

val supports : Spec.t -> (unit, string) result
(** {!Msg_driver.supports} plus validation of the spec's [delay] name
    against the {!Asim.Delay} catalogue; constructors raise
    [Invalid_argument] with the same message. *)

val create : seed:int64 -> ?labels:(string * string) list -> Spec.t -> t
(** Experiment-style construction from [Rng.create seed] (the
    {!Msg_driver.create} convention); the delay stream is split off the
    root after the configuration is built. *)

val create_cell :
  seed:int -> cell:int -> ?labels:(string * string) list -> Spec.t -> t
(** CLI-cell-style construction: the root stream is
    [Rng.of_int (seed + 701 * (cell + 1))] — the asynchronous engine's
    own cell offset, disjoint from the state (101) and message (401)
    families. *)

val of_rng :
  ?patience:float -> rng:Prng.Rng.t -> ?labels:(string * string) list ->
  Spec.t -> t
(** Construction from an existing stream; [patience] overrides the
    session's deadline multiplier (default 8). *)

val of_config :
  ?patience:float -> rng:Prng.Rng.t -> ?labels:(string * string) list ->
  Spec.t -> Cluster.Config.t -> t
(** Wrap an already-built configuration (bespoke experiment geometries),
    like {!Msg_driver.of_config}. *)

val session : t -> Asim.Session.t
(** The underlying asynchronous session (clock, timeouts, direct
    primitive access for experiments). *)

val driver : t -> Msg_driver.t
(** The inner message driver: configuration, root stream (protocol
    draws; the delay stream is private to {!session}), ledger and the
    [randNum] value histogram, all on the session's plane. *)

val labels : t -> (string * string) list
(** See {!Driver.S.labels}. *)

val label : t -> string
(** See {!Driver.S.label}: [async:scenario-name]. *)

val step : t -> time:int -> unit
(** See {!Driver.S.step}: {!Msg_driver.step} with the primitives on the
    session's plane and an audit frame carrying the delay-stream
    cursor. *)

val sample : t -> time:int -> unit
(** See {!Driver.S.sample}: the inner driver's configuration sample plus
    the [asim.clock] / [asim.timeouts] gauges. *)

val stats : t -> Driver.Stats.t
(** See {!Driver.S.stats}: the inner driver's tallies plus the session's
    virtual time, deadline hits and makespan p99. *)
