(** The benchmark's four workloads.

    Each is closed-loop with a single caller: the next op starts when the
    previous one returned.  Ops run in blocks; after each block the
    benchmark takes an untimed checkpoint.  All inputs derive from the
    seed.  The engines are driven only through their public functions,
    and each call into a layer is wrapped in a {!Span} (free while the
    recorder is off). *)

type checkpoint = {
  digest : string;  (** [Audit.Digest_of] subsystem digests, folded *)
  summary : string;  (** [Scenario.Driver.Stats.summary] line *)
}

type instance = {
  run_block : Account.t -> block:int -> bool;
      (** Run block [block] (0-based); [false] when the state can run no
          further blocks. *)
  checkpoint : unit -> checkpoint;
      (** Check the state's invariants (raises [Failure] naming the broken
          one), then digest it. *)
  safety_violations : unit -> int;
      (** Post-op observations of a cluster at or below 2/3 honest. *)
  counts : unit -> (string * float) list;
      (** Deterministic per-layer counts since the instance was built,
          named as in [BENCHMARK.json]'s [per_layer] list. *)
}

type t = {
  name : string;
  jobs : int;  (** [Exec] domain count *)
  fixed_seed : int option;
      (** [Some s]: every run uses seed [s]'s inputs, whatever [--seed]
          says *)
  block_s : float;
      (** Seconds one block took on the reference machine (2-vCPU VM):
          sets how many blocks a run of a given length does.  The count
          depends on nothing measured, so a seed and a length give the
          same work on every machine and commit. *)
  stop_every : int;  (** a pass's block count is a multiple of this *)
  start : seed:int -> instance;  (** construction; what [setup_s] times *)
}

val state_scale : t
val state_polyvar : t
val msg_byz : t
val async_exp : t

val all : t list
val find : string -> t option

val count_names : string list
(** Every name {!instance.counts} can report. *)

val is_count : string -> bool

(** {2 The grow/shrink schedule, exposed for its equivalence test} *)

val polyvar_period : int
(** Ops per grow or shrink phase. *)

val polyvar_engine : seed:int -> Now_core.Engine.t

val grow_shrink_op :
  Now_core.Engine.t ->
  join:(Now_core.Node.honesty -> unit) ->
  leave:(Now_core.Node.id -> unit) ->
  int ->
  unit
(** Op [i] of [Adversary.Grow_shrink polyvar_period]. *)
