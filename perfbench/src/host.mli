(** Host-speed probe.

    On a shared host the other tenants' traffic through the core's caches
    slows the benchmark by up to 1.7x, in regimes lasting from seconds to
    minutes, often longer than a run.  So the benchmark times a fixed
    piece of OCaml work before every block and scales the block's time by
    [reference_s / probe]: the time the block would have taken at the
    reference host speed.  The probe is small maps built and dropped,
    short-lived allocation and pointer chasing like the workloads' own;
    it tracks their slow-downs far better than a pure integer loop or a
    pointer chase through a fixed ring (see perfbench/README.md).  It
    keeps nothing alive, so it adds almost nothing to the major heap. *)

val reference_s : float
(** The probe's time on the reference machine (a 2-vCPU VM) when its
    host was quiet. *)

val probe : unit -> float
(** Seconds taken by one run of the probe's work. *)

val smooth : float list -> float list
(** Each probe replaced by the median of it and the probes of the two
    blocks on either side, within one pass: a block's host speed is read
    from the seconds around it, not from one 2 ms sample. *)

val adjust : probe_s:float -> float -> float
(** [adjust ~probe_s t] is [t *. reference_s /. probe_s]. *)
