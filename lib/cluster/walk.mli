(** Message-level biased CTRW — the [randCl] primitive (Section 3.1).

    A biased continuous-time random walk on the cluster overlay selects a
    cluster with probability proportional to its size (i.e. [|C|/n]),
    which is exactly the distribution needed to pick a {e node} uniformly
    at random: pick the cluster by [randCl], then a member by [randNum].

    Per the paper's footnote: at each hop the current cluster's members
    collaboratively draw a random number ({!Randnum}) that picks the next
    neighbour and decreases the remaining walk duration; the walk token is
    forwarded over the validated inter-cluster channel, so a node of the
    next cluster pursues the walk only when more than half of the previous
    cluster sent it identical messages.  When the duration runs out, the
    endpoint cluster is accepted with probability [|C| / max |C'|]
    (another [randNum] coin), otherwise the walk restarts from there.

    Per-hop cost: one [randNum] (O(log^2 N) messages) plus one validated
    transfer (O(log^2 N) messages).  With O(log^3 N) expected hops this
    gives the paper's O(log^5 N) messages and O(log^4 N) rounds. *)

type error =
  [ `Validation_failed of int
    (** a traversed cluster failed to validate the token, even after hop
        retries — only possible when some cluster lost its honest
        majority; carries the blamed cluster *)
  | `Too_many_restarts  (** the endpoint-acceptance coin never landed *) ]

type stats = {
  selected : int;  (** the chosen cluster *)
  hops : int;  (** inter-cluster transfers performed *)
  restarts : int;  (** rejected endpoints before acceptance *)
  hop_retries : int;
      (** failed token validations recovered by re-drawing the hop (0 on
          any fault-free walk); each retry emits a [walk.retry] trace
          point *)
}

val rand_cl :
  ?duration:float ->
  ?max_restarts:int ->
  ?max_hop_retries:int ->
  Config.t ->
  start:int ->
  (stats, error) Stdlib.result
(** [rand_cl cfg ~start] runs the walk from cluster [start].  [duration]
    defaults to [2 * log2 (#clusters) / mean-degree] time units (about
    [2 log2 #C] hops, the CTRW firing at rate deg(v)); [max_restarts]
    to 1000.

    Honest-side tolerance: when a token transfer fails validation (a
    Byzantine majority of the current cluster dropped or misrouted its
    copies — {!Agreement.Byz_behavior.Drop_walk} /
    {!Agreement.Byz_behavior.Misroute_walk}), the hop is re-drawn with a
    fresh {!Randnum} draw up to [max_hop_retries] times (default 2)
    across the walk before [`Validation_failed] blames the current
    cluster.  Fault-free walks are unaffected by the retry logic. *)

val pick_member : Config.t -> cluster:int -> int
(** Uniform member of the cluster via {!Randnum} ([randNum(|C|)]). *)

(** {2 On any data plane}

    The functions above run on {!Plane.sync}; these take the plane and
    also return the makespan, summed from 0 over the plane's sub-sessions
    in the order they ran. *)

val rand_cl_on :
  Plane.t ->
  ?duration:float ->
  ?max_restarts:int ->
  ?max_hop_retries:int ->
  Config.t ->
  start:int ->
  (stats, error) Stdlib.result * float
(** {!rand_cl} over [plane]: every hop draw is a [plane.randnum] and every
    token forward a [plane.transmit]. *)

val pick_member_on : Plane.t -> Config.t -> cluster:int -> int * float
(** {!pick_member} over [plane]. *)

val pick_node :
  ?duration:float -> Config.t -> start:int -> (int, error) Stdlib.result
(** Quasi-uniform node sample: [randCl] then [pick_member]. *)
