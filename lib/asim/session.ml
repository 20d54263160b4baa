module Config = Cluster.Config
module Valchan = Cluster.Valchan
module Randnum = Cluster.Randnum
module Rng = Prng.Rng

(* Per primitive label: the makespan histogram and the deadline hits. *)
type label_stats = { hist : Telemetry.Histogram.t; mutable label_timeouts : int }

type t = {
  cfg : Config.t;
  delay : Delay.t;
  rng : Rng.t;
  patience : float;
  mutable clock : float;
  mutable timeouts : int;
  (* Telemetry: per-label makespans and deadline hits, plus kernel queue
     peaks folded in after each sub-session.  All of it is a pure function
     of the session's event streams, so the monitor may export it under
     the byte-identity gates. *)
  lat : (string, label_stats) Hashtbl.t;
  mutable queue_peak : int;
  mutable inflight_peak : int;
}

let create ?(patience = 8.0) ~rng ~delay cfg =
  if patience <= 0.0 then invalid_arg "Session.create: patience must be positive";
  {
    cfg;
    delay;
    rng;
    patience;
    clock = 0.0;
    timeouts = 0;
    lat = Hashtbl.create 8;
    queue_peak = 0;
    inflight_peak = 0;
  }

let config t = t.cfg
let delay t = t.delay
let patience t = t.patience
let clock t = t.clock
let timeouts t = t.timeouts
let rng_cursor t = Rng.save t.rng
let timeout t = t.patience *. Delay.mean t.delay

(* Close a sub-session: fold its kernel's queue peaks into the session,
   add its makespan to the running virtual clock, record the makespan
   under its label and count a deadline hit. *)
let account t net ~label ~makespan ~timed_out =
  t.queue_peak <- max t.queue_peak (Anet.queue_peak net);
  t.inflight_peak <- max t.inflight_peak (Anet.inflight_peak net);
  t.clock <- t.clock +. makespan;
  let l =
    match Hashtbl.find_opt t.lat label with
    | Some l -> l
    | None ->
      let l = { hist = Telemetry.Histogram.create (); label_timeouts = 0 } in
      Hashtbl.replace t.lat label l;
      l
  in
  Telemetry.Histogram.add l.hist makespan;
  if timed_out then begin
    t.timeouts <- t.timeouts + 1;
    l.label_timeouts <- l.label_timeouts + 1
  end

let latency_labels t =
  Hashtbl.fold (fun l _ acc -> l :: acc) t.lat [] |> List.sort compare

let latency t ~label = Option.map (fun l -> l.hist) (Hashtbl.find_opt t.lat label)

let timeouts_for t ~label =
  match Hashtbl.find_opt t.lat label with Some l -> l.label_timeouts | None -> 0

let latency_all t =
  Hashtbl.fold
    (fun _ l acc -> Telemetry.Histogram.merge acc l.hist)
    t.lat
    (Telemetry.Histogram.create ())

let latency_p99 t =
  let all = latency_all t in
  if Telemetry.Histogram.count all = 0 then 0.0
  else Telemetry.Histogram.percentile all 99.0

let queue_peak t = t.queue_peak
let inflight_peak t = t.inflight_peak

let span_time t = int_of_float t.clock

(* valChan ---------------------------------------------------------- *)

(* The asynchronous validated channel: every source member's copies leave
   at virtual time 0 with per-link delays; each honest destination tallies
   the votes that arrive by the session deadline (first arrival per sender
   wins) and records when a value first reached the majority.  Under zero
   delay arrival order is send order, so verdicts coincide with the
   synchronous session's (the cross-validation test pins this).  Latency
   can only delay or suppress votes, never add them, so skew degrades
   liveness (no verdict by the deadline), never safety. *)
let valchan_session t ~src_cluster ~dst_cluster ~label ~payload =
  let cfg = t.cfg in
  let src_members = Config.members cfg src_cluster in
  let dst_members = Config.members cfg dst_cluster in
  let deadline = timeout t in
  let net = Anet.create ~ledger:(Config.ledger cfg) ~rng:t.rng ~delay:t.delay () in
  let n_src = List.length src_members in
  (* Per honest destination, in member order: its tally and the time the
     majority was first reached. *)
  let decided =
    List.filter_map
      (fun id ->
        if Config.is_byzantine cfg id then begin
          Anet.add_node net ~id (fun ~now:_ ~src:_ _ -> ());
          None
        end
        else begin
          let tally = Valchan.Tally.create ~members:n_src in
          let at = ref deadline in
          Anet.add_node net ~id (fun ~now ~src v ->
              if Valchan.Tally.vote tally ~sender:src v then at := now);
          Some (id, tally, at)
        end)
      dst_members
  in
  List.iter
    (fun id ->
      if not (Anet.is_alive net id) then
        Anet.add_node net ~id (fun ~now:_ ~src:_ _ -> ()))
    src_members;
  (* Same (source member, destination member) send order as the
     synchronous session, so Byzantine behaviour streams draw
     identically. *)
  List.iter
    (fun id ->
      match Config.byzantine cfg id with
      | None -> Anet.multicast net ~src:id ~dsts:dst_members ~label payload
      | Some strategy ->
        Valchan.deviate strategy ~src:id ~label ~dsts:dst_members ~payload
          (fun ~dst ~deviant v -> Anet.send net ~src:id ~dst ~label ~deviant v))
    src_members;
  Anet.run ~until:deadline net;
  let verdicts =
    List.map (fun (id, tally, _) -> (id, Valchan.Tally.verdict tally)) decided
  in
  let makespan = List.fold_left (fun acc (_, _, at) -> Float.max acc !at) 0.0 decided in
  account t net ~label ~makespan ~timed_out:(List.exists (fun (_, v) -> v = None) verdicts);
  (Valchan.summarise verdicts, makespan)

let transmit t ~src_cluster ~dst_cluster ?(label = "valchan") ~payload () =
  Trace.with_span
    ~attrs:[ ("dst", dst_cluster); ("src", src_cluster) ]
    ~ledger:(Config.ledger t.cfg) ~time:(span_time t) Trace.Msg label
    (fun () -> valchan_session t ~src_cluster ~dst_cluster ~label ~payload)

(* randNum ---------------------------------------------------------- *)

type phase = Escrow | Reveal

(* Per contributor: how many members hold its escrow by the phase
   boundary and its reveal by the deadline (the contributor holds its
   own), and when the last reveal arrived. *)
type shares = {
  mutable escrows : int;
  mutable reveals : int;
  mutable last_reveal : float;
}

(* The asynchronous commit/reveal coin.  Escrow shares leave at time 0;
   the reveal phase is cut by a timeout at half the session deadline (the
   phase boundary a synchronous round barrier provides for free).  A
   contribution counts iff a strict majority of the members received its
   escrow by the boundary and its reveal by the deadline — the in-cluster
   majority's view of "who participated", which late (straggling) shares
   fail, turning skew into a detected stall instead of a silent
   mis-sample. *)
let randnum_session t ~range members =
  let cfg = t.cfg in
  let n = List.length members in
  let deadline = timeout t in
  let boundary = 0.5 *. deadline in
  let net = Anet.create ~ledger:(Config.ledger cfg) ~rng:t.rng ~delay:t.delay () in
  let shares : (int, shares) Hashtbl.t = Hashtbl.create 16 in
  let contributions : (int * int) list ref = ref [] in
  List.iter
    (fun id ->
      let contribution = Randnum.contribution cfg id in
      (* Only contributors send, one escrow and one reveal per member. *)
      Anet.add_node net ~id (fun ~now ~src msg ->
          let s = Hashtbl.find shares src in
          match msg with
          | Escrow -> if now <= boundary then s.escrows <- s.escrows + 1
          | Reveal ->
            s.reveals <- s.reveals + 1;
            s.last_reveal <- Float.max s.last_reveal now);
      match contribution with
      | None -> ()
      | Some c ->
        contributions := (id, c) :: !contributions;
        Hashtbl.replace shares id { escrows = 1; reveals = 1; last_reveal = 0.0 };
        let others = List.filter (fun m -> m <> id) members in
        Anet.multicast net ~src:id ~dsts:others ~label:"randnum" Escrow;
        Anet.at net ~time:boundary (fun ~now:_ ->
            if Anet.is_alive net id then
              Anet.multicast net ~src:id ~dsts:others ~label:"randnum" Reveal))
    members;
  (* Reveals later than the deadline are never delivered. *)
  Anet.run ~until:deadline net;
  let included =
    List.filter
      (fun (c, _) ->
        let s = Hashtbl.find shares c in
        2 * s.escrows > n && 2 * s.reveals > n)
      (List.rev !contributions)
  in
  let outcome = Randnum.conclude cfg ~members ~range included in
  let makespan =
    if outcome.Randnum.stalled then deadline
    else
      List.fold_left
        (fun acc (c, _) -> Float.max acc (Hashtbl.find shares c).last_reveal)
        0.0 included
  in
  account t net ~label:"randnum" ~makespan ~timed_out:outcome.Randnum.stalled;
  (outcome, makespan)

let randnum t ~cluster ~range =
  Randnum.spanned ~time:(span_time t) t.cfg ~cluster ~range (randnum_session t ~range)

(* The composite primitives, on this session's plane -------------- *)

let plane t =
  {
    Cluster.Plane.randnum = (fun ~cluster ~range -> randnum t ~cluster ~range);
    transmit =
      (fun ~src_cluster ~dst_cluster ~label ~payload ->
        transmit t ~src_cluster ~dst_cluster ~label ~payload ());
    barrier_rounds = 0;
    clock = (fun () -> span_time t);
  }

let rand_cl t ?duration ?max_restarts ?max_hop_retries ~start () =
  Cluster.Walk.rand_cl_on (plane t) ?duration ?max_restarts ?max_hop_retries t.cfg ~start

let pick_member t ~cluster = fst (Cluster.Walk.pick_member_on (plane t) t.cfg ~cluster)

let exchange_node t ?duration ~node () =
  Cluster.Exchange.exchange_node_on (plane t) ?duration t.cfg ~node

let exchange_all t ?duration ~cluster () =
  Cluster.Exchange.exchange_all_on (plane t) ?duration t.cfg ~cluster
