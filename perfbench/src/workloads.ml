module Engine = Now_core.Engine
module Params = Now_core.Params
module Node = Now_core.Node
module Rng = Prng.Rng
module Ledger = Metrics.Ledger
module Config = Cluster.Config
module Session = Asim.Session
module Stats = Scenario.Driver.Stats
module Msg = Scenario.Msg_driver

type checkpoint = { digest : string; summary : string }

type instance = {
  run_block : Account.t -> block:int -> bool;
  checkpoint : unit -> checkpoint;
  safety_violations : unit -> int;
  counts : unit -> (string * float) list;
}

type t = {
  name : string;
  jobs : int;
  fixed_seed : int option;
  block_s : float;
  stop_every : int;
  start : seed:int -> instance;
}

let tau = 0.15

let fold_digest subsystems =
  List.fold_left
    (fun h (name, d) -> Audit.Fnv.int64 (Audit.Fnv.string h name) d)
    Audit.Fnv.init subsystems
  |> Audit.Fnv.to_hex

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ---------- state engine ---------- *)

type state_tally = {
  mutable ops : int;
  mutable joins : int;
  mutable leaves : int;
  mutable splits : int;
  mutable merges : int;
  mutable walks : int;
  mutable walk_hops : int;
  mutable min_honest : float;
}

let state_instance ~engine ~block_ops ~op =
  let ledger = Engine.ledger engine in
  let msgs () = Ledger.total_messages ledger in
  let msgs0 = msgs () in
  let exec0 = Exec.stats () in
  let t =
    { ops = 0; joins = 0; leaves = 0; splits = 0; merges = 0; walks = 0;
      walk_hops = 0; min_honest = 1.0 }
  in
  let add (r : Engine.op_report) =
    t.splits <- t.splits + r.Engine.splits;
    t.merges <- t.merges + r.Engine.merges;
    t.walks <- t.walks + r.Engine.walks;
    t.walk_hops <- t.walk_hops + r.Engine.walk_hops
  in
  let join honesty =
    add (snd (Span.with_span ~msgs "core.join" (fun () -> Engine.join engine honesty)));
    t.joins <- t.joins + 1
  in
  let leave node =
    add (Span.with_span ~msgs "core.leave" (fun () -> Engine.leave engine node));
    t.leaves <- t.leaves + 1
  in
  let epoch () =
    add (Span.with_span ~msgs "core.epoch" (fun () -> Engine.exchange_epoch engine))
  in
  let run_block acct ~block =
    Account.run acct ~label:"state" ~first:(block * block_ops) ~n:block_ops
      (fun i ->
        Span.set_op i;
        op ~join ~leave ~epoch i;
        t.ops <- t.ops + 1;
        true)
  in
  let checkpoint () =
    Engine.check_invariants engine;
    t.min_honest <- Float.min t.min_honest (Engine.min_honest_fraction engine);
    let summary =
      Stats.summary
        {
          Stats.zero with
          steps = t.ops;
          joins = t.joins;
          leaves = t.leaves;
          splits = t.splits;
          merges = t.merges;
          n_nodes = Engine.n_nodes engine;
          n_clusters = Engine.n_clusters engine;
          min_honest_fraction = t.min_honest;
          violations_now = Engine.violations_now engine;
          violation_events = Engine.violation_events engine;
          messages = Ledger.total_messages ledger;
          rounds = Ledger.total_rounds ledger;
        }
    in
    { digest = fold_digest (Audit.Digest_of.engine engine); summary }
  in
  let counts () =
    let e = Exec.stats () in
    let tasks = e.Exec.tasks - exec0.Exec.tasks in
    [
      ("core.sim_msgs_per_op", ratio (msgs () - msgs0) t.ops);
      ("core.walk_hops_per_op", ratio t.walk_hops t.ops);
      ("core.walks_per_op", ratio t.walks t.ops);
      ("core.splits", float_of_int t.splits);
      ("core.merges", float_of_int t.merges);
      ("exec.tasks", float_of_int tasks);
      ("exec.queue_wait_s", e.Exec.queue_wait_s -. exec0.Exec.queue_wait_s);
      ("exec.merge_stall_s", e.Exec.merge_stall_s -. exec0.Exec.merge_stall_s);
      ( "exec.caller_task_frac",
        ratio (e.Exec.caller_tasks - exec0.Exec.caller_tasks) tasks );
    ]
  in
  {
    run_block;
    checkpoint;
    safety_violations = (fun () -> Engine.violation_events engine);
    counts;
  }

let engine_seed rng = Int64.of_int (Rng.int rng 1_000_000_000)

(* E15's quick geometry with per-operation shuffling left on (the
   default): paired churn, plus one sharded exchange epoch completing
   every 100th churn op. *)
let state_scale =
  let start ~seed =
    let rng = Rng.of_int seed in
    let params =
      Params.make ~k:8 ~tau ~walk_mode:Params.Direct_sample ~shuffle_on_churn:true
        ~allow_split_merge:true ~n_max:(1 lsl 17) ()
    in
    let initial =
      Scenario.State_driver.initial_population (Rng.split rng) ~n:100_000 ~tau
    in
    let engine = Engine.create_scaled ~seed:(engine_seed rng) params ~initial in
    let churn = Rng.split rng in
    state_instance ~engine ~block_ops:10 ~op:(fun ~join ~leave ~epoch i ->
        if i mod 2 = 0 then
          join (if Rng.bernoulli churn tau then Node.Byzantine else Node.Honest)
        else leave (Engine.random_node engine);
        if i mod 100 = 99 then epoch ())
  in
  { name = "state-scale"; jobs = 2; fixed_seed = None; block_s = 0.27; stop_every = 1; start }

(* E10's geometry and schedule.  The decision rule is
   [Adversary.Grow_shrink]'s (join in even phases unless at the size cap,
   leave otherwise, never below the model's floor; greedy corruption of
   joiners within the tau budget), restated here so that each op's
   [Engine.op_report] is visible; the test suite checks it reaches the
   same digests as [Adversary.step]. *)
let polyvar_n_max = 1 lsl 12
let polyvar_n0 = 256
let polyvar_period = (polyvar_n_max / 2) - polyvar_n0

let grow_shrink_op engine ~join ~leave i =
  let params = Engine.params engine in
  let n = Engine.n_nodes engine in
  let phase = i / polyvar_period mod 2 in
  if (phase = 0 || n <= Params.min_network_size params) && n < params.Params.n_max
  then begin
    let roster = Engine.roster engine in
    let count = Node.Roster.count roster in
    let byz = Node.Roster.byzantine_count roster in
    join
      (if float_of_int (byz + 1) <= tau *. float_of_int (count + 1) then
         Node.Byzantine
       else Node.Honest)
  end
  else leave (Engine.random_node engine)

let polyvar_engine ~seed =
  let rng = Rng.of_int seed in
  let params =
    Params.make ~k:8 ~tau ~walk_mode:Params.Exact_walk ~n_max:polyvar_n_max ()
  in
  let initial =
    Scenario.State_driver.initial_population (Rng.split rng) ~n:polyvar_n0 ~tau
  in
  Engine.create ~seed:(engine_seed rng) params ~initial

let state_polyvar =
  let start ~seed =
    let engine = polyvar_engine ~seed in
    state_instance ~engine ~block_ops:(polyvar_period / 16)
      ~op:(fun ~join ~leave ~epoch:_ i -> grow_shrink_op engine ~join ~leave i)
  in
  (* Runs do whole grow/shrink cycles of 32 blocks, so every run weighs
     small and large sizes alike. *)
  { name = "state-polyvar"; jobs = 1; fixed_seed = None; block_s = 0.2; stop_every = 32; start }

(* ---------- message-level configurations ---------- *)

let check_config cfg =
  let ids = Config.cluster_ids cfg in
  let total =
    List.fold_left
      (fun acc cid ->
        List.iter
          (fun node ->
            if Config.cluster_of cfg node <> cid then
              failwith (Printf.sprintf "node %d is listed in cluster %d but homed elsewhere" node cid))
          (Config.members cfg cid);
        acc + Config.size cfg cid)
      0 ids
  in
  if total <> Config.n_nodes cfg then
    failwith (Printf.sprintf "cluster sizes sum to %d, n_nodes is %d" total (Config.n_nodes cfg))

let sum_stats (a : Stats.t) (b : Stats.t) =
  {
    a with
    Stats.steps = a.steps + b.steps;
    joins = a.joins + b.joins;
    leaves = a.leaves + b.leaves;
    splits = a.splits + b.splits;
    merges = a.merges + b.merges;
    churn_failures = a.churn_failures + b.churn_failures;
    majority_violations = a.majority_violations + b.majority_violations;
    walks_ok = a.walks_ok + b.walks_ok;
    walks_failed = a.walks_failed + b.walks_failed;
    walk_retries = a.walk_retries + b.walk_retries;
    randnum_stalls = a.randnum_stalls + b.randnum_stalls;
    randnum_insecure = a.randnum_insecure + b.randnum_insecure;
    valchan_accepted = a.valchan_accepted + b.valchan_accepted;
    valchan_forged = a.valchan_forged + b.valchan_forged;
    valchan_rejected = a.valchan_rejected + b.valchan_rejected;
    exchanges = a.exchanges + b.exchanges;
    messages = a.messages + b.messages;
  }

let msg_failed (before : Stats.t) (after : Stats.t) =
  after.churn_failures > before.churn_failures
  || after.walks_failed > before.walks_failed
  || after.randnum_stalls > before.randnum_stalls
  || after.valchan_forged > before.valchan_forged
  || after.valchan_rejected > before.valchan_rejected

let cell_steps = 200
let slice_steps = 10
let msg_seed = 42

(* The [primitives] catalogue scenario as independent cells of
   [cell_steps] steps, each under its own invariant monitor sampled every
   step (as [now_sim monitor] runs it).  A block is a [slice_steps]-step
   slice of a cell.

   Every run steps the same cells, those of seed [msg_seed], whatever its
   seed: the known leave defect drains each cell at its own rate, which
   sets a per-step cost that differs up to tenfold between cells, so
   cells drawn afresh from each seed would make run-to-run spread a
   measure of which cells were drawn, not of speed. *)
let msg_byz =
  let spec = Scenario.primitives in
  assert (spec.Scenario.Spec.churn = Scenario.Spec.Paired);
  let drive = spec.Scenario.Spec.drive in
  let slices = cell_steps / slice_steps in
  let start ~seed =
    let new_cell i =
      (Msg.create_cell ~seed ~cell:i ~labels:[ ("cell", string_of_int i) ] spec,
       Monitor.create ~cadence:1 ())
    in
    let cell = ref (new_cell 0) in
    let dead = ref false in
    let done_stats = ref Stats.zero in
    let completed = ref 0 in
    let current () =
      { (Msg.stats (fst !cell)) with Stats.steps = !completed }
    in
    let run_block acct ~block =
      let c = block / slices and k = block mod slices in
      if k = 0 && block > 0 then begin
        done_stats := sum_stats !done_stats (current ());
        cell := new_cell c;
        completed := 0;
        dead := false
      end;
      let d, store = !cell in
      let ledger = Msg.ledger d in
      let msgs () = Ledger.total_messages ledger in
      let step time =
        Span.set_op ((c * cell_steps) + time);
        let before = Msg.stats d in
        if Span.recording () then begin
          (* [Msg_driver.step]'s pieces, in its order. *)
          Span.with_span ~msgs "cluster.join" (fun () -> Msg.join d);
          Span.with_span ~msgs "cluster.leave" (fun () -> Msg.leave d);
          if drive.Scenario.Spec.walks then
            Span.with_span ~msgs "cluster.walk" (fun () -> Msg.walk_once d ~time);
          if drive.randnum then
            Span.with_span ~msgs "cluster.randnum" (fun () -> Msg.randnum_once d ~time);
          if drive.valchan then
            Span.with_span ~msgs "cluster.valchan" (fun () -> Msg.valchan_once d ~time);
          (match drive.exchange_every with
          | Some k when k > 0 && time mod k = 0 ->
            Span.with_span ~msgs "cluster.exchange" (fun () -> ignore (Msg.exchange d))
          | _ -> ());
          Span.with_span "scenario.scan" (fun () -> Msg.scan d);
          Span.with_span "monitor.sample" (fun () -> Msg.sample d ~time)
        end
        else begin
          Msg.step d ~time;
          Msg.sample d ~time
        end;
        incr completed;
        not (msg_failed before (Msg.stats d))
      in
      (* A cell that raised is over: its remaining slices run nothing,
         their ops having been counted as failed when it raised. *)
      if not !dead then
        dead :=
          not
            (Monitor.with_monitor store (fun () ->
                 Account.run acct
                   ~label:(Printf.sprintf "msg-byz seed %d cell %d" seed c)
                   ~scheduled_after:((slices - k - 1) * slice_steps)
                   ~first:((k * slice_steps) + 1) ~n:slice_steps step));
      true
    in
    let checkpoint () =
      let cfg = Msg.config (fst !cell) in
      check_config cfg;
      { digest = fold_digest (Audit.Digest_of.config cfg);
        summary = Stats.summary (current ()) }
    in
    let counts () =
      let s = sum_stats !done_stats (current ()) in
      let walks = s.walks_ok + s.walks_failed in
      [
        ( "cluster.churn.ok_frac",
          ratio (s.joins + s.leaves) (s.joins + s.leaves + s.churn_failures) );
        ("cluster.walk.ok_frac", ratio s.walks_ok walks);
        ("cluster.walk.retries_per_walk", ratio s.walk_retries walks);
        ( "cluster.valchan.accept_frac",
          ratio s.valchan_accepted
            (s.valchan_accepted + s.valchan_forged + s.valchan_rejected) );
        ("cluster.randnum.unstalled_frac", 1.0 -. ratio s.randnum_stalls s.steps);
        ("cluster.splits", float_of_int s.splits);
        ("cluster.merges", float_of_int s.merges);
        ("cluster.sim_msgs_per_op", ratio s.messages s.steps);
      ]
    in
    {
      run_block;
      checkpoint;
      safety_violations =
        (fun () -> (sum_stats !done_stats (current ())).majority_violations);
      counts;
    }
  in
  (* Cell 0 dies halfway, so a pass runs cells in pairs. *)
  {
    name = "msg-byz";
    jobs = 1;
    fixed_seed = Some msg_seed;
    block_s = 0.168;
    stop_every = 2 * (cell_steps / slice_steps);
    start;
  }

(* Static 8x16 configurations, three equivocating members per cluster,
   on the timed transport.  One op: a walk, a draw and a transfer to the
   next cluster; every 8th op also exchanges the whole cluster.  Each
   block of [async_block_ops] ops runs on a fresh configuration built
   from (seed, block): exchanges slowly gather Byzantine members into
   some clusters, and ops that fail early cost less, so one long-lived
   configuration would make a run's mix of cheap and dear ops depend on
   how far the run got. *)
let async_block_ops = 16
let async_range = 64

type async_session = {
  cfg : Config.t;
  session : Session.t;
  payloads : Rng.t;
  ids : int array;
  msgs0 : int;  (** ledger total at construction *)
}

let async_build ~seed ~block =
  let rng = Rng.of_int (seed + (7919 * block)) in
  let behavior node =
    match Agreement.Byz_behavior.of_name ~seed:(node + 1) "equivocate" with
    | Ok b -> b
    | Error msg -> invalid_arg msg
  in
  let cfg =
    Config.build_uniform ~rng ~behavior ~n_clusters:8 ~cluster_size:16 ~byz_per_cluster:3
      ~overlay_degree:4 ()
  in
  let delay = match Asim.Delay.of_name "exp" with Ok d -> d | Error msg -> invalid_arg msg in
  let session = Session.create ~rng:(Rng.split rng) ~delay cfg in
  {
    cfg;
    session;
    payloads = Rng.split rng;
    ids = Array.of_list (Config.cluster_ids cfg);
    msgs0 = Ledger.total_messages (Config.ledger cfg);
  }

let async_exp =
  let start ~seed =
    let cur = ref (async_build ~seed ~block:0) in
    let s = ref Stats.zero in
    (* Telemetry of the sessions already retired. *)
    let lat = ref (Telemetry.Histogram.create ()) in
    let queue_peak = ref 0 and inflight_peak = ref 0 and timeouts = ref 0 in
    let retire () =
      let x = !cur.session in
      lat := Telemetry.Histogram.merge !lat (Session.latency_all x);
      queue_peak := max !queue_peak (Session.queue_peak x);
      inflight_peak := max !inflight_peak (Session.inflight_peak x);
      timeouts := !timeouts + Session.timeouts x
    in
    let msgs_done = ref 0 in
    let op i =
      Span.set_op i;
      let { cfg; session; payloads; ids; _ } = !cur in
      let ledger = Config.ledger cfg in
      let msgs () = Ledger.total_messages ledger in
      let c = ids.(i mod Array.length ids) in
      let next = ids.((i + 1) mod Array.length ids) in
      let walk_ok =
        match
          Span.with_span ~msgs "asim.walk" (fun () -> fst (Session.rand_cl session ~start:c ()))
        with
        | Ok w ->
          s :=
            { !s with
              walks_ok = !s.walks_ok + 1;
              walk_retries = !s.walk_retries + w.Cluster.Walk.hop_retries };
          true
        | Error _ ->
          s := { !s with walks_failed = !s.walks_failed + 1 };
          false
      in
      let o =
        fst
          (Span.with_span ~msgs "asim.randnum" (fun () ->
               Session.randnum session ~cluster:c ~range:async_range))
      in
      if o.Cluster.Randnum.stalled then s := { !s with randnum_stalls = !s.randnum_stalls + 1 };
      if not o.Cluster.Randnum.secure then
        s := { !s with randnum_insecure = !s.randnum_insecure + 1 };
      let payload = 1 + Rng.int payloads 1_000 in
      let res =
        fst
          (Span.with_span ~msgs "asim.valchan" (fun () ->
               Session.transmit session ~src_cluster:c ~dst_cluster:next ~payload ()))
      in
      let forged =
        List.exists
          (fun (_, v) -> match v with Some v -> v <> payload | None -> false)
          res.Cluster.Valchan.verdicts
      in
      let accepted = (not forged) && res.Cluster.Valchan.unanimous = Some payload in
      s :=
        if forged then { !s with valchan_forged = !s.valchan_forged + 1 }
        else if accepted then { !s with valchan_accepted = !s.valchan_accepted + 1 }
        else { !s with valchan_rejected = !s.valchan_rejected + 1 };
      let exchange_ok =
        if i mod 8 <> 7 then true
        else
          match
            fst
              (Span.with_span ~msgs "asim.exchange" (fun () ->
                   Session.exchange_all session ~cluster:c ()))
          with
          | Ok _ ->
            s := { !s with exchanges = !s.exchanges + 1 };
            true
          | Error _ -> false
      in
      let bad =
        Array.fold_left
          (fun n cid -> if Config.honest_majority cfg cid then n else n + 1)
          0 ids
      in
      let min_honest =
        Array.fold_left
          (fun m cid -> Float.min m (Config.honest_fraction cfg cid))
          !s.min_honest_fraction ids
      in
      s :=
        { !s with
          steps = !s.steps + 1;
          majority_violations = !s.majority_violations + bad;
          min_honest_fraction = min_honest };
      walk_ok && (not o.Cluster.Randnum.stalled) && accepted && exchange_ok
    in
    let run_block acct ~block =
      if block > 0 then begin
        retire ();
        msgs_done := !msgs_done + Ledger.total_messages (Config.ledger !cur.cfg) - !cur.msgs0;
        cur := async_build ~seed ~block
      end;
      Account.run acct ~label:"async-exp" ~first:(block * async_block_ops)
        ~n:async_block_ops op
    in
    let msgs_total () =
      !msgs_done + Ledger.total_messages (Config.ledger !cur.cfg) - !cur.msgs0
    in
    let checkpoint () =
      let { cfg; session; ids; _ } = !cur in
      check_config cfg;
      let ledger = Config.ledger cfg in
      let summary =
        Stats.summary
          {
            !s with
            n_nodes = Config.n_nodes cfg;
            n_clusters = Array.length ids;
            messages = msgs_total ();
            rounds = Ledger.total_rounds ledger;
            virtual_time = Session.clock session;
            session_timeouts = !timeouts + Session.timeouts session;
            lat_p99 = Session.latency_p99 session;
          }
      in
      let extra_rng = [ ("delay", Session.rng_cursor session) ] in
      { digest = fold_digest (Audit.Digest_of.config ~extra_rng cfg); summary }
    in
    let counts () =
      let x = !cur.session in
      let lat = Telemetry.Histogram.merge !lat (Session.latency_all x) in
      let subs = Telemetry.Histogram.count lat in
      let timeouts = !timeouts + Session.timeouts x in
      let pct p = if subs = 0 then 0.0 else Telemetry.Histogram.percentile lat p in
      [
        ("asim.queue_peak", float_of_int (max !queue_peak (Session.queue_peak x)));
        ("asim.inflight_peak", float_of_int (max !inflight_peak (Session.inflight_peak x)));
        ("asim.timeouts", float_of_int timeouts);
        ("asim.in_deadline_frac", 1.0 -. ratio timeouts subs);
        ("asim.vlat_p50", pct 50.0);
        ("asim.vlat_p99", pct 99.0);
        ("asim.sim_msgs_per_op", ratio (msgs_total ()) !s.steps);
      ]
    in
    {
      run_block;
      checkpoint;
      safety_violations = (fun () -> !s.majority_violations);
      counts;
    }
  in
  { name = "async-exp"; jobs = 1; fixed_seed = None; block_s = 0.16; stop_every = 1; start }

let count_names =
  [
    "core.sim_msgs_per_op"; "core.walk_hops_per_op"; "core.walks_per_op"; "core.splits";
    "core.merges"; "exec.tasks"; "exec.queue_wait_s"; "exec.merge_stall_s";
    "exec.caller_task_frac"; "cluster.churn.ok_frac"; "cluster.walk.ok_frac";
    "cluster.walk.retries_per_walk"; "cluster.valchan.accept_frac";
    "cluster.randnum.unstalled_frac"; "cluster.splits"; "cluster.merges";
    "cluster.sim_msgs_per_op"; "asim.queue_peak"; "asim.inflight_peak"; "asim.timeouts";
    "asim.in_deadline_frac"; "asim.vlat_p50"; "asim.vlat_p99"; "asim.sim_msgs_per_op";
  ]

let is_count name = List.mem name count_names

let all = [ state_scale; state_polyvar; msg_byz; async_exp ]
let find name = List.find_opt (fun w -> w.name = name) all
