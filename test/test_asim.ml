(* Tests for the asynchronous discrete-event engine (lib/asim): event-queue
   ordering properties, the delay-model catalogue, the zero-delay
   cross-validation against the synchronous message engine (valChan,
   randNum, walks and exchange, over the Byzantine behaviour catalogue),
   exchange makespan accounting, and the
   determinism contracts of the async scenario driver (rerun and -j
   byte-identity, zero perturbation under recording). *)

module Queue = Asim.Event_queue
module Delay = Asim.Delay
module Session = Asim.Session
module Config = Cluster.Config
module Valchan = Cluster.Valchan
module Randnum = Cluster.Randnum
module Walk = Cluster.Walk
module Exchange = Cluster.Exchange
module Ledger = Metrics.Ledger
module B = Agreement.Byz_behavior
module Graph = Dsgraph.Graph
module Rng = Prng.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ---------- event-queue properties ---------- *)

(* Pops come out sorted by time, FIFO among equal times, and nothing is
   lost or duplicated.  Times are drawn from a small integer range so
   ties actually occur. *)
let prop_queue_stable_order =
  QCheck.Test.make ~name:"event queue pops in stable (time, seq) order"
    ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 60) (int_range 0 5))
    (fun times ->
      let q = Queue.create () in
      List.iteri
        (fun i t -> Queue.push q ~time:(float_of_int t) (i, t))
        times;
      let rec drain acc =
        match Queue.pop q with
        | None -> List.rev acc
        | Some (time, payload) -> drain ((time, payload) :: acc)
      in
      let out = drain [] in
      let sorted_times = List.sort compare (List.map fst out) in
      List.length out = List.length times
      (* no loss, no duplication: payload indices are exactly 0..n-1 *)
      && List.sort compare (List.map (fun (_, (i, _)) -> i) out)
         = List.init (List.length times) (fun i -> i)
      (* times non-decreasing *)
      && List.map fst out = sorted_times
      (* FIFO among equal times: payload indices increase within a tie *)
      && fst
           (List.fold_left
              (fun (ok, prev) (time, (i, _)) ->
                match prev with
                | Some (ptime, pi) when ptime = time -> (ok && pi < i, Some (time, i))
                | _ -> (ok, Some (time, i)))
              (true, None) out))

(* Interleaved pushes and pops never break the heap order. *)
let prop_queue_interleaved =
  QCheck.Test.make ~name:"event queue survives interleaved push/pop" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 60) (pair bool (int_range 0 9)))
    (fun ops ->
      let q = Queue.create () in
      let pushed = ref 0 and popped = ref 0 and last = ref neg_infinity in
      let ok = ref true in
      List.iter
        (fun (is_pop, t) ->
          if is_pop then (
            match Queue.pop q with
            | None -> ()
            | Some (time, ()) ->
              incr popped;
              (* a pop can never go below an earlier pop once the queue
                 only ever received times >= that pop *)
              if time < !last then ok := false;
              last := time
          )
          else begin
            let time = Float.max !last (float_of_int t) in
            Queue.push q ~time ();
            incr pushed
          end)
        ops;
      let rec drain () =
        match Queue.pop q with
        | None -> ()
        | Some (time, ()) ->
          incr popped;
          if time < !last then ok := false;
          last := time;
          drain ()
      in
      drain ();
      !ok && !pushed = !popped && Queue.is_empty q)

let test_queue_rejects_nan () =
  let q = Queue.create () in
  checkb "NaN time raises" true
    (match Queue.push q ~time:Float.nan () with
    | () -> false
    | exception Invalid_argument _ -> true)

(* ---------- delay models ---------- *)

let test_delay_round_trip () =
  List.iter
    (fun (base, _) ->
      match Delay.of_name base with
      | Error msg -> Alcotest.fail msg
      | Ok d -> (
        (* the canonical name parses back to the same model *)
        match Delay.of_name (Delay.name d) with
        | Error msg -> Alcotest.fail msg
        | Ok d' -> checks ("round-trip " ^ base) (Delay.name d) (Delay.name d')))
    Delay.catalogue;
  checkb "unknown model is refused" true
    (match Delay.of_name "warp" with Error _ -> true | Ok _ -> false);
  checkb "bad parameter is refused" true
    (match Delay.of_name "uniform:mean=-1" with Error _ -> true | Ok _ -> false);
  checkb "unknown parameter is refused" true
    (match Delay.of_name "zero:mean=2" with Error _ -> true | Ok _ -> false)

(* Bounded support and structural slow sets: the crisp-threshold
   arithmetic E14 relies on. *)
let prop_delay_bounded_support =
  QCheck.Test.make ~name:"uniform/straggler delays stay in their bands"
    ~count:200
    QCheck.(pair (int_range 0 1000) (int_range 1 4))
    (fun (seed, every) ->
      let rng = Rng.of_int seed in
      let mean = 1.0 and factor = 8.0 in
      let d = Delay.Straggler { mean; every; factor } in
      let ok = ref true in
      for src = 0 to 19 do
        let x = Delay.sample d rng ~src ~dst:(src + 1) in
        let slow = Delay.is_slow d ~src ~dst:(src + 1) in
        if slow <> (src mod every = 0) then ok := false;
        let lo = if slow then 0.5 *. factor else 0.5
        and hi = if slow then 1.5 *. factor else 1.5 in
        if x < lo || x >= hi then ok := false
      done;
      !ok)

(* ---------- zero-delay cross-validation ---------- *)

(* Node [node] runs the named catalogue behaviour when [corrupt node]. *)
let behaviour ~name ~corrupt node =
  if corrupt node then
    match B.of_name ~seed:(node + 1) name with
    | Ok b -> Some b
    | Error msg -> Alcotest.fail msg
  else None

let byz_counts = [ 0; 3; 7; 9 ]

(* Twin 15-member clusters: the first [byz] source members and the first
   [byz / 3] destination members are corrupted. *)
let pair_config ~rng ~name ~byz =
  let src = List.init 15 (fun i -> i) in
  let dst = List.init 15 (fun i -> 100 + i) in
  let corrupt node = node < byz || (node >= 100 && node < 100 + (byz / 3)) in
  let overlay = Graph.create () in
  ignore (Graph.add_edge overlay 0 1);
  Config.make ~rng ~byzantine:(behaviour ~name ~corrupt)
    ~clusters:[ (0, src); (1, dst) ] ~overlay ()

(* Zero-delay async valchan reproduces the synchronous verdicts exactly,
   for every catalogue behaviour (same behaviour-stream draws), on each
   channel label a behaviour may single out. *)
let test_zero_delay_valchan_matches_sync () =
  List.iter
    (fun name ->
      List.iter
        (fun byz ->
          List.iter
            (fun label ->
              let seed = 2024 + byz in
              let cfg_sync = pair_config ~rng:(Rng.of_int seed) ~name ~byz in
              let cfg_async = pair_config ~rng:(Rng.of_int seed) ~name ~byz in
              let reference =
                Valchan.transmit cfg_sync ~src_cluster:0 ~dst_cluster:1 ~label
                  ~payload:77 ()
              in
              let s =
                Session.create ~rng:(Rng.of_int (seed + 1)) ~delay:Delay.Zero cfg_async
              in
              let res, makespan =
                Session.transmit s ~src_cluster:0 ~dst_cluster:1 ~label ~payload:77 ()
              in
              let what = Printf.sprintf "%s byz=%d %s" name byz label in
              checkb ("verdicts equal " ^ what) true
                (reference.Valchan.verdicts = res.Valchan.verdicts);
              checkb ("unanimous equal " ^ what) true
                (reference.Valchan.unanimous = res.Valchan.unanimous);
              checkb "zero delay, zero makespan" true (makespan = 0.0);
              checki "ledger messages equal"
                (Ledger.total_messages (Config.ledger cfg_sync))
                (Ledger.total_messages (Config.ledger cfg_async)))
            [ "valchan"; "walk.token"; "exchange.announce" ])
        byz_counts)
    B.names

let single_config ~rng ~name ~byz ~n =
  let ids = List.init n (fun i -> i) in
  let overlay = Graph.create () in
  Graph.add_vertex overlay 0;
  Config.make ~rng ~byzantine:(behaviour ~name ~corrupt:(fun node -> node < byz))
    ~clusters:[ (0, ids) ] ~overlay ()

let test_zero_delay_randnum_matches_sync () =
  List.iter
    (fun name ->
      List.iter
        (fun byz ->
          for seed = 1 to 8 do
            let cfg_sync = single_config ~rng:(Rng.of_int seed) ~name ~byz ~n:15 in
            let cfg_async = single_config ~rng:(Rng.of_int seed) ~name ~byz ~n:15 in
            let reference = Randnum.run cfg_sync ~cluster:0 ~range:1000 in
            let s =
              Session.create ~rng:(Rng.of_int (seed + 1)) ~delay:Delay.Zero cfg_async
            in
            let o, _ = Session.randnum s ~cluster:0 ~range:1000 in
            checki "value equal" reference.Randnum.value o.Randnum.value;
            checki "participants equal" reference.Randnum.participants
              o.Randnum.participants;
            checkb "stalled equal" true (reference.Randnum.stalled = o.Randnum.stalled);
            checkb "secure equal" true (reference.Randnum.secure = o.Randnum.secure)
          done)
        byz_counts)
    B.names

(* Six clusters of 12 on a ring; member [j] of every cluster is corrupted
   when [j < byz]. *)
let ring_config ?(name = "silent") ?(byz = 0) ~rng () =
  let clusters =
    List.init 6 (fun c -> (c, List.init 12 (fun j -> (c * 100) + j)))
  in
  let overlay = Graph.create () in
  for c = 0 to 5 do
    ignore (Graph.add_edge overlay c ((c + 1) mod 6))
  done;
  Config.make ~rng
    ~byzantine:(behaviour ~name ~corrupt:(fun node -> node mod 100 < byz))
    ~clusters ~overlay ()

let test_zero_delay_walk_matches_sync () =
  for seed = 1 to 6 do
    let cfg_sync = ring_config ~rng:(Rng.of_int seed) () in
    let cfg_async = ring_config ~rng:(Rng.of_int seed) () in
    let reference = Walk.rand_cl ~duration:6.0 cfg_sync ~start:0 in
    let s = Session.create ~rng:(Rng.of_int (seed + 1)) ~delay:Delay.Zero cfg_async in
    let res, makespan = Session.rand_cl s ~duration:6.0 ~start:0 () in
    (match (reference, res) with
    | Ok a, Ok b ->
      checki "endpoint equal" a.Walk.selected b.Walk.selected;
      checki "hops equal" a.Walk.hops b.Walk.hops;
      checki "restarts equal" a.Walk.restarts b.Walk.restarts
    | Error _, Error _ -> ()
    | _ -> Alcotest.fail "sync and zero-delay async walks disagree");
    checkb "zero delay, zero makespan" true (makespan = 0.0)
  done

(* Ledger messages per label (the async kernel charges no "round"). *)
let label_messages cfg =
  List.filter_map
    (fun (label, messages, _) -> if messages > 0 then Some (label, messages) else None)
    (Ledger.labels (Config.ledger cfg))

(* A zero-delay async exchange places every node where the synchronous
   one does and sends the same messages; only the round count differs:
   the synchronous engine charges rounds, the asynchronous one none. *)
let test_zero_delay_exchange_matches_sync () =
  List.iter
    (fun name ->
      for seed = 1 to 4 do
        let cfg_sync = ring_config ~name ~byz:3 ~rng:(Rng.of_int seed) () in
        let cfg_async = ring_config ~name ~byz:3 ~rng:(Rng.of_int seed) () in
        let reference = Exchange.exchange_all cfg_sync ~cluster:0 in
        let s = Session.create ~rng:(Rng.of_int (seed + 1)) ~delay:Delay.Zero cfg_async in
        let res, makespan = Session.exchange_all s ~cluster:0 () in
        let what = Printf.sprintf "%s seed=%d" name seed in
        checkb ("result equal " ^ what) true (reference = res);
        List.iter
          (fun c ->
            checkb
              (Printf.sprintf "cluster %d members equal %s" c what)
              true
              (Config.members cfg_sync c = Config.members cfg_async c))
          (Config.cluster_ids cfg_sync);
        checkb ("ledger messages equal " ^ what) true
          (label_messages cfg_sync = label_messages cfg_async);
        checkb "zero delay, zero makespan" true (makespan = 0.0);
        checkb "sync charges rounds" true (Ledger.total_rounds (Config.ledger cfg_sync) > 0);
        checki "async charges no rounds" 0 (Ledger.total_rounds (Config.ledger cfg_async))
      done)
    B.names

(* The makespan [exchange_all] returns accounts for every sub-session it
   ran, replacement draws included: it is the clock's advance. *)
let test_exchange_makespan_is_clock_advance () =
  let delay = match Delay.of_name "exp" with Ok d -> d | Error msg -> Alcotest.fail msg in
  for seed = 1 to 5 do
    let cfg = ring_config ~rng:(Rng.of_int seed) () in
    let s = Session.create ~rng:(Rng.of_int (seed + 1)) ~delay cfg in
    ignore (Session.randnum s ~cluster:1 ~range:10);
    let before = Session.clock s in
    let _, makespan = Session.exchange_all s ~cluster:0 () in
    let advance = Session.clock s -. before in
    checkb
      (Printf.sprintf "seed %d: makespan %g = clock advance %g" seed makespan advance)
      true
      (advance > 0.0 && Float.abs (makespan -. advance) <= 1e-9 *. advance)
  done

(* ---------- async scenario driver determinism ---------- *)

let async_cells ?jobs () =
  Scenario.cells ?jobs ~engine:`Async ~seed:7 ~cells:4 Scenario.steady

let test_async_cells_jobs_identical () =
  let sequential = async_cells ~jobs:1 () in
  let parallel = async_cells ~jobs:2 () in
  let rerun = async_cells ~jobs:2 () in
  checkb "-j1 == -j2" true (sequential = parallel);
  checkb "rerun identical" true (parallel = rerun);
  List.iter
    (fun (label, s) ->
      checks "async label" "async:steady" label;
      checkb "virtual time advanced" true (s.Scenario.Stats.virtual_time > 0.0))
    sequential

(* Recording digests must not change a single stat (the recorder's
   zero-perturbation contract extends to the async driver, delay-stream
   cursor included). *)
let test_async_recording_zero_perturbation () =
  let plain = async_cells () in
  let recorder = Audit.create ~cadence:2 () in
  let recorded = Audit.with_recorder recorder (fun () -> async_cells ()) in
  checkb "stats identical under recording" true (plain = recorded);
  checkb "frames were recorded" true (Audit.Recorder.n_frames recorder > 0)

let test_engine_of_name_async () =
  checkb "async parses" true (Scenario.engine_of_name "async" = Ok `Async);
  checks "async prints" "async" (Scenario.engine_name `Async);
  (match Scenario.engine_of_name "bogus" with
  | Ok _ -> Alcotest.fail "bogus engine accepted"
  | Error msg ->
    checkb "error lists the full catalogue" true
      (let has needle =
         let nlen = String.length needle and len = String.length msg in
         let rec go i = i + nlen <= len && (String.sub msg i nlen = needle || go (i + 1)) in
         go 0
       in
       has "state" && has "msg" && has "mixed" && has "async"));
  (* a bad delay name in the spec is rejected before any cell runs *)
  let bad = { Scenario.steady with Scenario.Spec.delay = Some "warp" } in
  checkb "unknown delay model rejected" true
    (match Scenario.check_supported `Async bad with
    | Error _ -> true
    | Ok () -> false)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_queue_stable_order;
    QCheck_alcotest.to_alcotest prop_queue_interleaved;
    Alcotest.test_case "event queue rejects NaN times" `Quick
      test_queue_rejects_nan;
    Alcotest.test_case "delay catalogue round-trips through of_name" `Quick
      test_delay_round_trip;
    QCheck_alcotest.to_alcotest prop_delay_bounded_support;
    Alcotest.test_case "zero-delay valchan == synchronous verdicts" `Quick
      test_zero_delay_valchan_matches_sync;
    Alcotest.test_case "zero-delay randNum == synchronous draw" `Quick
      test_zero_delay_randnum_matches_sync;
    Alcotest.test_case "zero-delay walk == synchronous endpoint" `Quick
      test_zero_delay_walk_matches_sync;
    Alcotest.test_case "zero-delay exchange == synchronous placement" `Quick
      test_zero_delay_exchange_matches_sync;
    Alcotest.test_case "exchange makespan is the clock advance" `Quick
      test_exchange_makespan_is_clock_advance;
    Alcotest.test_case "async cells are byte-identical for any -j" `Quick
      test_async_cells_jobs_identical;
    Alcotest.test_case "recording perturbs no async stat" `Quick
      test_async_recording_zero_perturbation;
    Alcotest.test_case "engine catalogue includes async" `Quick
      test_engine_of_name_async;
  ]
