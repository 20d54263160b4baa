open Perfbench

let span ~id ~parent ~start ~stop ?(alloc = 0.0) ?(msgs = 0) name =
  { Span.id; name; parent; op = 0; start; stop; alloc; msgs }

(* --- self time --- *)

let self_time_nested () =
  let spans =
    [
      span ~id:0 ~parent:(-1) ~start:0.0 ~stop:10.0 ~alloc:100.0 ~msgs:50 "op";
      (* overlapping children: together they cover [1, 5] *)
      span ~id:1 ~parent:0 ~start:1.0 ~stop:3.0 ~alloc:10.0 ~msgs:5 "a";
      span ~id:2 ~parent:0 ~start:2.0 ~stop:5.0 ~alloc:20.0 ~msgs:7 "a";
      (* a child running past its parent only covers the parent up to 10 *)
      span ~id:3 ~parent:0 ~start:8.0 ~stop:12.0 "b";
      (* a grandchild is covered by its own parent, not by "op" *)
      span ~id:4 ~parent:2 ~start:2.5 ~stop:3.5 ~alloc:5.0 "c";
    ]
  in
  let self = Span.self_times spans in
  let of_id id = snd (List.find (fun ((s : Span.span), _) -> s.id = id) self) in
  Alcotest.(check (float 1e-9)) "op: 10 - |[1,5] u [8,10]|" 4.0 (of_id 0);
  Alcotest.(check (float 1e-9)) "leaf a" 2.0 (of_id 1);
  Alcotest.(check (float 1e-9)) "a minus its grandchild" 2.0 (of_id 2);
  Alcotest.(check (float 1e-9)) "leaf b" 4.0 (of_id 3);
  let layers = Span.by_name spans in
  let a = List.assoc "a" layers and op = List.assoc "op" layers in
  Alcotest.(check int) "a calls" 2 a.Span.calls;
  Alcotest.(check (float 1e-9)) "a busy" 4.0 a.busy_s;
  Alcotest.(check (float 1e-9)) "a self alloc" 25.0 a.alloc_bytes;
  Alcotest.(check (float 1e-9)) "op self alloc" 70.0 op.alloc_bytes;
  Alcotest.(check int) "op self msgs" 38 op.sim_msgs;
  Alcotest.(check (list string)) "sorted names" [ "a"; "b"; "c"; "op" ] (List.map fst layers)

let recorder () =
  let counter = ref 0 in
  let msgs () = !counter in
  Alcotest.(check int) "off: plain call" 3 (Span.with_span "x" (fun () -> 3));
  Span.start ();
  Span.set_op 7;
  Span.with_span ~msgs "outer" (fun () ->
      counter := 5;
      Span.with_span ~msgs "inner" (fun () -> counter := 8));
  (try Span.with_span "raises" (fun () -> failwith "boom") with Failure _ -> ());
  let spans = Span.stop () in
  Alcotest.(check (list string)) "opening order" [ "outer"; "inner"; "raises" ]
    (List.map (fun (s : Span.span) -> s.name) spans);
  let outer = List.nth spans 0 and inner = List.nth spans 1 in
  Alcotest.(check int) "inner's parent" outer.id inner.parent;
  Alcotest.(check int) "root" (-1) outer.parent;
  Alcotest.(check int) "op id" 7 inner.op;
  Alcotest.(check int) "outer msgs" 8 outer.msgs;
  Alcotest.(check int) "inner msgs" 3 inner.msgs;
  Alcotest.(check bool) "off after stop" false (Span.recording ())

(* --- percentile rule --- *)

let pct () =
  let sorted n = Array.init n (fun i -> float_of_int (i + 1)) in
  let check name n label value =
    Alcotest.(check (pair string (float 1e-9))) name (label, value) (Pct.tail (sorted n))
  in
  check "n=1000: p99 leaves exactly 10 above" 1000 "p99" 990.0;
  check "n=999: p99 leaves 9, p90 taken" 999 "p90" 900.0;
  check "n=10000: p99.9" 10000 "p99.9" 9990.0;
  check "n=20: p50 leaves 10" 20 "p50" 10.0;
  check "n=19: no percentile qualifies" 19 "max" 19.0;
  check "empty" 0 "none" 0.0;
  Alcotest.(check (float 1e-9)) "median of 1..5" 3.0 (Pct.quantile (sorted 5) 0.5)

(* --- the result line against BENCHMARK.json --- *)

let spec () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Json.of_string s

let round_trip () =
  let spec = spec () in
  List.iter
    (fun trace ->
      let declared = Report.declared spec ~trace in
      let values = [| 1.2034000000000001; 0.8127; 1e-7; 123456789.0; 0.0; 2.5e15 |] in
      let metrics = List.mapi (fun i m -> (m, values.(i mod Array.length values))) declared in
      let line =
        Json.to_string (Report.result ~correct:true ~attempted:1000 ~failed:3 metrics)
      in
      Alcotest.(check bool) "one line" false (String.contains line '\n');
      let correct, attempted, failed, back = Report.parse_result (Json.of_string line) in
      Alcotest.(check bool) "correct" true correct;
      Alcotest.(check int) "attempted" 1000 attempted;
      Alcotest.(check int) "failed" 3 failed;
      Alcotest.(check (list (pair string string))) "names and units"
        (List.map (fun ((m : Report.metric), _) -> (m.name, m.unit_)) metrics)
        (List.map (fun ((m : Report.metric), _) -> (m.name, m.unit_)) back);
      Alcotest.(check (list (float 0.0))) "values, every digit" (List.map snd metrics)
        (List.map snd back))
    [ false; true ];
  match Report.parse_result (Json.of_string {|{"correct": true, "attempted": 1, "failed": 0, "metrics": {}, "extra": 1}|}) with
  | _ -> Alcotest.fail "extra key accepted"
  | exception Failure _ -> ()

let name_ok s =
  String.length s >= 1 && String.length s <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

(* Every declared name is one the benchmark produces: a span-derived
   suffix, a workload count, or one of the run-level values. *)
let declared_metrics_are_produced () =
  let spec = spec () in
  let e2e = Report.declared spec ~trace:false and layer = Report.declared spec ~trace:true in
  let names = List.map (fun (m : Report.metric) -> m.name) (e2e @ layer) in
  Alcotest.(check int) "names used once" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter (fun n -> if not (name_ok n) then Alcotest.failf "bad name %S" n) names;
  Alcotest.(check (list string)) "end-to-end metrics"
    [ "ops_per_s"; "alloc_bytes_per_op"; "peak_heap_mb"; "setup_s" ]
    (List.map (fun (m : Report.metric) -> m.name) e2e);
  let span_layers =
    [ "core.join"; "core.leave"; "core.epoch"; "cluster.join"; "cluster.leave";
      "cluster.walk"; "cluster.randnum"; "cluster.valchan"; "cluster.exchange";
      "scenario.scan"; "monitor.sample"; "asim.walk"; "asim.randnum"; "asim.valchan";
      "asim.exchange" ]
  in
  let run_level = [ "trace.overhead_frac"; "failed_frac"; "safety_violations" ] in
  List.iter
    (fun (m : Report.metric) ->
      let from_span =
        match String.rindex_opt m.name '.' with
        | Some i -> List.mem (String.sub m.name 0 i) span_layers
        | None -> false
      in
      if not (from_span || Workloads.is_count m.name || List.mem m.name run_level) then
        Alcotest.failf "per-layer metric %S is produced by nothing" m.name)
    layer

(* --- failure accounting --- *)

let accounting () =
  let t = Account.create () in
  let ran = ref [] in
  let alive =
    Account.run t ~label:"synthetic" ~first:0 ~n:10 (fun i ->
        ran := i :: !ran;
        if i = 3 then raise Not_found;
        i <> 1)
  in
  Alcotest.(check bool) "dead after the raise" false alive;
  Alcotest.(check (list int)) "nothing runs after the raise" [ 3; 2; 1; 0 ] !ran;
  Alcotest.(check int) "attempted counts the skipped ops" 10 t.attempted;
  Alcotest.(check int) "ran" 3 t.ran;
  Alcotest.(check int) "failed: op 1, the raising op and 6 skipped" 8 t.failed;
  Alcotest.(check int) "raised" 1 t.raised;
  let alive = Account.run t ~label:"synthetic" ~first:10 ~n:2 (fun _ -> true) in
  Alcotest.(check bool) "a clean run stays alive" true alive;
  Alcotest.(check int) "accumulates" 12 t.attempted

(* --- the grow/shrink schedule is Adversary.Grow_shrink's --- *)

let grow_shrink_matches_adversary () =
  let module Engine = Now_core.Engine in
  let steps = Workloads.polyvar_period + 200 in
  let a = Workloads.polyvar_engine ~seed:3 in
  let adv =
    Adversary.create ~tau:0.15 ~strategy:(Adversary.Grow_shrink Workloads.polyvar_period) a
  in
  for _ = 1 to steps do
    Adversary.step adv
  done;
  let b = Workloads.polyvar_engine ~seed:3 in
  for i = 0 to steps - 1 do
    Workloads.grow_shrink_op b
      ~join:(fun h -> ignore (Engine.join b h))
      ~leave:(fun node -> ignore (Engine.leave b node))
      i
  done;
  Alcotest.(check (list (pair string int64))) "digests" (Audit.Digest_of.engine a)
    (Audit.Digest_of.engine b)

(* --- host probe --- *)

let host () =
  let floats = Alcotest.(list (float 1e-12)) in
  Alcotest.check floats "a one-block outlier is dropped" [ 1.; 1.; 1.; 1.; 1. ]
    (Host.smooth [ 1.; 1.; 5.; 1.; 1. ]);
  Alcotest.check floats "windows shrink at the ends" [ 2.; 2.5; 3.; 3.5; 4. ]
    (Host.smooth [ 1.; 2.; 3.; 4.; 5. ]);
  Alcotest.check floats "short and empty" [ 2.; 2. ] (Host.smooth [ 1.; 3. ]);
  Alcotest.check floats "empty" [] (Host.smooth []);
  Alcotest.(check (float 1e-12)) "twice as slow a host halves the time" 1.0
    (Host.adjust ~probe_s:(2.0 *. Host.reference_s) 2.0);
  Alcotest.(check bool) "a probe takes time" true (Host.probe () > 0.0)

let () =
  Alcotest.run "perfbench"
    [
      ( "span",
        [
          Alcotest.test_case "self time on nested spans" `Quick self_time_nested;
          Alcotest.test_case "recorder" `Quick recorder;
        ] );
      ("percentile", [ Alcotest.test_case "highest with ten beyond" `Quick pct ]);
      ( "result",
        [
          Alcotest.test_case "round trip through BENCHMARK.json" `Quick round_trip;
          Alcotest.test_case "declared metrics are produced" `Quick
            declared_metrics_are_produced;
        ] );
      ("account", [ Alcotest.test_case "op that raises" `Quick accounting ]);
      ("host", [ Alcotest.test_case "probe, smoothing, scaling" `Quick host ]);
      ( "workloads",
        [ Alcotest.test_case "grow/shrink = Adversary" `Quick grow_shrink_matches_adversary ] );
    ]
