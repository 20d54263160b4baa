(* The repo benchmark.  Run from the repository root:

     main.exe --workload W --seed N --seconds S --trace 0|1

   prints one line per block and its deterministic counts, then, as the
   last line, the JSON result with the metrics BENCHMARK.json declares
   (end_to_end untraced, per_layer traced).  [--record K] instead prints
   the golden lines of the seed's first K blocks.  perfbench/README.md
   explains the workloads and metrics. *)

open Perfbench

let default_seed = 42
let held_out_seed = 7
let golden_path = "perfbench/golden.txt"
let spec_path = "BENCHMARK.json"
let trace_dir = ".bench_build/traces"
let now = Unix.gettimeofday

(* A timed run plays the same block sequence several times, each pass
   from a fresh instance.  Each block's time is scaled to the reference
   host speed by the host probe taken before it ({!Host}), and the block
   is timed by its fastest pass.  Other tenants of a shared host slow a
   run in regimes longer than the run, which the probe corrects for, and
   in shorter bursts, which only ever add time: the fastest of passes
   spread over the run drops them.  A run makes as many passes as fit
   its length, from 2 to [max_passes]. *)
let max_passes = 5

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type phase = {
  acct : Account.t;
  broken : bool;  (** a checkpoint found a broken invariant *)
  checkpoints : Workloads.checkpoint list;
  block_s : float list;  (** run time of each block *)
  probe_s : float list;  (** {!Host.probe} before each block *)
  alloc_bytes : float;
  heap_words : int;  (** largest major heap seen at a block boundary *)
  safety_violations : int;
  counts : (string * float) list;
}

let sum = List.fold_left ( +. ) 0.0

(* Block times at the reference host speed. *)
let adjusted p =
  List.map2 (fun t probe_s -> Host.adjust ~probe_s t) p.block_s (Host.smooth p.probe_s)

let per_s p times =
  let t = sum times in
  if t > 0.0 then float_of_int p.acct.Account.ran /. t else 0.0

(* Runs blocks [0, n).  Only [run_block] is timed; the checkpoint
   (invariants, digest, summary) after each block is not. *)
let run_phase ~label (inst : Workloads.instance) n =
  let acct = Account.create () in
  let alloc = ref 0.0 and broken = ref false and times = ref [] and heap = ref 0 in
  let probes = ref [] in
  let rec loop block acc =
    if block >= n then List.rev acc
    else begin
      let ran0 = acct.Account.ran in
      probes := Host.probe () :: !probes;
      let a0 = Gc.allocated_bytes () in
      let t0 = now () in
      let alive = inst.run_block acct ~block in
      let t1 = now () in
      alloc := !alloc +. (Gc.allocated_bytes () -. a0);
      times := (t1 -. t0) :: !times;
      heap := max !heap (Gc.quick_stat ()).Gc.heap_words;
      match inst.checkpoint () with
      | exception Failure msg ->
        Printf.printf "%s block %d: INVARIANT BROKEN: %s\n%!" label (block + 1) msg;
        broken := true;
        List.rev acc
      | cp ->
        Printf.printf "%s block %d: %d ops in %.3f s, digest %s\n%!" label (block + 1)
          (acct.ran - ran0) (t1 -. t0) cp.Workloads.digest;
        if alive then loop (block + 1) (cp :: acc) else List.rev (cp :: acc)
    end
  in
  let checkpoints = loop 0 [] in
  {
    acct;
    broken = !broken;
    checkpoints;
    block_s = List.rev !times;
    probe_s = List.rev !probes;
    alloc_bytes = !alloc;
    heap_words = !heap;
    safety_violations = inst.safety_violations ();
    counts = inst.counts ();
  }

(* Compares every block that has a record for this seed. *)
let check_golden golden ~workload ~seed checkpoints =
  let ok = ref true and checked = ref 0 in
  List.iteri
    (fun i (cp : Workloads.checkpoint) ->
      match Golden.find golden ~workload ~seed ~block:(i + 1) with
      | None -> ()
      | Some g ->
        incr checked;
        if g <> cp then begin
          ok := false;
          Printf.printf "MISMATCH %s seed %d block %d:\n  want %s\n  got  %s\n" workload
            seed (i + 1)
            (Golden.line ~workload ~seed ~block:(i + 1) g)
            (Golden.line ~workload ~seed ~block:(i + 1) cp)
        end)
    checkpoints;
  Printf.printf "golden: %d of %d blocks recorded for seed %d, %s\n" !checked
    (List.length checkpoints) seed
    (if !ok then "all equal" else "MISMATCH");
  !ok

(* A seed without records still proves the program's behaviour: the
   default seed's first block is replayed after the timed part. *)
let canary golden (w : Workloads.t) =
  let p = run_phase ~label:"canary" (w.start ~seed:default_seed) 1 in
  (not p.broken) && check_golden golden ~workload:w.name ~seed:default_seed p.checkpoints

let print_counts p =
  Printf.printf "counts: ops=%d failed=%d raised=%d safety_violations=%d" p.acct.Account.ran
    p.acct.failed p.acct.raised p.safety_violations;
  List.iter (fun (k, v) -> Printf.printf " %s=%.6g" k v) p.counts;
  print_newline ()

(* A run of [seconds] makes [passes] passes of [blocks] blocks each: as
   many as took that long on the reference machine, in whole multiples
   of [stop_every]. *)
let plan (w : Workloads.t) ~seconds =
  let unit_s = float_of_int w.stop_every *. w.block_s in
  let passes = max 2 (min max_passes (Float.to_int (Float.round (seconds /. unit_s)))) in
  let units = Float.round (seconds /. float_of_int passes /. unit_s) in
  (passes, max 1 (Float.to_int units) * w.stop_every)

(* Construction is timed in batches of a power-of-two size allocating
   at least [batch_bytes], so that the clock's resolution washes out;
   sizing by allocation rather than time keeps the heap's history, and
   so [peak_heap_mb], the same from run to run.  [setup_batches] batches
   run before each pass, so the samples spread over the run; [setup_s]
   is their median per-construction time, each batch scaled by the host
   probe taken before it.  The heap is collected before
   each batch, so no batch pays for another's garbage, and no pass's
   instance is alive during one. *)
let setup_batches = 3
let batch_bytes = 32e6

let batch_size (w : Workloads.t) ~seed =
  let a0 = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (w.start ~seed));
  let per = Float.max 1.0 (Gc.allocated_bytes () -. a0) in
  let rec grow size = if float_of_int size *. per >= batch_bytes then size else grow (2 * size) in
  grow 1

let setup_samples (w : Workloads.t) ~seed ~size =
  List.init setup_batches (fun _ ->
      Gc.full_major ();
      let probe_s = Host.probe () in
      let t0 = now () in
      for _ = 1 to size do
        ignore (Sys.opaque_identity (w.start ~seed))
      done;
      Host.adjust ~probe_s (now () -. t0) /. float_of_int size)

let failed_frac (a : Account.t) =
  if a.attempted = 0 then 0.0 else float_of_int a.failed /. float_of_int a.attempted

let span_suffixes = [ "busy_s"; "alloc_bytes"; "sim_msgs"; "p50_us"; "tail_us"; "calls" ]

(* A per-layer metric named [layer.suffix] for a span-derived suffix is
   read from the spans named [layer]; a layer the workload never entered
   reads 0. *)
let span_metric layers name =
  match String.rindex_opt name '.' with
  | None -> None
  | Some i ->
    let layer = String.sub name 0 i in
    let suffix = String.sub name (i + 1) (String.length name - i - 1) in
    if not (List.mem suffix span_suffixes) then None
    else
      Some
        (match List.assoc_opt layer layers with
        | None -> 0.0
        | Some (l : Span.layer) -> (
          match suffix with
          | "busy_s" -> l.busy_s
          | "alloc_bytes" -> l.alloc_bytes
          | "sim_msgs" -> float_of_int l.sim_msgs
          | "p50_us" -> Pct.quantile l.durations_us 0.5
          | "tail_us" -> snd (Pct.tail l.durations_us)
          | _ -> float_of_int l.calls))

let print_layers layers =
  List.iter
    (fun (name, (l : Span.layer)) ->
      let label, tail = Pct.tail l.durations_us in
      Printf.printf
        "layer %s: n=%d busy=%.6f s p50=%.1f us %s=%.1f us alloc=%.0f B sim_msgs=%d\n"
        name l.calls l.busy_s
        (Pct.quantile l.durations_us 0.5)
        label tail l.alloc_bytes l.sim_msgs)
    layers

let emit ~declared ~values ~correct ~(acct : Account.t) =
  let metrics =
    List.map
      (fun (m : Report.metric) ->
        match values m.name with
        | Some v -> (m, v)
        | None ->
          Printf.eprintf "perfbench: %s declares %S, which this run does not produce\n"
            spec_path m.name;
          exit 3)
      declared
  in
  print_endline
    (Json.to_string
       (Report.result ~correct ~attempted:acct.attempted ~failed:acct.failed metrics))

let timed_run (w : Workloads.t) ~seed ~seconds ~golden ~declared =
  let passes, blocks = plan w ~seconds in
  let size = batch_size w ~seed and setup = ref [] in
  let pass r =
    setup := setup_samples w ~seed ~size @ !setup;
    Gc.full_major ();
    run_phase ~label:(Printf.sprintf "%s pass %d" w.name r) (w.start ~seed) blocks
  in
  let first = pass 1 in
  let rest = List.init (passes - 1) (fun r -> pass (r + 2)) in
  let peak_heap_mb =
    float_of_int (List.fold_left (fun m p -> max m p.heap_words) first.heap_words rest)
    *. float_of_int (Sys.word_size / 8) /. 1e6
  in
  print_counts first;
  let all = first :: rest in
  let same =
    List.for_all (fun p -> (not p.broken) && p.checkpoints = first.checkpoints) all
  in
  Printf.printf "%d passes %s on the same %d block digests\n" passes
    (if same then "end" else "do NOT end") blocks;
  let ok = same && check_golden golden ~workload:w.name ~seed first.checkpoints in
  let ok =
    if Golden.has_seed golden ~workload:w.name ~seed then ok else canary golden w && ok
  in
  let fastest times =
    if not same then sum (List.hd times)
    else sum (List.fold_left (List.map2 Float.min) (List.hd times) (List.tl times))
  in
  let best_s = fastest (List.map adjusted all) in
  let pass_list f =
    String.concat ", " (List.map (fun p -> Printf.sprintf "%.4g" (f p)) all)
  in
  Printf.printf "pass ops/s as measured: %s; fastest pass per block: %.6g s in all\n"
    (pass_list (fun p -> per_s p p.block_s))
    (fastest (List.map (fun p -> p.block_s) all));
  Printf.printf "pass median probe: %s ms (reference %.3g ms)\n"
    (pass_list (fun p -> 1e3 *. median p.probe_s))
    (1e3 *. Host.reference_s);
  Printf.printf
    "pass ops/s at reference host speed: %s; fastest pass per block: %.6g s in all\n"
    (pass_list (fun p -> per_s p (adjusted p)))
    best_s;
  let ran = max 1 first.acct.ran in
  let values =
    [
      ("ops_per_s", float_of_int first.acct.ran /. best_s);
      ("alloc_bytes_per_op", first.alloc_bytes /. float_of_int ran);
      ("peak_heap_mb", peak_heap_mb);
      ("setup_s", median !setup);
      ("failed_frac", failed_frac first.acct);
      ("safety_violations", float_of_int first.safety_violations);
    ]
  in
  List.iter (fun (k, v) -> Printf.printf "%s = %.6g\n" k v) values;
  emit ~declared ~values:(fun n -> List.assoc_opt n values) ~correct:ok ~acct:first.acct

(* The untraced and the traced pass each do the work of one timed
   pass. *)
let traced_run (w : Workloads.t) ~seed ~seconds ~golden ~declared =
  let _, blocks = plan w ~seconds in
  let plain = run_phase ~label:(w.name ^ " untraced") (w.start ~seed) blocks in
  let inst = w.start ~seed in
  Span.start ();
  let traced = run_phase ~label:(w.name ^ " traced") inst blocks in
  let spans = Span.stop () in
  print_counts traced;
  let same =
    (not plain.broken) && (not traced.broken) && plain.checkpoints = traced.checkpoints
  in
  Printf.printf "traced run %s the untraced run's %d block digests\n"
    (if same then "ends on" else "DIFFERS FROM") blocks;
  let ok = check_golden golden ~workload:w.name ~seed traced.checkpoints in
  let path = Printf.sprintf "%s/%s-seed%d.jsonl" trace_dir w.name seed in
  Span.write_jsonl path spans;
  Printf.printf "wrote %d spans to %s\n" (List.length spans) path;
  let layers = Span.by_name spans in
  print_layers layers;
  let values =
    [
      ( "trace.overhead_frac",
        (per_s plain (adjusted plain) /. per_s traced (adjusted traced)) -. 1.0 );
      ("failed_frac", failed_frac traced.acct);
      ("safety_violations", float_of_int traced.safety_violations);
    ]
    @ traced.counts
  in
  let lookup name =
    match List.assoc_opt name values with
    | Some v -> Some v
    | None -> (
      match span_metric layers name with
      | Some v -> Some v
      | None -> if Workloads.is_count name then Some 0.0 else None)
  in
  emit ~declared ~values:lookup ~correct:(same && ok) ~acct:traced.acct

let record (w : Workloads.t) ~seed ~blocks =
  let p = run_phase ~label:w.name (w.start ~seed) blocks in
  List.iteri
    (fun i cp -> print_endline (Golden.line ~workload:w.name ~seed ~block:(i + 1) cp))
    p.checkpoints

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.0 in
  let trace = ref 0 and record_blocks = ref 0 in
  let names = String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of: " ^ names);
      ( "--seed",
        Arg.Set_int seed,
        Printf.sprintf " input seed (default %d; held-out seed %d)" default_seed held_out_seed );
      ("--seconds", Arg.Set_float seconds, " run length, at the reference machine's speed");
      ("--trace", Arg.Set_int trace, " 1: traced run reporting per-layer metrics");
      ("--record", Arg.Set_int record_blocks, "K print the golden lines of the first K blocks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  match Workloads.find !workload with
  | None ->
    Printf.eprintf "perfbench: unknown workload %S (available: %s)\n" !workload names;
    exit 2
  | Some w ->
    if !seconds <= 0.0 then (prerr_endline "perfbench: --seconds must be positive"; exit 2);
    if !trace <> 0 && !trace <> 1 then (prerr_endline "perfbench: --trace must be 0 or 1"; exit 2);
    Exec.set_default_jobs w.jobs;
    (match w.fixed_seed with
    | Some s when s <> !seed ->
      Printf.printf "%s takes no input from --seed: it runs seed %d's inputs\n" w.name s;
      seed := s
    | _ -> ());
    Printf.printf "perfbench %s seed=%d seconds=%g trace=%d jobs=%d\n%!" w.name !seed
      !seconds !trace w.jobs;
    if !record_blocks > 0 then record w ~seed:!seed ~blocks:!record_blocks
    else begin
      let declared = Report.declared (Json.of_string (read_file spec_path)) ~trace:(!trace = 1) in
      let golden = Golden.load golden_path in
      if !trace = 1 then traced_run w ~seed:!seed ~seconds:!seconds ~golden ~declared
      else timed_run w ~seed:!seed ~seconds:!seconds ~golden ~declared
    end
