(* Tests for the metrics library: stats, histograms, ledger, tables, fits. *)

module Stats = Metrics.Stats
module Histogram = Metrics.Histogram
module Ledger = Metrics.Ledger
module Table = Metrics.Table
module Fit = Metrics.Fit
module Json = Metrics.Codec.Json

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg a b = Alcotest.check (Alcotest.float 1e-9) msg a b
let checkf_eps eps msg a b = Alcotest.check (Alcotest.float eps) msg a b

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  checki "count" 8 (Stats.count s);
  checkf "mean" 5.0 (Stats.mean s);
  checkf_eps 1e-9 "variance (unbiased)" (32.0 /. 7.0) (Stats.variance s);
  checkf "min" 2.0 (Stats.min s);
  checkf "max" 9.0 (Stats.max s);
  checkf "total" 40.0 (Stats.total s)

let test_stats_empty () =
  let s = Stats.create () in
  checki "count 0" 0 (Stats.count s);
  checkb "mean nan" true (Float.is_nan (Stats.mean s));
  checkf "variance 0" 0.0 (Stats.variance s)

let test_stats_single () =
  let s = Stats.create () in
  Stats.add s 3.5;
  checkf "mean" 3.5 (Stats.mean s);
  checkf "variance" 0.0 (Stats.variance s)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
  List.iter
    (fun x ->
      Stats.add whole x;
      if x < 5.0 then Stats.add a x else Stats.add b x)
    [ 1.0; 2.0; 3.0; 6.0; 7.0; 8.0; 9.0 ];
  let m = Stats.merge a b in
  checki "merged count" (Stats.count whole) (Stats.count m);
  checkf_eps 1e-9 "merged mean" (Stats.mean whole) (Stats.mean m);
  checkf_eps 1e-9 "merged variance" (Stats.variance whole) (Stats.variance m)

let test_stats_merge_empty () =
  let a = Stats.create () and b = Stats.create () in
  Stats.add b 2.0;
  let m = Stats.merge a b in
  checki "count" 1 (Stats.count m);
  checkf "mean" 2.0 (Stats.mean m)

let test_histogram_binning () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  Histogram.add h 0.5;
  Histogram.add h 9.99;
  Histogram.add h 5.0;
  checki "count" 3 (Histogram.count h);
  checki "bin 0" 1 (Histogram.bin_count h 0);
  checki "bin 9" 1 (Histogram.bin_count h 9);
  checki "bin 5" 1 (Histogram.bin_count h 5)

let test_histogram_clamping () =
  let h = Histogram.create ~lo:0.0 ~hi:1.0 ~bins:4 in
  Histogram.add h (-5.0);
  Histogram.add h 42.0;
  checki "low clamp" 1 (Histogram.bin_count h 0);
  checki "high clamp" 1 (Histogram.bin_count h 3)

let test_histogram_bounds () =
  let h = Histogram.create ~lo:2.0 ~hi:4.0 ~bins:2 in
  let lo, hi = Histogram.bin_bounds h 1 in
  checkf "bin lo" 3.0 lo;
  checkf "bin hi" 4.0 hi;
  checki "to_list length" 2 (List.length (Histogram.to_list h))

let test_samples_percentiles () =
  let s = Histogram.Samples.create () in
  for i = 1 to 101 do
    Histogram.Samples.add_int s i
  done;
  checkf "median" 51.0 (Histogram.Samples.median s);
  checkf "p0" 1.0 (Histogram.Samples.percentile s 0.0);
  checkf "p100" 101.0 (Histogram.Samples.percentile s 100.0);
  checki "count" 101 (Histogram.Samples.count s)

let test_samples_interleaved () =
  let s = Histogram.Samples.create () in
  Histogram.Samples.add s 5.0;
  Histogram.Samples.add s 1.0;
  ignore (Histogram.Samples.median s);
  Histogram.Samples.add s 3.0;
  checkf "median re-sorts" 3.0 (Histogram.Samples.median s)

let test_ledger_basic () =
  let l = Ledger.create () in
  Ledger.charge l ~label:"a" ~messages:10 ~rounds:2;
  Ledger.charge l ~label:"b" ~messages:5 ~rounds:1;
  Ledger.charge l ~label:"a" ~messages:1 ~rounds:0;
  checki "total messages" 16 (Ledger.total_messages l);
  checki "total rounds" 3 (Ledger.total_rounds l);
  checki "label a" 11 (Ledger.label_messages l "a");
  checki "label a rounds" 2 (Ledger.label_rounds l "a");
  checki "label b rounds" 1 (Ledger.label_rounds l "b");
  checki "unknown label" 0 (Ledger.label_messages l "zzz");
  checki "unknown label rounds" 0 (Ledger.label_rounds l "zzz");
  checki "labels" 2 (List.length (Ledger.labels l))

let test_ledger_snapshot () =
  let l = Ledger.create () in
  Ledger.charge l ~label:"x" ~messages:7 ~rounds:1;
  let snap = Ledger.snapshot l in
  Ledger.charge l ~label:"x" ~messages:3 ~rounds:2;
  let d = Ledger.since l snap in
  checki "diff messages" 3 d.Ledger.messages;
  checki "diff rounds" 2 d.Ledger.rounds

let test_ledger_reset () =
  let l = Ledger.create () in
  Ledger.charge l ~label:"x" ~messages:7 ~rounds:1;
  Ledger.reset l;
  checki "messages reset" 0 (Ledger.total_messages l);
  checki "labels reset" 0 (List.length (Ledger.labels l))

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "name"; "value" ] in
  Table.add_row t [ Table.S "alpha"; Table.I 42 ];
  Table.add_row t [ Table.S "beta"; Table.F 3.14159 ];
  let rendered = Table.render t in
  checkb "contains title" true
    (String.length rendered > 0
    && String.split_on_char '\n' rendered |> List.hd = "== demo ==");
  checkb "contains alpha" true
    (String.index_opt rendered 'a' <> None);
  checki "rows" 2 (List.length (Table.rows t))

let test_table_row_mismatch () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "row length" (Invalid_argument "Table.add_row: row length mismatch")
    (fun () -> Table.add_row t [ Table.I 1 ])

let test_table_csv () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Table.add_row t [ Table.S "x,y"; Table.I 7 ];
  let csv = Table.to_csv t in
  checkb "header" true (String.sub csv 0 3 = "a,b");
  checkb "escaped comma" true
    (let lines = String.split_on_char '\n' csv in
     List.nth lines 1 = "\"x,y\",7")

let test_cells () =
  Alcotest.check Alcotest.string "int" "7" (Table.cell_to_string (Table.I 7));
  Alcotest.check Alcotest.string "f2" "2.50" (Table.cell_to_string (Table.F2 2.5));
  Alcotest.check Alcotest.string "sci" "1.00e-03" (Table.cell_to_string (Table.E 0.001))

(* ---------- codec ---------- *)

let test_json_string_pinned () =
  Alcotest.check Alcotest.string "escape rule"
    {|"\u0009\u000d\u0001\"\\\n"|}
    (Json.string "\t\r\001\"\\\n");
  Alcotest.check Alcotest.string "non-ASCII bytes pass through" "\"\xc3\xa9\x7f\""
    (Json.string "\xc3\xa9\x7f")

let test_json_reader () =
  let j =
    Json.parse
      (Printf.sprintf
         {| {"big": %d, "neg": -7, "x": 1.5e3,
             "s": "a\/\t\u00e9", "l": [true, false, null], "o": {}} |}
         max_int)
  in
  checkb "max_int reads back exactly" true (Json.member "big" j = Json.Int max_int);
  checkb "negative int" true (Json.member "neg" j = Json.Int (-7));
  checkf "exponent is a float" 1500.0 (Json.num "x" j);
  checkf "int as float" (-7.0) (Json.num "neg" j);
  checkb "escapes decode" true (Json.member "s" j = Json.Str "a/\t\xc3\xa9");
  checkb "literals" true
    (Json.member "l" j = Json.Arr [ Json.Bool true; Json.Bool false; Json.Null ]);
  checkb "absent optional field" true (Json.num_opt "nope" j = None);
  checkb "non-numeric optional field" true (Json.num_opt "s" j = None);
  Alcotest.check_raises "missing field" (Json.Error "missing field \"nope\"")
    (fun () -> ignore (Json.member "nope" j));
  Alcotest.check_raises "trailing garbage" (Json.Error "trailing garbage at byte 3")
    (fun () -> ignore (Json.parse "{} x"))

let test_jsonl_line_numbers () =
  let data = "{\"a\":1}\n\n{\"a\":2}\n{\"a\":}\n" in
  Alcotest.check_raises "third non-blank line named"
    (Json.Error "line 3: bad number \"\" at byte 5")
    (fun () -> ignore (Json.map_lines Fun.id data));
  Alcotest.check_raises "accessor errors carry the line"
    (Json.Error "line 2: missing field \"b\"")
    (fun () -> ignore (Json.map_lines (Json.num "b") "{\"b\":0}\n{\"a\":1}"));
  checkb "blank lines skipped" true
    (Json.map_lines (Json.num "a") "{\"a\":1}\n\n  \n{\"a\":2}\n" = [ 1.0; 2.0 ])

let test_csv_field () =
  let f = Metrics.Codec.Csv.field in
  Alcotest.check Alcotest.string "plain" "abc" (f "abc");
  Alcotest.check Alcotest.string "comma" {|"a,b"|} (f "a,b");
  Alcotest.check Alcotest.string "quote doubled" {|"say ""hi"""|} (f {|say "hi"|});
  Alcotest.check Alcotest.string "newline" "\"a\nb\"" (f "a\nb");
  Alcotest.check Alcotest.string "carriage return" "\"a\rb\"" (f "a\rb")

let test_html_escape () =
  Alcotest.check Alcotest.string "entities" "&amp;&lt;&gt;&quot;'x"
    (Metrics.Codec.Html.escape {|&<>"'x|})

let prop_json_string_round_trip =
  let bytes =
    QCheck.Gen.(
      oneof
        [ char; oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\001'; '\031'; '\127'; '\255' ] ])
  in
  QCheck.Test.make ~name:"json string writer/reader round trip" ~count:500
    (QCheck.string_of bytes)
    (fun s -> Json.parse (Json.string s) = Json.Str s)

let test_fit_linear_exact () =
  let f = Fit.linear [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ] in
  checkf_eps 1e-9 "slope" 2.0 f.Fit.slope;
  checkf_eps 1e-9 "intercept" 1.0 f.Fit.intercept;
  checkf_eps 1e-9 "r2" 1.0 f.Fit.r2

let test_fit_linear_noise () =
  let f = Fit.linear [ (0.0, 0.9); (1.0, 3.2); (2.0, 4.9); (3.0, 7.1) ] in
  checkb "slope near 2" true (abs_float (f.Fit.slope -. 2.0) < 0.2);
  checkb "good r2" true (f.Fit.r2 > 0.98)

let test_fit_power_law () =
  (* y = 3 x^1.7 *)
  let points = List.map (fun x -> (x, 3.0 *. (x ** 1.7))) [ 2.0; 4.0; 8.0; 16.0 ] in
  let f = Fit.power_law points in
  checkf_eps 1e-6 "exponent" 1.7 f.Fit.slope;
  checkf_eps 1e-6 "coefficient" (log 3.0) f.Fit.intercept

let test_fit_polylog () =
  (* y = 2 (log2 x)^3 *)
  let points =
    List.map
      (fun x -> (x, 2.0 *. ((log x /. log 2.0) ** 3.0)))
      [ 16.0; 64.0; 256.0; 1024.0 ]
  in
  let f = Fit.polylog points in
  checkf_eps 1e-6 "polylog exponent" 3.0 f.Fit.slope

let test_fit_errors () =
  Alcotest.check_raises "too few" (Invalid_argument "Fit.linear: need at least two points")
    (fun () -> ignore (Fit.linear [ (1.0, 1.0) ]));
  Alcotest.check_raises "same x" (Invalid_argument "Fit.linear: all x identical")
    (fun () -> ignore (Fit.linear [ (1.0, 1.0); (1.0, 2.0) ]));
  Alcotest.check_raises "negative power-law input"
    (Invalid_argument "Fit.power_law: points must be positive") (fun () ->
      ignore (Fit.power_law [ (-1.0, 2.0); (2.0, 3.0) ]))

(* --- property tests --- *)

let prop_stats_mean_in_range =
  QCheck.Test.make ~name:"mean within [min, max]" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun l ->
      let s = Stats.create () in
      List.iter (Stats.add s) l;
      Stats.mean s >= Stats.min s -. 1e-9 && Stats.mean s <= Stats.max s +. 1e-9)

let prop_merge_matches_sequential =
  QCheck.Test.make ~name:"merge equals sequential feeding" ~count:200
    QCheck.(pair (list (float_range (-100.) 100.)) (list (float_range (-100.) 100.)))
    (fun (la, lb) ->
      let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
      List.iter (Stats.add a) la;
      List.iter (Stats.add b) lb;
      List.iter (Stats.add whole) (la @ lb);
      let m = Stats.merge a b in
      Stats.count m = Stats.count whole
      && (Stats.count m = 0 || abs_float (Stats.mean m -. Stats.mean whole) < 1e-6))

let prop_histogram_conserves =
  QCheck.Test.make ~name:"histogram conserves observations" ~count:200
    QCheck.(list (float_range (-10.) 10.))
    (fun l ->
      let h = Histogram.create ~lo:(-5.0) ~hi:5.0 ~bins:7 in
      List.iter (Histogram.add h) l;
      let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 (Histogram.to_list h) in
      total = List.length l && Histogram.count h = List.length l)

let suite =
  [
    Alcotest.test_case "stats basic" `Quick test_stats_basic;
    Alcotest.test_case "stats empty" `Quick test_stats_empty;
    Alcotest.test_case "stats single" `Quick test_stats_single;
    Alcotest.test_case "stats merge" `Quick test_stats_merge;
    Alcotest.test_case "stats merge empty" `Quick test_stats_merge_empty;
    Alcotest.test_case "histogram binning" `Quick test_histogram_binning;
    Alcotest.test_case "histogram clamping" `Quick test_histogram_clamping;
    Alcotest.test_case "histogram bounds" `Quick test_histogram_bounds;
    Alcotest.test_case "samples percentiles" `Quick test_samples_percentiles;
    Alcotest.test_case "samples interleaved" `Quick test_samples_interleaved;
    Alcotest.test_case "ledger basic" `Quick test_ledger_basic;
    Alcotest.test_case "ledger snapshot" `Quick test_ledger_snapshot;
    Alcotest.test_case "ledger reset" `Quick test_ledger_reset;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table row mismatch" `Quick test_table_row_mismatch;
    Alcotest.test_case "table csv" `Quick test_table_csv;
    Alcotest.test_case "cell formatting" `Quick test_cells;
    Alcotest.test_case "json string pinned" `Quick test_json_string_pinned;
    Alcotest.test_case "json reader" `Quick test_json_reader;
    Alcotest.test_case "jsonl line numbers" `Quick test_jsonl_line_numbers;
    Alcotest.test_case "csv field quoting" `Quick test_csv_field;
    Alcotest.test_case "html escape" `Quick test_html_escape;
    Alcotest.test_case "fit linear exact" `Quick test_fit_linear_exact;
    Alcotest.test_case "fit linear noise" `Quick test_fit_linear_noise;
    Alcotest.test_case "fit power law" `Quick test_fit_power_law;
    Alcotest.test_case "fit polylog" `Quick test_fit_polylog;
    Alcotest.test_case "fit errors" `Quick test_fit_errors;
    QCheck_alcotest.to_alcotest prop_stats_mean_in_range;
    QCheck_alcotest.to_alcotest prop_merge_matches_sequential;
    QCheck_alcotest.to_alcotest prop_histogram_conserves;
    QCheck_alcotest.to_alcotest prop_json_string_round_trip;
  ]
