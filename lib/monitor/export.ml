open Metrics.Codec

let add_labels buf labels =
  Buffer.add_string buf "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Json.add_string buf k;
      Buffer.add_char buf ':';
      Json.add_string buf v)
    labels;
  Buffer.add_char buf '}'

let to_jsonl buf store =
  List.iter
    (fun (s : Store.sample) ->
      Buffer.add_string buf "{\"labels\":";
      add_labels buf s.labels;
      Buffer.add_string buf ",\"series\":";
      Json.add_string buf s.series;
      Buffer.add_string buf (Printf.sprintf ",\"time\":%d" s.time);
      Buffer.add_string buf ",\"type\":\"";
      Buffer.add_string buf (Store.kind_name s.kind);
      Buffer.add_string buf "\",\"value\":";
      Buffer.add_string buf (Store.float_repr s.value);
      Buffer.add_string buf "}\n")
    (Store.samples store);
  List.iter
    (fun (v : Store.violation) ->
      Buffer.add_string buf "{\"blame\":[";
      List.iteri
        (fun i entry ->
          if i > 0 then Buffer.add_char buf ',';
          Json.add_string buf entry)
        v.blame;
      Buffer.add_string buf "],\"bound\":";
      Buffer.add_string buf (Store.float_repr v.bound);
      Buffer.add_string buf ",\"detail\":";
      Json.add_string buf v.detail;
      Buffer.add_string buf ",\"invariant\":";
      Json.add_string buf v.invariant;
      Buffer.add_string buf ",\"labels\":";
      add_labels buf v.v_labels;
      Buffer.add_string buf ",\"observed\":";
      Buffer.add_string buf (Store.float_repr v.observed);
      Buffer.add_string buf (Printf.sprintf ",\"time\":%d" v.v_time);
      Buffer.add_string buf ",\"type\":\"violation\"}\n")
    (Store.violations store);
  Buffer.add_string buf
    (Printf.sprintf "{\"samples\":%d,\"type\":\"meta\",\"violations\":%d}\n"
       (Store.n_samples store) (Store.n_violations store))

(* Labels collapse into one CSV field as [k=v;k=v]; the structural
   characters ([;], [=]) and the escape itself are backslash-escaped
   inside keys and values so a hostile label name round-trips instead of
   forging extra pairs.  Ordinary identifier labels are unchanged. *)
let label_escape s =
  if not (String.exists (fun c -> c = ';' || c = '=' || c = '\\') s) then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        if c = ';' || c = '=' || c = '\\' then Buffer.add_char buf '\\';
        Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let labels_field labels =
  String.concat ";"
    (List.map (fun (k, v) -> label_escape k ^ "=" ^ label_escape v) labels)

(* Blame entries collapse the same way, joined by [|]. *)
let blame_field blame =
  String.concat "|"
    (List.map
       (fun entry ->
         if not (String.exists (fun c -> c = '|' || c = '\\') entry) then entry
         else begin
           let buf = Buffer.create (String.length entry + 2) in
           String.iter
             (fun c ->
               if c = '|' || c = '\\' then Buffer.add_char buf '\\';
               Buffer.add_char buf c)
             entry;
           Buffer.contents buf
         end)
       blame)

let to_csv buf store =
  Buffer.add_string buf "type,series,labels,time,value,bound,detail,blame\n";
  List.iter
    (fun (s : Store.sample) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%s,%d,%s,,,\n" (Store.kind_name s.kind)
           (Csv.field s.series)
           (Csv.field (labels_field s.labels))
           s.time
           (Store.float_repr s.value)))
    (Store.samples store);
  List.iter
    (fun (v : Store.violation) ->
      Buffer.add_string buf
        (Printf.sprintf "violation,%s,%s,%d,%s,%s,%s,%s\n"
           (Csv.field v.invariant)
           (Csv.field (labels_field v.v_labels))
           v.v_time
           (Store.float_repr v.observed)
           (Store.float_repr v.bound)
           (Csv.field v.detail)
           (Csv.field (blame_field v.blame))))
    (Store.violations store)

let jsonl_string store =
  let buf = Buffer.create 4096 in
  to_jsonl buf store;
  Buffer.contents buf

let csv_string store =
  let buf = Buffer.create 4096 in
  to_csv buf store;
  Buffer.contents buf
