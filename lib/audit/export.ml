(* Digest-stream serialisation: one JSON object per frame, one per line,
   keys in alphabetical order, frames in Recorder.compare_frame order —
   the bytes are a pure function of the recorded frame set (the CI
   audit-determinism gate diffs them across -j values and reruns).  The
   parser below reads the same format back for file-vs-file bisection. *)

module Json = Metrics.Codec.Json

let add_frame buf (f : Recorder.frame) =
  Buffer.add_string buf "{\"digest\":\"";
  Buffer.add_string buf (Fnv.to_hex f.Recorder.digest);
  Buffer.add_string buf "\",\"labels\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Json.add_string buf k;
      Buffer.add_char buf ':';
      Json.add_string buf v)
    f.Recorder.f_labels;
  Buffer.add_string buf (Printf.sprintf "},\"step\":%d,\"subsystem\":" f.Recorder.step);
  Json.add_string buf f.Recorder.subsystem;
  Buffer.add_string buf "}\n"

let frames_to_jsonl frames =
  let buf = Buffer.create 4096 in
  List.iter (add_frame buf) frames;
  Buffer.add_string buf
    (Printf.sprintf "{\"format\":1,\"frames\":%d,\"type\":\"meta\"}\n"
       (List.length frames));
  Buffer.contents buf

let jsonl_string recorder = frames_to_jsonl (Recorder.frames recorder)

(* ------------------------------------------------------------------ *)
(* Parsing (for file-vs-file bisection)                                *)
(* ------------------------------------------------------------------ *)

let known_keys =
  [ "digest"; "format"; "frames"; "labels"; "step"; "subsystem"; "type" ]

(* [None] for the meta line.  Key order is free; an unknown key, a
   wrongly typed value or a frame missing a field is an error. *)
let frame_of_json = function
  | Json.Obj fields ->
    List.iter
      (fun (k, _) ->
        if not (List.mem k known_keys) then Json.error "unknown key %S" k)
      fields;
    let field k = List.assoc_opt k fields in
    let str k =
      match field k with
      | Some (Json.Str s) -> Some s
      | None -> None
      | Some _ -> Json.error "%S is not a string" k
    in
    let int k =
      match field k with
      | Some (Json.Int i) -> Some i
      | None -> None
      | Some _ -> Json.error "%S is not an integer" k
    in
    let digest =
      Option.map
        (fun hex ->
          match Fnv.of_hex hex with
          | Some d -> d
          | None -> Json.error "bad digest %S" hex)
        (str "digest")
    in
    let labels =
      match field "labels" with
      | None -> None
      | Some (Json.Obj pairs) ->
        Some
          (List.map
             (function
               | k, Json.Str v -> (k, v)
               | k, _ -> Json.error "label %S is not a string" k)
             pairs)
      | Some _ -> Json.error "\"labels\" is not an object"
    in
    let step = int "step" and subsystem = str "subsystem" in
    ignore (int "format", int "frames");
    if str "type" = Some "meta" then None
    else (
      match (digest, labels, step, subsystem) with
      | Some digest, Some f_labels, Some step, Some subsystem ->
        Some { Recorder.f_labels; step; subsystem; digest }
      | _ -> Json.error "frame is missing a field")
  | _ -> Json.error "expected an object"

let of_jsonl data =
  match Json.map_lines frame_of_json data with
  | frames -> Ok (List.filter_map Fun.id frames)
  | exception Json.Error msg -> Error msg
