type metric = { name : string; unit_ : string }

let str = function Json.Str s -> s | _ -> failwith "Report: expected a string"
let num = function Json.Num f -> f | _ -> failwith "Report: expected a number"

let declared spec ~trace =
  match Json.member (if trace then "per_layer" else "end_to_end") spec with
  | Json.Arr ms ->
    List.map
      (fun m -> { name = str (Json.member "name" m); unit_ = str (Json.member "unit" m) })
      ms
  | _ -> failwith "Report: metric list is not an array"

let result ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (m, v) ->
               (m.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit_) ]))
             metrics) );
    ]

let whole f =
  if Float.is_integer f then int_of_float f
  else failwith "Report: count is not a whole number"

let parse_result = function
  | Json.Obj kvs as v ->
    let keys = List.sort compare (List.map fst kvs) in
    if keys <> [ "attempted"; "correct"; "failed"; "metrics" ] then
      failwith "Report: result keys are not exactly correct/attempted/failed/metrics";
    let correct =
      match Json.member "correct" v with Json.Bool b -> b | _ -> failwith "Report: correct"
    in
    let metrics =
      match Json.member "metrics" v with
      | Json.Obj ms ->
        List.map
          (fun (name, m) ->
            (match m with
            | Json.Obj [ _; _ ] -> ()
            | _ -> failwith "Report: a metric has keys other than value and unit");
            ({ name; unit_ = str (Json.member "unit" m) }, num (Json.member "value" m)))
          ms
      | _ -> failwith "Report: metrics is not an object"
    in
    ( correct,
      whole (num (Json.member "attempted" v)),
      whole (num (Json.member "failed" v)),
      metrics )
  | _ -> failwith "Report: result is not an object"
