type span = {
  id : int;
  name : string;
  parent : int;
  op : int;
  start : float;
  stop : float;
  alloc : float;
  msgs : int;
}

let on = ref false
let store : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let op_id = ref 0

let start () =
  store := [];
  next_id := 0;
  stack := [];
  op_id := 0;
  on := true

let stop () =
  on := false;
  let spans = List.sort (fun a b -> compare a.id b.id) !store in
  store := [];
  spans

let recording () = !on
let set_op op = op_id := op

let with_span ?msgs name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let op = !op_id in
    let read_msgs () = match msgs with Some m -> m () | None -> 0 in
    let m0 = read_msgs () in
    let a0 = Gc.allocated_bytes () in
    stack := id :: !stack;
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      let a1 = Gc.allocated_bytes () in
      stack := List.tl !stack;
      store :=
        { id; name; parent; op; start = t0; stop = t1; alloc = a1 -. a0;
          msgs = read_msgs () - m0 }
        :: !store
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ();
      Printexc.raise_with_backtrace e bt
  end

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let sorted = List.sort compare intervals in
  let total, _ =
    List.fold_left
      (fun (total, reach) (a, b) ->
        let a = Float.max a (Float.max lo reach) and b = Float.min b hi in
        if b > a then (total +. (b -. a), b) else (total, reach))
      (0.0, lo) sorted
  in
  total

let children spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add tbl s.parent s)
    spans;
  fun id -> Hashtbl.find_all tbl id

let self_times spans =
  let kids = children spans in
  List.map
    (fun s ->
      let cover =
        covered ~lo:s.start ~hi:s.stop
          (List.map (fun c -> (c.start, c.stop)) (kids s.id))
      in
      (s, s.stop -. s.start -. cover))
    spans

type layer = {
  calls : int;
  busy_s : float;
  alloc_bytes : float;
  sim_msgs : int;
  durations_us : float array;
}

let by_name spans =
  let kids = children spans in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let cs = kids s.id in
      let alloc = List.fold_left (fun a c -> a -. c.alloc) s.alloc cs in
      let msgs = List.fold_left (fun m c -> m - c.msgs) s.msgs cs in
      let calls, busy, al, ms, durs =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0, 0.0, 0, [])
      in
      Hashtbl.replace tbl s.name
        ( calls + 1, busy +. self, al +. alloc, ms + msgs,
          ((s.stop -. s.start) *. 1e6) :: durs ))
    (self_times spans);
  Hashtbl.fold
    (fun name (calls, busy_s, alloc_bytes, sim_msgs, durs) acc ->
      let durations_us = Array.of_list durs in
      Array.sort Float.compare durations_us;
      (name, { calls; busy_s; alloc_bytes; sim_msgs; durations_us }) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_jsonl path spans =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("id", Json.Num (float_of_int s.id));
                ("name", Json.Str s.name);
                ("parent", Json.Num (float_of_int s.parent));
                ("op", Json.Num (float_of_int s.op));
                ("start", Json.Num s.start);
                ("end", Json.Num s.stop);
                ("alloc_bytes", Json.Num s.alloc);
                ("sim_msgs", Json.Num (float_of_int s.msgs));
              ]));
      output_char oc '\n')
    spans;
  close_out oc
