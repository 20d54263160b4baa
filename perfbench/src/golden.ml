type t = (string * int * int, Workloads.checkpoint) Hashtbl.t

let line ~workload ~seed ~block (c : Workloads.checkpoint) =
  Printf.sprintf "%s %d %d %s %s" workload seed block c.digest c.summary

let load path =
  let tbl = Hashtbl.create 64 in
  let ic = open_in path in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | l ->
      (if String.trim l <> "" && l.[0] <> '#' then
         match String.split_on_char ' ' l with
         | workload :: seed :: block :: digest :: summary ->
           Hashtbl.replace tbl
             (workload, int_of_string seed, int_of_string block)
             { Workloads.digest; summary = String.concat " " summary }
         | _ -> failwith (Printf.sprintf "golden: malformed line %S" l));
      loop ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) loop;
  tbl

let find t ~workload ~seed ~block = Hashtbl.find_opt t (workload, seed, block)

let has_seed t ~workload ~seed =
  Hashtbl.fold (fun (w, s, _) _ acc -> acc || (w = workload && s = seed)) t false
