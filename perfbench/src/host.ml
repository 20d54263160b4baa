module Int_map = Map.Make (Int)

let reference_s = 1.6e-3

(* 80 maps of up to 256 bindings, 20480 insertions: about 9 MB of
   allocation, of which at most one small map is alive at a time. *)
let work () =
  let bindings = ref 0 in
  for round = 1 to 80 do
    let m = ref Int_map.empty in
    for i = 1 to 256 do
      m := Int_map.add (((i * 7919) + round) land 0x3ff) (i, [ i ]) !m
    done;
    bindings := !bindings + Int_map.cardinal !m
  done;
  !bindings

let probe () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (work ()));
  Unix.gettimeofday () -. t0

let median_of a lo hi =
  let w = Array.sub a lo (hi - lo + 1) in
  Array.sort Float.compare w;
  let n = Array.length w in
  if n mod 2 = 1 then w.(n / 2) else (w.((n / 2) - 1) +. w.(n / 2)) /. 2.0

let smooth probes =
  let a = Array.of_list probes in
  let last = Array.length a - 1 in
  List.init (Array.length a) (fun i -> median_of a (max 0 (i - 2)) (min last (i + 2)))

let adjust ~probe_s t = t *. reference_s /. probe_s
