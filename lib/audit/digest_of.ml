(* Canonical per-subsystem digests of both engines' state.

   Everything is digested in an explicitly *sorted* order — cluster ids,
   member lists, overlay edges, ledger labels, RNG stream names — so the
   digest is a pure function of the state, never of hashtable iteration
   or insertion order.  Every read below is a plain accessor: no random
   stream is touched and nothing is mutated (the zero-perturbation
   contract the monitor's probes already obey). *)

module Engine = Now_core.Engine
module Node = Now_core.Node
module Config = Cluster.Config
module Graph = Dsgraph.Graph

let subsystems = [ "honesty"; "ledger"; "overlay"; "rng"; "table" ]

(* Shared folds ---------------------------------------------------- *)

(* Ascending, as an [int array]: sorting immediates in place, not cons
   cells under polymorphic compare. *)
let sorted_ints l =
  let a = Array.of_list l in
  Array.sort Int.compare a;
  a

let fold_members h cid members =
  let h = Fnv.int h cid in
  let h = Array.fold_left Fnv.int h (sorted_ints members) in
  Fnv.int h (-1)

(* Folds one cluster at a time, so only its member list is live: every
   list built up front would outlive the minor heap on a 10^5-node
   table and be promoted. *)
let table_of_clusters ids members =
  List.fold_left
    (fun h cid -> fold_members h cid (members cid))
    Fnv.init (List.sort Int.compare ids)

(* Each edge [(u, v)], [u < v], packed into one int [u lsl 31 lor v]:
   for ends in [0, 2^31) the packed order is the lexicographic pair order
   the digest is defined on, and the sort compares immediates. *)
let edge_bits = 31

let edge_mask = (1 lsl edge_bits) - 1

let overlay_of_graph g =
  let h = Fnv.int Fnv.init (Graph.version g) in
  let h = Fnv.int h (Graph.n_vertices g) in
  let packed = Array.make (Graph.n_edges g) 0 in
  let k = ref 0 in
  Graph.iter_vertices g (fun u ->
      Graph.iter_neighbors g u (fun v ->
          if u < v then begin
            if u < 0 || v > edge_mask then
              invalid_arg "Digest_of: overlay vertex id outside [0, 2^31)";
            packed.(!k) <- (u lsl edge_bits) lor v;
            incr k
          end));
  Array.sort Int.compare packed;
  Array.fold_left
    (fun h e -> Fnv.int (Fnv.int h (e lsr edge_bits)) (e land edge_mask))
    h packed

let rng_of_cursors cursors =
  List.fold_left
    (fun h (name, state) -> Fnv.int64 (Fnv.string h name) state)
    Fnv.init
    (List.sort (fun (a, _) (b, _) -> String.compare a b) cursors)

let ledger_of ledger =
  List.fold_left
    (fun h (label, messages, rounds) ->
      Fnv.int (Fnv.int (Fnv.string h label) messages) rounds)
    Fnv.init
    (List.sort compare (Metrics.Ledger.labels ledger))

(* State-level engine ---------------------------------------------- *)

let view (v : Now_core.View.t) =
  let table =
    table_of_clusters (v.Now_core.View.cluster_ids ()) v.Now_core.View.members
  in
  let honesty =
    let h = ref Fnv.init in
    for id = 0 to v.Now_core.View.total_allocated () - 1 do
      let mark =
        match v.Now_core.View.honesty id with
        | Node.Honest -> 0
        | Node.Byzantine -> 1
      in
      let present = if v.Now_core.View.is_present id then 2 else 0 in
      h := Fnv.int !h (mark lor present)
    done;
    !h
  in
  let overlay = overlay_of_graph (v.Now_core.View.graph ()) in
  let rng = rng_of_cursors (v.Now_core.View.rng_cursors ()) in
  let ledger = ledger_of (v.Now_core.View.ledger ()) in
  [
    ("honesty", honesty);
    ("ledger", ledger);
    ("overlay", overlay);
    ("rng", rng);
    ("table", table);
  ]

let engine e = view (Engine.view e)

(* Message-level configuration ------------------------------------- *)

let config ?(extra_rng = []) c =
  let ids = List.sort compare (Config.cluster_ids c) in
  let table =
    table_of_clusters ids (Config.members c)
  in
  let honesty =
    List.fold_left
      (fun h cid ->
        let h = Fnv.int h cid in
        Array.fold_left
          (fun h node ->
            Fnv.int (Fnv.int h node) (if Config.is_byzantine c node then 1 else 0))
          h
          (sorted_ints (Config.members c cid)))
      Fnv.init ids
  in
  let overlay = overlay_of_graph (Config.overlay c) in
  let rng = rng_of_cursors (Config.rng_cursors c @ extra_rng) in
  let ledger = ledger_of (Config.ledger c) in
  [
    ("honesty", honesty);
    ("ledger", ledger);
    ("overlay", overlay);
    ("rng", rng);
    ("table", table);
  ]
