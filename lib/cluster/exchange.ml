module Graph = Dsgraph.Graph
module Ledger = Metrics.Ledger
module B = Agreement.Byz_behavior

type error = Walk.error

(* Every member of [cluster] tells every member of each neighbouring
   cluster the new composition. *)
let charge_view_update (plane : Plane.t) cfg cluster =
  let overlay = Config.overlay cfg in
  let size = Config.size cfg cluster in
  let messages = ref 0 in
  Graph.iter_neighbors overlay cluster (fun nb ->
      messages := !messages + (size * Config.size cfg nb));
  (* Lie_views members announce a divergent composition inside this bulk
     update; receivers keep the majority view, so the lie surfaces only as
     an injected deviation. *)
  (if Trace.active () then
     List.iter
       (fun node ->
         match Config.byzantine cfg node with
         | Some (B.Lie_views _ as s) ->
           Trace.point
             ~attrs:[ ("cluster", cluster); ("node", node) ]
             Trace.Msg
             ("byz." ^ B.deviation s)
         | Some _ | None -> ())
       (Config.members cfg cluster));
  Ledger.charge (Config.ledger cfg) ~label:"exchange.view_update" ~messages:!messages
    ~rounds:plane.barrier_rounds

let exchange_node_on (plane : Plane.t) ?duration cfg ~node =
  let home = Config.cluster_of cfg node in
  Trace.with_span
    ~attrs:[ ("home", home); ("node", node) ]
    ~ledger:(Config.ledger cfg) ~time:(plane.clock ()) Trace.Msg "exchange.node"
    (fun () ->
      match Walk.rand_cl_on plane ?duration cfg ~start:home with
      | Error e, walk -> (Error e, walk)
      | Ok { selected; _ }, walk when selected = home -> (Ok home, walk)
      | Ok { selected; _ }, walk ->
        (* Inform C' that it receives x, over the validated channel; the
           swap does not wait on the announcement's verdict. *)
        let _, announce =
          plane.transmit ~src_cluster:home ~dst_cluster:selected
            ~label:"exchange.announce" ~payload:node
        in
        (* C' picks the replacement uniformly and the two nodes swap; the
           transfers themselves cost one message to each new team-mate. *)
        let replacement, draw = Walk.pick_member_on plane cfg ~cluster:selected in
        Ledger.charge (Config.ledger cfg) ~label:"exchange.transfer"
          ~messages:(Config.size cfg home + Config.size cfg selected)
          ~rounds:plane.barrier_rounds;
        Config.swap_nodes cfg node replacement;
        (Ok selected, walk +. announce +. draw))

let exchange_all_on (plane : Plane.t) ?duration cfg ~cluster =
  Trace.with_span
    ~attrs:[ ("cluster", cluster) ]
    ~ledger:(Config.ledger cfg) ~time:(plane.clock ()) Trace.Msg "exchange"
    (fun () ->
      let makespan = ref 0.0 in
      let rec go nodes touched =
        match nodes with
        | [] -> Ok touched
        | node :: rest -> (
          let result, span = exchange_node_on plane ?duration cfg ~node in
          makespan := !makespan +. span;
          match result with
          | Error e -> Error e
          | Ok dest -> go rest (if dest = cluster then touched else dest :: touched))
      in
      (* The members are snapshot up-front, as the protocol does. *)
      let result =
        match go (Config.members cfg cluster) [] with
        | Error e -> Error e
        | Ok touched ->
          let touched = List.sort_uniq compare touched in
          List.iter (charge_view_update plane cfg) (cluster :: touched);
          Ok touched
      in
      (result, !makespan))

let exchange_node ?duration cfg ~node =
  fst (exchange_node_on (Plane.sync cfg) ?duration cfg ~node)

let exchange_all ?duration cfg ~cluster =
  fst (exchange_all_on (Plane.sync cfg) ?duration cfg ~cluster)
