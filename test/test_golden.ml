(* Ledger golden test: a fixed-seed state-engine churn script whose every
   ledger label total and final snapshot digest are pinned to constants
   recorded when view costs were summed afresh at every charge site.  It
   holds the view-cost memo (Σ|nb| per cluster, kept only inside
   size-neutral phases) to exact agreement with the direct computation:
   one stale entry moves [exchange.view_update]. *)

module Engine = Now_core.Engine
module Params = Now_core.Params
module Node = Now_core.Node
module Rng = Prng.Rng

(* N = 3000, clusters of ~24.  Ops cycle join / uniform leave / leave
   from the smallest cluster; the targeted leaves force merges, and an
   absorbing merge overfills the absorber and splits it.  A sharded
   exchange epoch runs every 60 ops. *)
let run_script ~walk_mode ~merge_policy =
  let params =
    Params.make ~k:2 ~n_max:4096 ~walk_mode ~merge_policy ~shuffle_on_churn:true
      ~allow_split_merge:true ()
  in
  let script = Rng.of_int 2013 in
  let honesty () = if Rng.bernoulli script 0.1 then Node.Byzantine else Node.Honest in
  let e = Engine.create ~seed:77L params ~initial:(List.init 3000 (fun _ -> honesty ())) in
  for i = 0 to 359 do
    (match i mod 3 with
    | 0 -> ignore (Engine.join e (honesty ()))
    | 1 -> ignore (Engine.leave e (Engine.random_node e))
    | _ ->
      let smallest, _ =
        List.fold_left
          (fun (bc, bs) (c, s, _) -> if s < bs || (s = bs && c < bc) then (c, s) else (bc, bs))
          (max_int, max_int) (Engine.cluster_stats e)
      in
      ignore (Engine.leave e (Engine.uniform_member e smallest)));
    if i mod 60 = 59 then ignore (Engine.exchange_epoch e)
  done;
  Engine.check_invariants e;
  let totals = Engine.totals e in
  ( Metrics.Ledger.labels (Engine.ledger e),
    Digest.to_hex (Digest.string (Engine.save e)),
    (totals.Now_core.View.total_splits, totals.Now_core.View.total_merges) )

let labels = Alcotest.(list (triple string int int))

let check_golden ~walk_mode ~merge_policy ~ledger ~digest ~splits_merges () =
  let got_ledger, got_digest, got_sm = run_script ~walk_mode ~merge_policy in
  Alcotest.check labels "(label, messages, rounds)" ledger got_ledger;
  Alcotest.check Alcotest.string "Engine.save digest" digest got_digest;
  Alcotest.check Alcotest.(pair int int) "(splits, merges)" splits_merges got_sm

let exact_absorb =
  check_golden ~walk_mode:Params.Exact_walk ~merge_policy:Params.Absorb_random_victim
    ~ledger:
      [
        ("exchange.swap", 221419696, 0);
        ("exchange.view_update", 3324064063, 5486);
        ("init.agreement", 1897982, 134);
        ("init.discovery", 107568000, 4);
        ("init.partition", 3555000, 2);
        ("join.insert", 3515140, 240);
        ("leave.notify", 5324219, 240);
        ("merge.absorb", 25648, 28);
        ("randcl", 9535598572, 23134816);
        ("split.partition", 2912508, 100);
        ("split.view_update", 1060850, 25);
      ]
    ~digest:"cebe43753ed00e1f3fb53bc62259d7d7" ~splits_merges:(25, 28)

let direct_rejoin =
  check_golden ~walk_mode:Params.Direct_sample ~merge_policy:Params.Rejoin_self
    ~ledger:
      [
        ("exchange.swap", 281045129, 0);
        ("exchange.view_update", 3949568517, 5924);
        ("init.agreement", 1897982, 134);
        ("init.discovery", 107568000, 4);
        ("init.partition", 3555000, 2);
        ("join.insert", 10618350, 690);
        ("leave.notify", 5883263, 240);
        ("merge.dissolve", 8865, 15);
        ("randcl", 11089537440, 24754226);
      ]
    ~digest:"21deeee5f3b604e8d7535959ce0a418e" ~splits_merges:(0, 15)

let suite =
  [
    Alcotest.test_case "exact walks, absorbing merges" `Quick exact_absorb;
    Alcotest.test_case "direct sampling, rejoin merges" `Quick direct_rejoin;
  ]
