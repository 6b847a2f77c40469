(* Budgets: unit behavior of Budget.t, engine degradation semantics, and
   the budget qcheck property (bounded effort, DRC-clean partials). *)

let prng seed = Util.Prng.create seed

(* --- Budget unit tests --- *)

let test_unlimited () =
  let b = Router.Budget.unlimited () in
  Testkit.check_true "is unlimited" (Router.Budget.is_unlimited b);
  Testkit.check_true "no stop hook" (Router.Budget.stop_hook b = None);
  Router.Budget.note_search b;
  Router.Budget.note_expanded b 1_000_000;
  Testkit.check_true "never trips" (Router.Budget.check b = None);
  Testkit.check_true "not tripped" (Router.Budget.tripped b = None)

let test_search_limit () =
  let b = Router.Budget.create ~max_searches:2 () in
  Testkit.check_false "not unlimited" (Router.Budget.is_unlimited b);
  Router.Budget.note_search b;
  Router.Budget.note_search b;
  Testkit.check_true "within limit" (Router.Budget.check b = None);
  Router.Budget.note_search b;
  Testkit.check_true "trips past limit"
    (Router.Budget.check b = Some Router.Budget.Search_limit);
  Testkit.check_true "latched"
    (Router.Budget.tripped b = Some Router.Budget.Search_limit)

let test_expansion_limit () =
  let b = Router.Budget.create ~max_expanded:100 () in
  Router.Budget.note_expanded b 90;
  Testkit.check_true "within limit" (Router.Budget.check b = None);
  Testkit.check_true "in-flight counts"
    (Router.Budget.check ~in_flight:11 b
    = Some Router.Budget.Expansion_limit);
  (* The trip latches even though the committed count alone is legal. *)
  Testkit.check_true "latched"
    (Router.Budget.check b = Some Router.Budget.Expansion_limit);
  let stop = Option.get (Router.Budget.stop_hook b) in
  Testkit.check_true "stop hook agrees" (stop 0)

let test_deadline_zero () =
  let b = Router.Budget.create ~deadline:0.0 () in
  Testkit.check_true "expired immediately"
    (Router.Budget.check b = Some Router.Budget.Deadline)

let test_hook_and_trip () =
  let fire = ref false in
  let b =
    Router.Budget.create
      ~hook:(fun () ->
        if !fire then Some (Router.Budget.Cancelled "external") else None)
      ()
  in
  Testkit.check_true "hook silent" (Router.Budget.check b = None);
  fire := true;
  (match Router.Budget.check b with
  | Some (Router.Budget.Cancelled "external") -> ()
  | _ -> Alcotest.fail "expected the hook's cancellation");
  (* First reason wins over later manual trips. *)
  Router.Budget.trip b Router.Budget.Deadline;
  match Router.Budget.tripped b with
  | Some (Router.Budget.Cancelled _) -> ()
  | _ -> Alcotest.fail "latched reason must not change"

let test_add_hook_composes () =
  let b = Router.Budget.unlimited () in
  Router.Budget.add_hook b (fun () -> None);
  Router.Budget.add_hook b (fun () ->
      Some (Router.Budget.Cancelled "second"));
  Testkit.check_false "hook makes it limited" (Router.Budget.is_unlimited b);
  match Router.Budget.check b with
  | Some (Router.Budget.Cancelled "second") -> ()
  | _ -> Alcotest.fail "composed hook must fire"

(* --- engine degradation --- *)

let test_engine_deadline_zero () =
  let p = Workload.Gen.routable_switchbox (prng 7) ~width:14 ~height:12 in
  let config = { Router.Config.default with deadline = Some 0.0 } in
  let result = Router.Engine.route ~config p in
  Testkit.check_false "not completed" result.Router.Engine.completed;
  (match result.Router.Engine.status with
  | Router.Outcome.Degraded Router.Budget.Deadline -> ()
  | s ->
      Alcotest.failf "expected Degraded Deadline, got %s"
        (Router.Outcome.status_name s));
  Testkit.check_int "nothing routed" 0
    result.Router.Engine.stats.Router.Engine.routed_nets;
  Testkit.check_true "partial layout is DRC-clean"
    (Testkit.drc_routed p result = [])

let test_engine_search_limit () =
  let p = Workload.Gen.routable_switchbox (prng 11) ~width:14 ~height:12 in
  let budget = Router.Budget.create ~max_searches:3 () in
  let result = Router.Engine.route ~budget p in
  Testkit.check_false "not completed" result.Router.Engine.completed;
  (match result.Router.Engine.status with
  | Router.Outcome.Degraded Router.Budget.Search_limit -> ()
  | s ->
      Alcotest.failf "expected Degraded Search_limit, got %s"
        (Router.Outcome.status_name s));
  Testkit.check_true "search count respected"
    (Router.Budget.searches budget <= 4);
  Testkit.check_true "some nets routed"
    (result.Router.Engine.stats.Router.Engine.routed_nets > 0);
  Testkit.check_true "partial layout is DRC-clean"
    (Testkit.drc_routed p result = [])

let test_engine_expansion_limit () =
  let p = Workload.Gen.routable_switchbox (prng 23) ~width:16 ~height:12 in
  let budget = Router.Budget.create ~max_expanded:400 () in
  let result = Router.Engine.route ~budget p in
  Testkit.check_false "not completed" result.Router.Engine.completed;
  (match result.Router.Engine.status with
  | Router.Outcome.Degraded Router.Budget.Expansion_limit -> ()
  | s ->
      Alcotest.failf "expected Degraded Expansion_limit, got %s"
        (Router.Outcome.status_name s));
  Testkit.check_true "expansion ledger near the cap"
    (Router.Budget.expanded budget <= 400 + 256);
  Testkit.check_true "partial layout is DRC-clean"
    (Testkit.drc_routed p result = [])

(* The expansion ledger charges every search exactly — the settled
   nodes of successful searches and the whole work of failed ones, flood
   nodes included — not up to the stop hook's last poll. *)
let test_engine_ledger_exact name () =
  let p = Testkit.instance name in
  let budget = Router.Budget.create ~deadline:3600.0 () in
  let r = Router.Engine.route ~budget p in
  let s = r.Router.Engine.stats in
  let e = s.Router.Engine.effort in
  Testkit.check_true "complete" r.Router.Engine.completed;
  Testkit.check_true "some failed searches"
    (e.Router.Outcome.failed_expanded > 0);
  Testkit.check_int "ledger = expanded + failed + flood"
    (s.Router.Engine.expanded + e.Router.Outcome.failed_expanded
   + e.Router.Outcome.flood_expanded)
    (Router.Budget.expanded budget);
  Testkit.check_int "one ledger search per search" s.Router.Engine.searches
    (Router.Budget.searches budget)

let test_engine_unlimited_budget_is_identity () =
  let p = Workload.Gen.routable_switchbox (prng 3) ~width:12 ~height:10 in
  let plain = Router.Engine.route p in
  let budgeted = Router.Engine.route ~budget:(Router.Budget.unlimited ()) p in
  Testkit.check_true "same stats"
    (plain.Router.Engine.stats = budgeted.Router.Engine.stats);
  Testkit.check_true "same grid"
    (Grid.equal plain.Router.Engine.grid budgeted.Router.Engine.grid);
  Testkit.check_true "complete status"
    (budgeted.Router.Engine.status = Router.Outcome.Complete)

let test_engine_budget_shared_across_restarts () =
  (* A hard instance with restarts enabled still respects one global
     search budget across all attempts. *)
  let p = Workload.Hard.tiny_blocked () in
  let config = { Router.Config.default with restarts = 4 } in
  let budget = Router.Budget.create ~max_searches:5 () in
  let result = Router.Engine.route ~config ~budget p in
  Testkit.check_true "bounded searches across attempts"
    (Router.Budget.searches budget <= 6);
  Testkit.check_true "attempts cut short"
    (result.Router.Engine.stats.Router.Engine.attempts <= 4)

let test_describe_mentions_budgets () =
  Testkit.check_true "default describe unchanged"
    (Router.Config.describe Router.Config.default
    = Router.Config.describe
        { Router.Config.default with deadline = None });
  let c =
    {
      Router.Config.default with
      deadline = Some 0.5;
      max_expanded = Some 1000;
      audit = Router.Config.Audit_phase;
    }
  in
  let d = Router.Config.describe c in
  let has needle =
    let open String in
    let n = length needle and l = length d in
    let rec at i = i + n <= l && (sub d i n = needle || at (i + 1)) in
    at 0
  in
  Testkit.check_true "deadline shown" (has "deadline=0.5s");
  Testkit.check_true "expansions shown" (has "max-expanded=1000");
  Testkit.check_true "audit shown" (has "audit=phase")

let test_report_status_line () =
  let p = Workload.Gen.routable_switchbox (prng 5) ~width:12 ~height:10 in
  let complete = Router.Engine.route p in
  let degraded =
    Router.Engine.route
      ~config:{ Router.Config.default with deadline = Some 0.0 }
      p
  in
  let contains s needle =
    let n = String.length needle and l = String.length s in
    let rec at i = i + n <= l && (String.sub s i n = needle || at (i + 1)) in
    at 0
  in
  Testkit.check_false "complete report has no status line"
    (contains (Router.Report.render p complete) "status:");
  Testkit.check_true "degraded report names the reason"
    (contains (Router.Report.render p degraded) "deadline exceeded")

(* --- satellite 4: the budget property --- *)

let prop_budget_bounds_engine =
  Testkit.qcheck ~count:60 "random tiny budgets: bounded, clean, honest"
    QCheck2.Gen.(
      triple (int_range 0 100_000) (int_range 0 2_000) (int_range 0 20))
    (fun (seed, max_expanded, max_searches) ->
      let p =
        Workload.Gen.switchbox (prng seed) ~width:12 ~height:10 ~nets:6
      in
      let budget =
        Router.Budget.create ~max_expanded ~max_searches ()
      in
      let result = Router.Engine.route ~budget p in
      let stats = result.Router.Engine.stats in
      (* Bounded effort: the ledger may overshoot only by the polling
         granularity (one check interval) plus one sub-interval search. *)
      Router.Budget.expanded budget <= max_expanded + 256
      && Router.Budget.searches budget <= max_searches + 1
      (* The partial layout is always DRC-clean. *)
      && Testkit.drc_routed p result = []
      (* Status is honest. *)
      && (result.Router.Engine.status <> Router.Outcome.Complete
         || stats.Router.Engine.failed_nets = [])
      && result.Router.Engine.completed
         = (result.Router.Engine.status = Router.Outcome.Complete)
      && (stats.Router.Engine.failed_nets <> []
         || result.Router.Engine.status = Router.Outcome.Complete))

let () =
  Alcotest.run "budget"
    [
      ( "budget",
        [
          Alcotest.test_case "unlimited" `Quick test_unlimited;
          Alcotest.test_case "search limit" `Quick test_search_limit;
          Alcotest.test_case "expansion limit" `Quick test_expansion_limit;
          Alcotest.test_case "deadline zero" `Quick test_deadline_zero;
          Alcotest.test_case "hook and trip latch" `Quick test_hook_and_trip;
          Alcotest.test_case "add_hook composes" `Quick test_add_hook_composes;
        ] );
      ( "engine",
        [
          Alcotest.test_case "deadline zero degrades" `Quick
            test_engine_deadline_zero;
          Alcotest.test_case "search limit degrades" `Quick
            test_engine_search_limit;
          Alcotest.test_case "expansion limit degrades" `Quick
            test_engine_expansion_limit;
          Alcotest.test_case "ledger exact chip_96x64" `Quick
            (test_engine_ledger_exact "chip_96x64");
          Alcotest.test_case "ledger exact switchbox_64x52" `Slow
            (test_engine_ledger_exact "switchbox_64x52");
          Alcotest.test_case "unlimited budget is identity" `Quick
            test_engine_unlimited_budget_is_identity;
          Alcotest.test_case "budget shared across restarts" `Quick
            test_engine_budget_shared_across_restarts;
          Alcotest.test_case "describe mentions budgets" `Quick
            test_describe_mentions_budgets;
          Alcotest.test_case "report status line" `Quick
            test_report_status_line;
          prop_budget_bounds_engine;
        ] );
    ]
