(* The speculative parallel drain (DESIGN.md §8): layout and stats must be
   byte-identical for every jobs value, on random instances and on every
   committed instance, and the domain pool must reuse its per-slot
   workspace states across calls. *)

let fast_config =
  {
    Router.Config.default with
    Router.Config.use_astar = true;
    kernel = Maze.Search.Buckets;
    window_margin = Some 4;
  }

let route_jobs config jobs problem =
  Router.Engine.route ~config:{ config with Router.Config.jobs } problem

(* Everything except the par telemetry must match: waves/speculated/...
   legitimately differ between jobs values, the rest may not. *)
let core_stats_equal (a : Router.Engine.stats) (b : Router.Engine.stats) =
  { a with Router.Engine.par = b.Router.Engine.par } = b

let check_jobs_invariant name config problem =
  let r1 = route_jobs config 1 problem in
  let r4 = route_jobs config 4 problem in
  Testkit.check_true (name ^ ": identical layout")
    (Grid.equal r1.Router.Engine.grid r4.Router.Engine.grid);
  Testkit.check_true (name ^ ": identical core stats")
    (core_stats_equal r1.Router.Engine.stats r4.Router.Engine.stats);
  Testkit.check_true (name ^ ": drc clean")
    (Testkit.drc_routed problem r4 = []);
  r4

(* --- random instances --- *)

let prop_parallel_equals_sequential =
  Testkit.qcheck ~count:20 "parallel drain ≡ sequential on random boxes"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let fill = 0.35 +. (0.4 *. Util.Prng.float prng 1.0) in
      let problem =
        Workload.Gen.dense_switchbox ~fill prng ~width:16 ~height:12
      in
      let r1 = route_jobs Router.Config.default 1 problem in
      let r4 = route_jobs Router.Config.default 4 problem in
      Grid.equal r1.Router.Engine.grid r4.Router.Engine.grid
      && core_stats_equal r1.Router.Engine.stats r4.Router.Engine.stats)

let prop_parallel_equals_sequential_windowed =
  Testkit.qcheck ~count:10 "parallel ≡ sequential with windowed A*"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let problem =
        Workload.Gen.routable_switchbox
          (Util.Prng.create seed)
          ~width:24 ~height:20
      in
      let r1 = route_jobs fast_config 1 problem in
      let r4 = route_jobs fast_config 4 problem in
      Grid.equal r1.Router.Engine.grid r4.Router.Engine.grid
      && core_stats_equal r1.Router.Engine.stats r4.Router.Engine.stats)

(* --- committed instances (the acceptance check) --- *)

let test_committed_small () =
  List.iter
    (fun name -> ignore (check_jobs_invariant name fast_config (Testkit.instance name)))
    [ "switchbox_12x10"; "switchbox_32x26"; "chip_128x96" ]

let test_committed_large () =
  List.iter
    (fun name ->
      let r = check_jobs_invariant name fast_config (Testkit.instance name) in
      (* big enough to actually exercise waves, not just agree trivially *)
      Testkit.check_true (name ^ ": committed speculative routes")
        (r.Router.Engine.stats.Router.Engine.par.Router.Outcome.committed > 0))
    [ "switchbox_64x52"; "switchbox_128x104"; "chip_96x64" ]

(* --- the domain pool --- *)

let test_pool_map_order_and_reuse () =
  let inits = Atomic.make 0 in
  let pool =
    Util.Parallel.Pool.create ~jobs:3
      ~init:(fun slot ->
        Atomic.incr inits;
        (slot, ref 0))
  in
  Testkit.check_int "pool size" 3 (Util.Parallel.Pool.jobs pool);
  let xs = List.init 64 (fun i -> i) in
  let r1 = Util.Parallel.Pool.map pool (fun _ x -> x * 2) xs in
  let r2 = Util.Parallel.Pool.map pool (fun _ x -> x + 1) xs in
  Util.Parallel.Pool.shutdown pool;
  Testkit.check_true "first map in order" (r1 = List.map (fun x -> x * 2) xs);
  Testkit.check_true "second map reuses the pool" (r2 = List.map succ xs);
  let n = Atomic.get inits in
  Testkit.check_true "init at most once per slot" (n >= 1 && n <= 3)

let test_pool_state_reused_across_tasks () =
  (* Per-slot states are handed back to every task the slot runs: with far
     more tasks than slots, the per-state counters must account for every
     task, proving states persist across tasks and across map calls. *)
  let final = Array.make 3 0 in
  let pool =
    Util.Parallel.Pool.create ~jobs:3 ~init:(fun slot -> (slot, ref 0))
  in
  let bump (slot, r) _ =
    incr r;
    final.(slot) <- !r
  in
  ignore (Util.Parallel.Pool.map pool bump (List.init 40 (fun i -> i)));
  ignore (Util.Parallel.Pool.map pool bump (List.init 24 (fun i -> i)));
  Util.Parallel.Pool.shutdown pool;
  Testkit.check_int "every task ran on a pooled state" 64
    (Array.fold_left ( + ) 0 final)

let test_pool_single_job () =
  let pool = Util.Parallel.Pool.create ~jobs:1 ~init:(fun slot -> slot) in
  let r = Util.Parallel.Pool.map pool (fun s x -> (s, x)) [ 1; 2; 3 ] in
  Util.Parallel.Pool.shutdown pool;
  Util.Parallel.Pool.shutdown pool (* idempotent *);
  Testkit.check_true "caller-only pool works" (r = [ (0, 1); (0, 2); (0, 3) ])

let test_pool_exception_policy () =
  let pool = Util.Parallel.Pool.create ~jobs:4 ~init:(fun _ -> ()) in
  Alcotest.check_raises "single failure re-raised as-is" (Failure "boom")
    (fun () ->
      ignore
        (Util.Parallel.Pool.map pool
           (fun () x -> if x = 5 then failwith "boom" else x)
           (List.init 12 (fun i -> i))));
  (match
     Util.Parallel.Pool.map pool
       (fun () x -> if x mod 4 = 1 then failwith (string_of_int x) else x)
       (List.init 12 (fun i -> i))
   with
  | _ -> Alcotest.fail "expected Multiple"
  | exception Util.Parallel.Multiple exns ->
      let msgs =
        List.map (function Failure m -> m | e -> Printexc.to_string e) exns
      in
      Testkit.check_true "all failures collected, input order"
        (msgs = [ "1"; "5"; "9" ]));
  (* the pool survives failing maps *)
  let r = Util.Parallel.Pool.map pool (fun () x -> x) [ 7; 8 ] in
  Util.Parallel.Pool.shutdown pool;
  Testkit.check_true "pool usable after failures" (r = [ 7; 8 ])

(* --- interaction with the rest of the engine --- *)

let test_parallel_with_budget_is_clean () =
  (* Budget trip timing may differ between jobs values; the result must
     still be a DRC-clean best-so-far layout. *)
  let problem = Testkit.instance "switchbox_32x26" in
  let budget = Router.Budget.create ~max_expanded:20_000 () in
  let r =
    Router.Engine.route
      ~config:{ fast_config with Router.Config.jobs = 4 }
      ~budget problem
  in
  Testkit.check_true "budgeted parallel run is drc clean"
    (Testkit.drc_routed problem r = [])

let test_parallel_restarts_invariant () =
  let problem = Testkit.instance "switchbox_12x10" in
  let config = { Router.Config.default with Router.Config.restarts = 3 } in
  ignore (check_jobs_invariant "restarts=3" config problem)

let () =
  Alcotest.run "parallel"
    [
      ( "determinism",
        [
          prop_parallel_equals_sequential;
          prop_parallel_equals_sequential_windowed;
          Alcotest.test_case "committed instances (small)" `Quick
            test_committed_small;
          Alcotest.test_case "committed instances (large)" `Slow
            test_committed_large;
          Alcotest.test_case "restarts" `Quick test_parallel_restarts_invariant;
          Alcotest.test_case "budgeted run clean" `Quick
            test_parallel_with_budget_is_clean;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map order and lazy init" `Quick
            test_pool_map_order_and_reuse;
          Alcotest.test_case "state reused across tasks" `Quick
            test_pool_state_reused_across_tasks;
          Alcotest.test_case "single job" `Quick test_pool_single_job;
          Alcotest.test_case "exception policy" `Quick
            test_pool_exception_policy;
        ] );
    ]
