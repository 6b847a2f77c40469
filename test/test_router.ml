(* Tests for the core rip-up-and-reroute engine: completion on the hard
   suites, correctness of shoving, strategy ordering, termination, restarts
   and the randomized end-to-end property. *)

let pin = Netlist.Net.pin

(* --- shove unit tests --- *)

let straight_segment_grid () =
  (* Net 9 runs straight along y=2, x=1..5 on layer 0; rows 1 and 3 free. *)
  let g = Grid.create ~width:8 ~height:6 () in
  for x = 1 to 5 do
    Grid.occupy g ~net:9 (Grid.node g ~layer:0 ~x ~y:2)
  done;
  g

let no_protection _ = false

let test_shove_moves_through_cell () =
  let g = straight_segment_grid () in
  let b = Grid.node g ~layer:0 ~x:3 ~y:2 in
  match Router.Shove.try_shove g ~protected:no_protection ~node:b with
  | None -> Alcotest.fail "expected shove to succeed"
  | Some m ->
      Testkit.check_int "moved net" 9 m.Router.Shove.moved_net;
      Testkit.check_true "cell vacated" (Grid.is_free g b);
      Testkit.check_int "net still one component" 1
        (Drc.Check.connected_components g ~net:9);
      Testkit.check_int "net grew by two" 7 (Grid.count_owned g ~net:9)

let test_shove_rejects_endpoint () =
  let g = straight_segment_grid () in
  let e = Grid.node g ~layer:0 ~x:1 ~y:2 in
  Testkit.check_true "endpoint not shovable"
    (Router.Shove.try_shove g ~protected:no_protection ~node:e = None)

let test_shove_rejects_corner () =
  let g = Grid.create ~width:8 ~height:6 () in
  List.iter
    (fun (x, y) -> Grid.occupy g ~net:9 (Grid.node g ~layer:0 ~x ~y))
    [ (1, 2); (2, 2); (2, 3); (2, 4) ];
  let corner = Grid.node g ~layer:0 ~x:2 ~y:2 in
  Testkit.check_true "corner not shovable"
    (Router.Shove.try_shove g ~protected:no_protection ~node:corner = None)

let test_shove_rejects_junction () =
  let g = Grid.create ~width:8 ~height:6 () in
  (* T junction at (3,2) *)
  List.iter
    (fun (x, y) -> Grid.occupy g ~net:9 (Grid.node g ~layer:0 ~x ~y))
    [ (2, 2); (3, 2); (4, 2); (3, 3) ];
  let t = Grid.node g ~layer:0 ~x:3 ~y:2 in
  Testkit.check_true "junction not shovable"
    (Router.Shove.try_shove g ~protected:no_protection ~node:t = None)

let test_shove_rejects_via_cell () =
  let g = straight_segment_grid () in
  Grid.occupy g ~net:9 (Grid.node g ~layer:1 ~x:3 ~y:2);
  Grid.set_via g ~x:3 ~y:2;
  let b = Grid.node g ~layer:0 ~x:3 ~y:2 in
  Testkit.check_true "via cell not shovable"
    (Router.Shove.try_shove g ~protected:no_protection ~node:b = None)

let test_shove_respects_protection () =
  let g = straight_segment_grid () in
  let b = Grid.node g ~layer:0 ~x:3 ~y:2 in
  Testkit.check_true "protected cell not shovable"
    (Router.Shove.try_shove g ~protected:(fun n -> n = b) ~node:b = None)

let test_shove_needs_free_track () =
  let g = straight_segment_grid () in
  (* Occupy both parallel tracks around x=2..4. *)
  for x = 2 to 4 do
    Grid.occupy g ~net:7 (Grid.node g ~layer:0 ~x ~y:1);
    Grid.occupy g ~net:8 (Grid.node g ~layer:0 ~x ~y:3)
  done;
  let b = Grid.node g ~layer:0 ~x:3 ~y:2 in
  Testkit.check_true "no room to shove"
    (Router.Shove.try_shove g ~protected:no_protection ~node:b = None)

let test_shove_tries_other_side () =
  let g = straight_segment_grid () in
  (* Block only the upper track; shove must go below. *)
  for x = 2 to 4 do
    Grid.occupy g ~net:7 (Grid.node g ~layer:0 ~x ~y:3)
  done;
  let b = Grid.node g ~layer:0 ~x:3 ~y:2 in
  match Router.Shove.try_shove g ~protected:no_protection ~node:b with
  | None -> Alcotest.fail "expected downward shove"
  | Some m ->
      Testkit.check_true "moved into row 1"
        (List.for_all (fun n -> Grid.node_y g n = 1) m.Router.Shove.added)

let test_shove_vertical_segment () =
  let g = Grid.create ~width:8 ~height:6 () in
  for y = 1 to 4 do
    Grid.occupy g ~net:9 (Grid.node g ~layer:1 ~x:4 ~y)
  done;
  let b = Grid.node g ~layer:1 ~x:4 ~y:2 in
  match Router.Shove.try_shove g ~protected:no_protection ~node:b with
  | None -> Alcotest.fail "vertical shove failed"
  | Some _ ->
      Testkit.check_int "still connected" 1
        (Drc.Check.connected_components g ~net:9)

(* --- net ordering --- *)

let order_problem () =
  Netlist.Problem.make ~name:"ord" ~width:20 ~height:20
    [
      Netlist.Net.make ~id:1 ~name:"short" [ pin 0 0; pin 1 1 ];
      Netlist.Net.make ~id:2 ~name:"long" [ pin 0 2; pin 19 19 ];
      Netlist.Net.make ~id:3 ~name:"multi"
        [ pin 5 5; pin 6 6; pin 7 7; pin 8 8 ];
    ]

let test_order_strategies () =
  let p = order_problem () in
  let ids = [ 1; 2; 3 ] in
  Testkit.check_true "as given"
    (Router.Order.arrange Router.Config.As_given ~seed:1 p ids = ids);
  Testkit.check_true "hpwl ascending puts short first"
    (List.hd (Router.Order.arrange Router.Config.Hpwl_ascending ~seed:1 p ids) = 1);
  Testkit.check_true "hpwl descending puts long first"
    (List.hd (Router.Order.arrange Router.Config.Hpwl_descending ~seed:1 p ids) = 2);
  Testkit.check_true "pins descending puts multi first"
    (List.hd (Router.Order.arrange Router.Config.Pins_descending ~seed:1 p ids) = 3);
  let r = Router.Order.arrange Router.Config.Random ~seed:1 p ids in
  Testkit.check_true "random is permutation" (List.sort Int.compare r = ids);
  let c = Router.Order.arrange Router.Config.Congestion_descending ~seed:1 p ids in
  Testkit.check_true "congestion is permutation" (List.sort Int.compare c = ids)

let test_order_restart_rotation () =
  let ids = List.init 10 (fun i -> i + 1) in
  Testkit.check_true "attempt 0 unchanged"
    (Router.Order.rotate_for_restart ~seed:5 ~attempt:0 ids = ids);
  let a1 = Router.Order.rotate_for_restart ~seed:5 ~attempt:1 ids in
  let a1' = Router.Order.rotate_for_restart ~seed:5 ~attempt:1 ids in
  Testkit.check_true "deterministic" (a1 = a1');
  Testkit.check_true "permutation" (List.sort Int.compare a1 = ids)

(* --- engine end-to-end --- *)

let test_engine_routes_empty_problem () =
  let p = Netlist.Problem.make ~name:"empty" ~width:5 ~height:5 [] in
  let r = Router.Engine.route p in
  Testkit.check_true "trivially complete" r.Router.Engine.completed

let test_engine_routes_trivial_nets () =
  let p =
    Netlist.Problem.make ~name:"triv" ~width:5 ~height:5
      [ Netlist.Net.make ~id:1 ~name:"a" [ pin 2 2 ] ]
  in
  let r = Router.Engine.route p in
  Testkit.check_true "complete" r.Router.Engine.completed;
  Testkit.check_int "no searches" 0 r.Router.Engine.stats.Router.Engine.searches

let test_engine_switchbox_suite () =
  List.iter
    (fun (_, p) -> ignore (Testkit.route_clean p))
    (Workload.Hard.all_switchboxes ())

let test_engine_channel_suite () =
  List.iter
    (fun (_, p) -> ignore (Testkit.route_clean p))
    (Workload.Hard.all_channels ())

let test_maze_only_fails_where_full_succeeds () =
  let p = Workload.Hard.tiny_blocked () in
  List.iter
    (fun order ->
      let cfg = { Router.Config.maze_only with order; seed = 3 } in
      let r = Router.Engine.route ~config:cfg p in
      Testkit.check_false "maze-only fails" r.Router.Engine.completed;
      (* ...but whatever it did route is still legal *)
      Testkit.check_true "partial result legal" (Testkit.drc_routed p r = []))
    Router.Config.
      [ As_given; Hpwl_ascending; Hpwl_descending; Pins_descending; Random ];
  let full = Testkit.route_clean p in
  Testkit.check_true "full used modification"
    (full.Router.Engine.stats.Router.Engine.rips > 0
    || full.Router.Engine.stats.Router.Engine.shoves > 0)

let test_engine_cyclic_channel () =
  (* The classic VC cycle: unroutable for dogleg-free channel routers at any
     width, routed by the engine at density. *)
  let p = Workload.Hard.cyclic_channel () in
  ignore (Testkit.route_clean p)

let test_engine_reports_unroutable () =
  (* Pin sealed in a box: no router can succeed; the engine must terminate
     and report the net rather than loop. *)
  let p =
    Netlist.Problem.make ~name:"sealed" ~width:10 ~height:10
      ~obstructions:
        [
          {
            Netlist.Problem.obs_layer = None;
            obs_rect = Geom.Rect.make 4 4 4 6;
          };
          {
            Netlist.Problem.obs_layer = None;
            obs_rect = Geom.Rect.make 6 4 6 6;
          };
          {
            Netlist.Problem.obs_layer = None;
            obs_rect = Geom.Rect.make 5 4 5 4;
          };
          {
            Netlist.Problem.obs_layer = None;
            obs_rect = Geom.Rect.make 5 6 5 6;
          };
        ]
      [
        Netlist.Net.make ~id:1 ~name:"boxed" [ pin 5 5; pin 0 0 ];
        Netlist.Net.make ~id:2 ~name:"free" [ pin 9 0; pin 9 9 ];
      ]
  in
  let r = Router.Engine.route p in
  Testkit.check_false "incomplete" r.Router.Engine.completed;
  Testkit.check_true "boxed net reported"
    (r.Router.Engine.stats.Router.Engine.failed_nets = [ 1 ]);
  Testkit.check_true "other net routed" (Testkit.drc_routed p r = [])

let test_engine_termination_budget () =
  (* Even with an absurdly over-constrained instance the engine halts and
     respects the rip budget. *)
  let prng = Util.Prng.create 99 in
  let p = Workload.Gen.dense_switchbox ~fill:1.0 prng ~width:10 ~height:8 in
  let config = { Router.Config.default with rip_budget_factor = 2 } in
  let r = Router.Engine.route ~config p in
  let budget = 2 * Netlist.Problem.net_count p in
  Testkit.check_true "rips bounded"
    (r.Router.Engine.stats.Router.Engine.rips <= budget + Netlist.Problem.net_count p);
  Testkit.check_true "partial result legal" (Testkit.drc_routed p r = [])

let test_engine_fast_kernels_complete_clean () =
  (* The bucket-queue kernel and the windowed A* search are drop-in
     replacements: the hard switchbox still completes, DRC-clean, and the
     effort counters stay populated. *)
  let p = Workload.Hard.burstein_like () in
  List.iter
    (fun config ->
      let r = Testkit.route_clean ~config p in
      let e = r.Router.Engine.stats.Router.Engine.effort in
      Testkit.check_true "expansions counted"
        (e.Router.Outcome.total_expanded > 0);
      Testkit.check_int "phase split sums to total" e.Router.Outcome.total_expanded
        (e.Router.Outcome.maze_expanded + e.Router.Outcome.weak_expanded
        + e.Router.Outcome.strong_expanded))
    [
      {
        Router.Config.default with
        kernel = Maze.Search.Buckets;
        use_astar = false;
      };
      {
        Router.Config.default with
        kernel = Maze.Search.Buckets;
        window_margin = Some 4;
      };
    ]

let test_engine_weak_only_uses_shoves_not_rips () =
  let p = Workload.Hard.burstein_like () in
  let r = Router.Engine.route ~config:Router.Config.weak_only p in
  Testkit.check_int "no rips in weak-only" 0 r.Router.Engine.stats.Router.Engine.rips

let test_engine_maze_only_no_modification () =
  let p = Workload.Hard.burstein_like () in
  let r = Router.Engine.route ~config:Router.Config.maze_only p in
  Testkit.check_int "no rips" 0 r.Router.Engine.stats.Router.Engine.rips;
  Testkit.check_int "no shoves" 0 r.Router.Engine.stats.Router.Engine.shoves

let test_engine_strategy_monotonicity () =
  (* More capable configurations route at least as many nets on the suite. *)
  List.iter
    (fun (_, p) ->
      let failed config =
        List.length
          (Router.Engine.route ~config p).Router.Engine.stats
            .Router.Engine.failed_nets
      in
      let maze = failed Router.Config.maze_only in
      let weak = failed Router.Config.weak_only in
      let full = failed Router.Config.default in
      Testkit.check_true "weak <= maze" (weak <= maze);
      Testkit.check_true "full <= weak" (full <= weak))
    (Workload.Hard.all_switchboxes ())

let test_engine_restarts_help_or_match () =
  let p = Workload.Hard.tiny_blocked () in
  let one = Router.Engine.route ~config:Router.Config.maze_only p in
  let many =
    Router.Engine.route
      ~config:{ Router.Config.maze_only with restarts = 8 }
      p
  in
  Testkit.check_true "restarts no worse"
    (List.length many.Router.Engine.stats.Router.Engine.failed_nets
    <= List.length one.Router.Engine.stats.Router.Engine.failed_nets);
  Testkit.check_true "attempts recorded"
    (many.Router.Engine.stats.Router.Engine.attempts >= 1)

let test_engine_astar_same_completion () =
  let p = Workload.Hard.tiny_blocked () in
  let dij =
    Router.Engine.route ~config:{ Router.Config.default with use_astar = false } p
  in
  let ast = Router.Engine.route p in
  Testkit.check_true "both complete"
    (dij.Router.Engine.completed && ast.Router.Engine.completed);
  Testkit.check_true "astar expands no more"
    (ast.Router.Engine.stats.Router.Engine.expanded
    <= dij.Router.Engine.stats.Router.Engine.expanded)

let test_engine_fixed_prewire_untouched () =
  (* A fixed prewire wall: the engine must route around it, never through. *)
  let wall = List.init 6 (fun i -> (0, 4, i + 2)) in
  let p =
    Netlist.Problem.make ~name:"fixedwall" ~width:10 ~height:10
      ~prewires:
        [ { Netlist.Problem.pre_net = 2; pre_cells = wall; pre_fixed = true } ]
      [
        Netlist.Net.make ~id:1 ~name:"crosser" [ pin 0 5; pin 9 5 ];
        Netlist.Net.make ~id:2 ~name:"wall" [ pin 4 2; pin 4 7 ];
      ]
  in
  let r = Testkit.route_clean p in
  let g = r.Router.Engine.grid in
  List.iter
    (fun (layer, x, y) ->
      Testkit.check_true "wall cell still owned by net 2"
        (Grid.occ_at g ~layer ~x ~y = 2))
    wall

let test_engine_loose_prewire_rippable () =
  (* A loose prewire blocking the only corridor must be ripped and the net
     rerouted. *)
  let p =
    Netlist.Problem.make ~name:"loose" ~width:8 ~height:5
      ~obstructions:
        [
          {
            Netlist.Problem.obs_layer = None;
            obs_rect = Geom.Rect.make 3 0 3 2;
          };
          {
            Netlist.Problem.obs_layer = Some 1;
            obs_rect = Geom.Rect.make 3 3 3 4;
          };
        ]
      ~prewires:
        [
          {
            Netlist.Problem.pre_net = 2;
            pre_cells = [ (0, 3, 3); (0, 3, 4) ];
            pre_fixed = false;
          };
        ]
      [
        Netlist.Net.make ~id:1 ~name:"crosser" [ pin 0 3; pin 7 3 ];
        Netlist.Net.make ~id:2 ~name:"blocker" [ pin 2 4; pin 4 4 ];
      ]
  in
  ignore (Testkit.route_clean p)

let test_engine_edge_configs () =
  let p = Workload.Hard.tiny_blocked () in
  (* Zero weak passes behaves like weak disabled. *)
  let no_weak_passes =
    Router.Engine.route
      ~config:{ Router.Config.default with max_weak_passes = 0 }
      p
  in
  Testkit.check_int "no shoves at zero passes" 0
    no_weak_passes.Router.Engine.stats.Router.Engine.shoves;
  (* Zero rip budget disables strong modification. *)
  let no_budget =
    Router.Engine.route
      ~config:{ Router.Config.default with rip_budget_factor = 0 }
      p
  in
  Testkit.check_int "no rips at zero budget" 0
    no_budget.Router.Engine.stats.Router.Engine.rips;
  (* Both off must equal maze-only completion-wise. *)
  let both_off =
    Router.Engine.route
      ~config:
        {
          Router.Config.default with
          max_weak_passes = 0;
          rip_budget_factor = 0;
          enable_weak = false;
          enable_strong = false;
        }
      p
  in
  let maze = Router.Engine.route ~config:Router.Config.maze_only p in
  Testkit.check_true "equals maze-only"
    (both_off.Router.Engine.completed = maze.Router.Engine.completed)

let test_engine_deterministic () =
  let p = Workload.Hard.burstein_like () in
  let r1 = Router.Engine.route p and r2 = Router.Engine.route p in
  Testkit.check_true "same completion"
    (r1.Router.Engine.completed = r2.Router.Engine.completed);
  Testkit.check_true "same stats"
    (r1.Router.Engine.stats = r2.Router.Engine.stats);
  let same_wiring =
    List.for_all
      (fun net ->
        Grid.occupied_nodes r1.Router.Engine.grid ~net
        = Grid.occupied_nodes r2.Router.Engine.grid ~net)
      (List.init (Netlist.Problem.net_count p) (fun i -> i + 1))
  in
  Testkit.check_true "identical wiring" same_wiring

let prop_shove_preserves_invariants =
  Testkit.qcheck ~count:80 "shove preserves connectivity and cell count"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let g = Grid.create ~width:10 ~height:8 () in
      (* a random straight segment of net 9 *)
      let horizontal = Util.Prng.bool prng in
      let layer = Util.Prng.int prng 2 in
      let len = Util.Prng.int_in prng 3 6 in
      let fixed = Util.Prng.int_in prng 1 6 in
      let start = Util.Prng.int_in prng 0 (10 - len - 1) in
      let cells =
        List.init len (fun i ->
            if horizontal then (start + i, fixed) else (fixed mod 8, min 7 (start + i)))
      in
      let cells = List.sort_uniq compare cells in
      List.iter
        (fun (x, y) -> Grid.occupy g ~net:9 (Grid.node g ~layer ~x ~y))
        cells;
      (* random clutter of another net *)
      for _ = 1 to Util.Prng.int prng 12 do
        let x = Util.Prng.int prng 10 and y = Util.Prng.int prng 8 in
        let n = Grid.node g ~layer:(Util.Prng.int prng 2) ~x ~y in
        if Grid.is_free g n then Grid.occupy g ~net:3 n
      done;
      let before9 = Grid.count_owned g ~net:9 in
      let before3 = Grid.count_owned g ~net:3 in
      let components_before = Drc.Check.connected_components g ~net:9 in
      (* try to shove a random cell of net 9 *)
      let target =
        let owned = Grid.occupied_nodes g ~net:9 in
        List.nth owned (Util.Prng.int prng (List.length owned))
      in
      match Router.Shove.try_shove g ~protected:(fun _ -> false) ~node:target with
      | None ->
          (* grid unchanged *)
          Grid.count_owned g ~net:9 = before9
          && Grid.count_owned g ~net:3 = before3
          && Drc.Check.connected_components g ~net:9 = components_before
      | Some _ ->
          Grid.count_owned g ~net:9 = before9 + 2
          && Grid.count_owned g ~net:3 = before3
          && Drc.Check.connected_components g ~net:9 = components_before
          && Grid.is_free g target)

(* --- refinement --- *)

let test_refine_monotone_and_clean () =
  List.iter
    (fun (_, p) ->
      let r = Router.Engine.route p in
      if r.Router.Engine.completed then begin
        let g = r.Router.Engine.grid in
        let s = Router.Improve.refine p g in
        Testkit.check_true "wirelength monotone"
          (s.Router.Improve.wirelength_after <= s.Router.Improve.wirelength_before);
        Testkit.check_true "still clean" (Drc.Check.is_clean p g)
      end)
    (Workload.Hard.all_switchboxes ())

let test_refine_restores_when_no_gain () =
  (* A single straight net is already optimal: refine must not change it. *)
  let p =
    Netlist.Problem.make ~name:"straight" ~width:10 ~height:5
      [ Netlist.Net.make ~id:1 ~name:"a" [ pin 0 2; pin 9 2 ] ]
  in
  let r = Router.Engine.route p in
  let wl_before = Router.Outcome.total_wirelength r.Router.Engine.grid p in
  let s = Router.Improve.refine p r.Router.Engine.grid in
  Testkit.check_int "unchanged" wl_before s.Router.Improve.wirelength_after;
  Testkit.check_int "nothing improved" 0 s.Router.Improve.improved_nets;
  Testkit.check_true "clean" (Drc.Check.is_clean p r.Router.Engine.grid)

let test_refine_skips_fixed_prewire_nets () =
  (* Net 1 has a deliberately wasteful fixed route; refine must not touch
     it. *)
  let detour = [ (0, 1, 1); (0, 1, 2); (0, 2, 2); (0, 3, 2); (0, 3, 1) ] in
  let p =
    Netlist.Problem.make ~name:"fixed-detour" ~width:6 ~height:4
      ~prewires:
        [ { Netlist.Problem.pre_net = 1; pre_cells = detour; pre_fixed = true } ]
      [ Netlist.Net.make ~id:1 ~name:"a" [ pin 0 1; pin 4 1 ] ]
  in
  let r = Router.Engine.route p in
  Testkit.check_true "routed" r.Router.Engine.completed;
  ignore (Router.Improve.refine p r.Router.Engine.grid);
  List.iter
    (fun (layer, x, y) ->
      Testkit.check_true "fixed cell kept"
        (Grid.occ_at r.Router.Engine.grid ~layer ~x ~y = 1))
    detour

let test_refine_improves_known_detour () =
  (* Loose prewire takes a detour; refinement straightens it. *)
  let detour =
    [ (0, 1, 0); (0, 1, 1); (0, 1, 2); (0, 2, 2); (0, 3, 2); (0, 3, 1);
      (0, 3, 0) ]
  in
  let p =
    Netlist.Problem.make ~name:"detour" ~width:6 ~height:4
      ~prewires:
        [ { Netlist.Problem.pre_net = 1; pre_cells = detour; pre_fixed = false } ]
      [ Netlist.Net.make ~id:1 ~name:"a" [ pin 0 0; pin 4 0 ] ]
  in
  let g = Netlist.Problem.instantiate p in
  Testkit.check_true "prewired net connected"
    (Drc.Check.connected_components g ~net:1 = 1);
  let before = Router.Outcome.total_wirelength g p in
  let s = Router.Improve.refine p g in
  Testkit.check_true "improved" (s.Router.Improve.wirelength_after < before);
  Testkit.check_true "clean" (Drc.Check.is_clean p g)

(* Refine's trajectory after the route of a committed chip: the
   planner's searches must stay where they were. *)
let test_refine_stats_pinned ?(config = Router.Config.default) name expected
    () =
  let p = Testkit.instance name in
  let r = Router.Engine.route ~config p in
  let s = Router.Improve.refine p r.Router.Engine.grid in
  Alcotest.(check (list int))
    (name ^ " wl before/after, vias before/after, planned, improved, passes")
    expected
    Router.Improve.
      [
        s.wirelength_before;
        s.wirelength_after;
        s.vias_before;
        s.vias_after;
        s.planned;
        s.improved_nets;
        s.passes;
      ]

let test_engine_routes_l_shaped_region () =
  let outline = Geom.Outline.l_shape ~width:14 ~height:10 ~notch_w:6 ~notch_h:4 in
  let p =
    Netlist.Build.of_pins_in_outline ~name:"l-region" ~outline
      [
        (1, pin 0 0); (1, pin 13 5);
        (2, pin 0 9); (2, pin 13 0);
        (3, pin 3 9); (3, pin 7 9); (3, pin 7 0);
      ]
  in
  let r = Testkit.route_clean p in
  (* no wiring inside the notch *)
  let g = r.Router.Engine.grid in
  Grid.iter_planar g (fun ~x ~y ->
      if not (Geom.Outline.mem outline x y) then begin
        Testkit.check_true "notch unwired L0" (Grid.occ_at g ~layer:0 ~x ~y <= 0);
        Testkit.check_true "notch unwired L1" (Grid.occ_at g ~layer:1 ~x ~y <= 0)
      end)

let test_engine_prunes_orphan_prewire () =
  (* A loose prewire with a dead-end stub off to the side: whatever the
     router does with the main run, no floating fragment may survive. *)
  let p =
    Netlist.Problem.make ~name:"orphan" ~width:10 ~height:6
      ~prewires:
        [
          {
            Netlist.Problem.pre_net = 1;
            (* a stub far from the straight pin-to-pin line *)
            pre_cells = [ (0, 4, 4); (0, 5, 4); (0, 6, 4) ];
            pre_fixed = false;
          };
        ]
      [ Netlist.Net.make ~id:1 ~name:"a" [ pin 0 0; pin 9 0 ] ]
  in
  let r = Testkit.route_clean p in
  (* route_clean already implies single-component connectivity, i.e. the
     stub was either integrated or released. *)
  Testkit.check_int "one component" 1
    (Drc.Check.connected_components r.Router.Engine.grid ~net:1)

let test_config_describe () =
  Testkit.check_true "full"
    (Router.Config.describe Router.Config.default = "weak+strong, order=hpwl-desc");
  Testkit.check_true "maze"
    (Router.Config.describe Router.Config.maze_only = "maze-only, order=hpwl-desc");
  let cfg = { Router.Config.weak_only with use_astar = false; restarts = 3 } in
  let s = Router.Config.describe cfg in
  Testkit.check_true "mentions dijkstra"
    (String.length s > 0
    && (let has sub =
          let rec search i =
            i + String.length sub <= String.length s
            && (String.sub s i (String.length sub) = sub || search (i + 1))
          in
          search 0
        in
        has "dijkstra" && has "restarts=3" && has "weak-only"))

let test_outcome_measure () =
  let p =
    Netlist.Problem.make ~name:"m" ~width:6 ~height:4
      [ Netlist.Net.make ~id:1 ~name:"a" [ pin 0 0; pin 5 0 ] ]
  in
  let g = Netlist.Problem.instantiate p in
  for x = 1 to 4 do
    Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x ~y:0)
  done;
  let m = Router.Outcome.measure_net g ~net:1 in
  Testkit.check_int "cells" 6 m.Router.Outcome.cells;
  Testkit.check_int "wirelength" 5 m.Router.Outcome.wirelength;
  Testkit.check_int "vias" 0 m.Router.Outcome.vias;
  Testkit.check_int "total wl" 5 (Router.Outcome.total_wirelength g p);
  Testkit.check_int "measure list" 1 (List.length (Router.Outcome.measure p g))

let prop_measure_matches_measure_net =
  Testkit.qcheck ~count:300 "one-pass measure = measure_net per net"
    QCheck2.Gen.int (fun seed ->
      let p, g = Testkit.random_layout seed in
      Router.Outcome.measure p g
      = List.init (Netlist.Problem.net_count p) (fun i ->
            Router.Outcome.measure_net g ~net:(i + 1)))

(* The engine's effort and result on committed instances, as
   [searches; expanded; rips; shoves; wirelength; vias], for the default
   config (A* on the heap), for the paper's Dijkstra, and for every
   frontier × heuristic × window combination the CLI and the benches
   use: search and bookkeeping changes must leave each routing
   trajectory exactly where it was.  Each row also pins
   [reused] as [plans; expansions]: the strong rung takes the plan of a
   weak pass that moved nothing instead of repeating its search, so the
   row's effort before that reuse is [searches + plans; expanded +
   expansions]. *)
let stats_list (s : Router.Engine.stats) =
  Router.Engine.
    [
      s.searches;
      s.expanded;
      s.rips;
      s.shoves;
      s.total_wirelength;
      s.total_vias;
    ]

let reused_list (s : Router.Engine.stats) =
  let e = s.Router.Engine.effort in
  Router.Outcome.[ e.reused; e.reused_expanded ]

let test_engine_stats_pinned ?(config = Router.Config.default) name expected
    ~reused () =
  let r = Router.Engine.route ~config (Testkit.instance name) in
  Alcotest.(check (list int)) name expected (stats_list r.Router.Engine.stats);
  Alcotest.(check (list int))
    (name ^ " reused plans, expansions")
    reused
    (reused_list r.Router.Engine.stats)

let pinned_config ~astar ?window kernel =
  {
    Router.Config.default with
    Router.Config.use_astar = astar;
    kernel;
    window_margin = window;
  }

(* The flow forces A* on the bucket frontier under global-route guides:
   its trajectory, guide hits and certified fallbacks are pinned too. *)
let test_flow_stats_pinned () =
  match
    Flow.run ~config:Router.Config.default (Testkit.instance "macro_128x104")
  with
  | Error msg -> Alcotest.failf "flow failed: %s" msg
  | Ok f ->
      let s = f.Flow.result.Router.Engine.stats in
      Alcotest.(check (list int))
        "macro_128x104" [ 157; 494981; 21; 9; 2961; 169 ] (stats_list s);
      Alcotest.(check (list int))
        "macro_128x104 reused plans, expansions" [ 17; 150818 ]
        (reused_list s);
      Testkit.check_int "guide hits" 62
        s.Router.Engine.guide.Router.Outcome.hits;
      Testkit.check_int "guide fallbacks" 69
        s.Router.Engine.guide.Router.Outcome.fallbacks

(* The strong rung's reused plan keeps a search's guards.  On
   tiny_blocked no weak pass ever moves anything, so every rip takes the
   plan of the weak pass before it.  [first_rip] is the smallest search
   budget under which a rip happens: the weak pass's search is that
   budget's last one. *)
let reuse_instance () =
  let p = Workload.Hard.tiny_blocked () in
  let r = Router.Engine.route p in
  let s = r.Router.Engine.stats in
  Testkit.check_int "no shoves" 0 s.Router.Engine.shoves;
  Testkit.check_true "rips" (s.Router.Engine.rips > 0);
  Testkit.check_int "no rip-up search" 0
    s.Router.Engine.effort.Router.Outcome.strong_expanded;
  p

let route_with_search_budget ?chaos p m =
  let budget = Router.Budget.create ~max_searches:m () in
  (budget, Router.Engine.route ~budget ?chaos p)

let first_rip p =
  let rec go m =
    let _, r = route_with_search_budget p m in
    if r.Router.Engine.stats.Router.Engine.rips > 0 then m else go (m + 1)
  in
  go 0

let test_reuse_stops_on_tripped_budget () =
  let p = reuse_instance () in
  let m = first_rip p in
  (* One search less: the stuck weak pass's search trips the budget. *)
  let budget, r = route_with_search_budget p (m - 1) in
  let s = r.Router.Engine.stats in
  Testkit.check_int "the weak pass searched" m (Router.Budget.searches budget);
  Testkit.check_true "its plan was found"
    (s.Router.Engine.effort.Router.Outcome.weak_expanded > 0);
  Testkit.check_int "no rip" 0 s.Router.Engine.rips;
  Testkit.check_int "no reuse" 0 s.Router.Engine.effort.Router.Outcome.reused

let test_reuse_fails_on_forced_failure () =
  let p = reuse_instance () in
  let m = first_rip p in
  (* A seed whose first [m] search rolls pass and whose next one — the
     strong rung's — fails. *)
  let search_fail = 1.0 /. float_of_int (m + 1) in
  let rolls seed =
    let c = Router.Chaos.create ~search_fail ~seed () in
    List.init (m + 1) (fun _ -> Router.Chaos.fail_search c)
  in
  let wanted = List.init (m + 1) (fun i -> i = m) in
  let rec find seed = if rolls seed = wanted then seed else find (seed + 1) in
  let chaos = Router.Chaos.create ~search_fail ~seed:(find 0) () in
  let budget, r = route_with_search_budget ~chaos p m in
  let s = r.Router.Engine.stats in
  Testkit.check_int "one forced failure" 1 (Router.Chaos.injected chaos);
  Testkit.check_int "it counts as a search" (m + 1)
    (Router.Budget.searches budget);
  Testkit.check_int "no rip" 0 s.Router.Engine.rips;
  Testkit.check_int "no reuse" 0 s.Router.Engine.effort.Router.Outcome.reused

(* Per-net bookkeeping must cost the net, not the grid: a route
   allocates a few major-heap words per grid node (grid-sized state made
   once per attempt), not one grid-sized structure per routed net. *)
let test_engine_major_allocation () =
  let p = Testkit.instance "chip_96x64" in
  let nodes =
    p.Netlist.Problem.width * p.Netlist.Problem.height
    * p.Netlist.Problem.layers
  in
  let major () =
    Gc.minor ();
    let _, _, words = Gc.counters () in
    words
  in
  let before = major () in
  let r = Router.Engine.route p in
  let per_node = (major () -. before) /. float_of_int nodes in
  Testkit.check_true "routed" r.Router.Engine.completed;
  if per_node >= 24.0 then
    Alcotest.failf "major-heap words per grid node: %.1f (limit 24)" per_node

(* --- sessions --- *)

let session_problem () =
  Netlist.Problem.make ~name:"sess" ~width:14 ~height:10
    [
      Netlist.Net.make ~id:1 ~name:"a" [ pin 0 0; pin 13 9 ];
      Netlist.Net.make ~id:2 ~name:"b" [ pin 0 9; pin 13 0 ];
      Netlist.Net.make ~id:3 ~name:"c" [ pin 0 5; pin 13 5 ];
    ]

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "session op failed: %s" e

let test_session_route_and_verify () =
  let s = Router.Session.create (session_problem ()) in
  Testkit.check_false "initially unrouted" (Router.Session.is_routed s ~net:1);
  Testkit.check_int "none routed yet" 0 (Router.Session.routed_count s);
  Testkit.check_true "unrouted opens are not violations"
    (Router.Session.verify s = []);
  let stats = Router.Session.route s in
  Testkit.check_int "all routed" 3 stats.Router.Engine.routed_nets;
  Testkit.check_true "routed flag" (Router.Session.is_routed s ~net:1);
  Testkit.check_int "routed count" 3 (Router.Session.routed_count s);
  Testkit.check_true "verify clean" (Router.Session.verify s = [])

let test_session_route_is_incremental () =
  let s = Router.Session.create (session_problem ()) in
  ignore (Router.Session.route s);
  let wiring_before = Grid.occupied_nodes (Router.Session.grid s) ~net:1 in
  (* A second route call must keep the existing wiring (everything is
     already routed, nothing to do). *)
  ignore (Router.Session.route s);
  Testkit.check_true "net 1 wiring preserved"
    (Grid.occupied_nodes (Router.Session.grid s) ~net:1 = wiring_before)

let test_session_add_net () =
  let s = Router.Session.create (session_problem ()) in
  ignore (Router.Session.route s);
  (* Find two free cells for the new pins. *)
  let g = Router.Session.grid s in
  let free = ref [] in
  Grid.iter_nodes g (fun n -> if Grid.is_free g n then free := n :: !free);
  (match !free with
  | p1 :: rest ->
      let p2 = List.nth rest (List.length rest - 1) in
      let mk n =
        Netlist.Net.pin ~layer:(Grid.node_layer g n) (Grid.node_x g n)
          (Grid.node_y g n)
      in
      let id = ok_or_fail (Router.Session.add_net s ~name:"fresh" [ mk p1; mk p2 ]) in
      Testkit.check_int "new id" 4 id;
      Testkit.check_false "not yet routed" (Router.Session.is_routed s ~net:id)
  | [] -> Alcotest.fail "no free cells");
  ignore (Router.Session.route s);
  Testkit.check_true "verify clean" (Router.Session.verify s = [])

let test_session_add_net_validation () =
  let s = Router.Session.create (session_problem ()) in
  (match Router.Session.add_net s ~name:"a" [ pin 1 1 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate name accepted");
  (match Router.Session.add_net s ~name:"clash" [ pin 0 0 ] with
  | Error _ -> () (* (0,0) holds net a's pin *)
  | Ok _ -> Alcotest.fail "occupied pin accepted");
  (* A pin on a layer outside the 2-layer stack is rejected, not an
     index error, and leaves the session as it was. *)
  let before = Netlist.Parse.to_string (Router.Session.problem s) in
  let grid = Grid.copy (Router.Session.grid s) in
  List.iter
    (fun layer ->
      match Router.Session.add_net s ~name:"q" [ pin 1 2 ~layer; pin 3 4 ] with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "pin on layer %d accepted" layer)
    [ 2; -1 ];
  Testkit.check_true "problem unchanged"
    (String.equal before (Netlist.Parse.to_string (Router.Session.problem s)));
  Testkit.check_true "grid unchanged" (Grid.equal grid (Router.Session.grid s))

let test_session_rip_and_reroute () =
  let s = Router.Session.create (session_problem ()) in
  ignore (Router.Session.route s);
  ok_or_fail (Router.Session.rip s ~net:2);
  Testkit.check_false "ripped" (Router.Session.is_routed s ~net:2);
  Testkit.check_true "others intact" (Router.Session.is_routed s ~net:1);
  ignore (Router.Session.route s);
  Testkit.check_true "rerouted" (Router.Session.is_routed s ~net:2)

let test_session_freeze_protects_wiring () =
  let s = Router.Session.create (session_problem ()) in
  ignore (Router.Session.route s);
  ok_or_fail (Router.Session.freeze s ~net:1);
  Testkit.check_true "frozen" (Router.Session.is_frozen s ~net:1);
  (match Router.Session.rip s ~net:1 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "ripped a frozen net");
  (match Router.Session.remove_net s ~net:1 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "removed a frozen net");
  let wiring = Grid.occupied_nodes (Router.Session.grid s) ~net:1 in
  ok_or_fail (Router.Session.rip s ~net:2);
  ignore (Router.Session.route s);
  Testkit.check_true "frozen wiring unchanged"
    (Grid.occupied_nodes (Router.Session.grid s) ~net:1 = wiring);
  ok_or_fail (Router.Session.thaw s ~net:1);
  ok_or_fail (Router.Session.rip s ~net:1)

let test_session_freeze_requires_routed () =
  let s = Router.Session.create (session_problem ()) in
  match Router.Session.freeze s ~net:1 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "froze an unrouted net"

let test_session_remove_renumbers () =
  let s = Router.Session.create (session_problem ()) in
  ignore (Router.Session.route s);
  ok_or_fail (Router.Session.remove_net s ~net:2);
  Testkit.check_int "two nets left"
    2
    (Netlist.Problem.net_count (Router.Session.problem s));
  (* "c" is now id 2 and kept its wiring *)
  (match Router.Session.net_id s "c" with
  | Some id ->
      Testkit.check_int "renumbered" 2 id;
      Testkit.check_true "still routed" (Router.Session.is_routed s ~net:id)
  | None -> Alcotest.fail "net c lost");
  Testkit.check_true "b gone" (Router.Session.net_id s "b" = None);
  Testkit.check_true "verify clean" (Router.Session.verify s = [])

let test_session_refine () =
  let s = Router.Session.create (session_problem ()) in
  ignore (Router.Session.route s);
  let r = Router.Session.refine s in
  Testkit.check_true "monotone"
    (r.Router.Improve.wirelength_after <= r.Router.Improve.wirelength_before);
  Testkit.check_true "still clean" (Router.Session.verify s = [])

let test_refine_idempotent () =
  let p = Workload.Hard.burstein_like () in
  let r = Router.Engine.route p in
  let _first = Router.Improve.refine p r.Router.Engine.grid in
  let second = Router.Improve.refine p r.Router.Engine.grid in
  Testkit.check_int "second refine finds nothing" 0
    second.Router.Improve.improved_nets;
  Testkit.check_int "single pass" 1 second.Router.Improve.passes

let prop_engine_random_switchboxes =
  Testkit.qcheck ~count:25 "engine random switchboxes: complete => DRC clean"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let p =
        Workload.Gen.switchbox prng ~width:12 ~height:10
          ~nets:(Util.Prng.int_in prng 4 10)
      in
      let r = Router.Engine.route p in
      Testkit.drc_routed p r = [])

let prop_engine_routable_always_complete =
  Testkit.qcheck ~count:10 "engine completes routable-by-construction boxes"
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let p = Workload.Gen.routable_switchbox prng ~width:12 ~height:10 in
      let r = Router.Engine.route ~config:{ Router.Config.default with restarts = 4 } p in
      (* Not guaranteed in theory (the engine is heuristic), but expected on
         this size; treat an incomplete result as acceptable only if legal. *)
      Testkit.drc_routed p r = [])

let prop_engine_regions_with_obstacles =
  Testkit.qcheck ~count:20 "engine regions: routed subset is legal"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let p =
        Workload.Gen.region prng ~width:14 ~height:12
          ~nets:(Util.Prng.int_in prng 3 8)
      in
      let r = Router.Engine.route p in
      Testkit.drc_routed p r = [])

let () =
  Alcotest.run "router"
    [
      ( "shove",
        [
          Alcotest.test_case "moves through cell" `Quick test_shove_moves_through_cell;
          Alcotest.test_case "rejects endpoint" `Quick test_shove_rejects_endpoint;
          Alcotest.test_case "rejects corner" `Quick test_shove_rejects_corner;
          Alcotest.test_case "rejects junction" `Quick test_shove_rejects_junction;
          Alcotest.test_case "rejects via cell" `Quick test_shove_rejects_via_cell;
          Alcotest.test_case "respects protection" `Quick test_shove_respects_protection;
          Alcotest.test_case "needs free track" `Quick test_shove_needs_free_track;
          Alcotest.test_case "tries other side" `Quick test_shove_tries_other_side;
          Alcotest.test_case "vertical segment" `Quick test_shove_vertical_segment;
        ] );
      ( "order",
        [
          Alcotest.test_case "strategies" `Quick test_order_strategies;
          Alcotest.test_case "restart rotation" `Quick test_order_restart_rotation;
        ] );
      ( "engine",
        [
          Alcotest.test_case "empty problem" `Quick test_engine_routes_empty_problem;
          Alcotest.test_case "trivial nets" `Quick test_engine_routes_trivial_nets;
          Alcotest.test_case "switchbox suite" `Slow test_engine_switchbox_suite;
          Alcotest.test_case "channel suite" `Slow test_engine_channel_suite;
          Alcotest.test_case "beats maze-only" `Slow test_maze_only_fails_where_full_succeeds;
          Alcotest.test_case "cyclic channel" `Quick test_engine_cyclic_channel;
          Alcotest.test_case "unroutable reported" `Quick test_engine_reports_unroutable;
          Alcotest.test_case "termination budget" `Quick test_engine_termination_budget;
          Alcotest.test_case "fast kernels clean" `Quick test_engine_fast_kernels_complete_clean;
          Alcotest.test_case "weak-only no rips" `Quick test_engine_weak_only_uses_shoves_not_rips;
          Alcotest.test_case "maze-only no mods" `Quick test_engine_maze_only_no_modification;
          Alcotest.test_case "strategy monotonicity" `Slow test_engine_strategy_monotonicity;
          Alcotest.test_case "restarts" `Quick test_engine_restarts_help_or_match;
          Alcotest.test_case "astar agreement" `Quick test_engine_astar_same_completion;
          Alcotest.test_case "fixed prewire" `Quick test_engine_fixed_prewire_untouched;
          Alcotest.test_case "loose prewire" `Quick test_engine_loose_prewire_rippable;
          Alcotest.test_case "orphan prewire pruned" `Quick test_engine_prunes_orphan_prewire;
          Alcotest.test_case "stats pinned chip_96x64" `Quick
            (test_engine_stats_pinned "chip_96x64" [ 85; 31121; 24; 5; 1257; 68 ]
               ~reused:[ 19; 14783 ]);
          Alcotest.test_case "stats pinned chip_96x64 dijkstra" `Quick
            (test_engine_stats_pinned
               ~config:(pinned_config ~astar:false Maze.Search.Binary_heap)
               "chip_96x64" [ 85; 62333; 24; 5; 1257; 66 ]
               ~reused:[ 19; 22806 ]);
          Alcotest.test_case "stats pinned switchbox_64x52" `Slow
            (test_engine_stats_pinned "switchbox_64x52"
               [ 117; 122587; 13; 5; 4395; 133 ]
               ~reused:[ 12; 32573 ]);
          Alcotest.test_case "stats pinned switchbox_64x52 dijkstra" `Slow
            (test_engine_stats_pinned
               ~config:(pinned_config ~astar:false Maze.Search.Binary_heap)
               "switchbox_64x52"
               [ 636; 1742324; 271; 15; 4391; 154 ]
               ~reused:[ 211; 1269106 ]);
          Alcotest.test_case "stats pinned chip_320x224_l3" `Slow
            (test_engine_stats_pinned "chip_320x224_l3"
               [ 1827; 360128; 198; 57; 16185; 2082 ]
               ~reused:[ 159; 83546 ]);
          Alcotest.test_case "stats pinned chip_288x192_l4" `Slow
            (test_engine_stats_pinned "chip_288x192_l4"
               [ 1979; 621586; 309; 54; 16905; 2646 ]
               ~reused:[ 237; 247183 ]);
          Alcotest.test_case "stats pinned chip_96x64 astar buckets" `Quick
            (test_engine_stats_pinned
               ~config:(pinned_config ~astar:true Maze.Search.Buckets)
               "chip_96x64" [ 85; 29943; 24; 5; 1257; 68 ]
               ~reused:[ 19; 14424 ]);
          Alcotest.test_case "stats pinned chip_96x64 astar buckets window 4"
            `Quick
            (test_engine_stats_pinned
               ~config:
                 (pinned_config ~astar:true ~window:4 Maze.Search.Buckets)
               "chip_96x64" [ 85; 79827; 24; 5; 1257; 68 ]
               ~reused:[ 19; 45447 ]);
          Alcotest.test_case "stats pinned chip_96x64 buckets window 4" `Quick
            (test_engine_stats_pinned
               ~config:
                 (pinned_config ~astar:false ~window:4 Maze.Search.Buckets)
               "chip_96x64" [ 85; 121539; 24; 5; 1257; 66 ]
               ~reused:[ 19; 65050 ]);
          Alcotest.test_case "stats pinned chip_96x64 heap window 4" `Quick
            (test_engine_stats_pinned
               ~config:
                 (pinned_config ~astar:false ~window:4 Maze.Search.Binary_heap)
               "chip_96x64" [ 85; 121791; 24; 5; 1257; 66 ]
               ~reused:[ 19; 65219 ]);
          Alcotest.test_case "stats pinned flow macro_128x104" `Slow
            test_flow_stats_pinned;
          Alcotest.test_case "reused plan stops on a tripped budget" `Quick
            test_reuse_stops_on_tripped_budget;
          Alcotest.test_case "reused plan fails on a forced failure" `Quick
            test_reuse_fails_on_forced_failure;
          Alcotest.test_case "major allocation per node" `Quick
            test_engine_major_allocation;
          Alcotest.test_case "L-shaped region" `Quick test_engine_routes_l_shaped_region;
          Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
          Alcotest.test_case "edge configs" `Quick test_engine_edge_configs;
          prop_shove_preserves_invariants;
          prop_engine_random_switchboxes;
          prop_engine_routable_always_complete;
          prop_engine_regions_with_obstacles;
        ] );
      ( "outcome",
        [
          Alcotest.test_case "config describe" `Quick test_config_describe;
          Alcotest.test_case "measure" `Quick test_outcome_measure;
          prop_measure_matches_measure_net;
        ] );
      ( "report",
        [
          Alcotest.test_case "render" `Quick (fun () ->
              let p = Workload.Hard.tiny_blocked () in
              let r = Router.Engine.route p in
              let text = Router.Report.render p r in
              Testkit.check_true "mentions completion"
                (String.length text > 100);
              let lines = String.split_on_char '\n' text in
              (* one row per net plus header/sep/summary *)
              Testkit.check_true "row per net"
                (List.length lines
                >= Netlist.Problem.net_count p + 8));
          Alcotest.test_case "marks failures" `Quick (fun () ->
              let p = Workload.Hard.tiny_blocked () in
              let r =
                Router.Engine.route ~config:Router.Config.maze_only p
              in
              let table = Router.Report.per_net_table p r in
              let text = Util.Table.render table in
              Testkit.check_true "has FAILED row"
                (let has sub =
                   let rec search i =
                     i + String.length sub <= String.length text
                     && (String.sub text i (String.length sub) = sub
                        || search (i + 1))
                   in
                   search 0
                 in
                 has "FAILED"));
        ] );
      ( "session",
        [
          Alcotest.test_case "route and verify" `Quick test_session_route_and_verify;
          Alcotest.test_case "incremental route" `Quick test_session_route_is_incremental;
          Alcotest.test_case "add net" `Quick test_session_add_net;
          Alcotest.test_case "add validation" `Quick test_session_add_net_validation;
          Alcotest.test_case "rip and reroute" `Quick test_session_rip_and_reroute;
          Alcotest.test_case "freeze protects" `Quick test_session_freeze_protects_wiring;
          Alcotest.test_case "freeze needs routed" `Quick test_session_freeze_requires_routed;
          Alcotest.test_case "remove renumbers" `Quick test_session_remove_renumbers;
          Alcotest.test_case "refine" `Quick test_session_refine;
        ] );
      ( "improve",
        [
          Alcotest.test_case "monotone and clean" `Slow test_refine_monotone_and_clean;
          Alcotest.test_case "no-gain restore" `Quick test_refine_restores_when_no_gain;
          Alcotest.test_case "skips fixed prewires" `Quick test_refine_skips_fixed_prewire_nets;
          Alcotest.test_case "improves known detour" `Quick test_refine_improves_known_detour;
          Alcotest.test_case "idempotent" `Quick test_refine_idempotent;
          (* Each [planned] pin is the count under exact freed stamps.
             The ring of coalesced release rectangles they replaced
             planned more (43, 43, 999 and 1136): its wraps and hulls
             made clean certificates read stale.  The layouts are
             unchanged. *)
          Alcotest.test_case "stats pinned chip_96x64" `Quick
            (test_refine_stats_pinned "chip_96x64"
               [ 1257; 1137; 68; 54; 42; 6; 3 ]);
          Alcotest.test_case "stats pinned chip_96x64 dijkstra" `Quick
            (test_refine_stats_pinned
               ~config:{ Router.Config.default with use_astar = false }
               "chip_96x64"
               [ 1257; 1137; 66; 54; 42; 6; 3 ]);
          Alcotest.test_case "stats pinned chip_320x224_l3" `Slow
            (test_refine_stats_pinned "chip_320x224_l3"
               [ 16185; 15552; 2082; 1990; 836; 46; 3 ]);
          Alcotest.test_case "stats pinned chip_288x192_l4" `Slow
            (test_refine_stats_pinned "chip_288x192_l4"
               [ 16905; 15660; 2646; 2432; 1102; 119; 3 ]);
        ] );
    ]
