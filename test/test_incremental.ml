(* Incremental goal-oriented search (DESIGN.md §11): the lower-bound
   fields must be exact when their window covers the grid, stay
   admissible under journal-driven repair, and the incremental refine
   pass — certificates, oracle skips, persistent caches — must produce
   byte-identical layouts and verdicts to the from-scratch baseline. *)

let free_passable g n = if Grid.is_free g n then Some 0 else None

let random_obstacle_grid seed =
  let prng = Util.Prng.create seed in
  let g = Grid.create ~width:10 ~height:8 () in
  Grid.iter_nodes g (fun n ->
      if Util.Prng.chance prng 0.25 then
        Grid.set_obstacle g
          ~layer:(Grid.node_layer g n)
          ~x:(Grid.node_x g n) ~y:(Grid.node_y g n));
  g

(* A margin large enough that the window is always the whole grid, so
   field values are exact global distances. *)
let full_margin = 64

let build_full g ~targets ~around =
  Maze.Lowerbound.build g ~cost:Maze.Cost.default
    ~passable:(free_passable g) ~targets ~around ~margin:full_margin

(* --- exactness of the full-window field --- *)

let prop_lowerbound_exact =
  Testkit.qcheck ~count:100 "full-window field value = forward search cost"
    QCheck2.Gen.(
      triple (int_range 0 100_000) (int_range 0 159) (int_range 0 159))
    (fun (seed, a, b) ->
      let g = random_obstacle_grid seed in
      if (not (Grid.is_free g a)) || not (Grid.is_free g b) then true
      else begin
        let ws = Maze.Workspace.create g in
        let f = build_full g ~targets:[ b ] ~around:[ a; b ] in
        let v = Maze.Lowerbound.value f g a in
        match
          Maze.Search.run g ws ~cost:Maze.Cost.default
            ~passable:(free_passable g) ~sources:[ a ] ~targets:[ b ] ()
        with
        | Some r -> v = r.Maze.Search.total_cost
        | None -> v = Maze.Lowerbound.inf_cost
      end)

(* --- the lb-steered A* returns the same costs --- *)

let prop_astar_lb_cost_identity =
  Testkit.qcheck ~count:100 "Field A* cost = plain Dijkstra cost"
    QCheck2.Gen.(
      triple (int_range 0 100_000) (int_range 0 159) (int_range 0 159))
    (fun (seed, a, b) ->
      let g = random_obstacle_grid seed in
      if (not (Grid.is_free g a)) || not (Grid.is_free g b) then true
      else begin
        let ws = Maze.Workspace.create g in
        let f = build_full g ~targets:[ b ] ~around:[ a; b ] in
        let lb =
          Maze.Search.run ~heuristic:(Maze.Search.Field f) g ws
            ~cost:Maze.Cost.default
            ~passable:(free_passable g) ~sources:[ a ] ~targets:[ b ] ()
        in
        let plain =
          Maze.Search.run g ws ~cost:Maze.Cost.default
            ~passable:(free_passable g) ~sources:[ a ] ~targets:[ b ] ()
        in
        match (lb, plain) with
        | None, None -> true
        | Some l, Some r ->
            l.Maze.Search.total_cost = r.Maze.Search.total_cost
            && Grid.Path.is_valid g l.Maze.Search.path
        | Some _, None | None, Some _ -> false
      end)

(* --- repair keeps the lower-bound invariant under mutation --- *)

let mutate prng g =
  (* Occupy some free cells (blocking writes) and release some occupied
     ones (freeing writes), all through the journalled mutators. *)
  Grid.iter_nodes g (fun n ->
      if Grid.is_free g n && Util.Prng.chance prng 0.08 then
        Grid.occupy g ~net:9 n
      else if Grid.occ g n = 9 && Util.Prng.chance prng 0.5 then
        Grid.release g n)

let prop_repair_admissible =
  Testkit.qcheck ~count:100 "repaired field never exceeds a fresh rebuild"
    QCheck2.Gen.(
      pair (int_range 0 100_000) (int_range 0 159))
    (fun (seed, b) ->
      let g = random_obstacle_grid seed in
      if not (Grid.is_free g b) then true
      else begin
        let prng = Util.Prng.create (seed lxor 0x9E37) in
        let f = build_full g ~targets:[ b ] ~around:[ b ] in
        let ok = ref true in
        for _ = 1 to 3 do
          mutate prng g;
          ignore (Maze.Lowerbound.repair g ~passable:(free_passable g) f);
          let fresh = build_full g ~targets:[ b ] ~around:[ b ] in
          (* The lower-bound contract covers passable nodes only: repair
             skips currently-blocked cells (no reader consults them). *)
          Grid.iter_nodes g (fun n ->
              if
                Grid.is_free g n
                && Maze.Lowerbound.value f g n > Maze.Lowerbound.value fresh g n
              then ok := false)
        done;
        !ok
      end)

let prop_repair_exact_after_release =
  Testkit.qcheck ~count:100 "repair is exact under freeing-only writes"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 159))
    (fun (seed, b) ->
      let g = random_obstacle_grid seed in
      if not (Grid.is_free g b) then true
      else begin
        let prng = Util.Prng.create (seed lxor 0x51ED) in
        (* Pre-occupy, then build, then only release: every write after
           the build can only decrease true distances, which repair's
           decrease-only relaxation recovers exactly. *)
        let occupied = ref [] in
        Grid.iter_nodes g (fun n ->
            if Grid.is_free g n && n <> b && Util.Prng.chance prng 0.15
            then begin
              Grid.occupy g ~net:9 n;
              occupied := n :: !occupied
            end);
        let f = build_full g ~targets:[ b ] ~around:[ b ] in
        List.iter
          (fun n -> if Util.Prng.chance prng 0.6 then Grid.release g n)
          !occupied;
        ignore (Maze.Lowerbound.repair g ~passable:(free_passable g) f);
        let fresh = build_full g ~targets:[ b ] ~around:[ b ] in
        let ok = ref true in
        (* Exactness, like admissibility, is promised for passable nodes
           only — cells still occupied at repair time are skipped. *)
        Grid.iter_nodes g (fun n ->
            if
              Grid.is_free g n
              && Maze.Lowerbound.value f g n <> Maze.Lowerbound.value fresh g n
            then ok := false);
        !ok
      end)

(* --- incremental refine ≡ baseline refine --- *)

(* The semantic half of the stats: verdicts and results must agree;
   the cache-telemetry half legitimately differs between modes. *)
let sem_equal (a : Router.Improve.stats) (b : Router.Improve.stats) =
  a.Router.Improve.passes = b.Router.Improve.passes
  && a.Router.Improve.improved_nets = b.Router.Improve.improved_nets
  && a.Router.Improve.wirelength_after = b.Router.Improve.wirelength_after
  && a.Router.Improve.vias_after = b.Router.Improve.vias_after

let pin_nodes problem g net =
  List.filter_map
    (fun (id, p) -> if id = net then Some (Maze.Route.pin_node g p) else None)
    (Netlist.Problem.pin_cells problem)

let rip_and_reroute problem g ws ~net =
  let pins = pin_nodes problem g net in
  List.iter
    (fun n -> if not (List.mem n pins) then Grid.release g n)
    (Grid.occupied_nodes g ~net);
  ignore
    (Maze.Route.route_net g ws ~cost:Maze.Cost.default
       (Netlist.Problem.net problem net))

let prop_incremental_refine_equiv =
  Testkit.qcheck ~count:15
    "incremental refine ≡ baseline under random rip-up cycles"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let problem =
        Workload.Gen.routable_switchbox prng ~width:16 ~height:12
      in
      let r = Router.Engine.route ~config:Router.Config.default problem in
      if not r.Router.Engine.completed then true
      else begin
        let g_inc = Grid.copy r.Router.Engine.grid in
        let g_base = Grid.copy r.Router.Engine.grid in
        let ws_inc = Maze.Workspace.create g_inc in
        let ws_base = Maze.Workspace.create g_base in
        let cache =
          Maze.Cache.create g_inc ~nets:(Netlist.Problem.net_count problem)
        in
        let nets = Array.of_list (Netlist.Problem.nontrivial_net_ids problem) in
        let ok = ref true in
        let check () =
          (* The incremental side keeps one cache alive across every
             refine call; the baseline recomputes everything. *)
          let si =
            Router.Improve.refine ~incremental:true ~cache problem g_inc
          in
          let sb = Router.Improve.refine ~incremental:false problem g_base in
          ok := !ok && Grid.equal g_inc g_base && sem_equal si sb
        in
        check ();
        for _ = 1 to 3 do
          if Array.length nets > 0 then begin
            let net = Util.Prng.pick prng nets in
            rip_and_reroute problem g_inc ws_inc ~net;
            rip_and_reroute problem g_base ws_base ~net;
            ok := !ok && Grid.equal g_inc g_base;
            check ()
          end
        done;
        !ok
      end)

(* --- committed instances (the acceptance check) --- *)

let fast_config =
  {
    Router.Config.default with
    Router.Config.use_astar = true;
    kernel = Maze.Search.Buckets;
    window_margin = Some 4;
  }

let core_stats_equal (a : Router.Engine.stats) (b : Router.Engine.stats) =
  { a with Router.Engine.par = b.Router.Engine.par } = b

let check_instance name =
  let problem = Testkit.instance name in
  let on =
    Router.Engine.route
      ~config:{ fast_config with Router.Config.incremental = true }
      problem
  in
  let off =
    Router.Engine.route
      ~config:{ fast_config with Router.Config.incremental = false }
      problem
  in
  Testkit.check_true (name ^ ": identical routed layout")
    (Grid.equal on.Router.Engine.grid off.Router.Engine.grid);
  Testkit.check_true (name ^ ": identical core stats")
    (core_stats_equal on.Router.Engine.stats off.Router.Engine.stats);
  let g_on = Grid.copy on.Router.Engine.grid in
  let g_off = Grid.copy on.Router.Engine.grid in
  let cache =
    Maze.Cache.create g_on ~nets:(Netlist.Problem.net_count problem)
  in
  (* Enough passes to converge (the internal loop stops at the first
     pass without improvement), so the final pass writes nothing and
     leaves every certificate clean for the re-refine check below. *)
  let s_on =
    Router.Improve.refine ~max_passes:50 ~incremental:true ~cache problem g_on
  in
  let s_off =
    Router.Improve.refine ~max_passes:50 ~incremental:false problem g_off
  in
  Testkit.check_true (name ^ ": identical refined layout")
    (Grid.equal g_on g_off);
  Testkit.check_true (name ^ ": identical refine verdicts")
    (sem_equal s_on s_off);
  (* A second refine on the untouched grid must be answered from the
     cache alone: every visit skips, no planning searches run. *)
  let again = Router.Improve.refine ~incremental:true ~cache problem g_on in
  Testkit.check_int (name ^ ": cached re-refine plans nothing") 0
    again.Router.Improve.planned;
  Testkit.check_int (name ^ ": cached re-refine improves nothing") 0
    again.Router.Improve.improved_nets;
  Testkit.check_true (name ^ ": cached re-refine skips via the cache")
    (again.Router.Improve.skipped_cert + again.Router.Improve.skipped_bound > 0)

let test_committed_small () =
  List.iter check_instance
    [ "switchbox_12x10"; "switchbox_32x26"; "chip_128x96" ]

let test_committed_large () =
  List.iter check_instance
    [ "switchbox_64x52"; "switchbox_128x104"; "chip_96x64" ]

let () =
  Alcotest.run "incremental"
    [
      ( "lowerbound",
        [
          prop_lowerbound_exact;
          prop_astar_lb_cost_identity;
          prop_repair_admissible;
          prop_repair_exact_after_release;
        ] );
      ("refine", [ prop_incremental_refine_equiv ]);
      ( "instances",
        [
          Alcotest.test_case "committed instances (small)" `Quick
            test_committed_small;
          Alcotest.test_case "committed instances (large)" `Slow
            test_committed_large;
        ] );
    ]
