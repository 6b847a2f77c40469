(* Incremental refine (DESIGN.md §11): the incremental refine pass —
   read-region certificates, cost-floor skips, persistent caches — must
   produce byte-identical layouts and verdicts to the from-scratch
   baseline. *)

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

(* --- the closed-form cost floor --- *)

(* One routed net on a default 2-layer stack, refined once with a fresh
   cache (incremental) and once without; returns both stats and whether
   the two grids agree. *)
let refine_single pins =
  let net = Netlist.Net.make ~id:1 ~name:"a" pins in
  let problem = Netlist.Problem.make ~name:"f" ~width:10 ~height:8 [ net ] in
  let r = Router.Engine.route ~config:Router.Config.default problem in
  Testkit.check_true "routed" r.Router.Engine.completed;
  let g_inc = Grid.copy r.Router.Engine.grid in
  let g_base = Grid.copy r.Router.Engine.grid in
  let cache = Maze.Cache.create g_inc ~nets:1 in
  let si =
    Router.Improve.refine ~max_passes:1 ~incremental:true ~cache problem g_inc
  in
  let sb =
    Router.Improve.refine ~max_passes:1 ~incremental:false problem g_base
  in
  (si, sb, Grid.equal g_inc g_base)

let test_floor_skips () =
  (* A straight run along layer 0's preferred direction: 7 wire, no
     via, exactly the pins' half-perimeter floor. *)
  let si, sb, same =
    refine_single [ Netlist.Net.pin 1 3; Netlist.Net.pin 8 3 ]
  in
  Testkit.check_int "floor skip" 1 si.Router.Improve.skipped_bound;
  Testkit.check_int "no plan" 0 si.Router.Improve.planned;
  Testkit.check_int "baseline plans it" 1 sb.Router.Improve.planned;
  Testkit.check_true "identical layout" same;
  Testkit.check_true "identical verdicts" (sem_equal si sb)

let test_floor_plans_above () =
  (* Opposite corners with both pins on layer 0: the floor (12 wire, no
     via) needs 5 wrong-way steps, so the router pays two vias instead
     and the net sits above its floor — it must be planned. *)
  let si, sb, same =
    refine_single [ Netlist.Net.pin 1 1; Netlist.Net.pin 8 6 ]
  in
  Testkit.check_int "no floor skip" 0 si.Router.Improve.skipped_bound;
  Testkit.check_int "planned" 1 si.Router.Improve.planned;
  Testkit.check_int "baseline plans it" 1 sb.Router.Improve.planned;
  Testkit.check_true "identical layout" same;
  Testkit.check_true "identical verdicts" (sem_equal si sb)

(* --- committed instances (the acceptance check) --- *)

let fast_config =
  {
    Router.Config.default with
    Router.Config.use_astar = true;
    kernel = Maze.Search.Buckets;
    window_margin = Some 4;
  }

(* [Config.incremental] steers refine only ([Engine.route] never reads
   it), so each instance is routed once and refined both ways from
   copies of that one layout. *)
let check_instance name =
  let problem = Testkit.instance name in
  let routed = Router.Engine.route ~config:fast_config problem in
  let g_on = Grid.copy routed.Router.Engine.grid in
  let g_off = Grid.copy routed.Router.Engine.grid in
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
      ("refine", [ prop_incremental_refine_equiv ]);
      ( "cost-floor",
        [
          Alcotest.test_case "a net at its pins' floor skips planning"
            `Quick test_floor_skips;
          Alcotest.test_case "a net above its floor is planned" `Quick
            test_floor_plans_above;
        ] );
      ( "instances",
        [
          Alcotest.test_case "committed instances (small)" `Quick
            test_committed_small;
          Alcotest.test_case "committed instances (large)" `Slow
            test_committed_large;
        ] );
    ]
