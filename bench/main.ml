(* Benchmark harness: regenerates every table and figure of the evaluation
   — experiments E1 through E10 plus bechamel micro-benchmarks (see
   DESIGN.md §3 and EXPERIMENTS.md).

   Usage:
     dune exec bench/main.exe                    -- run all experiments
     dune exec bench/main.exe e1 e4              -- run a subset
     dune exec bench/main.exe micro              -- micro-benchmarks only
     dune exec bench/main.exe e5 -- --jobs 4     -- sweep on 4 domains
     dune exec bench/main.exe e5 -- --no-time    -- omit wall-clock columns

   --jobs N runs the instances of the E4/E5/E9 sweeps on N domains
   (0 = one per core); all result columns are byte-identical to the
   sequential run because every instance routes on its own grid and the
   pool preserves order.  Wall-clock columns are the one inherently
   unstable output; --no-time replaces them with "-" so two runs (any
   --jobs values) diff clean.
*)

let jobs = ref 1
let no_time = ref false

let pmap f xs = Util.Parallel.map ~jobs:!jobs f xs

let time_cell ?(decimals = 2) ms =
  if !no_time then "-" else Util.Table.cell_float ~decimals ms

(* Every direct engine invocation in the harness runs under a hard
   per-run wall-clock budget: a pathological instance degrades its own
   row (the engine returns best-so-far) instead of hanging the whole
   table run.  The deadline is far above any observed row time, so
   result columns are unaffected. *)
let run_deadline = 120.0

let route ?config problem =
  Router.Engine.route ?config
    ~budget:(Router.Budget.create ~deadline:run_deadline ())
    problem

let strategies =
  [
    ("maze-only", Router.Config.maze_only);
    ("weak-only", Router.Config.weak_only);
    ("full", Router.Config.default);
  ]

let drc_ok problem (result : Router.Engine.t) =
  let failed = result.Router.Engine.stats.Router.Engine.failed_nets in
  let routed =
    List.filter
      (fun id -> not (List.mem id failed))
      (List.init (Netlist.Problem.net_count problem) (fun i -> i + 1))
  in
  Drc.Check.is_clean ~nets:routed problem result.Router.Engine.grid

let heading title claim =
  Printf.printf "\n=== %s ===\n%s\n\n" title claim

(* ------------------------------------------------------------------ *)
(* E1: difficult switchboxes — completion by strategy                  *)
(* ------------------------------------------------------------------ *)

let e1 () =
  heading "E1 (table): difficult switchboxes, completion by strategy"
    "Claim: one-shot maze routing fails on difficult switchboxes; weak\n\
     modification (shoving) helps but does not complete; rip-up and\n\
     reroute completes them all.";
  let table =
    Util.Table.create
      ~headers:
        [ "switchbox"; "nets"; "strategy"; "done"; "failed"; "rips"; "shoves";
          "vias"; "wirelen"; "drc" ]
  in
  List.iter
    (fun (name, problem) ->
      List.iter
        (fun (sname, config) ->
          let r = route ~config problem in
          let s = r.Router.Engine.stats in
          Util.Table.add_row table
            [
              name;
              Util.Table.cell_int (Netlist.Problem.net_count problem);
              sname;
              Util.Table.cell_bool r.Router.Engine.completed;
              Util.Table.cell_int (List.length s.Router.Engine.failed_nets);
              Util.Table.cell_int s.Router.Engine.rips;
              Util.Table.cell_int s.Router.Engine.shoves;
              Util.Table.cell_int s.Router.Engine.total_vias;
              Util.Table.cell_int s.Router.Engine.total_wirelength;
              (if drc_ok problem r then "clean" else "VIOLATION");
            ])
        strategies;
      Util.Table.add_sep table)
    (Workload.Hard.all_switchboxes ());
  Util.Table.print table

(* ------------------------------------------------------------------ *)
(* E2: channels — minimum tracks per router                            *)
(* ------------------------------------------------------------------ *)

let e2 () =
  heading "E2 (table): channels, minimum tracks per router"
    "Claim: the full router finishes difficult channels in density\n\
     (the lower bound), matching or beating channel-specific routers;\n\
     dogleg-free routers fail on constraint cycles and waste tracks on\n\
     constraint chains.";
  let show = function None -> "fail" | Some t -> string_of_int t in
  let table =
    Util.Table.create
      ~headers:
        [ "channel"; "cols"; "nets"; "density"; "left-edge"; "dogleg";
          "greedy"; "yacr"; "full"; "full vias"; "full wirelen" ]
  in
  List.iter
    (fun (name, problem) ->
      let spec = Channel.Model.spec_of_problem problem in
      let full = Channel.Adapter.min_tracks spec in
      let full_tracks, full_vias, full_wl =
        match full with
        | Some (t, r) ->
            ( string_of_int t,
              Util.Table.cell_int r.Router.Engine.stats.Router.Engine.total_vias,
              Util.Table.cell_int
                r.Router.Engine.stats.Router.Engine.total_wirelength )
        | None -> ("fail", "-", "-")
      in
      Util.Table.add_row table
        [
          name;
          Util.Table.cell_int (Channel.Model.columns spec);
          Util.Table.cell_int (List.length (Channel.Model.net_ids spec));
          Util.Table.cell_int (Channel.Model.density spec);
          show (Channel.Lea.min_tracks spec);
          show (Channel.Dogleg.min_tracks spec);
          (match Channel.Greedy.route_padded spec with
          | Some (padded, sol) ->
              let ext = Channel.Greedy.extension_used ~original:spec padded in
              if ext = 0 then string_of_int sol.Channel.Model.tracks
              else Printf.sprintf "%d(+%dc)" sol.Channel.Model.tracks ext
          | None -> "fail");
          show (Channel.Yacr.min_tracks spec);
          full_tracks;
          full_vias;
          full_wl;
        ])
    (Workload.Hard.all_channels ());
  Util.Table.print table;
  Printf.printf
    "Quality at each router's own minimum track count (deutsch-like):\n";
  let spec =
    Channel.Model.spec_of_problem (Workload.Hard.deutsch_like ())
  in
  let table =
    Util.Table.create ~headers:[ "router"; "tracks"; "vias"; "wirelen" ]
  in
  let add_solution name = function
    | Some (sol : Channel.Model.solution) ->
        Util.Table.add_row table
          [
            name;
            Util.Table.cell_int sol.Channel.Model.tracks;
            Util.Table.cell_int (Channel.Model.solution_vias sol);
            Util.Table.cell_int (Channel.Model.solution_wirelength sol);
          ]
    | None -> Util.Table.add_row table [ name; "fail"; "-"; "-" ]
  in
  add_solution "left-edge" (Channel.Lea.route spec);
  add_solution "dogleg" (Channel.Dogleg.route spec);
  add_solution "greedy (padded)"
    (Option.map snd (Channel.Greedy.route_padded spec));
  (match Channel.Yacr.route spec with
  | Some (problem, g) ->
      Util.Table.add_row table
        [
          "yacr";
          Util.Table.cell_int (problem.Netlist.Problem.height - 2);
          Util.Table.cell_int (Router.Outcome.total_vias g);
          Util.Table.cell_int (Router.Outcome.total_wirelength g problem);
        ]
  | None -> Util.Table.add_row table [ "yacr"; "fail"; "-"; "-" ]);
  (match Channel.Adapter.min_tracks spec with
  | Some (tracks, r) ->
      Util.Table.add_row table
        [
          "full";
          Util.Table.cell_int tracks;
          Util.Table.cell_int r.Router.Engine.stats.Router.Engine.total_vias;
          Util.Table.cell_int
            r.Router.Engine.stats.Router.Engine.total_wirelength;
        ]
  | None -> Util.Table.add_row table [ "full"; "fail"; "-"; "-" ]);
  Util.Table.print table;
  Printf.printf "Staircase series (density 2, constraint chain length n):\n";
  let table =
    Util.Table.create
      ~headers:[ "n"; "left-edge"; "dogleg"; "greedy"; "yacr"; "full" ]
  in
  List.iter
    (fun n ->
      let spec =
        Channel.Model.spec_of_problem (Workload.Hard.staircase_channel n)
      in
      Util.Table.add_row table
        [
          Util.Table.cell_int n;
          show (Channel.Lea.min_tracks ~max_extra:(n + 2) spec);
          show (Channel.Dogleg.min_tracks ~max_extra:(n + 2) spec);
          show (Channel.Greedy.min_tracks ~max_extra:(n + 2) spec);
          show (Channel.Yacr.min_tracks ~max_extra:(n + 2) spec);
          show (Option.map fst (Channel.Adapter.min_tracks spec));
        ])
    [ 4; 6; 8; 10; 12 ];
  Util.Table.print table

(* ------------------------------------------------------------------ *)
(* E3: routing in a reduced region                                     *)
(* ------------------------------------------------------------------ *)

(* Remove one interior column that carries no top/bottom pin, shifting the
   pins to its right leftwards.  Mirrors the paper's "routed using one less
   column than the original data". *)
let remove_unpinned_column (problem : Netlist.Problem.t) =
  let w = problem.Netlist.Problem.width
  and h = problem.Netlist.Problem.height in
  let top = Array.make w 0
  and bottom = Array.make w 0
  and left = Array.make h 0
  and right = Array.make h 0 in
  List.iter
    (fun (net, (pin : Netlist.Net.pin)) ->
      let x = pin.Netlist.Net.x and y = pin.Netlist.Net.y in
      if y = h - 1 && pin.Netlist.Net.layer = 1 then top.(x) <- net
      else if y = 0 && pin.Netlist.Net.layer = 1 then bottom.(x) <- net
      else if x = 0 then left.(y) <- net
      else right.(y) <- net)
    (Netlist.Problem.pin_cells problem);
  let removable = ref None in
  for x = w - 2 downto 1 do
    if top.(x) = 0 && bottom.(x) = 0 then removable := Some x
  done;
  match !removable with
  | None -> None
  | Some x ->
      let drop a i =
        Array.init
          (Array.length a - 1)
          (fun j -> if j < i then a.(j) else a.(j + 1))
      in
      Some
        (Netlist.Build.switchbox
           ~name:(problem.Netlist.Problem.name ^ "-shrunk")
           ~width:(w - 1) ~height:h ~top:(drop top x) ~bottom:(drop bottom x)
           ~left ~right ())

let min_width config problem =
  let rec loop p =
    let r = route ~config p in
    if not r.Router.Engine.completed then None
    else
      match remove_unpinned_column p with
      | None -> Some p.Netlist.Problem.width
      | Some smaller -> (
          match loop smaller with
          | Some width -> Some width
          | None -> Some p.Netlist.Problem.width)
  in
  loop problem

let e3 () =
  heading "E3 (table): routing in a reduced region"
    "Claim: the rip-up router can finish in a smaller region (fewer\n\
     columns) than one-shot routing needs — the paper's 'one less\n\
     column' result.  Unpinned columns are removed one at a time until\n\
     routing fails; smaller min-columns is better.";
  let table =
    Util.Table.create
      ~headers:
        [ "switchbox"; "orig cols"; "min cols (maze)"; "min cols (full)";
          "cols saved" ]
  in
  List.iter
    (fun (name, problem) ->
      let orig = problem.Netlist.Problem.width in
      let show = function None -> "fail" | Some w -> string_of_int w in
      let m = min_width Router.Config.maze_only problem in
      let f = min_width Router.Config.default problem in
      let saved =
        match (m, f) with
        | Some m, Some f -> string_of_int (m - f)
        | None, Some f -> Printf.sprintf ">=%d" (orig - f)
        | (Some _ | None), None -> "-"
      in
      Util.Table.add_row table
        [ name; Util.Table.cell_int orig; show m; show f; saved ])
    (Workload.Hard.all_switchboxes ());
  Util.Table.print table

(* ------------------------------------------------------------------ *)
(* E4: completion rate vs congestion                                   *)
(* ------------------------------------------------------------------ *)

let e4 () =
  heading "E4 (figure): completion rate vs boundary congestion"
    "Claim: as congestion grows, one-shot routing degrades first; weak\n\
     modification extends the routable range; rip-up extends it\n\
     furthest.  Series = completion rate over 20 random switchboxes\n\
     (12x10) per fill level (fill = fraction of boundary slots pinned).";
  let seeds = List.init 20 (fun i -> 1000 + i) in
  let table =
    Util.Table.create
      ~headers:[ "fill"; "maze-only"; "weak-only"; "full"; "full rips/box" ]
  in
  List.iter
    (fun fill ->
      let problems =
        List.map
          (fun seed ->
            Workload.Gen.dense_switchbox ~fill (Util.Prng.create seed)
              ~width:12 ~height:10)
          seeds
      in
      (* Each box routes under all three strategies in one parallel task;
         aggregation below is order-independent, so the table is identical
         for every --jobs value. *)
      let outcomes =
        pmap
          (fun p ->
            let done_with config =
              (route ~config p).Router.Engine.completed
            in
            let full = route p in
            ( done_with Router.Config.maze_only,
              done_with Router.Config.weak_only,
              full.Router.Engine.completed,
              full.Router.Engine.stats.Router.Engine.rips ))
          problems
      in
      let count f = List.length (List.filter f outcomes) in
      let rate n = float_of_int n /. float_of_int (List.length problems) in
      let rips =
        List.fold_left (fun acc (_, _, _, r) -> acc + r) 0 outcomes
      in
      Util.Table.add_row table
        [
          Util.Table.cell_float ~decimals:2 fill;
          Util.Table.cell_pct (rate (count (fun (m, _, _, _) -> m)));
          Util.Table.cell_pct (rate (count (fun (_, w, _, _) -> w)));
          Util.Table.cell_pct (rate (count (fun (_, _, f, _) -> f)));
          Util.Table.cell_float ~decimals:1
            (float_of_int rips /. float_of_int (List.length problems));
        ])
    [ 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ];
  Util.Table.print table

(* ------------------------------------------------------------------ *)
(* E5: runtime scaling                                                 *)
(* ------------------------------------------------------------------ *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

let e5 () =
  heading "E5 (figure): runtime and search effort vs region size"
    "Claim: runtime grows polynomially with region size (the search is\n\
     O(cells log cells) per connection); the modification machinery does\n\
     not blow up on larger regions.  Series over routable boxes of\n\
     growing size (median of 3 runs).";
  let table =
    Util.Table.create
      ~headers:
        [ "size"; "nets"; "pins"; "ms (full)"; "expanded"; "searches"; "rips" ]
  in
  let rows =
    pmap
      (fun (w, h) ->
        let problem =
          Workload.Gen.routable_switchbox
            (Util.Prng.create (w + h))
            ~width:w ~height:h
        in
        let times = ref [] and result = ref None in
        for _ = 1 to 3 do
          let t0 = Unix.gettimeofday () in
          let r = route problem in
          times := (Unix.gettimeofday () -. t0) :: !times;
          result := Some r
        done;
        match !result with
        | None -> []
        | Some r ->
            let s = r.Router.Engine.stats in
            [
              Printf.sprintf "%dx%d" w h;
              Util.Table.cell_int (Netlist.Problem.net_count problem);
              Util.Table.cell_int (Netlist.Problem.total_pins problem);
              time_cell (1000.0 *. median !times);
              Util.Table.cell_int s.Router.Engine.expanded;
              Util.Table.cell_int s.Router.Engine.searches;
              Util.Table.cell_int s.Router.Engine.rips;
            ])
      [ (8, 7); (12, 10); (16, 14); (24, 20); (32, 26); (48, 40); (64, 52) ]
  in
  List.iter (fun row -> if row <> [] then Util.Table.add_row table row) rows;
  Util.Table.print table

(* ------------------------------------------------------------------ *)
(* E6: ablation of the design choices                                  *)
(* ------------------------------------------------------------------ *)

let e6 () =
  heading "E6 (table, ablation): contribution of each design choice"
    "Aggregated over the switchbox suite: failed nets, modification\n\
     counts and quality per configuration.  Shows what each mechanism\n\
     (ordering, shove, rip-up, costs, A*) buys.";
  let configs =
    [
      ("full (default)", Router.Config.default);
      ( "no weak (strong only)",
        { Router.Config.default with enable_weak = false } );
      ("no strong (weak only)", Router.Config.weak_only);
      ("maze only", Router.Config.maze_only);
      ( "order: hpwl ascending",
        { Router.Config.default with order = Router.Config.Hpwl_ascending } );
      ( "order: as given",
        { Router.Config.default with order = Router.Config.As_given } );
      ( "order: random",
        { Router.Config.default with order = Router.Config.Random } );
      ( "order: congestion",
        {
          Router.Config.default with
          order = Router.Config.Congestion_descending;
        } );
      ("dijkstra (paper)", { Router.Config.default with use_astar = false });
      ( "cheap vias (via=1)",
        {
          Router.Config.default with
          cost = { Maze.Cost.default with Maze.Cost.via = 1 };
        } );
      ( "no wrong-way cost",
        {
          Router.Config.default with
          cost = { Maze.Cost.default with Maze.Cost.wrong_way = 0 };
        } );
      ("restarts=4", { Router.Config.default with restarts = 4 });
    ]
  in
  let suite = Workload.Hard.all_switchboxes () in
  let table =
    Util.Table.create
      ~headers:
        [ "configuration"; "boxes done"; "failed nets"; "rips"; "shoves";
          "vias"; "wirelen"; "expanded" ]
  in
  List.iter
    (fun (name, config) ->
      let completed = ref 0
      and failed = ref 0
      and rips = ref 0
      and shoves = ref 0
      and vias = ref 0
      and wirelen = ref 0
      and expanded = ref 0 in
      List.iter
        (fun (_, problem) ->
          let r = route ~config problem in
          let s = r.Router.Engine.stats in
          if r.Router.Engine.completed then incr completed;
          failed := !failed + List.length s.Router.Engine.failed_nets;
          rips := !rips + s.Router.Engine.rips;
          shoves := !shoves + s.Router.Engine.shoves;
          vias := !vias + s.Router.Engine.total_vias;
          wirelen := !wirelen + s.Router.Engine.total_wirelength;
          expanded := !expanded + s.Router.Engine.expanded)
        suite;
      Util.Table.add_row table
        [
          name;
          Printf.sprintf "%d/%d" !completed (List.length suite);
          Util.Table.cell_int !failed;
          Util.Table.cell_int !rips;
          Util.Table.cell_int !shoves;
          Util.Table.cell_int !vias;
          Util.Table.cell_int !wirelen;
          Util.Table.cell_int !expanded;
        ])
    configs;
  Util.Table.print table

(* ------------------------------------------------------------------ *)
(* E7: partially routed regions (ECO)                                  *)
(* ------------------------------------------------------------------ *)

let route_cells problem grid ~net =
  let pins =
    List.filter_map
      (fun (id, (p : Netlist.Net.pin)) ->
        if id = net then
          Some (p.Netlist.Net.layer, p.Netlist.Net.x, p.Netlist.Net.y)
        else None)
      (Netlist.Problem.pin_cells problem)
  in
  List.filter_map
    (fun node ->
      let cell =
        (Grid.node_layer grid node, Grid.node_x grid node, Grid.node_y grid node)
      in
      if List.mem cell pins then None else Some cell)
    (Grid.occupied_nodes grid ~net)

(* Freeze a routed region and add fresh nets whose pins sit on free cells. *)
let make_eco seed =
  let prng = Util.Prng.create seed in
  let base = Workload.Gen.region prng ~width:16 ~height:12 ~nets:8 in
  let first = route base in
  if not first.Router.Engine.completed then None
  else begin
    let grid = first.Router.Engine.grid in
    let n = Netlist.Problem.net_count base in
    let prewires =
      List.init n (fun i ->
          let net = i + 1 in
          {
            Netlist.Problem.pre_net = net;
            pre_cells = route_cells base grid ~net;
            (* a third of the old nets are frozen, the rest movable *)
            pre_fixed = net mod 3 = 0;
          })
    in
    let free_cells = ref [] in
    Grid.iter_nodes grid (fun node ->
        if Grid.is_free grid node then free_cells := node :: !free_cells);
    let free = Array.of_list !free_cells in
    Util.Prng.shuffle prng free;
    if Array.length free < 8 then None
    else begin
      let pin_of node =
        Netlist.Net.pin
          ~layer:(Grid.node_layer grid node)
          (Grid.node_x grid node) (Grid.node_y grid node)
      in
      let old_nets = Array.to_list base.Netlist.Problem.nets in
      let new_net k =
        Netlist.Net.make ~id:(n + k)
          ~name:(Printf.sprintf "eco%d" k)
          [ pin_of free.(2 * k); pin_of free.((2 * k) + 1) ]
      in
      let eco =
        Netlist.Problem.make ~name:"eco" ~width:16 ~height:12
          ~obstructions:base.Netlist.Problem.obstructions ~prewires
          (old_nets @ [ new_net 1; new_net 2 ])
      in
      Some eco
    end
  end

let e7 () =
  heading "E7 (table): ECO routing in partially routed regions"
    "Claim: the router handles partially routed areas — frozen wiring is\n\
     respected, movable wiring is ripped only when needed, and new nets\n\
     are threaded through an existing layout.";
  let table =
    Util.Table.create
      ~headers:[ "seed"; "done"; "rips"; "shoves"; "fixed intact"; "drc" ]
  in
  let attempted = ref 0 in
  List.iter
    (fun seed ->
      match make_eco seed with
      | None -> ()
      | Some eco ->
          incr attempted;
          let r = route eco in
          let s = r.Router.Engine.stats in
          let fixed_intact =
            List.for_all
              (fun (pw : Netlist.Problem.prewire) ->
                (not pw.Netlist.Problem.pre_fixed)
                || List.for_all
                     (fun (layer, x, y) ->
                       Grid.occ_at r.Router.Engine.grid ~layer ~x ~y
                       = pw.Netlist.Problem.pre_net)
                     pw.Netlist.Problem.pre_cells)
              eco.Netlist.Problem.prewires
          in
          Util.Table.add_row table
            [
              Util.Table.cell_int seed;
              Util.Table.cell_bool r.Router.Engine.completed;
              Util.Table.cell_int s.Router.Engine.rips;
              Util.Table.cell_int s.Router.Engine.shoves;
              Util.Table.cell_bool fixed_intact;
              (if drc_ok eco r then "clean" else "VIOLATION");
            ])
    (List.init 8 (fun i -> 300 + i));
  Util.Table.print table;
  Printf.printf "(%d of 8 seeds produced a routable base layout)\n" !attempted

(* ------------------------------------------------------------------ *)
(* E8: post-route refinement                                           *)
(* ------------------------------------------------------------------ *)

let e8 () =
  heading "E8 (table): post-route refinement (rip-up-and-improve)"
    "Claim: revisiting nets against the final layout recovers the detours\n\
     taken during sequential routing; the pass is strictly monotone\n\
     (cost never increases) and preserves DRC cleanliness.";
  let table =
    Util.Table.create
      ~headers:
        [ "switchbox"; "wirelen before"; "after"; "vias before"; "after";
          "nets improved"; "passes"; "drc" ]
  in
  List.iter
    (fun (name, problem) ->
      let r = route problem in
      if r.Router.Engine.completed then begin
        let s = Router.Improve.refine problem r.Router.Engine.grid in
        Util.Table.add_row table
          [
            name;
            Util.Table.cell_int s.Router.Improve.wirelength_before;
            Util.Table.cell_int s.Router.Improve.wirelength_after;
            Util.Table.cell_int s.Router.Improve.vias_before;
            Util.Table.cell_int s.Router.Improve.vias_after;
            Util.Table.cell_int s.Router.Improve.improved_nets;
            Util.Table.cell_int s.Router.Improve.passes;
            (if Drc.Check.is_clean problem r.Router.Engine.grid then "clean"
             else "VIOLATION");
          ]
      end)
    (Workload.Hard.all_switchboxes ());
  Util.Table.print table

(* ------------------------------------------------------------------ *)
(* E9: macro-cell chips — full-flow scaling                            *)
(* ------------------------------------------------------------------ *)

let e9 () =
  heading "E9 (table): macro-cell chips, end-to-end"
    "Claim: the router is usable as the detailed router of a macro-cell\n\
     flow — irregular regions between macros, pins on macro edges,\n\
     growing problem sizes, with the refinement pass as cleanup.  All\n\
     instances are routable by construction.";
  let table =
    Util.Table.create
      ~headers:
        [ "chip"; "macros"; "nets"; "pins"; "done"; "rips"; "ms (route)";
          "wl"; "wl refined"; "vias"; "vias refined"; "drc" ]
  in
  let rows =
    pmap
      (fun (w, h, mc, mr) ->
        let problem =
          Workload.Gen.routable_chip ~macro_cols:mc ~macro_rows:mr
            (Util.Prng.create (w + h))
            ~width:w ~height:h
        in
        let t0 = Unix.gettimeofday () in
        let r = route problem in
        let elapsed = Unix.gettimeofday () -. t0 in
        let s = r.Router.Engine.stats in
        let refined = Router.Improve.refine problem r.Router.Engine.grid in
        [
          Printf.sprintf "%dx%d" w h;
          Printf.sprintf "%dx%d" mc mr;
          Util.Table.cell_int (Netlist.Problem.net_count problem);
          Util.Table.cell_int (Netlist.Problem.total_pins problem);
          Util.Table.cell_bool r.Router.Engine.completed;
          Util.Table.cell_int s.Router.Engine.rips;
          time_cell ~decimals:1 (1000.0 *. elapsed);
          Util.Table.cell_int refined.Router.Improve.wirelength_before;
          Util.Table.cell_int refined.Router.Improve.wirelength_after;
          Util.Table.cell_int refined.Router.Improve.vias_before;
          Util.Table.cell_int refined.Router.Improve.vias_after;
          (if drc_ok problem r then "clean" else "VIOLATION");
        ])
      [ (32, 24, 2, 2); (48, 32, 3, 2); (64, 48, 3, 3); (96, 64, 4, 3);
        (128, 96, 5, 4) ]
  in
  List.iter (Util.Table.add_row table) rows;
  Util.Table.print table

(* ------------------------------------------------------------------ *)
(* E10: the congestion predictor vs reality                            *)
(* ------------------------------------------------------------------ *)

let e10 () =
  heading "E10 (figure): pre-routing congestion estimate vs completion"
    "The demand-map overflow estimate is a cheap routability predictor:\n\
     bucketing 120 random switchboxes by estimated overflow, completion\n\
     rate should fall monotonically as the estimate rises.";
  let problems =
    List.concat_map
      (fun fill ->
        List.map
          (fun seed ->
            Workload.Gen.dense_switchbox ~fill
              (Util.Prng.create (seed * 37))
              ~width:12 ~height:10)
          (List.init 20 (fun i -> 500 + i)))
      [ 0.3; 0.45; 0.6; 0.7; 0.8; 0.9 ]
  in
  let buckets = [ 0.0; 0.02; 0.05; 0.10; 0.20; 0.35; 1.01 ] in
  let table =
    Util.Table.create
      ~headers:[ "overflow estimate"; "boxes"; "completion (full)" ]
  in
  let rec pairs = function
    | lo :: (hi :: _ as rest) ->
        let selected =
          List.filter
            (fun p ->
              let v = Netlist.Analysis.overflow_estimate p in
              v >= lo && v < hi)
            problems
        in
        if selected <> [] then begin
          let routed =
            List.length
              (List.filter
                 (fun p -> (route p).Router.Engine.completed)
                 selected)
          in
          Util.Table.add_row table
            [
              Printf.sprintf "[%.2f, %.2f)" lo hi;
              Util.Table.cell_int (List.length selected);
              Util.Table.cell_pct
                (float_of_int routed /. float_of_int (List.length selected));
            ]
        end;
        pairs rest
    | [] | [ _ ] -> ()
  in
  pairs buckets;
  Util.Table.print table

(* ------------------------------------------------------------------ *)
(* budget: anytime behavior — quality vs expansion budget              *)
(* ------------------------------------------------------------------ *)

let budget_sweep () =
  heading "budget (table): solution quality vs expansion budget"
    "Claim: the engine is an anytime router — under a hard expansion\n\
     budget it returns a DRC-clean best-so-far layout, routed nets grow\n\
     monotonically with the budget, and an unlimited budget reproduces\n\
     the default run exactly.  Instances mirror the E4/E5/E9 suites.";
  let instances =
    [
      ( "dense 12x10 (E4, fill 0.6)",
        Workload.Gen.dense_switchbox ~fill:0.6 (Util.Prng.create 1007)
          ~width:12 ~height:10 );
      ( "switchbox 32x26 (E5)",
        Workload.Gen.routable_switchbox (Util.Prng.create 58) ~width:32
          ~height:26 );
      ( "switchbox 64x52 (E5)",
        Workload.Gen.routable_switchbox (Util.Prng.create 116) ~width:64
          ~height:52 );
      ( "chip 64x48 (E9, 3x3 macros)",
        Workload.Gen.routable_chip ~macro_cols:3 ~macro_rows:3
          (Util.Prng.create 112) ~width:64 ~height:48 );
    ]
  in
  let budgets = [ Some 250; Some 1_000; Some 4_000; Some 16_000; None ] in
  let table =
    Util.Table.create
      ~headers:
        [ "instance"; "max expanded"; "status"; "routed"; "failed";
          "expanded"; "wirelen"; "drc" ]
  in
  List.iter
    (fun (name, problem) ->
      let rows =
        pmap
          (fun max_expanded ->
            let budget =
              match max_expanded with
              | Some m -> Router.Budget.create ~max_expanded:m ()
              | None -> Router.Budget.create ~deadline:run_deadline ()
            in
            let r = Router.Engine.route ~budget problem in
            let s = r.Router.Engine.stats in
            [
              name;
              (match max_expanded with
              | Some m -> Util.Table.cell_int m
              | None -> "unlimited");
              Router.Outcome.status_name r.Router.Engine.status;
              Printf.sprintf "%d/%d" s.Router.Engine.routed_nets
                (Netlist.Problem.net_count problem);
              Util.Table.cell_int (List.length s.Router.Engine.failed_nets);
              Util.Table.cell_int (Router.Budget.expanded budget);
              Util.Table.cell_int s.Router.Engine.total_wirelength;
              (if drc_ok problem r then "clean" else "VIOLATION");
            ])
          budgets
      in
      List.iter (Util.Table.add_row table) rows;
      Util.Table.add_sep table)
    instances;
  Util.Table.print table

(* ------------------------------------------------------------------ *)
(* micro: bechamel benchmarks of the hot paths                         *)
(* ------------------------------------------------------------------ *)

(* Search-kernel comparison on the E5 size sweep's largest instance: every
   variant runs the identical set of first-connection searches (one per
   non-trivial net, first pin to the remaining pins) on the instantiated
   grid, so total costs must agree exactly — both kernels and the windowed
   search are cost-optimal — and wall-clock differences are pure kernel
   wins.  The engine-level routes below confirm the fast kernels keep the
   router DRC-clean end to end. *)
let micro_kernels () =
  heading "micro (kernels): search kernels on the E5 largest instance (64x52)"
    "Claim: the Dial bucket-queue kernel and the windowed array-based A*\n\
     beat the binary-heap full-grid baseline at identical (optimal) search\n\
     costs, and the engine stays DRC-clean with the fast kernels.";
  let w, h = (64, 52) in
  let problem =
    Workload.Gen.routable_switchbox
      (Util.Prng.create (w + h))
      ~width:w ~height:h
  in
  let g = Netlist.Problem.instantiate problem in
  let ws = Maze.Workspace.create g in
  let searches =
    List.filter_map
      (fun id ->
        let net = Netlist.Problem.net problem id in
        match net.Netlist.Net.pins with
        | first :: (_ :: _ as rest) ->
            Some
              ( id,
                Maze.Route.pin_node g first,
                List.map (Maze.Route.pin_node g) rest )
        | _ -> None)
      (Netlist.Problem.nontrivial_net_ids problem)
  in
  let pass search =
    List.fold_left
      (fun (cost, expanded) (net, source, targets) ->
        match
          search ~passable:(Maze.Search.Own net) ~sources:[ source ] ~targets
        with
        | Some (r : Maze.Search.result) ->
            (cost + r.Maze.Search.total_cost, expanded + r.Maze.Search.expanded)
        | None -> failwith "micro: kernel search failed")
      (0, 0) searches
  in
  let time_pass search =
    ignore (pass search) (* warm-up *);
    let best = ref infinity and result = ref (0, 0) in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      result := pass search;
      best := min !best (Unix.gettimeofday () -. t0)
    done;
    (!best, !result)
  in
  let cost = Maze.Cost.default in
  let heap = Maze.Search.Binary_heap and buckets = Maze.Search.Buckets in
  let search ?heuristic ?window kernel ~passable ~sources ~targets =
    Maze.Search.run ~kernel ?heuristic ?window g ws ~cost ~passable ~sources
      ~targets ()
  in
  let variants =
    [
      ("dijkstra / heap / full grid (baseline)", search heap);
      ("dijkstra / buckets / full grid", search buckets);
      ("astar / heap / full grid", search ~heuristic:Maze.Search.L1 heap);
      ("astar / buckets / full grid", search ~heuristic:Maze.Search.L1 buckets);
      ( "astar / buckets / window margin 4",
        search ~heuristic:Maze.Search.L1 ~window:(Maze.Search.Margin 4)
          buckets );
    ]
  in
  let table =
    Util.Table.create
      ~headers:
        [ "kernel"; "ms/pass"; "speedup"; "total cost"; "expanded" ]
  in
  let baseline = ref None in
  let baseline_cost = ref None in
  let costs_equal = ref true in
  List.iter
    (fun (name, search) ->
      let t, (total, expanded) = time_pass search in
      (match !baseline with None -> baseline := Some t | Some _ -> ());
      (match !baseline_cost with
      | None -> baseline_cost := Some total
      | Some c -> if c <> total then costs_equal := false);
      let speedup =
        match !baseline with Some b -> b /. t | None -> 1.0
      in
      Util.Table.add_row table
        [
          name;
          time_cell (1000.0 *. t);
          (if !no_time then "-" else Printf.sprintf "%.2fx" speedup);
          Util.Table.cell_int total;
          Util.Table.cell_int expanded;
        ])
    variants;
  Util.Table.print table;
  Printf.printf "search costs identical across kernels: %b\n" !costs_equal;
  let engine_table =
    Util.Table.create
      ~headers:[ "engine config"; "done"; "wirelen"; "vias"; "drc" ]
  in
  List.iter
    (fun (name, config) ->
      let r = route ~config problem in
      let s = r.Router.Engine.stats in
      Util.Table.add_row engine_table
        [
          name;
          Util.Table.cell_bool r.Router.Engine.completed;
          Util.Table.cell_int s.Router.Engine.total_wirelength;
          Util.Table.cell_int s.Router.Engine.total_vias;
          (if drc_ok problem r then "clean" else "VIOLATION");
        ])
    [
      ( "dijkstra + heap (paper)",
        { Router.Config.default with use_astar = false } );
      ("heap (default)", Router.Config.default);
      ("buckets", { Router.Config.default with kernel = buckets });
      ( "buckets + window 4",
        { Router.Config.default with kernel = buckets; window_margin = Some 4 }
      );
    ];
  Util.Table.print engine_table

let micro () =
  micro_kernels ();
  heading "micro (bechamel): hot-path timings"
    "Ordinary-least-squares estimate of time/run for the search and the\n\
     full routing of fixed instances.";
  let tiny = Workload.Hard.tiny_blocked () in
  let burstein = Workload.Hard.burstein_like () in
  let g = Grid.create ~width:32 ~height:32 () in
  let ws = Maze.Workspace.create g in
  let corner_a = Grid.node g ~layer:0 ~x:0 ~y:0
  and corner_b = Grid.node g ~layer:0 ~x:31 ~y:31 in
  let passable =
    Maze.Search.Custom (fun n -> if Grid.is_free g n then Some 0 else None)
  in
  let search_bench () =
    ignore
      (Maze.Search.run g ws ~cost:Maze.Cost.default ~passable
         ~sources:[ corner_a ] ~targets:[ corner_b ] ())
  in
  let astar_bench () =
    ignore
      (Maze.Search.run ~heuristic:Maze.Search.L1 g ws ~cost:Maze.Cost.default
         ~passable ~sources:[ corner_a ] ~targets:[ corner_b ] ())
  in
  let lee_bench () =
    ignore
      (Maze.Search.run_lee g ws ~passable ~sources:[ corner_a ]
         ~targets:[ corner_b ] ())
  in
  let tests =
    Bechamel.Test.make_grouped ~name:"router"
      [
        Bechamel.Test.make ~name:"dijkstra 32x32"
          (Bechamel.Staged.stage search_bench);
        Bechamel.Test.make ~name:"astar 32x32"
          (Bechamel.Staged.stage astar_bench);
        Bechamel.Test.make ~name:"lee bfs 32x32"
          (Bechamel.Staged.stage lee_bench);
        Bechamel.Test.make ~name:"route tiny-blocked (full)"
          (Bechamel.Staged.stage (fun () -> ignore (Router.Engine.route tiny)));
        Bechamel.Test.make ~name:"route burstein-like (full)"
          (Bechamel.Staged.stage (fun () ->
               ignore (Router.Engine.route burstein)));
        Bechamel.Test.make ~name:"route burstein-like (maze-only)"
          (Bechamel.Staged.stage (fun () ->
               ignore
                 (Router.Engine.route ~config:Router.Config.maze_only burstein)));
      ]
  in
  let instance = Bechamel.Toolkit.Instance.monotonic_clock in
  let cfg =
    Bechamel.Benchmark.cfg ~limit:200
      ~quota:(Bechamel.Time.second 0.5)
      ~kde:None ()
  in
  let raw = Bechamel.Benchmark.all cfg [ instance ] tests in
  let table = Util.Table.create ~headers:[ "benchmark"; "time/run"; "r^2" ] in
  let results = Hashtbl.fold (fun k v acc -> (k, v) :: acc) raw [] in
  List.iter
    (fun (name, (b : Bechamel.Benchmark.t)) ->
      let ols =
        Bechamel.Analyze.OLS.ols ~bootstrap:0 ~r_square:true
          ~responder:(Bechamel.Measure.label instance)
          ~predictors:[| "run" |] b.Bechamel.Benchmark.lr
      in
      let time =
        match Bechamel.Analyze.OLS.estimates ols with
        | Some (t :: _) ->
            if t > 1e6 then Printf.sprintf "%.2f ms" (t /. 1e6)
            else if t > 1e3 then Printf.sprintf "%.2f us" (t /. 1e3)
            else Printf.sprintf "%.0f ns" t
        | Some [] | None -> "?"
      in
      let r2 =
        match Bechamel.Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "%.3f" r
        | None -> "-"
      in
      Util.Table.add_row table [ name; time; r2 ])
    (List.sort compare results);
  Util.Table.print table

(* The "fast" router configuration of the incremental, service, recovery,
   flow and analyze sweeps: windowed A* on the bucket queue. *)
let bench_router_config =
  {
    Router.Config.default with
    Router.Config.use_astar = true;
    kernel = Maze.Search.Buckets;
    window_margin = Some 4;
  }

(* ------------------------------------------------------------------ *)
(* incremental: refine-phase cache reuse across rip-up cycles          *)
(* ------------------------------------------------------------------ *)

(* Measures the tentpole of DESIGN.md §11 where it pays: the refine
   phase of a rip-up/improve loop.  Each committed instance is routed
   once, then both modes replay the identical deterministic schedule —
   an initial refine, then [cycles] rounds of (rip a few nets, reroute
   them, refine) — on their own copy of the routed grid.  The initial
   refine is an untimed warm-up in both modes (it is where both modes
   converge the fresh routing); the per-cycle refine calls are what is
   timed.  The baseline replans every connected net every pass; the
   incremental mode carries one {!Maze.Cache} across all refine calls,
   so untouched nets are answered by their certificate, and nets at
   their pins' closed-form floor by that floor.  Final layouts must be
   byte-identical. *)

let incremental_bench () =
  heading "incremental (json): refine-phase reuse across rip-up cycles"
    "Claim: per-net read-region certificates plus the closed-form cost\n\
     floor answer a third to a half of the baseline's replans on every\n\
     instance above 8 nets, at byte-identical layouts.  The initial refine\n\
     after routing is an untimed warm-up in both modes; the per-cycle\n\
     refines are timed, best of 3 runs per mode, as information only.\n\
     Written to BENCH_incremental.json.";
  let instances =
    [ "switchbox_12x10"; "switchbox_32x26"; "switchbox_64x52";
      "switchbox_128x104"; "chip_96x64"; "chip_128x96" ]
  in
  let reps = 3 and cycles = 6 and rips_per_cycle = 4 in
  let table =
    Util.Table.create
      ~headers:
        [ "instance"; "nets"; "refine ms (base)"; "refine ms (incr)";
          "planned base/incr"; "cert-skips"; "bound-skips"; "identical";
          "drc" ]
  in
  let json_rows = ref [] in
  let all_identical = ref true in
  List.iter
    (fun name ->
      let path = Filename.concat "instances" (name ^ ".problem") in
      if not (Sys.file_exists path) then
        Printf.printf "(skipping %s: %s not found — run from the repo root)\n"
          name path
      else begin
        let problem = Netlist.Parse.load_exn path in
        let routed = route ~config:bench_router_config problem in
        let nets_total = Netlist.Problem.net_count problem in
        let candidates =
          Array.of_list (Netlist.Problem.nontrivial_net_ids problem)
        in
        (* One deterministic rip schedule per instance, shared by every
           mode and rep, so all runs walk the same grid trajectory. *)
        let schedule =
          let prng = Util.Prng.create (nets_total * 7919) in
          List.init cycles (fun _ ->
              List.init rips_per_cycle (fun _ ->
                  Util.Prng.pick prng candidates))
        in
        let pins_of g net =
          List.filter_map
            (fun (id, p) ->
              if id = net then Some (Maze.Route.pin_node g p) else None)
            (Netlist.Problem.pin_cells problem)
        in
        let rip_and_reroute g ws net =
          let pins = pins_of g net in
          List.iter
            (fun n -> if not (List.mem n pins) then Grid.release g n)
            (Grid.occupied_nodes g ~net);
          ignore
            (Maze.Route.route_net g ws ~cost:Maze.Cost.default
               (Netlist.Problem.net problem net))
        in
        (* Runs the whole schedule in one mode; returns the refine-phase
           wall clock, the final grid and the accumulated refine stats. *)
        let run_mode ~incremental =
          let g = Grid.copy routed.Router.Engine.grid in
          let ws = Maze.Workspace.create g in
          let cache = Maze.Cache.create g ~nets:nets_total in
          let refine_s = ref 0.0 in
          let planned = ref 0
          and cert_skips = ref 0
          and bound_skips = ref 0 in
          let refine ~timed =
            let t0 = Unix.gettimeofday () in
            let s =
              Router.Improve.refine ~max_passes:50 ~incremental ~cache
                problem g
            in
            if timed then begin
              refine_s := !refine_s +. (Unix.gettimeofday () -. t0);
              planned := !planned + s.Router.Improve.planned;
              cert_skips := !cert_skips + s.Router.Improve.skipped_cert;
              bound_skips := !bound_skips + s.Router.Improve.skipped_bound
            end
          in
          refine ~timed:false;
          List.iter
            (fun rips ->
              List.iter (fun net -> rip_and_reroute g ws net) rips;
              refine ~timed:true)
            schedule;
          (!refine_s, g, (!planned, !cert_skips, !bound_skips))
        in
        let best_of mode =
          let best = ref infinity and out = ref None in
          for _ = 1 to reps do
            let t, g, st = run_mode ~incremental:mode in
            if t < !best then best := t;
            out := Some (g, st)
          done;
          let g, st = Option.get !out in
          (!best, g, st)
        in
        let tb, gb, (pb, _, _) = best_of false in
        let ti, gi, (pi, certs, bounds) = best_of true in
        let identical = Grid.equal gb gi in
        if not identical then all_identical := false;
        let drc = Drc.Check.is_clean problem gi in
        Util.Table.add_row table
          [
            name;
            Util.Table.cell_int nets_total;
            time_cell (1000.0 *. tb);
            time_cell (1000.0 *. ti);
            Printf.sprintf "%d/%d" pb pi;
            Util.Table.cell_int certs;
            Util.Table.cell_int bounds;
            Util.Table.cell_bool identical;
            (if drc then "clean" else "VIOLATION");
          ];
        json_rows :=
          Printf.sprintf
            "    {\"instance\": \"%s\", \"nets\": %d, \"cycles\": %d, \
             \"rips_per_cycle\": %d, \"baseline_refine_ms\": %.3f, \
             \"incremental_refine_ms\": %.3f, \
             \"planned_baseline\": %d, \"planned_incremental\": %d, \
             \"cert_skips\": %d, \"bound_skips\": %d, \"identical\": %b, \
             \"drc_clean\": %b}"
            name nets_total cycles rips_per_cycle (1000.0 *. tb)
            (1000.0 *. ti) pb pi certs bounds identical drc
          :: !json_rows
      end)
    instances;
  Util.Table.print table;
  if !json_rows <> [] then begin
    let oc = open_out "BENCH_incremental.json" in
    Printf.fprintf oc
      "{\n\
      \  \"bench\": \"incremental_refine_sweep\",\n\
      \  \"config\": \"%s\",\n\
      \  \"host_cores\": %d,\n\
      \  \"runs_per_point\": %d,\n\
      \  \"all_identical_to_baseline\": %b,\n\
      \  \"results\": [\n\
       %s\n\
      \  ]\n\
       }\n"
      (Router.Config.describe bench_router_config)
      (Util.Parallel.default_jobs ())
      reps !all_identical
      (String.concat ",\n" (List.rev !json_rows));
    close_out oc;
    Printf.printf "layouts identical to baseline everywhere: %b\n"
      !all_identical;
    Printf.printf "wrote BENCH_incremental.json\n";
    (* The exactness contract is the whole point: a divergent layout is a
       correctness bug, not a perf data point. *)
    if not !all_identical then exit 1
  end

(* ------------------------------------------------------------------ *)
(* service: N-client request trace against the daemon                  *)
(* ------------------------------------------------------------------ *)

(* Replays a generated multi-client trace against an in-process server
   through the same submit/drain engine the transports use, once per
   shard count in {1, 2, 4, 8}.  The queue cap is set below one round's
   burst size on purpose: a slice of every burst is shed, which
   exercises admission control.  A shed line is retried (after letting
   the queue drain) until admitted, mimicking a client honoring
   retry_after_ms; because no session's next request is submitted before
   its previous one was admitted, per-session execution order — and
   therefore every final layout — is identical at every shard count,
   which the bench asserts byte for byte.  Wall time, throughput, shed
   counts and latencies move from run to run with the scheduling of the
   domains, so the sweep reports none of them. *)

type service_point = {
  sp_shards : int;
  sp_submitted : int;
  sp_executed : int;
  sp_errors : int;
  sp_budget_trips : int;
  sp_faults : int;
  sp_layouts : (string * string) list;
}

let service_bench () =
  heading "service (json): N-client request trace against the daemon"
    "Claim: bursts that overflow the queue never hang the trace (a shed\n\
     line is retried until admitted), every request executes exactly once\n\
     without an error, and sharding the sessions over persistent worker\n\
     domains never changes a layout.  Written to BENCH_service.json.";
  let clients = 8 and rounds = 6 and queue_cap = 16 in
  let session c = Printf.sprintf "client%d" c in
  let is_shed line =
    match Util.Json.of_string line with
    | Ok json ->
        Option.bind (Util.Json.member "error" json) (Util.Json.member "code")
        = Some (Util.Json.String "queue_full")
    | Error _ -> false
  in
  let opens =
    List.init clients (fun c ->
        let prng = Util.Prng.create (100 + c) in
        let problem =
          Workload.Gen.routable_switchbox prng ~width:16 ~height:12
        in
        Printf.sprintf
          {|{"id":%d,"op":"open","session":"%s","problem":%s}|}
          c (session c)
          (Util.Json.to_string
             (Util.Json.String (Netlist.Parse.to_string problem))))
  in
  let round_burst round =
    List.concat_map
      (fun c ->
        let s = session c in
        [
          Printf.sprintf
            {|{"id":%d,"op":"rip","session":"%s","net":%d}|}
            (1000 + round) s ((round mod 5) + 1);
          Printf.sprintf {|{"id":%d,"op":"route","session":"%s"}|}
            (2000 + round) s;
          Printf.sprintf {|{"id":%d,"op":"verify","session":"%s"}|}
            (3000 + round) s;
        ])
      (List.init clients (fun c -> c))
  in
  let run_point shards =
    let sconfig =
      {
        Service.Server.default_config with
        Service.Server.router = bench_router_config;
        queue_cap;
        shards;
      }
    in
    let server = Service.Server.create ~config:sconfig () in
    let workers = Service.Server.start_workers server ~emit:(fun _ _ -> ()) in
    let submitted = ref 0 in
    (* Shed-never-hang: on a shed, let the backlog drain a little and
       retry the same line until admitted. *)
    let submit_line line =
      incr submitted;
      let rec go () =
        match Service.Server.submit server ~client:0 line with
        | None -> ()
        | Some reply when is_shed reply ->
            Unix.sleepf 0.0005;
            go ()
        | Some reply -> failwith ("unexpected immediate reply: " ^ reply)
      in
      go ()
    in
    List.iter submit_line opens;
    Service.Server.quiesce server;
    for round = 1 to rounds do
      List.iter submit_line (round_burst round);
      Service.Server.quiesce server
    done;
    Service.Server.stop_workers server workers;
    (* Read the counters before the render probes below. *)
    let m = Service.Server.metrics server in
    let snapshot = Service.Metrics.snapshot m in
    let count name =
      match Option.bind (Util.Json.member name snapshot) Util.Json.to_int_opt with
      | Some v -> v
      | None -> failwith ("stats snapshot carries no " ^ name)
    in
    (* Workers joined: [handle_line] is safe again; the layouts must be
       byte-identical at every sweep point. *)
    let layouts =
      List.init clients (fun c ->
          let line =
            Printf.sprintf {|{"op":"render","session":"%s"}|} (session c)
          in
          match Service.Server.handle_line server line with
          | [ reply ] -> (
              match
                Option.bind (Util.Json.of_string reply |> Result.to_option)
                  (fun j ->
                    Option.bind (Util.Json.member "result" j) (fun r ->
                        Option.bind (Util.Json.member "ascii" r)
                          Util.Json.to_string_opt))
              with
              | Some ascii -> (session c, ascii)
              | None -> failwith "render reply carries no ascii")
          | _ -> failwith "render produced an unexpected reply count")
    in
    {
      sp_shards = shards;
      sp_submitted = !submitted;
      sp_executed = Service.Metrics.requests m;
      sp_errors = count "errors";
      sp_budget_trips = count "budget_trips";
      sp_faults = count "faults";
      sp_layouts = layouts;
    }
  in
  let host_cores = Util.Parallel.default_jobs () in
  let points = List.map run_point [ 1; 2; 4; 8 ] in
  let base = List.hd points in
  (* The sweep's correctness claims: every request ran once and cleanly,
     and sharding changes which domain runs a session, never what the
     session computes. *)
  List.iter
    (fun p ->
      if
        p.sp_executed <> p.sp_submitted
        || p.sp_errors + p.sp_budget_trips + p.sp_faults > 0
      then begin
        Printf.eprintf
          "FAIL: %d shards executed %d of %d requests with %d errors, %d \
           budget trips, %d faults\n"
          p.sp_shards p.sp_executed p.sp_submitted p.sp_errors
          p.sp_budget_trips p.sp_faults;
        exit 1
      end;
      List.iter2
        (fun (name, a) (_, b) ->
          if not (String.equal a b) then begin
            Printf.eprintf
              "FAIL: session %s layout at %d shards differs from 1 shard\n"
              name p.sp_shards;
            exit 1
          end)
        p.sp_layouts base.sp_layouts)
    points;
  Printf.printf "clients %d  rounds %d  queue-cap %d  host-cores %d\n"
    clients rounds queue_cap host_cores;
  List.iter
    (fun p ->
      Printf.printf
        "shards %d  submitted %d  executed %d  errors %d  budget trips %d  \
         faults %d\n"
        p.sp_shards p.sp_submitted p.sp_executed p.sp_errors p.sp_budget_trips
        p.sp_faults)
    points;
  Printf.printf "layouts byte-identical across every shard count\n";
  let point_json p =
    Printf.sprintf
      "{ \"shards\": %d, \"submitted\": %d, \"executed\": %d, \"errors\": \
       %d, \"budget_trips\": %d, \"faults\": %d }"
      p.sp_shards p.sp_submitted p.sp_executed p.sp_errors p.sp_budget_trips
      p.sp_faults
  in
  let oc = open_out "BENCH_service.json" in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"service_trace\",\n\
    \  \"config\": \"%s\",\n\
    \  \"host_cores\": %d,\n\
    \  \"clients\": %d,\n\
    \  \"rounds\": %d,\n\
    \  \"queue_cap\": %d,\n\
    \  \"layouts_identical_across_shards\": true,\n\
    \  \"shard_sweep\": [\n\
    \    %s\n\
    \  ]\n\
     }\n"
    (Router.Config.describe bench_router_config)
    host_cores clients rounds queue_cap
    (String.concat ",\n    " (List.map point_json points));
  close_out oc;
  Printf.printf "wrote BENCH_service.json\n"

let recovery_bench () =
  heading "recovery: restart cost vs journal length"
    "Claim: crash recovery replays only the WAL tail beyond the newest\n\
     snapshot, so restart time is bounded by the snapshot interval, not\n\
     by session lifetime; the recovered layout is byte-identical to the\n\
     pre-crash one at every interval.  Written to BENCH_recovery.json.";
  let rec rm_rf path =
    match Unix.lstat path with
    | exception Unix.Unix_error _ -> ()
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter
          (fun f -> rm_rf (Filename.concat path f))
          (Sys.readdir path);
        (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> ( try Sys.remove path with Sys_error _ -> ())
  in
  let mutations = 60 in
  let problem =
    Workload.Gen.routable_switchbox (Util.Prng.create 2026) ~width:16
      ~height:12
  in
  let nets = Netlist.Problem.net_count problem in
  let durability_stat server name =
    match
      Util.Json.member name
        (Service.Registry.durability_json (Service.Server.registry server))
    with
    | Some (Util.Json.Int n) -> n
    | _ -> 0
  in
  let rows =
    (* 1_000_000 = never snapshot: the whole history replays. *)
    List.map
      (fun snapshot_every ->
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "router_bench_recovery_%d_%d" (Unix.getpid ())
               snapshot_every)
        in
        rm_rf dir;
        let sconfig =
          {
            Service.Server.default_config with
            Service.Server.router = bench_router_config;
            data_dir = Some dir;
            snapshot_every;
            fsync = false;
          }
        in
        let s1 = Service.Server.create ~config:sconfig () in
        let req line = ignore (Service.Server.handle_line s1 line) in
        req
          (Printf.sprintf {|{"id":1,"op":"open","session":"w","problem":%s}|}
             (Util.Json.to_string
                (Util.Json.String (Netlist.Parse.to_string problem))));
        req {|{"id":2,"op":"route","session":"w"}|};
        for i = 1 to mutations do
          req
            (Printf.sprintf {|{"id":%d,"op":"rip","session":"w","net":%d}|}
               (10 + (2 * i))
               ((i mod nets) + 1));
          req
            (Printf.sprintf {|{"id":%d,"op":"route","session":"w"}|}
               (11 + (2 * i)))
        done;
        let before =
          Viz.Ascii.render
            (Router.Session.grid
               (Service.Registry.session
                  (Option.get
                     (Service.Registry.find
                        (Service.Server.registry s1)
                        "w"))))
        in
        let wal_records, _, _ =
          Service.Wal.load (Filename.concat dir (Service.Wal.file_key "w" ^ ".wal"))
        in
        let wal_len = List.length wal_records in
        (* No finalize: s1 is abandoned mid-flight, like a kill -9. *)
        let t0 = Unix.gettimeofday () in
        let s2 = Service.Server.create ~config:sconfig () in
        let recover_s = Unix.gettimeofday () -. t0 in
        let after =
          match
            Service.Registry.find (Service.Server.registry s2) "w"
          with
          | Some e ->
              Viz.Ascii.render
                (Router.Session.grid (Service.Registry.session e))
          | None -> "<missing>"
        in
        let identical = String.equal before after in
        let replayed = durability_stat s2 "records_replayed" in
        Printf.printf
          "snapshot-every %-8d wal at crash %3d records  recover %ss  \
           replayed %3d  identical %b\n"
          snapshot_every wal_len
          (time_cell ~decimals:4 recover_s)
          replayed identical;
        rm_rf dir;
        (snapshot_every, wal_len, recover_s, replayed, identical))
      [ 4; 16; 64; 1_000_000 ]
  in
  let oc = open_out "BENCH_recovery.json" in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"recovery\",\n\
    \  \"config\": \"%s\",\n\
    \  \"host_cores\": %d,\n\
    \  \"mutations\": %d,\n\
    \  \"sweep\": [\n%s\n\
    \  ]\n\
     }\n"
    (Router.Config.describe bench_router_config)
    (Util.Parallel.default_jobs ())
    mutations
    (String.concat ",\n"
       (List.map
          (fun (every, wal_len, recover_s, replayed, identical) ->
            Printf.sprintf
              "    {\"snapshot_every\": %d, \"wal_records_at_crash\": %d, \
               \"recover_s\": %.6f, \"records_replayed\": %d, \
               \"identical\": %b}"
              every wal_len recover_s replayed identical)
          rows));
  close_out oc;
  if List.exists (fun (_, _, _, _, identical) -> not identical) rows then begin
    Printf.eprintf "recovery bench: recovered layout diverged\n";
    exit 1
  end;
  Printf.printf "wrote BENCH_recovery.json\n"

(* ------------------------------------------------------------------- *)
(* flow: mini-flow sweep over the committed macro instances             *)
(* ------------------------------------------------------------------- *)

let flow_bench () =
  heading "flow (json): place → groute → guide-windowed detailed route"
    "Claim: global-route guides window most detailed searches (the rest\n\
     fall back to the full window, certified) without changing the\n\
     answer: on every committed macro instance the guided layout is\n\
     byte-identical to the full-window route.  Stage wall-clock split\n\
     and guide hit rate are written to BENCH_flow.json.";
  let instances = [ "macro_48x40"; "macro_64x52"; "macro_128x104" ] in
  (* The unguided reference must route under the config the flow forces,
     or the layouts are incomparable. *)
  let forced = Flow.detailed_config bench_router_config in
  let table =
    Util.Table.create
      ~headers:
        [ "instance"; "place ms"; "groute ms"; "route ms"; "hit rate";
          "routed"; "identical"; "drc" ]
  in
  let json_rows = ref [] in
  let all_identical = ref true in
  List.iter
    (fun name ->
      let path = Filename.concat "instances" (name ^ ".problem") in
      if not (Sys.file_exists path) then
        Printf.printf "(skipping %s: %s not found — run from the repo root)\n"
          name path
      else begin
        let problem = Netlist.Parse.load_exn path in
        match Flow.run ~config:bench_router_config problem with
        | Error msg ->
            Printf.eprintf "flow bench: %s: %s\n" name msg;
            exit 1
        | Ok f ->
            let full = Router.Engine.route ~config:forced f.Flow.realized in
            let identical =
              Grid.equal f.Flow.result.Router.Engine.grid
                full.Router.Engine.grid
            in
            if not identical then all_identical := false;
            let stats = f.Flow.result.Router.Engine.stats in
            let g = stats.Router.Engine.guide in
            let drc_clean =
              Drc.Check.is_clean f.Flow.realized f.Flow.result.Router.Engine.grid
            in
            let ms ns = Int64.to_float ns /. 1e6 in
            let place_ms = ms f.Flow.stats.Flow.place_ns
            and groute_ms = ms f.Flow.stats.Flow.groute_ns
            and route_ms = ms f.Flow.stats.Flow.route_ns in
            let hit_rate = Flow.guide_hit_rate f in
            let routed = stats.Router.Engine.routed_nets
            and failed = List.length stats.Router.Engine.failed_nets in
            Util.Table.add_row table
              [
                name;
                time_cell place_ms;
                time_cell groute_ms;
                time_cell route_ms;
                Printf.sprintf "%.2f" hit_rate;
                Printf.sprintf "%d/%d" routed (routed + failed);
                Util.Table.cell_bool identical;
                (if drc_clean then "clean" else "VIOLATION");
              ];
            json_rows :=
              Printf.sprintf
                "    {\"instance\": \"%s\", \"place_ms\": %.3f, \
                 \"groute_ms\": %.3f, \"route_ms\": %.3f, \"guided\": %d, \
                 \"hits\": %d, \"fallbacks\": %d, \"hit_rate\": %.4f, \
                 \"overflow_tiles\": %d, \"routed\": %d, \"failed\": %d, \
                 \"identical\": %b, \"drc_clean\": %b}"
                name place_ms groute_ms route_ms g.Router.Outcome.guided
                g.Router.Outcome.hits g.Router.Outcome.fallbacks hit_rate
                f.Flow.stats.Flow.groute.Groute.overflow_tiles routed failed
                identical drc_clean
              :: !json_rows
      end)
    instances;
  Util.Table.print table;
  let oc = open_out "BENCH_flow.json" in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"flow\",\n\
    \  \"config\": \"%s\",\n\
    \  \"host_cores\": %d,\n\
    \  \"sweep\": [\n%s\n\
    \  ]\n\
     }\n"
    (Router.Config.describe forced)
    (Util.Parallel.default_jobs ())
    (String.concat ",\n" (List.rev !json_rows));
  close_out oc;
  if not !all_identical then begin
    Printf.eprintf "flow bench: guided layout diverged from full-window route\n";
    exit 1
  end;
  Printf.printf "wrote BENCH_flow.json\n"

(* ------------------------------------------------------------------ *)
(* analyze: pre-route predictor vs actual routed congestion            *)
(* ------------------------------------------------------------------ *)

(* Spearman rank correlation with tie-averaged ranks. *)
let spearman xs ys =
  let rank arr =
    let n = Array.length arr in
    let idx = Array.init n Fun.id in
    Array.sort (fun a b -> compare arr.(a) arr.(b)) idx;
    let r = Array.make n 0.0 in
    let i = ref 0 in
    while !i < n do
      let j = ref !i in
      while !j + 1 < n && arr.(idx.(!j + 1)) = arr.(idx.(!i)) do incr j done;
      let avg = float_of_int (!i + !j) /. 2.0 in
      for k = !i to !j do
        r.(idx.(k)) <- avg
      done;
      i := !j + 1
    done;
    r
  in
  let rx = rank xs and ry = rank ys in
  let n = Array.length xs in
  if n < 2 then 1.0
  else begin
    let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int n in
    let mx = mean rx and my = mean ry in
    let num = ref 0.0 and dx = ref 0.0 and dy = ref 0.0 in
    Array.iteri
      (fun i x ->
        let a = x -. mx and b = ry.(i) -. my in
        num := !num +. (a *. b);
        dx := !dx +. (a *. a);
        dy := !dy +. (b *. b))
      rx;
    if !dx = 0.0 || !dy = 0.0 then 1.0 else !num /. sqrt (!dx *. !dy)
  end

let groute_overflow_fraction (g : Groute.t) =
  let total = Array.fold_left ( + ) 0 g.Groute.capacity in
  let over = ref 0 in
  Array.iteri
    (fun i u ->
      if u > g.Groute.capacity.(i) then
        over := !over + (u - g.Groute.capacity.(i)))
    g.Groute.usage;
  if total = 0 then if !over > 0 then 1.0 else 0.0
  else min 1.0 (float_of_int !over /. float_of_int total)

let analyze_bench () =
  heading "analyze (json): pre-route predictor vs actual routed congestion"
    "Claim: the routability predictor's verdict orders instances the same\n\
     way actual routed overflow does, at <5% of a detailed route's\n\
     expansion budget, on every committed instance — including the\n\
     1000+ net chip-scale 3/4-layer ones.  Each router row carries a\n\
     per-run wall-clock deadline so a pathological instance degrades\n\
     (best-so-far layout) instead of hanging the bench.  Written to\n\
     BENCH_analyze.json.";
  (* Pre-placed instances: predictor straight off the file; actual =
     global-route overflow; cost yardstick = full detailed route. *)
  let placed =
    [
      "switchbox_12x10"; "switchbox_32x26"; "switchbox_64x52";
      "switchbox_128x104"; "chip_96x64"; "chip_128x96"; "chip_320x224_l3";
      "chip_288x192_l4";
    ]
  in
  (* Placement-flow instances: realized by the flow's placer first, then
     triaged (predicted) and globally routed (actual) inside the flow. *)
  let flows = [ "macro_48x40"; "macro_64x52"; "macro_128x104" ] in
  let deadline = 120.0 in
  let table =
    Util.Table.create
      ~headers:
        [ "instance"; "nets"; "layers"; "score"; "pred ovf"; "actual ovf";
          "analyze ms"; "cost"; "route exp"; "cost %"; "routed"; "deadline" ]
  in
  let json_rows = ref [] in
  let predicted = ref [] and actual = ref [] in
  let now () = Unix.gettimeofday () in
  let row ?flow_ms ~name ~problem ~(a : Analyze.t) ~analyze_ms ~actual_ovf
      ~(route : Router.Engine.t option) () =
    let nets = Netlist.Problem.net_count problem in
    let layers = problem.Netlist.Problem.layers in
    predicted := (1.0 -. a.Analyze.verdict.Analyze.score) :: !predicted;
    actual := actual_ovf :: !actual;
    let expanded, routed, failed, degraded =
      match route with
      | None -> (0, 0, 0, false)
      | Some r ->
          let s = r.Router.Engine.stats in
          ( s.Router.Engine.expanded,
            s.Router.Engine.routed_nets,
            List.length s.Router.Engine.failed_nets,
            r.Router.Engine.status <> Router.Outcome.Complete )
    in
    let cost_pct =
      if expanded = 0 then 0.0
      else 100.0 *. float_of_int a.Analyze.cost /. float_of_int expanded
    in
    Util.Table.add_row table
      [
        name;
        string_of_int nets;
        string_of_int layers;
        Printf.sprintf "%.3f" a.Analyze.verdict.Analyze.score;
        Printf.sprintf "%.3f" a.Analyze.verdict.Analyze.predicted_overflow;
        Printf.sprintf "%.3f" actual_ovf;
        time_cell analyze_ms;
        string_of_int a.Analyze.cost;
        string_of_int expanded;
        (if expanded = 0 then "-" else Printf.sprintf "%.2f" cost_pct);
        Printf.sprintf "%d/%d" routed (routed + failed);
        (if degraded then "TRIPPED" else "ok");
      ];
    json_rows :=
      Printf.sprintf
        "    {\"instance\": \"%s\", \"nets\": %d, \"layers\": %d, \
         \"score\": %.4f, \"predicted_overflow\": %.4f, \
         \"actual_overflow\": %.4f, \"analyze_ms\": %.3f,%s \
         \"analyze_cost\": %d, \"route_expanded\": %d, \
         \"cost_pct\": %.3f, \"routed\": %d, \"failed\": %d, \
         \"deadline_tripped\": %b}"
        name nets layers a.Analyze.verdict.Analyze.score
        a.Analyze.verdict.Analyze.predicted_overflow actual_ovf analyze_ms
        (match flow_ms with
        | Some ms -> Printf.sprintf " \"flow_ms\": %.3f," ms
        | None -> "")
        a.Analyze.cost expanded cost_pct routed failed degraded
      :: !json_rows
  in
  List.iter
    (fun name ->
      let path = Filename.concat "instances" (name ^ ".problem") in
      if not (Sys.file_exists path) then
        Printf.printf "(skipping %s: %s not found — run from the repo root)\n"
          name path
      else begin
        let problem = Netlist.Parse.load_exn path in
        let t0 = now () in
        let a = Analyze.run problem in
        let analyze_ms = 1000.0 *. (now () -. t0) in
        let actual_ovf = groute_overflow_fraction (Groute.run problem) in
        let r =
          Router.Engine.route ~config:bench_router_config
            ~budget:(Router.Budget.create ~deadline ())
            problem
        in
        row ~name ~problem ~a ~analyze_ms ~actual_ovf ~route:(Some r) ()
      end)
    placed;
  List.iter
    (fun name ->
      let path = Filename.concat "instances" (name ^ ".problem") in
      if not (Sys.file_exists path) then
        Printf.printf "(skipping %s: %s not found — run from the repo root)\n"
          name path
      else begin
        let problem = Netlist.Parse.load_exn path in
        let t0 = now () in
        match
          Flow.run ~config:bench_router_config
            ~budget:(Router.Budget.create ~deadline ())
            ~triage:true problem
        with
        | Error msg ->
            Printf.eprintf "analyze bench: %s: %s\n" name msg;
            exit 1
        | Ok f ->
            let flow_ms = 1000.0 *. (now () -. t0) in
            let a =
              match f.Flow.stats.Flow.triage with
              | Some a -> a
              | None ->
                  Printf.eprintf "analyze bench: %s: no triage verdict\n" name;
                  exit 1
            in
            (* The predictor alone, on the problem the flow triaged: the
               flow's own time (place, triage, groute, route) is
               [flow_ms]. *)
            let t0 = now () in
            ignore (Analyze.run f.Flow.realized : Analyze.t);
            let analyze_ms = 1000.0 *. (now () -. t0) in
            let actual_ovf =
              groute_overflow_fraction f.Flow.stats.Flow.groute
            in
            row ~flow_ms ~name ~problem:f.Flow.realized ~a ~analyze_ms
              ~actual_ovf ~route:(Some f.Flow.result) ()
      end)
    flows;
  Util.Table.print table;
  let rho =
    spearman
      (Array.of_list (List.rev !predicted))
      (Array.of_list (List.rev !actual))
  in
  Printf.printf "rank correlation (1 - score vs actual overflow): %.3f\n" rho;
  let oc = open_out "BENCH_analyze.json" in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"analyze\",\n\
    \  \"config\": \"%s\",\n\
    \  \"host_cores\": %d,\n\
    \  \"cpu_bound\": %b,\n\
    \  \"deadline_s\": %.0f,\n\
    \  \"rank_correlation\": %.4f,\n\
    \  \"results\": [\n%s\n\
    \  ]\n\
     }\n"
    (Router.Config.describe bench_router_config)
    (Util.Parallel.default_jobs ())
    (Util.Parallel.default_jobs () = 1)
    deadline rho
    (String.concat ",\n" (List.rev !json_rows));
  close_out oc;
  Printf.printf "wrote BENCH_analyze.json\n"

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10);
    ("budget", budget_sweep); ("micro", micro);
    ("incremental", incremental_bench); ("service", service_bench);
    ("recovery", recovery_bench); ("flow", flow_bench);
    ("analyze", analyze_bench);
  ]

let () =
  let rec parse names = function
    | [] -> List.rev names
    | "--" :: rest -> parse names rest
    | "--no-time" :: rest ->
        no_time := true;
        parse names rest
    | "--jobs" :: n :: rest ->
        let v =
          match int_of_string_opt n with
          | Some v when v >= 0 -> v
          | Some _ | None ->
              Printf.eprintf "--jobs expects a non-negative integer, got %S\n" n;
              exit 1
        in
        jobs := (if v = 0 then Util.Parallel.default_jobs () else v);
        parse names rest
    | [ "--jobs" ] ->
        Printf.eprintf "--jobs expects an argument\n";
        exit 1
    | name :: rest -> parse (name :: names) rest
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst experiments
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S (have: %s)\n" name
            (String.concat " " (List.map fst experiments));
          exit 1)
    requested
