(* Tests for the maze search and net routing: optimality, obstacle
   handling, via/wrong-way costs, A-star agreement, the search's two
   frontiers and its data pricing rules, tree routing and rollback. *)

let pin = Netlist.Net.pin

let empty_grid ?(w = 12) ?(h = 10) () =
  let g = Grid.create ~width:w ~height:h () in
  (g, Maze.Workspace.create g)

let free_rule g n = if Grid.is_free g n then Some 0 else None

let free_passable g = Maze.Search.Custom (free_rule g)

let self_passable g ~net =
  Maze.Search.Custom
    (fun n ->
      let v = Grid.occ g n in
      if v = Grid.free || v = net then Some 0 else None)

let run ?(cost = Maze.Cost.uniform) g ws ~sources ~targets () =
  Maze.Search.run g ws ~cost ~passable:(free_passable g) ~sources ~targets ()

let test_search_trivial () =
  let g, ws = empty_grid () in
  let n = Grid.node g ~layer:0 ~x:3 ~y:3 in
  match run g ws ~sources:[ n ] ~targets:[ n ] () with
  | Some r ->
      Testkit.check_true "source is target" (r.Maze.Search.path = [ n ]);
      Testkit.check_int "zero cost" 0 r.Maze.Search.total_cost
  | None -> Alcotest.fail "trivial search failed"

let test_search_straight_line () =
  let g, ws = empty_grid () in
  let a = Grid.node g ~layer:0 ~x:0 ~y:5 and b = Grid.node g ~layer:0 ~x:9 ~y:5 in
  match run g ws ~sources:[ a ] ~targets:[ b ] () with
  | Some r ->
      Testkit.check_int "manhattan cost" 9 r.Maze.Search.total_cost;
      Testkit.check_int "path length" 10 (List.length r.Maze.Search.path);
      Testkit.check_true "path valid" (Grid.Path.is_valid g r.Maze.Search.path)
  | None -> Alcotest.fail "line search failed"

let test_search_manhattan_optimal () =
  let g, ws = empty_grid () in
  let a = Grid.node g ~layer:0 ~x:1 ~y:1 and b = Grid.node g ~layer:0 ~x:8 ~y:7 in
  match run g ws ~sources:[ a ] ~targets:[ b ] () with
  | Some r -> Testkit.check_int "L1 distance" (7 + 6) r.Maze.Search.total_cost
  | None -> Alcotest.fail "search failed"

let test_search_respects_obstacles () =
  let g, ws = empty_grid ~w:9 ~h:5 () in
  (* Wall across both layers at x=4, forcing failure. *)
  for y = 0 to 4 do
    Grid.set_obstacle_all g ~x:4 ~y
  done;
  let a = Grid.node g ~layer:0 ~x:0 ~y:2 and b = Grid.node g ~layer:0 ~x:8 ~y:2 in
  Testkit.check_true "wall blocks"
    (run g ws ~sources:[ a ] ~targets:[ b ] () = None)

let test_search_detours_around_wall () =
  let g, ws = empty_grid ~w:9 ~h:5 () in
  for y = 0 to 3 do
    Grid.set_obstacle_all g ~x:4 ~y
  done;
  let a = Grid.node g ~layer:0 ~x:0 ~y:0 and b = Grid.node g ~layer:0 ~x:8 ~y:0 in
  match run g ws ~sources:[ a ] ~targets:[ b ] () with
  | Some r ->
      (* must climb to y=4 and back: 8 horizontal + 8 vertical *)
      Testkit.check_int "detour cost" 16 r.Maze.Search.total_cost;
      Testkit.check_true "avoids wall"
        (List.for_all (fun n -> not (Grid.is_obstacle g n)) r.Maze.Search.path)
  | None -> Alcotest.fail "detour failed"

let test_search_uses_via_when_needed () =
  let g, ws = empty_grid ~w:7 ~h:3 () in
  (* Layer 0 fully walled at x=3; layer 1 open. *)
  for y = 0 to 2 do
    Grid.set_obstacle g ~layer:0 ~x:3 ~y
  done;
  let a = Grid.node g ~layer:0 ~x:0 ~y:1 and b = Grid.node g ~layer:0 ~x:6 ~y:1 in
  match
    Maze.Search.run g ws ~cost:Maze.Cost.default ~passable:(free_passable g)
      ~sources:[ a ] ~targets:[ b ] ()
  with
  | Some r ->
      Testkit.check_true "at least two vias"
        (Grid.Path.via_steps g r.Maze.Search.path >= 2);
      Testkit.check_true "valid" (Grid.Path.is_valid g r.Maze.Search.path)
  | None -> Alcotest.fail "via search failed"

let test_via_cost_discourages_layer_change () =
  let g, ws = empty_grid () in
  let a = Grid.node g ~layer:0 ~x:0 ~y:0 and b = Grid.node g ~layer:0 ~x:5 ~y:0 in
  match
    Maze.Search.run g ws
      ~cost:{ Maze.Cost.wire = 1; via = 100; wrong_way = 0 }
      ~passable:(free_passable g) ~sources:[ a ] ~targets:[ b ] ()
  with
  | Some r ->
      Testkit.check_int "no vias" 0 (Grid.Path.via_steps g r.Maze.Search.path)
  | None -> Alcotest.fail "search failed"

let test_wrong_way_cost_prefers_layer () =
  let g, ws = empty_grid () in
  (* Vertical run: cheap on layer 1, expensive on layer 0. *)
  let a = Grid.node g ~layer:1 ~x:5 ~y:0 and b = Grid.node g ~layer:1 ~x:5 ~y:8 in
  match
    Maze.Search.run g ws
      ~cost:{ Maze.Cost.wire = 1; via = 2; wrong_way = 10 }
      ~passable:(free_passable g) ~sources:[ a ] ~targets:[ b ] ()
  with
  | Some r ->
      Testkit.check_true "stays on vertical layer"
        (List.for_all (fun n -> Grid.node_layer g n = 1) r.Maze.Search.path)
  | None -> Alcotest.fail "search failed"

let test_penalty_prices_foreign_cells () =
  let g, ws = empty_grid ~w:7 ~h:3 () in
  (* Both layers at x=3 owned by net 9; passable at a price. *)
  for y = 0 to 2 do
    Grid.occupy g ~net:9 (Grid.node g ~layer:0 ~x:3 ~y);
    Grid.occupy g ~net:9 (Grid.node g ~layer:1 ~x:3 ~y)
  done;
  let a = Grid.node g ~layer:0 ~x:0 ~y:1 and b = Grid.node g ~layer:0 ~x:6 ~y:1 in
  let passable n =
    let v = Grid.occ g n in
    if v = Grid.free then Some 0 else if v = 9 then Some 50 else None
  in
  match
    Maze.Search.run g ws ~cost:Maze.Cost.uniform ~passable:(Custom passable)
      ~sources:[ a ] ~targets:[ b ] ()
  with
  | Some r ->
      Testkit.check_int "wire(6) + one crossing(50)" 56 r.Maze.Search.total_cost
  | None -> Alcotest.fail "penalized search failed"

let test_multi_source_picks_nearest () =
  let g, ws = empty_grid () in
  let far = Grid.node g ~layer:0 ~x:0 ~y:0 in
  let near = Grid.node g ~layer:0 ~x:7 ~y:7 in
  let target = Grid.node g ~layer:0 ~x:8 ~y:7 in
  match run g ws ~sources:[ far; near ] ~targets:[ target ] () with
  | Some r -> Testkit.check_int "one step from near source" 1 r.Maze.Search.total_cost
  | None -> Alcotest.fail "multi-source failed"

let test_workspace_reuse () =
  let g, ws = empty_grid () in
  let a = Grid.node g ~layer:0 ~x:0 ~y:0 and b = Grid.node g ~layer:0 ~x:3 ~y:0 in
  for _ = 1 to 50 do
    match run g ws ~sources:[ a ] ~targets:[ b ] () with
    | Some r -> Testkit.check_int "stable cost" 3 r.Maze.Search.total_cost
    | None -> Alcotest.fail "reuse failed"
  done

let random_obstacle_grid seed =
  let prng = Util.Prng.create seed in
  let g = Grid.create ~width:10 ~height:8 () in
  Grid.iter_nodes g (fun n ->
      if Util.Prng.chance prng 0.25 then
        Grid.set_obstacle g
          ~layer:(Grid.node_layer g n)
          ~x:(Grid.node_x g n) ~y:(Grid.node_y g n));
  g

let test_lee_matches_uniform_dijkstra () =
  let g, ws = empty_grid () in
  let a = Grid.node g ~layer:0 ~x:1 ~y:1 and b = Grid.node g ~layer:0 ~x:8 ~y:7 in
  (match Maze.Search.run_lee g ws ~passable:(free_passable g) ~sources:[ a ] ~targets:[ b ] () with
  | Some r ->
      Testkit.check_int "minimum steps" 13 r.Maze.Search.total_cost;
      Testkit.check_true "valid" (Grid.Path.is_valid g r.Maze.Search.path)
  | None -> Alcotest.fail "lee failed");
  (* blocked case *)
  for y = 0 to 9 do
    Grid.set_obstacle_all g ~x:5 ~y
  done;
  Testkit.check_true "lee blocked"
    (Maze.Search.run_lee g ws ~passable:(free_passable g) ~sources:[ a ] ~targets:[ b ] () = None)

let prop_lee_length_matches_dijkstra =
  Testkit.qcheck ~count:40 "lee step count equals uniform Dijkstra cost"
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 0 79))
    (fun (seed, b) ->
      let g = random_obstacle_grid seed in
      let ws = Maze.Workspace.create g in
      let a = 0 in
      if (not (Grid.is_free g a)) || not (Grid.is_free g b) then true
      else
        let lee =
          Maze.Search.run_lee g ws ~passable:(free_passable g) ~sources:[ a ]
            ~targets:[ b ] ()
        in
        let dij =
          Maze.Search.run g ws ~cost:Maze.Cost.uniform
            ~passable:(free_passable g) ~sources:[ a ] ~targets:[ b ] ()
        in
        match (lee, dij) with
        | None, None -> true
        | Some l, Some d -> l.Maze.Search.total_cost = d.Maze.Search.total_cost
        | Some _, None | None, Some _ -> false)

let prop_astar_matches_dijkstra =
  Testkit.qcheck ~count:60 "A* cost equals Dijkstra cost"
    QCheck2.Gen.(
      triple (int_range 0 10000) (int_range 0 79) (int_range 0 79))
    (fun (seed, a_planar, b_planar) ->
      let g = random_obstacle_grid seed in
      let ws = Maze.Workspace.create g in
      let a = a_planar and b = b_planar in
      if (not (Grid.is_free g a)) || not (Grid.is_free g b) then true
      else begin
        let dij =
          Maze.Search.run g ws ~cost:Maze.Cost.default
            ~passable:(free_passable g) ~sources:[ a ] ~targets:[ b ] ()
        in
        let ast =
          Maze.Search.run ~heuristic:Maze.Search.L1 g ws ~cost:Maze.Cost.default
            ~passable:(free_passable g) ~sources:[ a ] ~targets:[ b ] ()
        in
        match (dij, ast) with
        | None, None -> true
        | Some d, Some s ->
            d.Maze.Search.total_cost = s.Maze.Search.total_cost
            && s.Maze.Search.expanded <= d.Maze.Search.expanded
        | Some _, None | None, Some _ -> false
      end)

let prop_path_cost_consistent =
  Testkit.qcheck ~count:60 "reported cost matches path metrics"
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 0 79))
    (fun (seed, b) ->
      let g = random_obstacle_grid seed in
      let ws = Maze.Workspace.create g in
      let a = 0 in
      if (not (Grid.is_free g a)) || not (Grid.is_free g b) then true
      else
        match
          Maze.Search.run g ws ~cost:Maze.Cost.uniform
            ~passable:(free_passable g) ~sources:[ a ] ~targets:[ b ] ()
        with
        | None -> true
        | Some r ->
            Grid.Path.is_valid g r.Maze.Search.path
            && r.Maze.Search.total_cost
               = Grid.Path.wirelength g r.Maze.Search.path
                 + Grid.Path.via_steps g r.Maze.Search.path)

(* --- kernel and window equivalence --- *)

let prop_buckets_match_heap =
  Testkit.qcheck ~count:60 "bucket kernel cost equals heap kernel cost"
    QCheck2.Gen.(
      triple (int_range 0 10000) (int_range 0 79) (int_range 0 79))
    (fun (seed, a, b) ->
      let g = random_obstacle_grid seed in
      let ws = Maze.Workspace.create g in
      if (not (Grid.is_free g a)) || not (Grid.is_free g b) then true
      else begin
        let with_kernel kernel astar =
          let heuristic = if astar then Maze.Search.L1 else Maze.Search.Zero in
          Maze.Search.run ~kernel ~heuristic g ws
            ~cost:Maze.Cost.default ~passable:(free_passable g)
            ~sources:[ a ] ~targets:[ b ] ()
        in
        let agree x y =
          match (x, y) with
          | None, None -> true
          | Some (l : Maze.Search.result), Some (r : Maze.Search.result) ->
              l.Maze.Search.total_cost = r.Maze.Search.total_cost
          | Some _, None | None, Some _ -> false
        in
        let heap = with_kernel Maze.Search.Binary_heap false in
        agree heap (with_kernel Maze.Search.Buckets false)
        && agree heap (with_kernel Maze.Search.Binary_heap true)
        && agree heap (with_kernel Maze.Search.Buckets true)
      end)

let prop_windowed_matches_full =
  Testkit.qcheck ~count:60 "windowed search reaches everything full search does"
    QCheck2.Gen.(
      quad (int_range 0 10000) (int_range 0 79) (int_range 0 79)
        (int_range 0 3))
    (fun (seed, a, b, margin) ->
      let g = random_obstacle_grid seed in
      let ws = Maze.Workspace.create g in
      if (not (Grid.is_free g a)) || not (Grid.is_free g b) then true
      else begin
        let full =
          Maze.Search.run ~heuristic:Maze.Search.L1 g ws
            ~cost:Maze.Cost.default ~passable:(free_passable g)
            ~sources:[ a ] ~targets:[ b ] ()
        in
        let windowed =
          Maze.Search.run ~heuristic:Maze.Search.L1
            ~window:(Maze.Search.Margin margin) g ws ~cost:Maze.Cost.default
            ~passable:(free_passable g) ~sources:[ a ] ~targets:[ b ] ()
        in
        match (full, windowed) with
        | None, None -> true
        | Some f, Some w ->
            f.Maze.Search.total_cost = w.Maze.Search.total_cost
        | Some _, None | None, Some _ -> false
      end)

(* --- the L1 heuristic --- *)

(* A random 2–4-layer grid, from 1x1 up, and two target sets of 1–6
   nodes each on any layer, about half of them pulled onto the border. *)
let l1_instance seed =
  let prng = Util.Prng.create seed in
  let w = Util.Prng.int_in prng 1 14 and h = Util.Prng.int_in prng 1 12 in
  let layers = Util.Prng.int_in prng 2 4 in
  let g = Grid.create ~layers ~width:w ~height:h () in
  let target _ =
    let x = Util.Prng.int prng w and y = Util.Prng.int prng h in
    let x, y =
      match Util.Prng.int prng 8 with
      | 0 -> (0, y)
      | 1 -> (w - 1, y)
      | 2 -> (x, 0)
      | 3 -> (x, h - 1)
      | _ -> (x, y)
    in
    Grid.node g ~layer:(Util.Prng.int prng layers) ~x ~y
  in
  let targets () = List.init (Util.Prng.int_in prng 1 6) target in
  let ts1 = targets () in
  let ts2 = targets () in
  let rect =
    let x0 = Util.Prng.int prng w and y0 = Util.Prng.int prng h in
    Geom.Rect.make x0 y0
      (Util.Prng.int_in prng x0 (w - 1))
      (Util.Prng.int_in prng y0 (h - 1))
  in
  (g, ts1, ts2, rect, Util.Prng.int prng (Grid.node_count g))

(* The heuristic is exact at every node of the grid — inside and outside
   the targets' bounding box and any search window — on a fresh build,
   on a memo hit, after the target set changes and changes back, and
   after a guide probe: a memoized estimate right after the probe reads
   the field the probe built and priced its rejected escapes with.  A
   certified probe must also equal the full search it stands in for,
   which an overpriced escape would break. *)
let prop_l1_exact =
  Testkit.qcheck ~count:300 "L1 heuristic = wire * brute-force L1 everywhere"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 1 3))
    (fun (seed, wire) ->
      let g, ts1, ts2, rect, source = l1_instance seed in
      let ws = Maze.Workspace.create g in
      let cost = { Maze.Cost.default with Maze.Cost.wire } in
      let estimate targets =
        Maze.Search.estimate g ws ~cost ~targets Maze.Search.L1
      in
      let exact targets h =
        let ok = ref true in
        Grid.iter_nodes g (fun n ->
            let x = Grid.node_x g n and y = Grid.node_y g n in
            let l1 =
              List.fold_left
                (fun acc t ->
                  min acc (abs (x - Grid.node_x g t) + abs (y - Grid.node_y g t)))
                max_int targets
            in
            if h n <> wire * l1 then ok := false);
        !ok
      in
      let constant h =
        let v = h 0 in
        let ok = ref true in
        Grid.iter_nodes g (fun n -> if h n <> v then ok := false);
        !ok
      in
      let search window targets =
        Maze.Search.run ~kernel:Maze.Search.Buckets ~heuristic:Maze.Search.L1
          ~window g ws ~cost ~passable:(free_passable g)
          ~sources:[ source ] ~targets ()
      in
      (* A guide probe, then what it must satisfy: a certified probe is
         the full search, path and effort included. *)
      let probe targets =
        let tally = { Maze.Search.hits = 0; fallbacks = 0 } in
        let guided = search (Maze.Search.Guide { rect; tally }) targets in
        let priced = exact targets (estimate targets) in
        priced
        && (tally.Maze.Search.hits = 0
           || guided = search Maze.Search.Full targets)
      in
      exact ts1 (estimate ts1)
      && exact ts1 (estimate ts1)
      && exact ts2 (estimate ts2)
      && exact ts1 (estimate ts1)
      && constant (estimate [])
      && exact ts1 (estimate ts1)
      && probe ts2 && probe ts1)

(* --- the target-side flood --- *)

(* A random 2- or 3-layer grid with scattered blockages and, in three
   of four cases, a walled box (all layers) holding either the sources
   or the targets — sealed, or with one gap — so either side of a cut
   can be the smaller one.  Returns the grid, 1–2 sources and 1–4
   targets, all on free cells. *)
let flood_instance seed =
  let prng = Util.Prng.create seed in
  let w = Util.Prng.int_in prng 6 14 and h = Util.Prng.int_in prng 5 12 in
  let layers = Util.Prng.int_in prng 2 3 in
  let g = Grid.create ~layers ~width:w ~height:h () in
  Grid.iter_nodes g (fun n ->
      if Util.Prng.chance prng 0.15 then
        Grid.set_obstacle g ~layer:(Grid.node_layer g n) ~x:(Grid.node_x g n)
          ~y:(Grid.node_y g n));
  let bx0 = Util.Prng.int_in prng 0 (w - 4)
  and by0 = Util.Prng.int_in prng 0 (h - 4) in
  let bx1 = Util.Prng.int_in prng (bx0 + 2) (w - 1)
  and by1 = Util.Prng.int_in prng (by0 + 2) (h - 1) in
  let inside x y = x > bx0 && x < bx1 && y > by0 && y < by1 in
  let mode = Util.Prng.int prng 4 in
  let gap x y = mode = 3 && x = bx0 && y = by0 + 1 in
  if mode > 0 then
    for x = bx0 to bx1 do
      for y = by0 to by1 do
        if not (inside x y || gap x y) then Grid.set_obstacle_all g ~x ~y
      done
    done;
  let pick want_inside =
    let rec go tries =
      let n = Util.Prng.int prng (Grid.node_count g) in
      let x = Grid.node_x g n and y = Grid.node_y g n in
      if tries > 200 || (Grid.is_free g n && inside x y = want_inside) then n
      else go (tries + 1)
    in
    let n = go 0 in
    if Grid.is_free g n then Some n else None
  in
  let picks k want_inside =
    List.filter_map (fun _ -> pick want_inside) (List.init k Fun.id)
  in
  let sources_inside = mode = 1 in
  let sources = picks (Util.Prng.int_in prng 1 2) sources_inside in
  let targets =
    picks (Util.Prng.int_in prng 1 4) (mode >= 2 && not sources_inside)
  in
  (g, sources, targets)

(* The 6-neighbourhood of a node. *)
let neighbours g n =
  let x = Grid.node_x g n and y = Grid.node_y g n in
  let layer = Grid.node_layer g n in
  List.filter_map
    (fun (l, x, y) ->
      if l >= 0 && l < Grid.layers g && x >= 0 && x < Grid.width g && y >= 0
         && y < Grid.height g
      then Some (Grid.node g ~layer:l ~x ~y)
      else None)
    [ (layer, x + 1, y); (layer, x - 1, y); (layer, x, y + 1);
      (layer, x, y - 1); (layer + 1, x, y); (layer - 1, x, y) ]

(* Every node reachable from [seeds] through cells [rule] passes, the
   seeds included — one side of a cut as the search sees it. *)
let component g ~rule seeds =
  let seen = Hashtbl.create 64 in
  let rec visit = function
    | [] -> ()
    | n :: rest ->
        let next =
          List.filter
            (fun m ->
              (not (Hashtbl.mem seen m)) && rule m <> None
              && (Hashtbl.replace seen m (); true))
            (neighbours g n)
        in
        visit (next @ rest)
  in
  List.iter (fun n -> Hashtbl.replace seen n ()) seeds;
  visit seeds;
  Hashtbl.fold (fun n () acc -> n :: acc) seen []

let prop_flood_is_invisible =
  Testkit.qcheck ~count:300
    "flood: same result as without it; a certified failure read the target side"
    QCheck2.Gen.(
      quad (int_range 0 100_000) bool bool (int_range 0 2))
    (fun (seed, buckets, astar, window) ->
      let g, sources, targets = flood_instance seed in
      let ws = Maze.Workspace.create g in
      let kernel = if buckets then Maze.Search.Buckets else Binary_heap in
      let heuristic = if astar then Maze.Search.L1 else Zero in
      let window =
        if window = 0 then Maze.Search.Full else Margin (window - 1)
      in
      let rule = free_rule g in
      let passable = Maze.Search.Custom rule in
      let search ~flood ~work =
        Maze.Search.run ~kernel ~heuristic ~window ~flood ~work g ws
          ~cost:Maze.Cost.default ~passable ~sources ~targets ()
      in
      let plain = { Maze.Search.settled = 0; flooded = 0 } in
      let reference = search ~flood:false ~work:plain in
      Maze.Workspace.clear_touched ws;
      let work = { Maze.Search.settled = 0; flooded = 0 } in
      let flooded = search ~flood:true ~work in
      let same =
        match (reference, flooded) with
        | None, None -> true
        | Some a, Some b ->
            a.Maze.Search.path = b.Maze.Search.path
            && a.Maze.Search.total_cost = b.Maze.Search.total_cost
            && a.Maze.Search.expanded = b.Maze.Search.expanded
        | Some _, None | None, Some _ -> false
      in
      (* Stopping before the source side is exhausted is the flood's
         certificate: its read region must hold the whole target side. *)
      let covered () =
        List.for_all
          (fun n ->
            match
              Maze.Workspace.touched ws ~layer:(Grid.node_layer g n)
            with
            | Some r -> Geom.Rect.mem r (Grid.node_x g n) (Grid.node_y g n)
            | None -> false)
          (component g ~rule targets)
      in
      let certified =
        flooded = None && window = Maze.Search.Full
        && work.Maze.Search.settled
           < List.length (component g ~rule sources)
      in
      same
      && work.Maze.Search.flooded <= work.Maze.Search.settled
      && ((not certified) || covered ()))

let test_window_widens_on_failure () =
  (* The wall-detour geometry from test_search_detours_around_wall: the
     optimal path must leave the pins' bounding row (y=0) and climb to y=4,
     so a margin-0 window cannot contain it — the search must widen and
     still return the optimal cost-16 detour. *)
  let g, ws = empty_grid ~w:9 ~h:5 () in
  for y = 0 to 3 do
    Grid.set_obstacle_all g ~x:4 ~y
  done;
  let a = Grid.node g ~layer:0 ~x:0 ~y:0 and b = Grid.node g ~layer:0 ~x:8 ~y:0 in
  match
    Maze.Search.run ~window:(Maze.Search.Margin 0) g ws ~cost:Maze.Cost.uniform
      ~passable:(free_passable g) ~sources:[ a ] ~targets:[ b ] ()
  with
  | Some r ->
      Testkit.check_int "widened to optimal detour" 16 r.Maze.Search.total_cost;
      Testkit.check_true "avoids wall"
        (List.for_all (fun n -> not (Grid.is_obstacle g n)) r.Maze.Search.path)
  | None -> Alcotest.fail "windowed search failed to widen"

let test_window_unreachable_returns_none () =
  let g, ws = empty_grid ~w:9 ~h:5 () in
  for y = 0 to 4 do
    Grid.set_obstacle_all g ~x:4 ~y
  done;
  let a = Grid.node g ~layer:0 ~x:0 ~y:2 and b = Grid.node g ~layer:0 ~x:8 ~y:2 in
  Testkit.check_true "windowed search reports unreachable"
    (Maze.Search.run ~window:(Maze.Search.Margin 1) g ws
       ~cost:Maze.Cost.uniform
       ~passable:(free_passable g) ~sources:[ a ] ~targets:[ b ] ()
    = None)

let test_buckets_count_expansions () =
  let g, ws = empty_grid () in
  let a = Grid.node g ~layer:0 ~x:0 ~y:5 and b = Grid.node g ~layer:0 ~x:9 ~y:5 in
  match
    Maze.Search.run ~kernel:Maze.Search.Buckets g ws ~cost:Maze.Cost.uniform
      ~passable:(free_passable g) ~sources:[ a ] ~targets:[ b ] ()
  with
  | Some r ->
      Testkit.check_int "manhattan cost" 9 r.Maze.Search.total_cost;
      Testkit.check_true "expanded counted" (r.Maze.Search.expanded > 0)
  | None -> Alcotest.fail "bucket search failed"

(* The expansion loop allocates nothing per node: what a search
   allocates is its path, its result and a fixed per-search overhead, so
   a corner-to-corner search that settles thousands of nodes stays under
   a few words per path node.  The warm-up search grows the frontiers
   once; later searches reuse them.  Besides a free-cells rule on an
   empty grid, the router's two data rules run on a grid where net 2
   walls off most of the middle: [Own 1] detours around it and [Foreign]
   prices every wall cell it relaxes into (a closure answering
   [Some price] there would allocate per cell). *)
let test_search_allocates_per_path () =
  let g = Grid.create ~width:128 ~height:104 () in
  let ws = Maze.Workspace.create g in
  let walled = Grid.create ~width:128 ~height:104 () in
  for layer = 0 to 1 do
    for y = 0 to 90 do
      for x = 40 to 87 do
        Grid.occupy walled ~net:2 (Grid.node walled ~layer ~x ~y)
      done
    done
  done;
  let foreign =
    Maze.Search.Foreign
      {
        net = 1;
        protected = Bytes.make (Grid.node_count walled) '\000';
        rips = [| 0; 3 |];
        penalty = 2;
      }
  in
  let a = Grid.node g ~layer:0 ~x:0 ~y:0
  and b = Grid.node g ~layer:0 ~x:127 ~y:103 in
  List.iter
    (fun (g, passable, rule) ->
      List.iter
        (fun (kernel, heuristic, name) ->
          let search () =
            Maze.Search.run ~kernel ~heuristic g ws ~cost:Maze.Cost.default
              ~passable ~sources:[ a ] ~targets:[ b ] ()
          in
          ignore (search ());
          let before = Gc.minor_words () in
          let r = search () in
          let words = Gc.minor_words () -. before in
          match r with
          | None -> Alcotest.fail "corner-to-corner search failed"
          | Some r ->
              let len = List.length r.Maze.Search.path in
              Testkit.check_true
                (Printf.sprintf "%s, %s: %.0f words for %d expansions, path %d"
                   rule name words r.Maze.Search.expanded len)
                (words < float_of_int ((4 * len) + 1024)))
        Maze.Search.
          [
            (Binary_heap, Zero, "heap dijkstra");
            (Binary_heap, L1, "heap A*");
            (Buckets, Zero, "buckets dijkstra");
            (Buckets, L1, "buckets A*");
          ])
    [
      (g, free_passable g, "free cells");
      (walled, Maze.Search.Own 1, "own");
      (walled, foreign, "foreign");
    ]

(* A search that reaches its target leaves the target marked and entries
   on its frontier; [begin_search] clears both. *)
let search_corner_to_corner ?kernel g ws =
  let t = Grid.node g ~layer:0 ~x:3 ~y:3 in
  ignore
    (Maze.Search.run ?kernel g ws ~cost:Maze.Cost.uniform
       ~passable:(free_passable g)
       ~sources:[ Grid.node g ~layer:0 ~x:0 ~y:0 ]
       ~targets:[ t ] ());
  t

let test_workspace_reset_explicit () =
  let g = Grid.create ~width:4 ~height:4 () in
  let ws = Maze.Workspace.create g in
  let t = search_corner_to_corner ~kernel:Maze.Search.Buckets g ws in
  Testkit.check_true "target marked"
    (ws.Maze.Workspace.mark_gen.(t) = ws.Maze.Workspace.gen);
  Testkit.check_false "frontier left"
    (Maze.Search.Frontier.is_empty Buckets ws.Maze.Workspace.frontier);
  Maze.Workspace.begin_search ws;
  Testkit.check_false "marks cleared"
    (ws.Maze.Workspace.mark_gen.(t) = ws.Maze.Workspace.gen);
  Testkit.check_true "buckets cleared"
    (Maze.Search.Frontier.is_empty Buckets ws.Maze.Workspace.frontier)

(* --- the search's frontiers --- *)

module F = Maze.Search.Frontier

(* A pop with the priority of the popped entry, read just before it. *)
let frontier_pop kernel f =
  let p = F.min_priority kernel f in
  (p, F.pop kernel f)

let pq_pop q =
  let p = Util.Pqueue.min_priority q in
  (p, Util.Pqueue.pop q)

let bq_pop = frontier_pop Maze.Search.Buckets

let bq_push f p x = F.push Maze.Search.Buckets f p x

let bq_empty f = F.is_empty Maze.Search.Buckets f

let test_bucketq_basic () =
  let q = F.create ~nodes:1024 in
  Testkit.check_true "fresh empty" (bq_empty q);
  bq_push q 5 50;
  bq_push q 1 10;
  bq_push q 3 30;
  Testkit.check_int "length" 3 q.Maze.Workspace.count;
  Testkit.check_int "min priority" 1 (F.min_priority Buckets q);
  Testkit.check_true "pop 1" (bq_pop q = (1, 10));
  Testkit.check_true "pop 3" (bq_pop q = (3, 30));
  Testkit.check_true "pop 5" (bq_pop q = (5, 50));
  Testkit.check_true "drained" (bq_empty q)

let test_bucketq_empty_raises () =
  let q = F.create ~nodes:1024 in
  Alcotest.check_raises "pop on empty"
    (Invalid_argument "Search.Frontier.pop: empty") (fun () ->
      ignore (F.pop Buckets q));
  Alcotest.check_raises "min_priority on empty"
    (Invalid_argument "Search.Frontier.min_priority: empty") (fun () ->
      ignore (F.min_priority Buckets q))

let test_bucketq_duplicates_lifo () =
  let q = F.create ~nodes:1024 in
  List.iter (fun (p, x) -> bq_push q p x) [ (2, 1); (2, 2); (1, 3); (2, 4) ];
  Testkit.check_true "min first" (bq_pop q = (1, 3));
  (* equal priorities pop LIFO *)
  Testkit.check_true "lifo 4" (bq_pop q = (2, 4));
  Testkit.check_true "lifo 2" (bq_pop q = (2, 2));
  Testkit.check_true "lifo 1" (bq_pop q = (2, 1))

let test_bucketq_window_growth () =
  (* a span of 1500 from 16 slots forces repeated re-bucketing *)
  let q = F.create ~nodes:1024 in
  for i = 500 downto 1 do
    bq_push q (i * 3) i
  done;
  Testkit.check_int "grew" 500 q.Maze.Workspace.count;
  let prev = ref min_int in
  for _ = 1 to 500 do
    let p, _ = bq_pop q in
    Testkit.check_true "monotone" (p >= !prev);
    prev := p
  done

let test_bucketq_sliding_window () =
  (* monotone push/pop interleaving slides the circular window far past
     its first slots *)
  let q = F.create ~nodes:1024 in
  let popped = ref [] in
  for p = 0 to 999 do
    bq_push q p p;
    if p mod 2 = 1 then popped := fst (bq_pop q) :: !popped
  done;
  while not (bq_empty q) do
    popped := fst (bq_pop q) :: !popped
  done;
  Testkit.check_true "all popped in order"
    (List.rev !popped |> List.sort Int.compare
    = List.init 1000 (fun i -> i))

let test_bucketq_negative_and_reanchor () =
  let q = F.create ~nodes:1024 in
  bq_push q 10 1;
  bq_push q (-5) 2;
  bq_push q 0 3;
  Testkit.check_true "negative min" (bq_pop q = (-5, 2));
  Testkit.check_true "then zero" (bq_pop q = (0, 3));
  Testkit.check_true "then ten" (bq_pop q = (10, 1))

let test_bucketq_clear () =
  let q = F.create ~nodes:1024 in
  bq_push q 7 7;
  F.clear q;
  Testkit.check_true "cleared" (bq_empty q);
  bq_push q 3 3;
  Testkit.check_true "reusable" (bq_pop q = (3, 3))

let prop_bucketq_matches_pqueue =
  Testkit.qcheck "bucketq pops same priorities as pqueue"
    QCheck2.Gen.(list_size (int_range 0 200) (int_range (-100) 100))
    (fun priorities ->
      let bq = F.create ~nodes:1024 in
      let pq = Util.Pqueue.create () in
      List.iteri
        (fun i p ->
          bq_push bq p i;
          Util.Pqueue.push pq p i)
        priorities;
      let n = List.length priorities in
      List.for_all Fun.id
        (List.init n (fun _ -> fst (bq_pop bq) = fst (pq_pop pq)))
      && bq_empty bq)

(* A random push/pop/clear sequence drawn from a seed (so that a failure
   shrinks to a seed, not through a long list).  The payload of the
   [i]th op is [i * 677 mod 1024], distinct over a sequence and not
   monotone, so equal pops mean the same entry and a tie broken by
   payload shows.  Priorities span -40..200, so the bucket window
   re-anchors below its base and grows past its first slots. *)
let frontier_ops seed =
  let prng = Util.Prng.create seed in
  List.init (Util.Prng.int prng 400) (fun _ ->
      match Util.Prng.int prng 10 with
      | 0 -> `Clear
      | 1 | 2 | 3 -> `Pop
      | _ -> `Push (Util.Prng.int_in prng (-40) 200))

(* Run the ops of [seed] on the frontier and on a model; every pop, and
   the drain at the end, must agree. *)
let same_pops kernel seed ~push ~pop ~is_empty ~clear =
  let f = F.create ~nodes:1024 in
  let agree = ref true in
  let pop_both () =
    if is_empty () then agree := F.is_empty kernel f && !agree
    else agree := frontier_pop kernel f = pop () && !agree
  in
  List.iteri
    (fun i op ->
      match op with
      | `Push p ->
          let x = i * 677 mod 1024 in
          F.push kernel f p x;
          push p x
      | `Pop -> pop_both ()
      | `Clear ->
          F.clear f;
          clear ())
    (frontier_ops seed);
  while not (is_empty ()) do
    pop_both ()
  done;
  !agree && F.is_empty kernel f

let prop_heap_pops_as_pqueue =
  Testkit.qcheck ~count:300 "heap frontier pops exactly as Util.Pqueue"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let q = Util.Pqueue.create () in
      same_pops Maze.Search.Binary_heap seed
        ~push:(fun p x -> Util.Pqueue.push q p x)
        ~pop:(fun () -> pq_pop q)
        ~is_empty:(fun () -> Util.Pqueue.is_empty q)
        ~clear:(fun () -> Util.Pqueue.clear q))

module Int_map = Map.Make (Int)

let prop_buckets_pop_lifo_per_priority =
  Testkit.qcheck ~count:300 "bucket frontier pops as a LIFO stack per priority"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      (* the model: one stack per priority, the least priority first *)
      let model = ref Int_map.empty in
      same_pops Maze.Search.Buckets seed
        ~push:(fun p x ->
          let stack = Option.value ~default:[] (Int_map.find_opt p !model) in
          model := Int_map.add p (x :: stack) !model)
        ~pop:(fun () ->
          match Int_map.min_binding !model with
          | p, [ x ] ->
              model := Int_map.remove p !model;
              (p, x)
          | p, x :: rest ->
              model := Int_map.add p rest !model;
              (p, x)
          | _, [] -> assert false)
        ~is_empty:(fun () -> Int_map.is_empty !model)
        ~clear:(fun () -> model := Int_map.empty))

let test_heap_priority_range () =
  let f = F.create ~nodes:1024 in
  Alcotest.check_raises "a priority above the node bits"
    (Invalid_argument "Search.Frontier: priority out of range") (fun () ->
      F.push Binary_heap f (max_int / 512) 1);
  F.push Binary_heap f ((max_int / 1024) - 1) 1023;
  Testkit.check_true "the largest priority that fits"
    (frontier_pop Binary_heap f = ((max_int / 1024) - 1, 1023))

(* [Own] and [Foreign] are the engine's two closures turned into data:
   on random grids with obstacles, other nets' wiring, protected cells
   and rip counts, each search must equal the one its closure runs. *)
let prop_data_rules_match_closures =
  Testkit.qcheck ~count:200 "Own and Foreign price as their closures"
    QCheck2.Gen.(quad (int_range 0 100_000) bool bool bool)
    (fun (seed, buckets, astar, flood) ->
      let prng = Util.Prng.create seed in
      let w = Util.Prng.int_in prng 6 14 and h = Util.Prng.int_in prng 5 12 in
      let layers = Util.Prng.int_in prng 2 3 in
      let g = Grid.create ~layers ~width:w ~height:h () in
      let nets = 4 in
      let protected = Bytes.make (Grid.node_count g) '\000' in
      Grid.iter_nodes g (fun n ->
          let r = Util.Prng.int prng 10 in
          if r = 0 then
            Grid.set_obstacle g ~layer:(Grid.node_layer g n)
              ~x:(Grid.node_x g n) ~y:(Grid.node_y g n)
          else if r <= 4 then begin
            Grid.occupy g ~net:(1 + Util.Prng.int prng nets) n;
            if Util.Prng.chance prng 0.2 then Bytes.set protected n '\001'
          end);
      let rips = Array.init nets (fun _ -> Util.Prng.int prng 4) in
      let penalty = Util.Prng.int_in prng 1 6 in
      let net = 1 + Util.Prng.int prng nets in
      let open_cell () =
        let rec go tries =
          let n = Util.Prng.int prng (Grid.node_count g) in
          let v = Grid.occ g n in
          if v = Grid.free || v = net || tries > 200 then n else go (tries + 1)
        in
        go 0
      in
      let sources = [ open_cell () ]
      and targets = [ open_cell (); open_cell () ] in
      let own n =
        let v = Grid.occ g n in
        if v = Grid.free || v = net then Some 0 else None
      in
      let foreign n =
        let v = Grid.occ g n in
        if v = Grid.free || v = net then Some 0
        else if v = Grid.obstacle || Bytes.get protected n <> '\000' then None
        else Some (penalty * (1 + rips.(v - 1)))
      in
      let ws = Maze.Workspace.create g in
      let kernel = if buckets then Maze.Search.Buckets else Binary_heap in
      let heuristic = if astar then Maze.Search.L1 else Zero in
      let search passable =
        let work = { Maze.Search.settled = 0; flooded = 0 } in
        let r =
          Maze.Search.run ~kernel ~heuristic ~flood ~work g ws
            ~cost:Maze.Cost.default ~passable ~sources ~targets ()
        in
        (r, work.settled, work.flooded)
      in
      search (Own net) = search (Custom own)
      && search (Foreign { net; protected; rips; penalty })
         = search (Custom foreign))

let test_cost_model () =
  Testkit.check_int "preferred horizontal on L0" 1
    (Maze.Cost.step_cost Maze.Cost.default ~prefers_h:true ~horizontal:true);
  Testkit.check_int "wrong way vertical on L0" 3
    (Maze.Cost.step_cost Maze.Cost.default ~prefers_h:true ~horizontal:false);
  Testkit.check_int "preferred vertical on L1" 1
    (Maze.Cost.step_cost Maze.Cost.default ~prefers_h:false ~horizontal:false);
  Testkit.check_int "uniform symmetric" 1
    (Maze.Cost.step_cost Maze.Cost.uniform ~prefers_h:true ~horizontal:false)

let test_workspace_marks_reset () =
  let g = Grid.create ~width:4 ~height:4 () in
  let ws = Maze.Workspace.create g in
  let t = search_corner_to_corner g ws in
  let current n = ws.Maze.Workspace.dist_gen.(n) = ws.Maze.Workspace.gen in
  Testkit.check_true "marked"
    (ws.Maze.Workspace.mark_gen.(t) = ws.Maze.Workspace.gen);
  Testkit.check_true "dist labelled" (current t && ws.Maze.Workspace.dist.(t) = 6);
  Maze.Workspace.begin_search ws;
  Testkit.check_false "reset clears marks"
    (ws.Maze.Workspace.mark_gen.(t) = ws.Maze.Workspace.gen);
  Testkit.check_false "dist reset" (current t)

(* --- net routing --- *)

let test_route_net_two_pins () =
  let net = Netlist.Net.make ~id:1 ~name:"a" [ pin 0 0; pin 9 7 ] in
  let p = Netlist.Problem.make ~name:"t" ~width:12 ~height:10 [ net ] in
  let g = Netlist.Problem.instantiate p in
  let ws = Maze.Workspace.create g in
  match Maze.Route.route_net g ws ~cost:Maze.Cost.default net with
  | Ok s ->
      Testkit.check_true "wirelength at least L1" (s.Maze.Route.wirelength >= 16);
      Testkit.check_int "connected" 1 (Drc.Check.connected_components g ~net:1)
  | Error _ -> Alcotest.fail "two-pin route failed"

let test_route_net_multi_pin_tree () =
  let net =
    Netlist.Net.make ~id:1 ~name:"a" [ pin 0 0; pin 11 0; pin 0 9; pin 11 9; pin 5 5 ]
  in
  let p = Netlist.Problem.make ~name:"t" ~width:12 ~height:10 [ net ] in
  let g = Netlist.Problem.instantiate p in
  let ws = Maze.Workspace.create g in
  match Maze.Route.route_net g ws ~cost:Maze.Cost.default net with
  | Ok _ ->
      Testkit.check_int "single component" 1
        (Drc.Check.connected_components g ~net:1)
  | Error _ -> Alcotest.fail "multi-pin route failed"

let test_route_net_trivial () =
  let net = Netlist.Net.make ~id:1 ~name:"a" [ pin 3 3 ] in
  let p = Netlist.Problem.make ~name:"t" ~width:6 ~height:6 [ net ] in
  let g = Netlist.Problem.instantiate p in
  let ws = Maze.Workspace.create g in
  match Maze.Route.route_net g ws ~cost:Maze.Cost.default net with
  | Ok s -> Testkit.check_int "nothing added" 0 (List.length s.Maze.Route.added)
  | Error _ -> Alcotest.fail "trivial net failed"

let test_route_net_rollback_on_failure () =
  (* Net with one reachable and one sealed-off pin: everything must be
     rolled back. *)
  let net =
    Netlist.Net.make ~id:1 ~name:"a" [ pin 0 0; pin 5 0; pin ~layer:0 11 9 ]
  in
  let p = Netlist.Problem.make ~name:"t" ~width:12 ~height:10 [ net ] in
  let g = Netlist.Problem.instantiate p in
  (* Seal off the corner pin on both layers. *)
  List.iter
    (fun (x, y) -> Grid.set_obstacle_all g ~x ~y)
    [ (10, 9); (11, 8); (10, 8) ];
  let ws = Maze.Workspace.create g in
  let before = Grid.count_owned g ~net:1 in
  (match Maze.Route.route_net g ws ~cost:Maze.Cost.default net with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error f ->
      Testkit.check_int "failing net id" 1 f.Maze.Route.failed_net);
  Testkit.check_int "grid restored" before (Grid.count_owned g ~net:1);
  Testkit.check_int "no vias left" 0 (Grid.via_count g)

let test_occupy_path_vias () =
  let g, _ = empty_grid () in
  let n ~layer ~x ~y = Grid.node g ~layer ~x ~y in
  let path =
    [ n ~layer:0 ~x:0 ~y:0; n ~layer:0 ~x:1 ~y:0; n ~layer:1 ~x:1 ~y:0 ]
  in
  let added = Maze.Route.occupy_path g ~net:4 path in
  Testkit.check_int "three nodes" 3 (List.length added);
  Testkit.check_true "via placed" (Grid.has_via g ~x:1 ~y:0);
  Maze.Route.release_nodes g added;
  Testkit.check_int "released" 0 (Grid.count_owned g ~net:4)

let prop_route_net_connects_random_pins =
  Testkit.qcheck ~count:40 "route_net connects random pin sets on empty grids"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let w = Util.Prng.int_in prng 6 14 and h = Util.Prng.int_in prng 6 12 in
      let k = Util.Prng.int_in prng 2 5 in
      let cells = ref [] in
      for _ = 1 to k do
        let rec fresh () =
          let c =
            (Util.Prng.int prng w, Util.Prng.int prng h, Util.Prng.int prng 2)
          in
          if List.mem c !cells then fresh () else c
        in
        cells := fresh () :: !cells
      done;
      let pins = List.map (fun (x, y, l) -> pin ~layer:l x y) !cells in
      let net = Netlist.Net.make ~id:1 ~name:"r" pins in
      let p = Netlist.Problem.make ~name:"t" ~width:w ~height:h [ net ] in
      let g = Netlist.Problem.instantiate p in
      let ws = Maze.Workspace.create g in
      match Maze.Route.route_net g ws ~cost:Maze.Cost.default net with
      | Ok _ -> Drc.Check.connected_components g ~net:1 = 1
      | Error _ -> false)

let test_reachable_oracle () =
  let g, ws = empty_grid ~w:6 ~h:4 () in
  let a = Grid.node g ~layer:0 ~x:0 ~y:0 and b = Grid.node g ~layer:0 ~x:5 ~y:3 in
  Testkit.check_true "open grid reachable"
    (Maze.Search.reachable g ws ~passable:(free_passable g) ~sources:[ a ]
       ~targets:[ b ]);
  for y = 0 to 3 do
    Grid.set_obstacle_all g ~x:3 ~y
  done;
  Testkit.check_false "walled off"
    (Maze.Search.reachable g ws ~passable:(free_passable g) ~sources:[ a ]
       ~targets:[ b ])

let test_self_cells_passable () =
  let g, ws = empty_grid ~w:8 ~h:3 () in
  (* Own wire crossing the middle is passable at zero cost. *)
  for y = 0 to 2 do
    Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x:4 ~y)
  done;
  let a = Grid.node g ~layer:0 ~x:0 ~y:1 and b = Grid.node g ~layer:0 ~x:7 ~y:1 in
  match
    Maze.Search.run g ws ~cost:Maze.Cost.uniform
      ~passable:(self_passable g ~net:1) ~sources:[ a ] ~targets:[ b ] ()
  with
  | Some r -> Testkit.check_int "straight through" 7 r.Maze.Search.total_cost
  | None -> Alcotest.fail "self-passable failed"

(* --- the touched-region accumulator (read certificates, DESIGN.md §11) --- *)

let test_touched_accumulates_across_searches () =
  let g, ws = empty_grid () in
  Maze.Workspace.clear_touched ws;
  Testkit.check_true "initially empty"
    (Maze.Workspace.touched ws ~layer:0 = None
    && Maze.Workspace.touched ws ~layer:1 = None);
  let a = Grid.node g ~layer:0 ~x:0 ~y:2 and b = Grid.node g ~layer:0 ~x:4 ~y:2 in
  ignore (run g ws ~sources:[ a ] ~targets:[ b ] ());
  let r1 =
    match Maze.Workspace.touched ws ~layer:0 with
    | Some r -> r
    | None -> Alcotest.fail "search touched nothing"
  in
  Testkit.check_true "covers both endpoints"
    (Geom.Rect.mem r1 0 2 && Geom.Rect.mem r1 4 2);
  (* a second search widens, never resets, the accumulator — escalation
     runs several probes per connection and the certificate must cover
     them all *)
  let c = Grid.node g ~layer:0 ~x:9 ~y:8 in
  ignore (run g ws ~sources:[ b ] ~targets:[ c ] ());
  let r2 =
    match Maze.Workspace.touched ws ~layer:0 with
    | Some r -> r
    | None -> Alcotest.fail "accumulator lost"
  in
  Testkit.check_true "accumulates across begin_search"
    (Geom.Rect.contains r2 r1 && Geom.Rect.mem r2 9 8);
  Maze.Workspace.clear_touched ws;
  Testkit.check_true "explicit clear empties"
    (Maze.Workspace.touched ws ~layer:0 = None)

let test_touched_note_merges () =
  let g, ws = empty_grid () in
  ignore g;
  Maze.Workspace.clear_touched ws;
  Maze.Workspace.note_touched ws ~layer:1 ~x0:2 ~y0:3 ~x1:4 ~y1:5;
  Maze.Workspace.note_touched ws ~layer:1 ~x0:6 ~y0:1 ~x1:7 ~y1:2;
  (match Maze.Workspace.touched ws ~layer:1 with
  | Some r -> Testkit.check_true "hull of notes" (r = Geom.Rect.make 2 1 7 5)
  | None -> Alcotest.fail "notes lost");
  Testkit.check_true "other layer untouched"
    (Maze.Workspace.touched ws ~layer:0 = None)

let () =
  Alcotest.run "maze"
    [
      ( "search",
        [
          Alcotest.test_case "trivial" `Quick test_search_trivial;
          Alcotest.test_case "straight line" `Quick test_search_straight_line;
          Alcotest.test_case "manhattan optimal" `Quick test_search_manhattan_optimal;
          Alcotest.test_case "respects obstacles" `Quick test_search_respects_obstacles;
          Alcotest.test_case "detours" `Quick test_search_detours_around_wall;
          Alcotest.test_case "uses vias" `Quick test_search_uses_via_when_needed;
          Alcotest.test_case "via cost" `Quick test_via_cost_discourages_layer_change;
          Alcotest.test_case "wrong-way cost" `Quick test_wrong_way_cost_prefers_layer;
          Alcotest.test_case "foreign penalty" `Quick test_penalty_prices_foreign_cells;
          Alcotest.test_case "multi-source" `Quick test_multi_source_picks_nearest;
          Alcotest.test_case "workspace reuse" `Quick test_workspace_reuse;
          Alcotest.test_case "reachability oracle" `Quick test_reachable_oracle;
          Alcotest.test_case "cost model" `Quick test_cost_model;
          Alcotest.test_case "workspace marks" `Quick test_workspace_marks_reset;
          Alcotest.test_case "self cells passable" `Quick test_self_cells_passable;
          Alcotest.test_case "lee wave expansion" `Quick test_lee_matches_uniform_dijkstra;
          prop_lee_length_matches_dijkstra;
          prop_astar_matches_dijkstra;
          prop_path_cost_consistent;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "buckets basic" `Quick test_buckets_count_expansions;
          Alcotest.test_case "window widens" `Quick test_window_widens_on_failure;
          Alcotest.test_case "window unreachable" `Quick test_window_unreachable_returns_none;
          Alcotest.test_case "workspace reset" `Quick test_workspace_reset_explicit;
          Alcotest.test_case "allocation per path, not per node" `Quick
            test_search_allocates_per_path;
          prop_buckets_match_heap;
          prop_windowed_matches_full;
          prop_l1_exact;
          prop_flood_is_invisible;
        ] );
      ( "bucketq",
        [
          Alcotest.test_case "basic order" `Quick test_bucketq_basic;
          Alcotest.test_case "empty raises" `Quick test_bucketq_empty_raises;
          Alcotest.test_case "duplicates lifo" `Quick
            test_bucketq_duplicates_lifo;
          Alcotest.test_case "window growth" `Quick test_bucketq_window_growth;
          Alcotest.test_case "sliding window" `Quick
            test_bucketq_sliding_window;
          Alcotest.test_case "negative re-anchor" `Quick
            test_bucketq_negative_and_reanchor;
          Alcotest.test_case "clear" `Quick test_bucketq_clear;
          prop_bucketq_matches_pqueue;
        ] );
      ( "queues",
        [
          prop_heap_pops_as_pqueue;
          prop_buckets_pop_lifo_per_priority;
          Alcotest.test_case "heap priority range" `Quick
            test_heap_priority_range;
          prop_data_rules_match_closures;
        ] );
      ( "touched",
        [
          Alcotest.test_case "accumulates across searches" `Quick
            test_touched_accumulates_across_searches;
          Alcotest.test_case "note merges" `Quick test_touched_note_merges;
        ] );
      ( "route",
        [
          Alcotest.test_case "two pins" `Quick test_route_net_two_pins;
          Alcotest.test_case "multi-pin tree" `Quick test_route_net_multi_pin_tree;
          Alcotest.test_case "trivial net" `Quick test_route_net_trivial;
          Alcotest.test_case "rollback on failure" `Quick test_route_net_rollback_on_failure;
          Alcotest.test_case "occupy_path vias" `Quick test_occupy_path_vias;
          prop_route_net_connects_random_pins;
        ] );
    ]
