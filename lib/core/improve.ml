type stats = {
  passes : int;
  improved_nets : int;
  wirelength_before : int;
  wirelength_after : int;
  vias_before : int;
  vias_after : int;
  planned : int;
  skipped_cert : int;
  skipped_bound : int;
  cache_stale : int;
}

let refine ?(max_passes = 3) ?(cost = Maze.Cost.default) ?(incremental = true)
    ?cache problem g =
  let nets_total = Netlist.Problem.net_count problem in
  (* The cache is bound to one physical grid: a caller-supplied cache for
     a different grid (or net count) is silently replaced, never trusted. *)
  let cache =
    if not incremental then None
    else
      match cache with
      | Some c when Maze.Cache.matches c g ~nets:nets_total -> Some c
      | _ -> Some (Maze.Cache.create g ~nets:nets_total)
  in
  let counters () =
    match cache with
    | Some c ->
        (Maze.Cache.hits c, Maze.Cache.stale c, Maze.Cache.bound_skips c)
    | None -> (0, 0, 0)
  in
  let hits0, stale0, bound0 = counters () in
  let ws = Maze.Workspace.create g in
  let has_fixed_prewire net =
    List.exists
      (fun (pw : Netlist.Problem.prewire) ->
        pw.Netlist.Problem.pre_fixed && pw.Netlist.Problem.pre_net = net)
      problem.Netlist.Problem.prewires
  in
  let pin_nodes_tbl = Array.make (nets_total + 1) [] in
  List.iter
    (fun (id, pin) ->
      if id >= 1 && id <= nets_total then
        pin_nodes_tbl.(id) <- Maze.Route.pin_node g pin :: pin_nodes_tbl.(id))
    (Netlist.Problem.pin_cells problem);
  let pin_nodes net = pin_nodes_tbl.(net) in
  let candidates =
    List.filter
      (fun net -> not (has_fixed_prewire net))
      (Netlist.Problem.nontrivial_net_ids problem)
  in
  (* One O(grid) scan per call hoists the per-net cell lists that every
     verdict reads (cost, connectivity, wiring boxes).  A net's cells
     change only when the net itself commits — other nets' commits never
     touch them — so each list is refreshed from the committed plan
     instead of rescanning the grid on every visit. *)
  let gw = Grid.width g and gh = Grid.height g in
  let cells = Array.make (nets_total + 1) [] in
  for n = Grid.node_count g - 1 downto 0 do
    let v = Grid.occ g n in
    if v > 0 && v <= nets_total then cells.(v) <- n :: cells.(v)
  done;
  (* [Outcome.measure_net]'s objective over the hoisted list: same-layer
     +x/+y adjacencies within the cell set, plus the via charge (a via
     pair's two cells share one owner, so counting each pair at its lower
     cell counts each via once). *)
  let net_cost net =
    let nodes = cells.(net) in
    let tbl = Hashtbl.create 64 in
    List.iter (fun n -> Hashtbl.replace tbl n ()) nodes;
    let wl = ref 0 and vias = ref 0 in
    List.iter
      (fun n ->
        let x = Grid.node_x g n and y = Grid.node_y g n in
        if x + 1 < gw && Hashtbl.mem tbl (n + 1) then incr wl;
        if y + 1 < gh && Hashtbl.mem tbl (n + gw) then incr wl;
        if Grid.via_above g n then incr vias)
      nodes;
    !wl + (cost.Maze.Cost.via * !vias)
  in
  (* [Drc.Check.connected_components _ = 1] over the hoisted list: the
     list is exactly the net's owned cells, so the net is one piece iff a
     flood from any of them reaches them all. *)
  let connected net =
    match cells.(net) with
    | [] -> false
    | start :: _ as nodes ->
        Hashtbl.length (Grid.flood_net g ~net start) = List.length nodes
  in
  let wirelength_before = Outcome.total_wirelength g problem in
  let vias_before = Outcome.total_vias g in
  let improved_nets = ref 0 in
  let passes = ref 0 in
  let planned = ref 0 in
  (* The cost the net would measure AFTER committing [segs], computed
     without touching the grid: committing releases every non-pin cell
     and occupies the planned paths, so the future cell set is exactly
     pins ∪ path nodes; wirelength is the same-layer adjacencies within
     it.  Vias afterwards are the planned layer-change positions plus
     the current vias that survive the rip — only those whose both layer
     cells are pins, since releasing either cell clears a via. *)
  let hyp_cost ~pins ~segs =
    let w = Grid.width g and h = Grid.height g in
    let tbl = Hashtbl.create 64 in
    List.iter (fun n -> Hashtbl.replace tbl n ()) pins;
    List.iter
      (fun (path, _) -> List.iter (fun n -> Hashtbl.replace tbl n ()) path)
      segs;
    let wl = ref 0 in
    Hashtbl.iter
      (fun n () ->
        let x = Grid.node_x g n and y = Grid.node_y g n in
        if x + 1 < w && Hashtbl.mem tbl (n + 1) then incr wl;
        if y + 1 < h && Hashtbl.mem tbl (n + w) then incr wl)
      tbl;
    let vias = Hashtbl.create 16 in
    List.iter
      (fun (path, _) ->
        let rec steps = function
          | a :: (b :: _ as rest) ->
              let la = Grid.node_layer g a and lb = Grid.node_layer g b in
              if la <> lb then
                Hashtbl.replace vias (Grid.planar g a, min la lb) ();
              steps rest
          | [] | [ _ ] -> ()
        in
        steps path)
      segs;
    (* Surviving current vias: a pair whose both cells are pins (counted
       once, from its lower cell). *)
    List.iter
      (fun n ->
        if Grid.via_above g n && List.mem (Grid.node_above g n) pins then
          Hashtbl.replace vias (Grid.planar g n, Grid.node_layer g n) ())
      pins;
    !wl + (cost.Maze.Cost.via * Hashtbl.length vias)
  in
  (* Rip the old wiring (pins stay) and occupy the planned paths — the
     same grid trajectory a mutating reroute would have taken, so the
     measured result equals the hypothetical cost above. *)
  let commit ~net ~pins ~segs =
    List.iter
      (fun n -> if not (List.mem n pins) then Grid.release g n)
      cells.(net);
    List.iter
      (fun (path, _) -> ignore (Maze.Route.occupy_path g ~net path))
      segs;
    (* The committed cell set is exactly pins ∪ path nodes, each cell
       once: the [owned] guard of refine's certificates counts it. *)
    cells.(net) <- List.sort_uniq Int.compare (pins @ List.concat_map fst segs)
  in
  (* Per-layer bounding boxes of the net's current wiring.  Every skip
     verdict reads the net's own cells (through [net_cost] and the
     connectivity check), wherever they lie — possibly outside the
     planning searches' windows — so certificates must cover them too:
     an external rip of this net must always invalidate its cert. *)
  let nlayers = Grid.layers g in
  let own_boxes net =
    let b = Array.make nlayers None in
    List.iter
      (fun n ->
        let x = Grid.node_x g n and y = Grid.node_y g n in
        let l = Grid.node_layer g n in
        let r = Geom.Rect.make x y x y in
        b.(l) <-
          Some (match b.(l) with None -> r | Some b -> Geom.Rect.hull b r))
      cells.(net);
    b
  in
  let join a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (Geom.Rect.hull a b)
  in
  let improve_net net =
    let record_cert () =
      match cache with
      | Some c ->
          let rc = Maze.Cache.read_certs ws in
          let own = own_boxes net in
          Maze.Cache.record_cert c ~net
            ~certs:(Array.init nlayers (fun l -> join rc.(l) own.(l)))
            ~owned:(List.length cells.(net))
      | None -> ()
    in
    let cert_hit =
      match cache with
      | Some c ->
          Maze.Cache.cert_status c ~net ~owned:(List.length cells.(net))
          = `Hit
      | None -> false
    in
    (* A clean certificate proves the last no-commit verdict replays.
       The verdict read the planning searches' region and the net's own
       wiring; since then only blocking writes landed there (freeing
       writes invalidate, and the net's cell count is unchanged — its
       own releases land inside its recorded wiring boxes).  Blocks can
       remove candidate routes but never create a cheaper one, so "no
       plan beats the current wiring" still holds and the whole visit
       skips without touching the grid — exactly what the baseline's
       plan-and-reject would do. *)
    if cert_hit then false
    else if connected net then begin
      let old_cost = net_cost net in
      let pins = pin_nodes net in
      let netdef = Netlist.Problem.net problem net in
      (* Closed-form floor under the wire=1 objective, any pin count: a
         connected set containing all pins crosses every planar column
         and row boundary of the pin bounding box (at least half-perimeter
         wire edges) and joins the layers with at least one via per layer
         gap the pins span.  A net already at that cost is at its global
         optimum, so replanning provably cannot improve it — skip without
         searching.  The decision read only the pins (static) and the
         net's own wiring (through [old_cost]); certify exactly that.
         Every other net is planned: the planner's own L1 bound is the
         cheap exact proof that nothing beats the current wiring. *)
      let floor_skip =
        match cache with
        | Some c when cost.Maze.Cost.wire = 1 && pins <> [] ->
            let x0, y0, x1, y1, lmin, lmax =
              List.fold_left
                (fun (x0, y0, x1, y1, lmin, lmax) p ->
                  let x = Grid.node_x g p and y = Grid.node_y g p in
                  let l = Grid.node_layer g p in
                  ( min x0 x,
                    min y0 y,
                    max x1 x,
                    max y1 y,
                    min lmin l,
                    max lmax l ))
                (max_int, max_int, min_int, min_int, max_int, min_int)
                pins
            in
            let floor_cost =
              (cost.Maze.Cost.wire * (x1 - x0 + (y1 - y0)))
              + (cost.Maze.Cost.via * (lmax - lmin))
            in
            if floor_cost >= old_cost then begin
              Maze.Cache.note_bound_skip c;
              Maze.Cache.record_cert c ~net ~certs:(own_boxes net)
                ~owned:(List.length cells.(net));
              true
            end
            else false
        | _ -> false
      in
      if floor_skip then false
      else begin
        Maze.Workspace.clear_touched ws;
        incr planned;
        (* The planner is the full-grid bucket A* that [Flow] forces.  A*
           settles only nodes whose key is at most the connection's
           cost, so each search, and with it the recorded certificate,
           stays local without a window; a [Margin] window would discard
           every probe whose cost exceeds its certificate and search
           again. *)
        match
          Maze.Route.plan_net ~kernel:Maze.Search.Buckets
            ~heuristic:Maze.Search.L1 ~window:Maze.Search.Full g ws ~cost
            ~passable:(Own net) netdef
        with
        | None ->
            record_cert ();
            false
        | Some segs ->
            let new_cost = hyp_cost ~pins ~segs in
            if new_cost < old_cost then begin
              commit ~net ~pins ~segs;
              record_cert ();
              true
            end
            else begin
              record_cert ();
              false
            end
      end
    end
    else false
  in
  let continue = ref true in
  while !continue && !passes < max_passes do
    incr passes;
    let improved_this_pass = ref false in
    List.iter
      (fun net ->
        if improve_net net then begin
          incr improved_nets;
          improved_this_pass := true
        end)
      candidates;
    continue := !improved_this_pass
  done;
  let hits1, stale1, bound1 = counters () in
  {
    passes = !passes;
    improved_nets = !improved_nets;
    wirelength_before;
    wirelength_after = Outcome.total_wirelength g problem;
    vias_before;
    vias_after = Outcome.total_vias g;
    planned = !planned;
    skipped_cert = hits1 - hits0;
    skipped_bound = bound1 - bound0;
    cache_stale = stale1 - stale0;
  }
