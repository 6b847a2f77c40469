(* Track assignment by unconstrained left-edge packing, then vertical-layer
   maze completion.  Rows: track t = grid row t; pin rows 0 and tracks+1. *)

let trunk_nodes spec =
  List.filter_map
    (fun net ->
      match Lea.shape_of spec ~net with
      | Lea.Trunk span -> Some (net, span)
      | Lea.Trivial | Lea.Single_column _ -> None)
    (Model.net_ids spec)

(* Candidate track assignments, preferred first: pure interval packing
   (reaches density, may leave violations for the repair phase), then — when
   the constraint graph is acyclic — the constraint-respecting packing
   (needs more tracks but never requires repair the columns cannot give). *)
let assignments spec ~tracks =
  let trunks = trunk_nodes spec in
  let unconstrained = Lea.assign ~nodes:trunks ~graph:(Vcg.create ()) ~tracks in
  let graph =
    let g = Vcg.create () in
    Array.iteri
      (fun x a ->
        let b = spec.Model.bottom.(x) in
        if a <> 0 && b <> 0 && a <> b
           && List.mem_assoc a trunks && List.mem_assoc b trunks
        then Vcg.add_edge g ~above:a ~below:b)
      spec.Model.top;
    g
  in
  let constrained =
    if Vcg.has_cycle graph then None
    else Lea.assign ~nodes:trunks ~graph ~tracks
  in
  List.filter_map
    (fun c -> c)
    [ unconstrained; (if constrained = unconstrained then None else constrained) ]

(* Every pin's single escape cell — the vertical-layer cell one row inside
   the channel at the pin's column — is reserved for that pin's net, or a
   jog of another branch could seal the pin in before it routes. *)
let escape_reservations spec ~tracks =
  let reservations = Hashtbl.create 32 in
  Array.iteri
    (fun x net -> if net <> 0 then Hashtbl.replace reservations (x, tracks) net)
    spec.Model.top;
  Array.iteri
    (fun x net -> if net <> 0 then Hashtbl.replace reservations (x, 1) net)
    spec.Model.bottom;
  reservations

(* Branch routing: free cells on either layer (a dogleg jog is a short
   horizontal hop on the trunk layer between two vias), plus the net's own
   cells.  Trunks of other nets are hard obstacles — they are never moved,
   which is what separates this router from the full rip-up engine. *)
let branch_passable g reservations ~net n =
  let v = Grid.occ g n in
  if v = net then Some 0
  else if v = Grid.free then begin
    if Grid.node_layer g n = 1 then
      match
        Hashtbl.find_opt reservations (Grid.node_x g n, Grid.node_y g n)
      with
      | Some owner when owner <> net -> None
      | Some _ | None -> Some 0
    else Some 0
  end
  else None

let route_with spec ~tracks assignment =
      let problem = Model.problem_of_spec ~name:"yacr" ~tracks spec in
      let g = Netlist.Problem.instantiate problem in
      let ws = Maze.Workspace.create g in
      let reservations = escape_reservations spec ~tracks in
      let ok = ref true in
      (* Lay the trunks. *)
      List.iter
        (fun (net, track) ->
          match Lea.shape_of spec ~net with
          | Lea.Trunk span ->
              for x = span.Geom.Interval.lo to span.Geom.Interval.hi do
                if !ok then
                  if Grid.occ_at g ~layer:0 ~x ~y:track = Grid.free then
                    Grid.occupy g ~net (Grid.node g ~layer:0 ~x ~y:track)
                  else ok := false
              done
          | Lea.Trivial | Lea.Single_column _ -> ())
        assignment;
      (* Route every branch: single-column through-branches first, then
         pin-to-trunk connections column by column. *)
      let cost = { Maze.Cost.wire = 1; via = 2; wrong_way = 4 } in
      let connect ~net ~sources ~targets =
        if !ok then
          match
            Maze.Search.run g ws ~cost
              ~passable:(Custom (branch_passable g reservations ~net))
              ~sources ~targets ()
          with
          | Some r -> ignore (Maze.Route.occupy_path g ~net r.Maze.Search.path)
          | None -> ok := false
      in
      List.iter
        (fun net ->
          match Lea.shape_of spec ~net with
          | Lea.Trivial -> ()
          | Lea.Single_column c ->
              let top = Grid.node g ~layer:1 ~x:c ~y:(tracks + 1) in
              let bottom = Grid.node g ~layer:1 ~x:c ~y:0 in
              connect ~net ~sources:[ bottom ] ~targets:[ top ]
          | Lea.Trunk _ -> ())
        (Model.net_ids spec);
      let columns = Model.columns spec in
      (* Pass 1: branches whose straight vertical corridor is free route
         directly (the non-violating columns); pass 2 maze-repairs the
         rest with wrong-way jogs.  Routing the easy majority first keeps
         the repair space open — the YACR staging. *)
      let track_of net = List.assoc_opt net assignment in
      let straight ~net ~x ~y =
        match track_of net with
        | None -> false
        | Some t ->
            let lo = if y = 0 then 1 else t
            and hi = if y = 0 then t else tracks in
            let clear = ref true in
            for row = lo to hi do
              let v = Grid.occ_at g ~layer:1 ~x ~y:row in
              if v <> Grid.free && v <> net then clear := false;
              (match Hashtbl.find_opt reservations (x, row) with
              | Some owner when owner <> net -> clear := false
              | Some _ | None -> ())
            done;
            if !clear then begin
              for row = lo to hi do
                if Grid.occ_at g ~layer:1 ~x ~y:row = Grid.free then
                  Grid.occupy g ~net (Grid.node g ~layer:1 ~x ~y:row)
              done;
              Grid.set_via g ~x ~y:t;
              true
            end
            else false
      in
      let deferred = ref [] in
      let pin_connect pass1 net x y =
        if net <> 0 then
          match Lea.shape_of spec ~net with
          | Lea.Trunk _ ->
              if pass1 then begin
                if not (straight ~net ~x ~y) then deferred := (net, x, y) :: !deferred
              end
              else begin
                (* Target the trunk itself (the net's layer-0 cells): other
                   still-unconnected pins are owned but not yet attached. *)
                let trunk_cells =
                  List.filter
                    (fun n -> Grid.node_layer g n = 0)
                    (Grid.occupied_nodes g ~net)
                in
                connect ~net
                  ~sources:[ Grid.node g ~layer:1 ~x ~y ]
                  ~targets:trunk_cells
              end
          | Lea.Trivial | Lea.Single_column _ -> ()
      in
      for x = 0 to columns - 1 do
        pin_connect true spec.Model.top.(x) x (tracks + 1);
        pin_connect true spec.Model.bottom.(x) x 0
      done;
      List.iter
        (fun (net, x, y) -> pin_connect false net x y)
        (List.rev !deferred);
      if !ok && Drc.Check.is_clean problem g then Some (problem, g) else None

let route_at spec ~tracks =
  let rec first = function
    | [] -> None
    | assignment :: rest -> (
        match route_with spec ~tracks assignment with
        | Some result -> Some result
        | None -> first rest)
  in
  first (assignments spec ~tracks)

let route ?(max_extra = 10) spec =
  let density = max 1 (Model.density spec) in
  let rec attempt tracks =
    if tracks > density + max_extra then None
    else
      match route_at spec ~tracks with
      | Some result -> Some result
      | None -> attempt (tracks + 1)
  in
  attempt density

let min_tracks ?max_extra spec =
  Option.map
    (fun ((p, _) : Netlist.Problem.t * Grid.t) -> p.Netlist.Problem.height - 2)
    (route ?max_extra spec)
