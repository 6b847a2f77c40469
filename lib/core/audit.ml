exception Inconsistent of string

let check_grid problem grid =
  let findings = ref [] in
  let add fmt = Printf.ksprintf (fun s -> findings := s :: !findings) fmt in
  let nets = Netlist.Problem.net_count problem in
  Grid.iter_nodes grid (fun n ->
      let v = Grid.occ grid n in
      if v <> Grid.obstacle && (v < Grid.free || v > nets) then
        add "node %d: occupancy %d is not a net id of the problem" n v);
  Grid.iter_via_pairs grid (fun ~layer ~x ~y ->
      let a = Grid.occ_at grid ~layer ~x ~y
      and b = Grid.occ_at grid ~layer:(layer + 1) ~x ~y in
      if a <= 0 || a <> b then
        add "orphaned via at (%d,%d) pair %d: layer owners %d/%d" x y layer a
          b);
  List.iter
    (fun (id, (p : Netlist.Net.pin)) ->
      let v = Grid.occ_at grid ~layer:p.layer ~x:p.x ~y:p.y in
      if v <> id then
        add "pin of net %d at (%d,%d,l%d) owned by %d" id p.x p.y p.layer v)
    (Netlist.Problem.pin_cells problem);
  List.iter
    (fun (o : Netlist.Problem.obstruction) ->
      Geom.Rect.iter o.obs_rect (fun x y ->
          if Grid.in_bounds grid ~x ~y then
            let layers =
              match o.obs_layer with
              | Some l -> [ l ]
              | None -> List.init (Grid.layers grid) Fun.id
            in
            List.iter
              (fun layer ->
                if Grid.occ_at grid ~layer ~x ~y <> Grid.obstacle then
                  add "obstruction cell (%d,%d,l%d) is not an obstacle" x y
                    layer)
              layers))
    problem.Netlist.Problem.obstructions;
  List.rev !findings

let check_net_connected problem grid id =
  let nodes = Grid.occupied_nodes grid ~net:id in
  match nodes with
  | [] -> [ Printf.sprintf "net %d: marked routed but owns no cells" id ]
  | seed :: _ ->
      let seen = Grid.flood_net grid ~net:id seed in
      let findings = ref [] in
      List.iter
        (fun n ->
          if not (Hashtbl.mem seen n) then
            findings :=
              Printf.sprintf "net %d: cell (%d,%d,l%d) disconnected" id
                (Grid.node_x grid n) (Grid.node_y grid n)
                (Grid.node_layer grid n)
              :: !findings)
        nodes;
      List.iter
        (fun (p : Netlist.Net.pin) ->
          let n = Grid.node grid ~layer:p.layer ~x:p.x ~y:p.y in
          if not (Hashtbl.mem seen n) then
            findings :=
              Printf.sprintf "net %d: pin (%d,%d,l%d) disconnected" id p.x p.y
                p.layer
              :: !findings)
        (Netlist.Problem.net problem id).Netlist.Net.pins;
      List.rev !findings

let require ~where = function
  | [] -> ()
  | findings ->
      raise
        (Inconsistent
           (Printf.sprintf "%s: %s" where (String.concat "; " findings)))
