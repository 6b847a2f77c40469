type failure = { failed_net : int; unreached : Netlist.Net.pin }

type success = {
  added : int list;
  wirelength : int;
  vias : int;
  expanded : int;
}

let pin_node g (pin : Netlist.Net.pin) =
  Grid.node g ~layer:pin.Netlist.Net.layer ~x:pin.Netlist.Net.x ~y:pin.Netlist.Net.y

let occupy_path g ~net path =
  let added = ref [] in
  List.iter
    (fun n ->
      if Grid.occ g n <> net then begin
        Grid.occupy g ~net n;
        added := n :: !added
      end)
    path;
  (* Via pairs at layer-change steps: the pair is addressed by the lower
     of the two layers it joins. *)
  let rec vias = function
    | a :: (b :: _ as rest) ->
        let la = Grid.node_layer g a and lb = Grid.node_layer g b in
        if la <> lb then
          Grid.set_via ~layer:(min la lb) g ~x:(Grid.node_x g a)
            ~y:(Grid.node_y g a);
        vias rest
    | [] | [ _ ] -> ()
  in
  vias path;
  !added

let release_nodes g nodes = List.iter (Grid.release g) nodes

(* Prim-style connection sequence of a net, without touching the grid:
   the tree starts at the first pin's node and every search targets all
   still-unconnected pins at once, so the search naturally picks the
   nearest one.  Returns the found connections in order, each with its
   expansion count, and the pins still unconnected when a search failed
   or aborted ([] when every pin was reached). *)
let plan ?kernel ?heuristic ?window ?stop g ws ~cost ~passable
    (net : Netlist.Net.t) =
  match net.Netlist.Net.pins with
  | [] | [ _ ] -> ([], [])
  | first :: rest ->
      let rec loop tree remaining acc =
        match remaining with
        | [] -> (List.rev acc, [])
        | _ -> (
            match
              Search.run ?kernel ?heuristic ?window ?stop g ws ~cost
                ~passable ~sources:tree
                ~targets:(List.map fst remaining) ()
            with
            | None -> (List.rev acc, remaining)
            | Some r ->
                let reached =
                  match List.rev r.Search.path with
                  | last :: _ -> last
                  | [] -> assert false
                in
                loop (r.Search.path @ tree)
                  (List.filter (fun (n, _) -> n <> reached) remaining)
                  ((r.Search.path, r.Search.expanded) :: acc))
      in
      loop [ pin_node g first ] (List.map (fun p -> (pin_node g p, p)) rest) []

(* The searches of a plan are exact replicas of a mutating run's: the
   only cells a mutating run would have changed are the planned path
   cells, which it makes self-owned — and the passability prices
   self-owned and free cells alike, so every later search sees identical
   passability either way. *)
let plan_net ?kernel ?heuristic ?window g ws ~cost ~passable net =
  match plan ?kernel ?heuristic ?window g ws ~cost ~passable net with
  | segs, [] -> Some segs
  | _, _ :: _ -> None

let route_net ?passable ?kernel ?heuristic ?window ?stop g ws ~cost
    (net : Netlist.Net.t) =
  let net_id = net.Netlist.Net.id in
  let passable =
    match passable with Some p -> p | None -> Search.Own net_id
  in
  match
    plan ?kernel ?heuristic ?window ?stop g ws ~cost ~passable net
  with
  | _, (_, unreached) :: _ -> Error { failed_net = net_id; unreached }
  | segs, [] ->
      Ok
        (List.fold_left
           (fun acc (path, expanded) ->
             let added = occupy_path g ~net:net_id path in
             {
               added = added @ acc.added;
               wirelength = acc.wirelength + Grid.Path.wirelength g path;
               vias = acc.vias + Grid.Path.via_steps g path;
               expanded = acc.expanded + expanded;
             })
           { added = []; wirelength = 0; vias = 0; expanded = 0 }
           segs)
