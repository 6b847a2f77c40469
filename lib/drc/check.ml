type violation =
  | Net_disconnected of { net : int; components : int }
  | Pin_not_owned of { net : int; pin : Netlist.Net.pin }
  | Via_mismatch of { x : int; y : int }
  | Wire_on_obstruction of { net : int; layer : int; x : int; y : int }

(* One union-find over every owned cell.  Unions only ever join two cells
   of one net, so each net's pieces are exactly the roots among its
   cells. *)
let component_counts g ~nets =
  let uf = Util.Union_find.create (Grid.node_count g) in
  let w = Grid.width g and h = Grid.height g in
  let owner n =
    let v = Grid.occ g n in
    if v >= 1 && v <= nets then v else 0
  in
  for layer = 0 to Grid.layers g - 1 do
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        let n = Grid.node g ~layer ~x ~y in
        let v = owner n in
        if v > 0 then begin
          if x + 1 < w && Grid.occ g (n + 1) = v then
            Util.Union_find.union uf n (n + 1);
          if y + 1 < h && Grid.occ g (n + w) = v then
            Util.Union_find.union uf n (n + w);
          if Grid.via_above g n && Grid.occ g (Grid.node_above g n) = v then
            Util.Union_find.union uf n (Grid.node_above g n)
        end
      done
    done
  done;
  let counts = Array.make (nets + 1) 0 in
  for n = 0 to Grid.node_count g - 1 do
    let v = owner n in
    if v > 0 && Util.Union_find.find uf n = n then counts.(v) <- counts.(v) + 1
  done;
  counts

let connected_components g ~net = (component_counts g ~nets:net).(net)

let check ?nets problem g =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  (* Pin ownership. *)
  List.iter
    (fun (net, (pin : Netlist.Net.pin)) ->
      if
        Grid.occ_at g ~layer:pin.Netlist.Net.layer ~x:pin.Netlist.Net.x
          ~y:pin.Netlist.Net.y
        <> net
      then add (Pin_not_owned { net; pin }))
    (Netlist.Problem.pin_cells problem);
  (* Obstruction integrity. *)
  List.iter
    (fun (o : Netlist.Problem.obstruction) ->
      Geom.Rect.iter o.Netlist.Problem.obs_rect (fun x y ->
          if Grid.in_bounds g ~x ~y then
            let layers =
              match o.Netlist.Problem.obs_layer with
              | None -> List.init (Grid.layers g) Fun.id
              | Some l -> [ l ]
            in
            List.iter
              (fun layer ->
                let v = Grid.occ_at g ~layer ~x ~y in
                if v > 0 then add (Wire_on_obstruction { net = v; layer; x; y }))
              layers))
    problem.Netlist.Problem.obstructions;
  (* Via legality: each pair must join two cells of one positive owner. *)
  Grid.iter_via_pairs g (fun ~layer ~x ~y ->
      let a = Grid.occ_at g ~layer ~x ~y
      and b = Grid.occ_at g ~layer:(layer + 1) ~x ~y in
      if a <= 0 || a <> b then add (Via_mismatch { x; y }));
  (* Connectivity. *)
  let net_ids =
    match nets with
    | Some ids -> ids
    | None -> List.init (Netlist.Problem.net_count problem) (fun i -> i + 1)
  in
  let counts =
    component_counts g ~nets:(Netlist.Problem.net_count problem)
  in
  List.iter
    (fun net ->
      let n = Netlist.Problem.net problem net in
      if Netlist.Net.pin_count n > 0 then begin
        let components = counts.(net) in
        if components <> 1 then add (Net_disconnected { net; components })
      end)
    net_ids;
  List.rev !violations

let is_clean ?nets problem g = check ?nets problem g = []

let pp_violation fmt = function
  | Net_disconnected { net; components } ->
      Format.fprintf fmt "net %d split into %d components" net components
  | Pin_not_owned { net; pin } ->
      Format.fprintf fmt "pin %a of net %d not owned by the net"
        Netlist.Net.pp_pin pin net
  | Via_mismatch { x; y } ->
      Format.fprintf fmt "illegal via at (%d,%d)" x y
  | Wire_on_obstruction { net; layer; x; y } ->
      Format.fprintf fmt "net %d wired over obstruction at (%d,%d)L%d" net x y
        layer

let explain violations =
  String.concat "\n"
    (List.map (Format.asprintf "%a" pp_violation) violations)
