type kind = Switchbox | Channel | Region

type obstruction = { obs_layer : int option; obs_rect : Geom.Rect.t }

type prewire = {
  pre_net : int;
  pre_cells : (int * int * int) list;
  pre_fixed : bool;
}

type ipin = { ip_net : int; ip_dx : int; ip_dy : int; ip_layer : int }

type inst = {
  inst_name : string;
  inst_w : int;
  inst_h : int;
  inst_fixed : bool;
  inst_loc : (int * int) option;
  inst_pins : ipin list;
}

type t = {
  name : string;
  width : int;
  height : int;
  layers : int;
  layer_dirs : bool array;
  kind : kind;
  nets : Net.t array;
  obstructions : obstruction list;
  prewires : prewire list;
  insts : inst list;
}

let fail fmt = Printf.ksprintf invalid_arg fmt

let obstructs obstructions ~layer ~x ~y =
  List.exists
    (fun o ->
      Geom.Rect.mem o.obs_rect x y
      && match o.obs_layer with None -> true | Some l -> l = layer)
    obstructions

let validate p =
  Array.iteri
    (fun i (n : Net.t) ->
      if n.Net.id <> i + 1 then
        fail "Problem %s: net %s has id %d, expected %d" p.name n.Net.name
          n.Net.id (i + 1))
    p.nets;
  let cell_owner = Hashtbl.create 64 in
  let claim ~what net_id layer x y =
    if x < 0 || x >= p.width || y < 0 || y >= p.height || layer < 0
       || layer >= p.layers
    then fail "Problem %s: %s of net %d out of bounds (%d,%d)L%d" p.name what net_id x y layer;
    if obstructs p.obstructions ~layer ~x ~y then
      fail "Problem %s: %s of net %d sits on an obstruction at (%d,%d)L%d"
        p.name what net_id x y layer;
    let node = (((layer * p.height) + y) * p.width) + x in
    match Hashtbl.find_opt cell_owner node with
    | Some other when other <> net_id ->
        fail "Problem %s: nets %d and %d share cell (%d,%d)L%d" p.name other
          net_id x y layer
    | Some _ | None -> Hashtbl.replace cell_owner node net_id
  in
  Array.iter
    (fun (n : Net.t) ->
      List.iter
        (fun (pin : Net.pin) ->
          claim ~what:"pin" n.Net.id pin.Net.layer pin.Net.x pin.Net.y)
        n.Net.pins)
    p.nets;
  List.iter
    (fun pw ->
      if pw.pre_net <= 0 || pw.pre_net > Array.length p.nets then
        fail "Problem %s: prewire references unknown net %d" p.name pw.pre_net;
      List.iter
        (fun (layer, x, y) -> claim ~what:"prewire" pw.pre_net layer x y)
        pw.pre_cells)
    p.prewires;
  (* Placement section.  Placed footprints and pins must be in bounds;
     everything finer-grained (footprint overlap, pin collisions) is
     validated when [realize] rebuilds a plain routable problem, because
     an unplaced instance has no absolute geometry to check yet. *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun inst ->
      if inst.inst_name = "" then fail "Problem %s: unnamed instance" p.name;
      if Hashtbl.mem seen inst.inst_name then
        fail "Problem %s: duplicate instance %s" p.name inst.inst_name;
      Hashtbl.add seen inst.inst_name ();
      if inst.inst_w <= 0 || inst.inst_h <= 0 then
        fail "Problem %s: instance %s has an empty footprint" p.name
          inst.inst_name;
      if inst.inst_fixed && inst.inst_loc = None then
        fail "Problem %s: fixed instance %s has no location" p.name
          inst.inst_name;
      List.iter
        (fun ip ->
          if ip.ip_net <= 0 || ip.ip_net > Array.length p.nets then
            fail "Problem %s: instance %s pin references unknown net %d"
              p.name inst.inst_name ip.ip_net;
          if ip.ip_layer < 0 || ip.ip_layer >= p.layers then
            fail "Problem %s: instance %s pin on bad layer %d" p.name
              inst.inst_name ip.ip_layer;
          if
            ip.ip_dx >= 0 && ip.ip_dx < inst.inst_w && ip.ip_dy >= 0
            && ip.ip_dy < inst.inst_h
          then
            fail
              "Problem %s: instance %s pin offset (%d,%d) inside the \
               footprint"
              p.name inst.inst_name ip.ip_dx ip.ip_dy)
        inst.inst_pins;
      match inst.inst_loc with
      | None -> ()
      | Some (x, y) ->
          if
            x < 0 || y < 0 || x + inst.inst_w > p.width
            || y + inst.inst_h > p.height
          then
            fail "Problem %s: instance %s footprint out of bounds at (%d,%d)"
              p.name inst.inst_name x y;
          List.iter
            (fun ip ->
              let px = x + ip.ip_dx and py = y + ip.ip_dy in
              if px < 0 || px >= p.width || py < 0 || py >= p.height then
                fail
                  "Problem %s: instance %s pin out of bounds at (%d,%d)"
                  p.name inst.inst_name px py)
            inst.inst_pins)
    p.insts

let make ?(kind = Region) ?(obstructions = []) ?(prewires = []) ?(insts = [])
    ?(layers = Grid.default_layers) ?layer_dirs ~name ~width ~height nets =
  if width <= 0 || height <= 0 then fail "Problem %s: empty region" name;
  if layers < 2 then fail "Problem %s: at least two layers" name;
  let layer_dirs =
    match layer_dirs with Some d -> d | None -> Grid.default_dirs layers
  in
  if Array.length layer_dirs <> layers then
    fail "Problem %s: one direction per layer" name;
  let p =
    {
      name;
      width;
      height;
      layers;
      layer_dirs;
      kind;
      nets = Array.of_list nets;
      obstructions;
      prewires;
      insts;
    }
  in
  validate p;
  p

(* The default stack — the one every problem that does not say otherwise
   gets, and the one the printer elides. *)
let default_stack p =
  p.layers = Grid.default_layers
  && p.layer_dirs = Grid.default_dirs p.layers

let net_count p = Array.length p.nets

let net p id =
  if id < 1 || id > Array.length p.nets then
    fail "Problem %s: unknown net id %d" p.name id;
  p.nets.(id - 1)

let find_net p name =
  Array.find_opt (fun (n : Net.t) -> n.Net.name = name) p.nets

let nontrivial_net_ids p =
  Array.to_list p.nets
  |> List.filter (fun n -> not (Net.is_trivial n))
  |> List.map (fun (n : Net.t) -> n.Net.id)

let pin_cells p =
  Array.to_list p.nets
  |> List.concat_map (fun (n : Net.t) ->
         List.map (fun pin -> (n.Net.id, pin)) n.Net.pins)

let total_pins p =
  Array.fold_left (fun acc n -> acc + Net.pin_count n) 0 p.nets

let has_insts p = p.insts <> []

let placed p =
  List.for_all (fun inst -> inst.inst_loc <> None) p.insts

let find_inst p name =
  List.find_opt (fun inst -> inst.inst_name = name) p.insts

let inst_rect inst =
  match inst.inst_loc with
  | None -> None
  | Some (x, y) ->
      Some (Geom.Rect.make x y (x + inst.inst_w - 1) (y + inst.inst_h - 1))

let with_placement p locs =
  let insts =
    List.map
      (fun inst ->
        match List.assoc_opt inst.inst_name locs with
        | None -> inst
        | Some loc ->
            if inst.inst_fixed then
              fail "Problem %s: cannot move fixed instance %s" p.name
                inst.inst_name;
            { inst with inst_loc = Some loc })
      p.insts
  in
  make ~kind:p.kind ~obstructions:p.obstructions ~prewires:p.prewires ~insts
    ~layers:p.layers ~layer_dirs:p.layer_dirs ~name:p.name ~width:p.width
    ~height:p.height
    (Array.to_list p.nets)

let realize p =
  if p.insts = [] then p
  else begin
    List.iter
      (fun inst ->
        if inst.inst_loc = None then
          fail "Problem %s: cannot realize unplaced instance %s" p.name
            inst.inst_name)
      p.insts;
    let extra_obs =
      List.map
        (fun inst ->
          { obs_layer = None; obs_rect = Option.get (inst_rect inst) })
        p.insts
    in
    (* Instance pins become absolute net pins, appended in instance
       declaration order so realization is deterministic. *)
    let extra_pins = Array.make (Array.length p.nets) [] in
    List.iter
      (fun inst ->
        let x, y = Option.get inst.inst_loc in
        List.iter
          (fun ip ->
            let pin =
              Net.pin ~layer:ip.ip_layer (x + ip.ip_dx) (y + ip.ip_dy)
            in
            extra_pins.(ip.ip_net - 1) <-
              pin :: extra_pins.(ip.ip_net - 1))
          inst.inst_pins)
      p.insts;
    let nets =
      Array.to_list
        (Array.mapi
           (fun i (n : Net.t) ->
             Net.make ~cls:n.Net.cls ~id:n.Net.id ~name:n.Net.name
               (n.Net.pins @ List.rev extra_pins.(i)))
           p.nets)
    in
    make ~kind:p.kind
      ~obstructions:(p.obstructions @ extra_obs)
      ~prewires:p.prewires ~layers:p.layers ~layer_dirs:p.layer_dirs
      ~name:p.name ~width:p.width ~height:p.height nets
  end

let instantiate p =
  let g =
    Grid.create ~layers:p.layers ~dirs:p.layer_dirs ~width:p.width
      ~height:p.height ()
  in
  List.iter
    (fun o ->
      match o.obs_layer with
      | Some layer -> Grid.block_rect g ~layer o.obs_rect
      | None -> Grid.block_rect g o.obs_rect)
    p.obstructions;
  Array.iter
    (fun (n : Net.t) ->
      List.iter
        (fun (pin : Net.pin) ->
          Grid.occupy g ~net:n.Net.id
            (Grid.node g ~layer:pin.Net.layer ~x:pin.Net.x ~y:pin.Net.y))
        n.Net.pins)
    p.nets;
  List.iter
    (fun pw ->
      List.iter
        (fun (layer, x, y) ->
          Grid.occupy g ~net:pw.pre_net (Grid.node g ~layer ~x ~y))
        pw.pre_cells;
      (* A prewire occupying two adjacent layers of a position implies a
         via pair between them. *)
      List.iter
        (fun (layer, x, y) ->
          if layer + 1 < p.layers
             && List.exists
                  (fun (l, x', y') -> l = layer + 1 && x' = x && y' = y)
                  pw.pre_cells
          then Grid.set_via ~layer g ~x ~y)
        pw.pre_cells)
    p.prewires;
  g

let pp fmt p =
  Format.fprintf fmt "%s: %dx%d %s, %d nets, %d pins" p.name p.width p.height
    (match p.kind with
    | Switchbox -> "switchbox"
    | Channel -> "channel"
    | Region -> "region")
    (net_count p) (total_pins p);
  if p.insts <> [] then
    Format.fprintf fmt ", %d insts (%d unplaced)" (List.length p.insts)
      (List.length (List.filter (fun i -> i.inst_loc = None) p.insts))
