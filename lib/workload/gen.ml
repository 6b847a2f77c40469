(* All generators draw pins from an explicit pool of free "slots" so no two
   pins ever collide; Problem.make still validates the result. *)

let take_slots prng pool k =
  (* Remove and return k random slots from the pool (a mutable list ref). *)
  let arr = Array.of_list !pool in
  Util.Prng.shuffle prng arr;
  let n = Array.length arr in
  let k = min k n in
  let taken = Array.sub arr 0 k |> Array.to_list in
  pool := Array.sub arr k (n - k) |> Array.to_list;
  taken

let channel_of_slot_nets ?(name = "rand-channel") ~tracks_slack ~columns nets_slots =
  (* nets_slots : (side, column) list list; side = `Top | `Bottom *)
  let top = Array.make columns 0 and bottom = Array.make columns 0 in
  List.iteri
    (fun i slots ->
      let id = i + 1 in
      List.iter
        (function
          | `Top, x -> top.(x) <- id
          | `Bottom, x -> bottom.(x) <- id)
        slots)
    nets_slots;
  (* Density of the provisional problem decides the track count. *)
  let provisional =
    Netlist.Build.channel ~name ~tracks:1 ~top ~bottom ()
  in
  let density = Netlist.Analysis.channel_density provisional in
  let tracks = max 1 (density + tracks_slack) in
  Netlist.Build.channel ~name ~tracks ~top ~bottom ()

let all_channel_slots columns =
  List.init columns (fun x -> [ (`Top, x); (`Bottom, x) ]) |> List.concat

let channel ?(name = "rand-channel") ?(tracks_slack = 2) ?(min_pins = 2)
    ?(max_pins = 4) prng ~columns ~nets =
  let pool = ref (all_channel_slots columns) in
  let nets_slots =
    List.init nets (fun _ ->
        take_slots prng pool (Util.Prng.int_in prng min_pins max_pins))
  in
  let nets_slots = List.filter (fun s -> List.length s >= 2) nets_slots in
  channel_of_slot_nets ~name ~tracks_slack ~columns nets_slots

let channel_at_density ?(name = "rand-channel") ?(tracks_slack = 0) prng
    ~columns ~density =
  let pool = ref (all_channel_slots columns) in
  let span_of slots =
    match List.map snd slots with
    | [] -> None
    | x :: rest ->
        let lo = List.fold_left min x rest
        and hi = List.fold_left max x rest in
        Some (Geom.Interval.make lo hi)
  in
  let current_density nets_slots =
    Geom.Interval.max_clique (List.filter_map span_of nets_slots)
  in
  let rec add acc =
    if current_density acc >= density || List.length !pool < 2 then acc
    else
      let k = Util.Prng.int_in prng 2 4 in
      let slots = take_slots prng pool k in
      if List.length slots >= 2 then add (slots :: acc) else acc
  in
  let nets_slots = List.rev (add []) in
  channel_of_slot_nets ~name ~tracks_slack ~columns nets_slots

type sb_slot = Top of int | Bottom of int | Left of int | Right of int

let switchbox_arrays ~width ~height nets_slots =
  let top = Array.make width 0
  and bottom = Array.make width 0
  and left = Array.make height 0
  and right = Array.make height 0 in
  List.iteri
    (fun i slots ->
      let id = i + 1 in
      List.iter
        (function
          | Top x -> top.(x) <- id
          | Bottom x -> bottom.(x) <- id
          | Left y -> left.(y) <- id
          | Right y -> right.(y) <- id)
        slots)
    nets_slots;
  (top, bottom, left, right)

let all_switchbox_slots ~width ~height =
  List.init width (fun x -> Top x)
  @ List.init width (fun x -> Bottom x)
  @ List.init (max 0 (height - 2)) (fun y -> Left (y + 1))
  @ List.init (max 0 (height - 2)) (fun y -> Right (y + 1))

let switchbox ?(name = "rand-switchbox") ?(min_pins = 2) ?(max_pins = 4) prng
    ~width ~height ~nets =
  let pool = ref (all_switchbox_slots ~width ~height) in
  let nets_slots =
    List.init nets (fun _ ->
        take_slots prng pool (Util.Prng.int_in prng min_pins max_pins))
    |> List.filter (fun s -> List.length s >= 2)
  in
  let top, bottom, left, right = switchbox_arrays ~width ~height nets_slots in
  Netlist.Build.switchbox ~name ~width ~height ~top ~bottom ~left ~right ()

let dense_switchbox ?(name = "dense-switchbox") ?(fill = 0.85) prng ~width
    ~height =
  let slots = Array.of_list (all_switchbox_slots ~width ~height) in
  Util.Prng.shuffle prng slots;
  let used = int_of_float (fill *. float_of_int (Array.length slots)) in
  let used = max 4 (used - (used mod 2)) in
  let rec group i acc =
    if i + 1 >= used then acc
    else if i + 2 < used && Util.Prng.chance prng 0.15 then
      group (i + 3) ([ slots.(i); slots.(i + 1); slots.(i + 2) ] :: acc)
    else group (i + 2) ([ slots.(i); slots.(i + 1) ] :: acc)
  in
  let nets_slots = group 0 [] in
  let top, bottom, left, right = switchbox_arrays ~width ~height nets_slots in
  Netlist.Build.switchbox ~name ~width ~height ~top ~bottom ~left ~right ()

(* Routable-by-construction switchboxes: actually route disjoint wires on an
   empty grid, then forget the wires and keep the endpoints as pins.  A
   hash-based per-cell cost noise makes the witness wires wiggle, which is
   what makes the instances hard for one-shot routing. *)
let routable_switchbox ?(name = "routable-switchbox") ?(fill = 0.9)
    ?(multi_pin_prob = 0.2) prng ~width ~height =
  let g = Grid.create ~width ~height () in
  let ws = Maze.Workspace.create g in
  let slots = Array.of_list (all_switchbox_slots ~width ~height) in
  Util.Prng.shuffle prng slots;
  let pin_of_slot = function
    | Top x -> Netlist.Net.pin ~layer:1 x (height - 1)
    | Bottom x -> Netlist.Net.pin ~layer:1 x 0
    | Left y -> Netlist.Net.pin ~layer:0 0 y
    | Right y -> Netlist.Net.pin ~layer:0 (width - 1) y
  in
  (* Reserve every slot cell so witness wires never run over future pins. *)
  let reserved = Array.length slots + 1 in
  Array.iter
    (fun s -> Grid.occupy g ~net:reserved (Maze.Route.pin_node g (pin_of_slot s)))
    slots;
  let kept = ref [] in
  let next_id = ref 0 in
  let cursor = ref 0 in
  let pop () =
    if !cursor >= Array.length slots then None
    else begin
      let s = slots.(!cursor) in
      incr cursor;
      Some s
    end
  in
  let continue = ref true in
  while !continue do
    if Grid.fill_ratio g >= fill then continue := false
    else begin
      let k = if Util.Prng.chance prng multi_pin_prob then 3 else 2 in
      let rec take n acc =
        if n = 0 then Some (List.rev acc)
        else match pop () with None -> None | Some s -> take (n - 1) (s :: acc)
      in
      match take k [] with
      | None -> continue := false
      | Some chosen ->
          incr next_id;
          let id = !next_id in
          let pins = List.map pin_of_slot chosen in
          let nodes = List.map (Maze.Route.pin_node g) pins in
          List.iter (Grid.release g) nodes;
          List.iter (Grid.occupy g ~net:id) nodes;
          let salt = Util.Prng.int prng 1_000_000 in
          let noise n = abs ((n * 2654435761) + salt) land 1 in
          let passable n =
            let v = Grid.occ g n in
            if v = Grid.free || v = id then Some (noise n) else None
          in
          let net = Netlist.Net.make ~id ~name:(Printf.sprintf "n%d" id) pins in
          (match
             Maze.Route.route_net ~passable:(Custom passable) g ws
               ~cost:Maze.Cost.default net
           with
          | Ok _ -> kept := (id, chosen) :: !kept
          | Error _ ->
              (* Unroutable pair at current congestion: put the slots back
                 under reservation and drop the net. *)
              List.iter (Grid.release g) nodes;
              List.iter (Grid.occupy g ~net:reserved) nodes;
              decr next_id)
    end
  done;
  let nets_slots = List.rev_map snd !kept in
  let top, bottom, left, right = switchbox_arrays ~width ~height nets_slots in
  Netlist.Build.switchbox ~name ~width ~height ~top ~bottom ~left ~right ()

(* Macro array with routing alleys: macros evenly spaced, alley width >= 3. *)
let chip_macros ~width ~height ~macro_cols ~macro_rows =
  let alley = 3 in
  let mw = (width - ((macro_cols + 1) * alley)) / macro_cols in
  let mh = (height - ((macro_rows + 1) * alley)) / macro_rows in
  if mw < 2 || mh < 2 then
    invalid_arg "Gen.routable_chip: region too small for the macro array";
  let rects = ref [] in
  for r = 0 to macro_rows - 1 do
    for c = 0 to macro_cols - 1 do
      let x0 = alley + (c * (mw + alley)) and y0 = alley + (r * (mh + alley)) in
      rects := Geom.Rect.make x0 y0 (x0 + mw - 1) (y0 + mh - 1) :: !rects
    done
  done;
  List.rev !rects

let routable_chip ?(name = "routable-chip") ?(macro_cols = 3) ?(macro_rows = 2)
    ?(fill = 0.45) ?(multi_pin_prob = 0.25) ?layers ?layer_dirs
    ?(slot_prob = 0.35) prng ~width ~height =
  let macros = chip_macros ~width ~height ~macro_cols ~macro_rows in
  let g = Grid.create ?layers ?dirs:layer_dirs ~width ~height () in
  List.iter (fun r -> Grid.block_rect g r) macros;
  let ws = Maze.Workspace.create g in
  (* Pin slots: free cells hugging a macro edge or on the chip boundary. *)
  let near_macro x y =
    List.exists
      (fun r -> Geom.Rect.mem (Geom.Rect.inflate r 1) x y)
      macros
  in
  let on_boundary x y = x = 0 || y = 0 || x = width - 1 || y = height - 1 in
  (* Only a fraction of the candidate cells become pin slots: reserving the
     whole macro ring would wall the alleys off for the witness wires. *)
  let slots = ref [] in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      if (near_macro x y || on_boundary x y)
         && Grid.occ_at g ~layer:0 ~x ~y = Grid.free
         && Util.Prng.chance prng slot_prob
      then slots := (x, y) :: !slots
    done
  done;
  let slots = Array.of_list !slots in
  Util.Prng.shuffle prng slots;
  (* Reserve each slot on a random layer; witness wires avoid them. *)
  let reserved = Array.length slots + 1 in
  let slot_layer =
    Array.map
      (fun (x, y) ->
        let layer = Util.Prng.int prng (Grid.layers g) in
        Grid.occupy g ~net:reserved (Grid.node g ~layer ~x ~y);
        layer)
      slots
  in
  let kept = ref [] in
  let next_id = ref 0 in
  let cursor = ref 0 in
  let pop () =
    if !cursor >= Array.length slots then None
    else begin
      let i = !cursor in
      incr cursor;
      Some i
    end
  in
  (* Reserved slot cells are not wiring: measure witness fill without
     them. *)
  let wire_fill () =
    let wired = ref 0 and usable = ref 0 in
    Grid.iter_nodes g (fun n ->
        let v = Grid.occ g n in
        if v <> Grid.obstacle then begin
          incr usable;
          if v > 0 && v <> reserved then incr wired
        end);
    if !usable = 0 then 1.0 else float_of_int !wired /. float_of_int !usable
  in
  let continue = ref true in
  while !continue do
    if wire_fill () >= fill then continue := false
    else begin
      let k = if Util.Prng.chance prng multi_pin_prob then 3 else 2 in
      let rec take n acc =
        if n = 0 then Some (List.rev acc)
        else match pop () with None -> None | Some i -> take (n - 1) (i :: acc)
      in
      match take k [] with
      | None -> continue := false
      | Some chosen ->
          incr next_id;
          let id = !next_id in
          let pins =
            List.map
              (fun i ->
                let x, y = slots.(i) in
                Netlist.Net.pin ~layer:slot_layer.(i) x y)
              chosen
          in
          let nodes = List.map (Maze.Route.pin_node g) pins in
          List.iter (Grid.release g) nodes;
          List.iter (Grid.occupy g ~net:id) nodes;
          let salt = Util.Prng.int prng 1_000_000 in
          let noise n = abs ((n * 2654435761) + salt) land 1 in
          let passable n =
            let v = Grid.occ g n in
            if v = Grid.free || v = id then Some (noise n) else None
          in
          let net = Netlist.Net.make ~id ~name:(Printf.sprintf "n%d" id) pins in
          (match
             Maze.Route.route_net ~passable:(Custom passable) g ws
               ~cost:Maze.Cost.default net
           with
          | Ok _ -> kept := (id, pins) :: !kept
          | Error _ ->
              List.iter (Grid.release g) nodes;
              List.iter (Grid.occupy g ~net:reserved) nodes;
              decr next_id)
    end
  done;
  let pairs =
    List.concat_map (fun (id, pins) -> List.map (fun p -> (id, p)) pins) !kept
  in
  let obstructions =
    List.map
      (fun r -> { Netlist.Problem.obs_layer = None; obs_rect = r })
      macros
  in
  Netlist.Build.of_pins ~name ~kind:Netlist.Problem.Region ~obstructions
    ?layers ?layer_dirs ~width ~height pairs

(* Chip-scale instances: the witness-wire recipe of [routable_chip]
   cannot reach four-digit net counts — its unwindowed wiggly wires
   wander across the whole region, so a handful of nets saturates the
   fill budget.  Here nets are {e local}: pin slots are bucketed into
   blocks, nets draw their pins from (mostly) one block, and each
   witness wire routes inside its pin bounding box grown by [window]
   cells.  Short wires → thousands of provably routable nets. *)
let chip_scale ?(name = "chip-scale") ?(macro_cols = 7) ?(macro_rows = 5)
    ?(layers = 3) ?layer_dirs ?(slot_prob = 0.6) ?(multi_pin_prob = 0.2)
    ?(window = 10) prng ~width ~height =
  let macros = chip_macros ~width ~height ~macro_cols ~macro_rows in
  let g = Grid.create ~layers ?dirs:layer_dirs ~width ~height () in
  List.iter (fun r -> Grid.block_rect g r) macros;
  let ws = Maze.Workspace.create g in
  let near_macro x y =
    List.exists (fun r -> Geom.Rect.mem (Geom.Rect.inflate r 1) x y) macros
  in
  let on_boundary x y = x = 0 || y = 0 || x = width - 1 || y = height - 1 in
  let slots = ref [] in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      if (near_macro x y || on_boundary x y)
         && Grid.occ_at g ~layer:0 ~x ~y = Grid.free
         && Util.Prng.chance prng slot_prob
      then slots := (x, y) :: !slots
    done
  done;
  let slots = Array.of_list !slots in
  Util.Prng.shuffle prng slots;
  let reserved = Array.length slots + 1 in
  let slot_layer =
    Array.map
      (fun (x, y) ->
        let layer = Util.Prng.int prng layers in
        Grid.occupy g ~net:reserved (Grid.node g ~layer ~x ~y);
        layer)
      slots
  in
  (* Locality: stable-sort the shuffled slots by block; consecutive
     slots then mostly share a block, so popping consecutive groups
     yields local nets (the occasional block-spanning group just gets a
     larger search box). *)
  let block = max 8 (2 * window) in
  let blocks_x = (width + block - 1) / block in
  let bucket (x, y) = ((y / block) * blocks_x) + (x / block) in
  let order = Array.init (Array.length slots) Fun.id in
  Array.sort
    (fun a b ->
      let ba = bucket slots.(a) and bb = bucket slots.(b) in
      if ba <> bb then compare ba bb else compare a b)
    order;
  let kept = ref [] in
  let next_id = ref 0 in
  let cursor = ref 0 in
  let pop () =
    if !cursor >= Array.length order then None
    else begin
      let i = order.(!cursor) in
      incr cursor;
      Some i
    end
  in
  let continue = ref true in
  while !continue do
    let k = if Util.Prng.chance prng multi_pin_prob then 3 else 2 in
    let rec take n acc =
      if n = 0 then Some (List.rev acc)
      else match pop () with None -> None | Some i -> take (n - 1) (i :: acc)
    in
    match take k [] with
    | None -> continue := false
    | Some chosen ->
        incr next_id;
        let id = !next_id in
        let pins =
          List.map
            (fun i ->
              let x, y = slots.(i) in
              Netlist.Net.pin ~layer:slot_layer.(i) x y)
            chosen
        in
        let nodes = List.map (Maze.Route.pin_node g) pins in
        List.iter (Grid.release g) nodes;
        List.iter (Grid.occupy g ~net:id) nodes;
        let salt = Util.Prng.int prng 1_000_000 in
        let noise n = abs ((n * 2654435761) + salt) land 1 in
        let passable n =
          let v = Grid.occ g n in
          if v = Grid.free || v = id then Some (noise n) else None
        in
        let net = Netlist.Net.make ~id ~name:(Printf.sprintf "n%d" id) pins in
        (match
           Maze.Route.route_net ~passable:(Custom passable)
             ~window:(Maze.Search.Margin window) g ws ~cost:Maze.Cost.default
             net
         with
        | Ok _ -> kept := (id, pins) :: !kept
        | Error _ ->
            List.iter (Grid.release g) nodes;
            List.iter (Grid.occupy g ~net:reserved) nodes;
            decr next_id)
  done;
  let pairs =
    List.concat_map (fun (id, pins) -> List.map (fun p -> (id, p)) pins) !kept
  in
  let obstructions =
    List.map
      (fun r -> { Netlist.Problem.obs_layer = None; obs_rect = r })
      macros
  in
  Netlist.Build.of_pins ~name ~kind:Netlist.Problem.Region ~obstructions
    ~layers ?layer_dirs ~width ~height pairs

let region ?(name = "rand-region") ?(obstacle_rects = 3) ?(min_pins = 2)
    ?(max_pins = 4) prng ~width ~height ~nets =
  let obstructions = ref [] in
  for _ = 1 to obstacle_rects do
    let rw = Util.Prng.int_in prng 1 (max 1 (width / 4))
    and rh = Util.Prng.int_in prng 1 (max 1 (height / 4)) in
    let x0 = Util.Prng.int prng (max 1 (width - rw))
    and y0 = Util.Prng.int prng (max 1 (height - rh)) in
    obstructions :=
      {
        Netlist.Problem.obs_layer = None;
        obs_rect = Geom.Rect.make x0 y0 (x0 + rw - 1) (y0 + rh - 1);
      }
      :: !obstructions
  done;
  let blocked x y =
    List.exists
      (fun (o : Netlist.Problem.obstruction) ->
        Geom.Rect.mem o.Netlist.Problem.obs_rect x y)
      !obstructions
  in
  let free_cells = ref [] in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      if not (blocked x y) then free_cells := (x, y) :: !free_cells
    done
  done;
  let pool = ref !free_cells in
  let pairs = ref [] in
  for i = 1 to nets do
    let k = Util.Prng.int_in prng min_pins max_pins in
    let slots = take_slots prng pool k in
    if List.length slots >= 2 then
      List.iter
        (fun (x, y) ->
          let layer = Util.Prng.int prng Grid.default_layers in
          pairs := (i, Netlist.Net.pin ~layer x y) :: !pairs)
        slots
  done;
  Netlist.Build.of_pins ~name ~kind:Netlist.Problem.Region
    ~obstructions:!obstructions ~width ~height !pairs

(* --- macro-instance problems (placement flow) ----------------------- *)

let macro ?(name = "rand-macro") ?(macros = 6) ?(fixed_first = true) prng
    ~width ~height ~nets =
  if width < 24 || height < 24 then
    invalid_arg "Gen.macro: region too small for macro instances";
  let base = max 3 (min width height / 10) in
  (* Perimeter pin slots of a w×h footprint, anchor-relative. *)
  let perimeter w h =
    List.concat
      [
        List.init h (fun dy -> (-1, dy));
        List.init h (fun dy -> (w, dy));
        List.init w (fun dx -> (dx, -1));
        List.init w (fun dx -> (dx, h));
      ]
  in
  let inst_dims = Array.init macros (fun _ ->
      (Util.Prng.int_in prng base (2 * base),
       Util.Prng.int_in prng base (2 * base)))
  in
  let inst_slots =
    Array.map (fun (w, h) -> ref (perimeter w h)) inst_dims
  in
  (* Boundary slots for fixed chip pins; step 2 keeps neighbours free. *)
  let boundary = ref [] in
  let half_w = (width - 1) / 2 and half_h = (height - 1) / 2 in
  for i = 1 to half_w do
    boundary := (2 * i, 0) :: (2 * i, height - 1) :: !boundary
  done;
  for i = 1 to half_h do
    boundary := (0, 2 * i) :: (width - 1, 2 * i) :: !boundary
  done;
  let bpool = ref !boundary in
  (* Net plan: net 1 is the clock (a pin on every instance), net 2 the
     power rail (likewise); the rest are 2–3-instance signal nets, some
     with an extra chip-boundary pin. *)
  let ipins = Array.make macros [] in
  let fixed_pins = Array.make nets [] in
  let add_ipin net i =
    match !(inst_slots.(i)) with
    | [] -> ()
    | _ ->
        let dx, dy = take_slots prng inst_slots.(i) 1 |> List.hd in
        ipins.(i) <-
          { Netlist.Problem.ip_net = net; ip_dx = dx; ip_dy = dy;
            ip_layer = 0 }
          :: ipins.(i)
  in
  let nets = max nets 3 in
  for n = 1 to nets do
    if n <= 2 then
      for i = 0 to macros - 1 do add_ipin n i done
    else begin
      let k = Util.Prng.int_in prng 2 (min 3 macros) in
      let picked = Array.init macros (fun i -> i) in
      Util.Prng.shuffle prng picked;
      for j = 0 to k - 1 do add_ipin n picked.(j) done;
      if Util.Prng.chance prng 0.3 && !bpool <> [] then begin
        let x, y = take_slots prng bpool 1 |> List.hd in
        fixed_pins.(n - 1) <-
          Netlist.Net.pin ~layer:0 x y :: fixed_pins.(n - 1)
      end
    end
  done;
  let net_list =
    List.init nets (fun i ->
        let id = i + 1 in
        let name, cls =
          if id = 1 then ("clk", Netlist.Net.Clock)
          else if id = 2 then ("vdd", Netlist.Net.Power)
          else (Printf.sprintf "n%d" id, Netlist.Net.Signal)
        in
        Netlist.Net.make ~cls ~id ~name fixed_pins.(i))
  in
  let insts =
    List.init macros (fun i ->
        let w, h = inst_dims.(i) in
        let fixed = fixed_first && i = 0 in
        {
          Netlist.Problem.inst_name = Printf.sprintf "m%d" (i + 1);
          inst_w = w;
          inst_h = h;
          inst_fixed = fixed;
          inst_loc = (if fixed then Some (2, 2) else None);
          inst_pins = List.rev ipins.(i);
        })
  in
  Netlist.Problem.make ~kind:Netlist.Problem.Region ~insts ~name ~width
    ~height net_list
