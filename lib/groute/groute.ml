type class_rule = {
  priority : int;
  demand : int;
  cost_mult : int;
  share_pct : int;
  margin : int;
}

let rule = function
  | Netlist.Net.Clock ->
      { priority = 0; demand = 1; cost_mult = 4; share_pct = 50; margin = 4 }
  | Netlist.Net.Power ->
      { priority = 1; demand = 2; cost_mult = 2; share_pct = 50; margin = 3 }
  | Netlist.Net.Signal ->
      { priority = 2; demand = 1; cost_mult = 1; share_pct = 100; margin = 2 }

let cls_index = function
  | Netlist.Net.Signal -> 0
  | Netlist.Net.Clock -> 1
  | Netlist.Net.Power -> 2

type t = {
  tile : int;
  tiles_x : int;
  tiles_y : int;
  capacity : int array;
  usage : int array;
  class_usage : int array array;
  guides : Geom.Rect.t option array;
  overflow_tiles : int;
}

(* A tile's capacity in units: unblocked cells (both layers) per cell-row
   of the tile, i.e. roughly its crossing track count.  Obstruction-heavy
   tiles (macro footprints) end up near zero and repel the router. *)
let capacities problem ~tile ~tiles_x ~tiles_y =
  let w = problem.Netlist.Problem.width
  and h = problem.Netlist.Problem.height in
  let nlayers = problem.Netlist.Problem.layers in
  let blocked = Array.make (nlayers * w * h) false in
  List.iter
    (fun (o : Netlist.Problem.obstruction) ->
      let layers =
        match o.Netlist.Problem.obs_layer with
        | None -> List.init nlayers Fun.id
        | Some l -> [ l ]
      in
      Geom.Rect.iter o.Netlist.Problem.obs_rect (fun x y ->
          if x >= 0 && x < w && y >= 0 && y < h then
            List.iter
              (fun l -> blocked.((l * w * h) + (y * w) + x) <- true)
              layers))
    problem.Netlist.Problem.obstructions;
  let cap = Array.make (tiles_x * tiles_y) 0 in
  for ty = 0 to tiles_y - 1 do
    for tx = 0 to tiles_x - 1 do
      let free = ref 0 in
      for y = ty * tile to min (h - 1) (((ty + 1) * tile) - 1) do
        for x = tx * tile to min (w - 1) (((tx + 1) * tile) - 1) do
          for l = 0 to nlayers - 1 do
            if not blocked.((l * w * h) + (y * w) + x) then incr free
          done
        done
      done;
      cap.((ty * tiles_x) + tx) <- !free / tile
    done
  done;
  cap

(* Prim-style tile routing of one net: grow a tile tree from the first
   pin tile, each Dijkstra joining the nearest remaining pin tile.
   Returns every tile of the tree (each once). *)
let route_net ~tiles_x ~tiles_y ~enter_cost pin_tiles =
  let n = tiles_x * tiles_y in
  let dist = Array.make n max_int in
  let parent = Array.make n (-1) in
  let in_tree = Array.make n false in
  let q = Util.Pqueue.create () in
  match pin_tiles with
  | [] -> []
  | first :: rest ->
      in_tree.(first) <- true;
      let tree = ref [ first ] in
      let remaining = ref (List.filter (fun t -> t <> first) rest) in
      while !remaining <> [] do
        Array.fill dist 0 n max_int;
        Array.fill parent 0 n (-1);
        Util.Pqueue.clear q;
        List.iter
          (fun t ->
            dist.(t) <- 0;
            Util.Pqueue.push q 0 t)
          !tree;
        let target = Array.make n false in
        List.iter (fun t -> target.(t) <- true) !remaining;
        let reached = ref (-1) in
        while !reached < 0 && not (Util.Pqueue.is_empty q) do
          let d = Util.Pqueue.min_priority q in
          let t = Util.Pqueue.pop q in
          if d <= dist.(t) then begin
            if target.(t) then reached := t
            else begin
              let relax t' =
                let nd = d + enter_cost t' in
                if nd < dist.(t') then begin
                  dist.(t') <- nd;
                  parent.(t') <- t;
                  Util.Pqueue.push q nd t'
                end
              in
              let tx = t mod tiles_x and ty = t / tiles_x in
              if tx + 1 < tiles_x then relax (t + 1);
              if tx > 0 then relax (t - 1);
              if ty + 1 < tiles_y then relax (t + tiles_x);
              if ty > 0 then relax (t - tiles_x)
            end
          end
        done;
        if !reached < 0 then
          (* Disconnected tile graph cannot happen (costs are finite),
             but fail soft: connect the remaining pin tiles directly. *)
          begin
            List.iter
              (fun t ->
                if not in_tree.(t) then begin
                  in_tree.(t) <- true;
                  tree := t :: !tree
                end)
              !remaining;
            remaining := []
          end
        else begin
          let t = ref !reached in
          while !t >= 0 && not in_tree.(!t) do
            in_tree.(!t) <- true;
            tree := !t :: !tree;
            t := parent.(!t)
          done;
          remaining := List.filter (fun t -> t <> !reached) !remaining
        end
      done;
      !tree

let run ?(tile = 8) problem =
  let w = problem.Netlist.Problem.width
  and h = problem.Netlist.Problem.height in
  let tile = max 1 (min tile (max w h)) in
  let tiles_x = (w + tile - 1) / tile
  and tiles_y = (h + tile - 1) / tile in
  let capacity = capacities problem ~tile ~tiles_x ~tiles_y in
  let usage = Array.make (tiles_x * tiles_y) 0 in
  let class_usage = Array.init 3 (fun _ -> Array.make (tiles_x * tiles_y) 0) in
  let nets = problem.Netlist.Problem.nets in
  let guides = Array.make (Array.length nets) None in
  let order =
    List.sort
      (fun a b ->
        let ra = (rule (nets.(a - 1)).Netlist.Net.cls).priority
        and rb = (rule (nets.(b - 1)).Netlist.Net.cls).priority in
        if ra <> rb then compare ra rb else compare a b)
      (Netlist.Problem.nontrivial_net_ids problem)
  in
  List.iter
    (fun id ->
      let net = nets.(id - 1) in
      let r = rule net.Netlist.Net.cls in
      let ci = cls_index net.Netlist.Net.cls in
      let pin_tiles =
        List.sort_uniq compare
          (List.map
             (fun (p : Netlist.Net.pin) ->
               ((p.Netlist.Net.y / tile) * tiles_x) + (p.Netlist.Net.x / tile))
             net.Netlist.Net.pins)
      in
      let enter_cost t =
        let cap = capacity.(t) in
        let share = cap * r.share_pct / 100 in
        let over_total = max 0 (usage.(t) + r.demand - cap) in
        let over_share = max 0 (class_usage.(ci).(t) + r.demand - share) in
        1 + (r.cost_mult * 4 * (over_total + over_share))
      in
      let tree = route_net ~tiles_x ~tiles_y ~enter_cost pin_tiles in
      List.iter
        (fun t ->
          usage.(t) <- usage.(t) + r.demand;
          class_usage.(ci).(t) <- class_usage.(ci).(t) + r.demand)
        tree;
      let tx0 = ref max_int and ty0 = ref max_int in
      let tx1 = ref min_int and ty1 = ref min_int in
      List.iter
        (fun t ->
          let x = t mod tiles_x and y = t / tiles_x in
          if x < !tx0 then tx0 := x;
          if x > !tx1 then tx1 := x;
          if y < !ty0 then ty0 := y;
          if y > !ty1 then ty1 := y)
        tree;
      if !tx1 >= !tx0 then begin
        let cells =
          Geom.Rect.inflate
            (Geom.Rect.make (!tx0 * tile) (!ty0 * tile)
               (min (w - 1) (((!tx1 + 1) * tile) - 1))
               (min (h - 1) (((!ty1 + 1) * tile) - 1)))
            r.margin
        in
        guides.(id - 1) <-
          Some
            (Geom.Rect.make (max 0 cells.Geom.Rect.x0)
               (max 0 cells.Geom.Rect.y0)
               (min (w - 1) cells.Geom.Rect.x1)
               (min (h - 1) cells.Geom.Rect.y1))
      end)
    order;
  let overflow_tiles =
    let c = ref 0 in
    Array.iteri (fun i u -> if u > capacity.(i) then incr c) usage;
    !c
  in
  { tile; tiles_x; tiles_y; capacity; usage; class_usage; guides;
    overflow_tiles }

let audit t =
  let err = ref None in
  Array.iteri
    (fun i u ->
      if !err = None then begin
        if u > t.capacity.(i) then
          err :=
            Some
              (Printf.sprintf
                 "tile (%d,%d): usage %d exceeds capacity %d"
                 (i mod t.tiles_x) (i / t.tiles_x) u t.capacity.(i))
        else
          List.iter
            (fun cls ->
              let r = rule cls in
              let share = t.capacity.(i) * r.share_pct / 100 in
              let cu = t.class_usage.(cls_index cls).(i) in
              (* A class's first net may always pass (a share below one
                 net's demand would make the class unroutable). *)
              if cu > max r.demand share && !err = None then
                err :=
                  Some
                    (Printf.sprintf
                       "tile (%d,%d): class %s usage %d exceeds share %d"
                       (i mod t.tiles_x) (i / t.tiles_x)
                       (Netlist.Net.cls_to_string cls) cu share))
            [ Netlist.Net.Signal; Netlist.Net.Clock; Netlist.Net.Power ]
      end)
    t.usage;
  match !err with None -> Ok () | Some e -> Error e

let pp fmt t =
  let used = Array.fold_left (fun a u -> if u > 0 then a + 1 else a) 0 t.usage in
  let peak = Array.fold_left max 0 t.usage in
  Format.fprintf fmt "%dx%d tiles (%d cells), %d used, %d overflow, peak %d"
    t.tiles_x t.tiles_y t.tile used t.overflow_tiles peak
