(* Freed stamps: the grid keeps a clock that every freeing write (a
   release, a via clear) advances, and stamps the node it freed with the
   new value.  Occupies, via placements and obstacles are not stamped:
   they can remove routes but never create a cheaper one, so the stamps'
   one consumer, refine's "cannot improve" verdicts, never needs them.
   A [mark] is the clock at some instant; a node was freed since the
   mark exactly when its stamp is above it. *)
type mark = int

type t = {
  w : int;
  h : int;
  nlayers : int;
  hpref : Bytes.t; (* per layer: '\001' = horizontal preferred *)
  occ : int array; (* nlayers*w*h cells: 0 free, -1 obstacle, net id > 0 *)
  via : Bytes.t; (* (nlayers-1)*w*h pair flags; pair l joins layers l,l+1 *)
  mutable n_vias : int;
  freed : int array; (* per node: clock of its last freeing write, 0 never *)
  mutable clock : int;
}

let default_layers = 2

let stamp_freed g n =
  g.clock <- g.clock + 1;
  g.freed.(n) <- g.clock

let obstacle = -1

let free = 0

(* The default stack alternates horizontal/vertical starting at layer 0
   horizontal — exactly the frozen two-layer convention, extended. *)
let default_dirs n = Array.init n (fun l -> l land 1 = 0)

let create ?(layers = default_layers) ?dirs ~width ~height () =
  if width <= 0 || height <= 0 then invalid_arg "Surface.create: empty grid";
  if layers < 2 then invalid_arg "Surface.create: at least two layers";
  let dirs = match dirs with Some d -> d | None -> default_dirs layers in
  if Array.length dirs <> layers then
    invalid_arg "Surface.create: one direction per layer";
  let hpref = Bytes.make layers '\000' in
  Array.iteri (fun l h -> if h then Bytes.set hpref l '\001') dirs;
  {
    w = width;
    h = height;
    nlayers = layers;
    hpref;
    occ = Array.make (layers * width * height) free;
    via = Bytes.make ((layers - 1) * width * height) '\000';
    n_vias = 0;
    freed = Array.make (layers * width * height) 0;
    clock = 0;
  }

let copy g =
  {
    g with
    occ = Array.copy g.occ;
    via = Bytes.copy g.via;
    freed = Array.copy g.freed;
  }

(* n_vias is derived from the via bytes, so comparing occupancy and via
   flags is a complete state comparison. *)
let equal a b =
  a.w = b.w && a.h = b.h && a.nlayers = b.nlayers
  && Bytes.equal a.hpref b.hpref
  && a.occ = b.occ && Bytes.equal a.via b.via

let width g = g.w

let height g = g.h

let layers g = g.nlayers

let prefers_horizontal g ~layer = Bytes.get g.hpref layer <> '\000'

let layer_dirs g = Array.init g.nlayers (fun l -> prefers_horizontal g ~layer:l)

let planar_cells g = g.w * g.h

let node_count g = g.nlayers * g.w * g.h

let node g ~layer ~x ~y = (layer * g.w * g.h) + (y * g.w) + x

let node_layer g n = n / (g.w * g.h)

let node_x g n = n mod g.w

let node_y g n = n mod (g.w * g.h) / g.w

let planar g n = n mod (g.w * g.h)

let node_above g n = n + (g.w * g.h)

let node_below g n = n - (g.w * g.h)

let in_bounds g ~x ~y = x >= 0 && x < g.w && y >= 0 && y < g.h

let occ g n = g.occ.(n)

let occupancy g = g.occ

let occ_at g ~layer ~x ~y = g.occ.(node g ~layer ~x ~y)

let is_free g n = g.occ.(n) = free

let is_obstacle g n = g.occ.(n) = obstacle

let owner g n =
  let v = g.occ.(n) in
  if v > 0 then Some v else None

let occupy g ~net n =
  if net <= 0 then invalid_arg "Surface.occupy: net ids are positive";
  let v = g.occ.(n) in
  if v = free || v = net then g.occ.(n) <- net
  else if v = obstacle then invalid_arg "Surface.occupy: cell is an obstacle"
  else
    invalid_arg
      (Printf.sprintf "Surface.occupy: cell owned by net %d, wanted %d" v net)

(* Pair via accessors.  Pair [layer] joins layers [layer] and [layer+1];
   its flag lives in plane [layer] of the via bytes.  At two layers there
   is a single plane, bit-identical to the historical planar flag. *)
let pair_index g ~layer ~x ~y = (layer * g.w * g.h) + (y * g.w) + x

let has_via_pair g ~layer ~x ~y =
  Bytes.get g.via (pair_index g ~layer ~x ~y) <> '\000'

(* Any pair at (x,y) — the historical planar query, still what renderers
   and planar legality checks want. *)
let has_via g ~x ~y =
  let rec scan l =
    l < g.nlayers - 1 && (has_via_pair g ~layer:l ~x ~y || scan (l + 1))
  in
  scan 0

let has_via_node g n =
  let x = node_x g n and y = node_y g n in
  has_via g ~x ~y

(* Vias adjacent to a node: the pair just above it and just below it. *)
let via_above g n =
  let l = node_layer g n in
  l + 1 < g.nlayers && has_via_pair g ~layer:l ~x:(node_x g n) ~y:(node_y g n)

let via_below g n =
  let l = node_layer g n in
  l > 0 && has_via_pair g ~layer:(l - 1) ~x:(node_x g n) ~y:(node_y g n)

let clear_via ?(layer = 0) g ~x ~y =
  let p = pair_index g ~layer ~x ~y in
  if Bytes.get g.via p <> '\000' then begin
    Bytes.set g.via p '\000';
    g.n_vias <- g.n_vias - 1;
    (* A pair's index is the node of its lower cell. *)
    stamp_freed g p;
    stamp_freed g (node_above g p)
  end

let set_via ?(layer = 0) g ~x ~y =
  if layer < 0 || layer >= g.nlayers - 1 then
    invalid_arg "Surface.set_via: pair layer out of range";
  let a = occ_at g ~layer ~x ~y and b = occ_at g ~layer:(layer + 1) ~x ~y in
  if a <= 0 || a <> b then
    invalid_arg "Surface.set_via: both layers must be owned by the same net";
  let p = pair_index g ~layer ~x ~y in
  if Bytes.get g.via p = '\000' then begin
    Bytes.set g.via p '\001';
    g.n_vias <- g.n_vias + 1
  end

let release g n =
  let v = g.occ.(n) in
  if v = obstacle then invalid_arg "Surface.release: cell is an obstacle";
  if v > 0 then begin
    g.occ.(n) <- free;
    stamp_freed g n;
    let x = node_x g n and y = node_y g n and l = node_layer g n in
    (* A freed cell can no longer anchor either adjacent via pair. *)
    if l + 1 < g.nlayers && has_via_pair g ~layer:l ~x ~y then
      clear_via ~layer:l g ~x ~y;
    if l > 0 && has_via_pair g ~layer:(l - 1) ~x ~y then
      clear_via ~layer:(l - 1) g ~x ~y
  end

let set_obstacle g ~layer ~x ~y =
  let n = node g ~layer ~x ~y in
  let v = g.occ.(n) in
  if v > 0 then invalid_arg "Surface.set_obstacle: cell owned by a net";
  if v <> obstacle then g.occ.(n) <- obstacle

let set_obstacle_all g ~x ~y =
  for layer = 0 to g.nlayers - 1 do
    set_obstacle g ~layer ~x ~y
  done

let block_outside g (r : Geom.Rect.t) =
  for y = 0 to g.h - 1 do
    for x = 0 to g.w - 1 do
      if not (Geom.Rect.mem r x y) then
        for layer = 0 to g.nlayers - 1 do
          if occ_at g ~layer ~x ~y = free then set_obstacle g ~layer ~x ~y
        done
    done
  done

let block_rect g ?layer (r : Geom.Rect.t) =
  Geom.Rect.iter r (fun x y ->
      if in_bounds g ~x ~y then
        match layer with
        | Some l -> set_obstacle g ~layer:l ~x ~y
        | None -> set_obstacle_all g ~x ~y)

let mark g = g.clock

(* Is any stamp of freed.(i..stop) above [since]? *)
let rec freed_after freed ~since i stop =
  i <= stop && (freed.(i) > since || freed_after freed ~since (i + 1) stop)

(* Scans the rectangle clipped to the grid, one row at a time, and stops
   at the first node freed after the mark. *)
let dirtied_in_freeing g ~since ~layer (r : Geom.Rect.t) =
  let x0 = max 0 r.x0 and x1 = min (g.w - 1) r.x1 in
  let y1 = min (g.h - 1) r.y1 in
  let rec rows y =
    y <= y1
    && (let row = (layer * g.w * g.h) + (y * g.w) in
        freed_after g.freed ~since (row + x0) (row + x1) || rows (y + 1))
  in
  since < g.clock && x0 <= x1 && rows (max 0 r.y0)

let via_count g = g.n_vias

let iter_nodes g f =
  for n = 0 to node_count g - 1 do
    f n
  done

let iter_planar g f =
  for y = 0 to g.h - 1 do
    for x = 0 to g.w - 1 do
      f ~x ~y
    done
  done

let iter_via_pairs g f =
  for layer = 0 to g.nlayers - 2 do
    for y = 0 to g.h - 1 do
      for x = 0 to g.w - 1 do
        if has_via_pair g ~layer ~x ~y then f ~layer ~x ~y
      done
    done
  done

let count_owned g ~net =
  let c = ref 0 in
  Array.iter (fun v -> if v = net then incr c) g.occ;
  !c

let occupied_nodes g ~net =
  let acc = ref [] in
  for n = node_count g - 1 downto 0 do
    if g.occ.(n) = net then acc := n :: !acc
  done;
  !acc

(* Depth-first over the net's own cells, so the cost is the cells
   reached plus their neighbours, never the grid. *)
let flood_net g ~net start =
  let plane = g.w * g.h in
  let seen = Hashtbl.create 64 in
  let stack = ref [] in
  let push n =
    if g.occ.(n) = net && not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      stack := n :: !stack
    end
  in
  push start;
  let rec walk () =
    match !stack with
    | [] -> ()
    | n :: rest ->
        stack := rest;
        let x = n mod g.w and y = n mod plane / g.w in
        if x + 1 < g.w then push (n + 1);
        if x > 0 then push (n - 1);
        if y + 1 < g.h then push (n + g.w);
        if y > 0 then push (n - g.w);
        if via_above g n then push (n + plane);
        if via_below g n then push (n - plane);
        walk ()
  in
  walk ();
  seen

let fill_ratio g =
  let owned = ref 0 and usable = ref 0 in
  Array.iter
    (fun v ->
      if v <> obstacle then begin
        incr usable;
        if v > 0 then incr owned
      end)
    g.occ;
  if !usable = 0 then 0.0 else float_of_int !owned /. float_of_int !usable
