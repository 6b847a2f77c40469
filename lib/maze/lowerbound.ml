(* Per-net backward distance transform over the actual cost model.

   The field stores, for every node of a planar window, the exact cost of
   a cheapest path from that node to the target set that stays inside the
   window — wire/via/wrong-way step costs plus the caller's per-node entry
   penalties, i.e. precisely what a forward search restricted to the same
   window and passability would report.  It is built once by a backward
   Dijkstra from the targets and then kept as a LOWER bound under grid
   mutation:

   - blocking a cell can only increase true distances, so doing nothing
     keeps the stored values admissible (possibly stale-low);
   - freeing a cell can decrease true distances, so [repair] re-relaxes
     outward from the dirtied cells (read from the grid's journal since
     the field's mark) with a decrease-only Dijkstra, restoring the
     invariant [field <= windowed true distance] everywhere.

   Admissibility is the whole contract: the field never over-estimates
   the in-window distance, so it serves both as an A* heuristic for a
   window-restricted search and — combined with the window-escape bound
   of [Search.run]'s [Margin] window — as a global lower bound on any
   route cost, which is how [Core.Improve] skips provably-unimprovable
   nets. *)

let inf_cost = max_int / 256

type t = {
  win : Geom.Rect.t;
  margin : int;  (* inflation the window was built with, for the escape bound *)
  cost : Cost.t;
  nl : int;  (* layer count of the grid the field was built over *)
  tgt_xy : (int * int) list;  (* target planar coords, for the escape L1 *)
  dist : int array;  (* layers × window area, layer-major *)
  is_target : Bytes.t;
  q : Util.Pqueue.t;
  mutable since : Grid.mark;
}

type repair_outcome = Clean | Repaired | Rebuilt

let window t = t.win

let built_margin t = t.margin

let ww t = t.win.Geom.Rect.x1 - t.win.Geom.Rect.x0 + 1

let wh t = t.win.Geom.Rect.y1 - t.win.Geom.Rect.y0 + 1

let area t = ww t * wh t

(* Local index of an in-window (layer, x, y); the caller checks bounds. *)
let idx t ~layer ~x ~y =
  (layer * area t) + ((y - t.win.Geom.Rect.y0) * ww t) + (x - t.win.Geom.Rect.x0)

let in_win t ~x ~y = Geom.Rect.mem t.win x y

let value t g n =
  let x = Grid.node_x g n and y = Grid.node_y g n in
  if in_win t ~x ~y then t.dist.(idx t ~layer:(Grid.node_layer g n) ~x ~y)
  else inf_cost

(* Relax all in-window nodes [m] that can step INTO the popped node [n]:
   B(m) <- min(B(m), step(m->n) + penalty(n) + B(n)).  Backward edges
   mirror the forward search exactly: four planar steps on [n]'s layer
   plus the via steps from the adjacent layers; the entry penalty of the
   stepped-into node is charged, matching the relax of [Search.run]. *)
let relax_into t g ~passable ~layer ~x ~y d =
  match passable (Grid.node g ~layer ~x ~y) with
  | None -> ()
  | Some pen ->
      let update ~layer:ml ~x:mx ~y:my step =
        if in_win t ~x:mx ~y:my then begin
          let i = idx t ~layer:ml ~x:mx ~y:my in
          let cand = d + step + pen in
          if cand < t.dist.(i) then begin
            t.dist.(i) <- cand;
            Util.Pqueue.push t.q cand i
          end
        end
      in
      let ph = Grid.prefers_horizontal g ~layer in
      let hc = Cost.step_cost t.cost ~prefers_h:ph ~horizontal:true in
      let vc = Cost.step_cost t.cost ~prefers_h:ph ~horizontal:false in
      update ~layer ~x:(x - 1) ~y hc;
      update ~layer ~x:(x + 1) ~y hc;
      update ~layer ~x ~y:(y - 1) vc;
      update ~layer ~x ~y:(y + 1) vc;
      if layer + 1 < t.nl then update ~layer:(layer + 1) ~x ~y t.cost.Cost.via;
      if layer > 0 then update ~layer:(layer - 1) ~x ~y t.cost.Cost.via

let unpack t i =
  let a = area t in
  let layer = i / a in
  let r = i mod a in
  let w = ww t in
  ( layer,
    t.win.Geom.Rect.x0 + (r mod w),
    t.win.Geom.Rect.y0 + (r / w) )

(* Decrease-only Dijkstra drain shared by build and repair. *)
let drain t g ~passable =
  let continue_ = ref true in
  while !continue_ do
    match Util.Pqueue.pop_opt t.q with
    | None -> continue_ := false
    | Some (d, i) ->
        if d <= t.dist.(i) then begin
          let layer, x, y = unpack t i in
          relax_into t g ~passable ~layer ~x ~y d
        end
  done

let seed_targets t g ~targets =
  List.iter
    (fun n ->
      let x = Grid.node_x g n and y = Grid.node_y g n in
      if in_win t ~x ~y then begin
        let i = idx t ~layer:(Grid.node_layer g n) ~x ~y in
        Bytes.set t.is_target i '\001';
        t.dist.(i) <- 0;
        Util.Pqueue.push t.q 0 i
      end)
    targets

let rebuild_in_place t g ~passable =
  Array.fill t.dist 0 (Array.length t.dist) inf_cost;
  Util.Pqueue.clear t.q;
  Bytes.iteri
    (fun i flag ->
      if flag <> '\000' then begin
        t.dist.(i) <- 0;
        Util.Pqueue.push t.q 0 i
      end)
    t.is_target;
  drain t g ~passable;
  t.since <- Grid.mark g

let build g ~cost ~passable ~targets ~around ~margin =
  let bbox nodes =
    List.fold_left
      (fun (x0, y0, x1, y1) n ->
        let x = Grid.node_x g n and y = Grid.node_y g n in
        (min x0 x, min y0 y, max x1 x, max y1 y))
      (max_int, max_int, min_int, min_int)
      nodes
  in
  let bx0, by0, bx1, by1 = bbox (List.rev_append around targets) in
  let win =
    Geom.Rect.make
      (max 0 (bx0 - margin))
      (max 0 (by0 - margin))
      (min (Grid.width g - 1) (bx1 + margin))
      (min (Grid.height g - 1) (by1 + margin))
  in
  let area = Geom.Rect.area win in
  let nl = Grid.layers g in
  let t =
    {
      win;
      margin;
      cost;
      nl;
      tgt_xy =
        List.sort_uniq compare
          (List.map (fun n -> (Grid.node_x g n, Grid.node_y g n)) targets);
      dist = Array.make (nl * area) inf_cost;
      is_target = Bytes.make (nl * area) '\000';
      q = Util.Pqueue.create ~capacity:(max 64 (area / 4)) ();
      since = Grid.mark g;
    }
  in
  seed_targets t g ~targets;
  drain t g ~passable;
  (* [mark] again: seeding read the grid but wrote nothing; taking the
     mark after the build keeps the window's history anchored here. *)
  t.since <- Grid.mark g;
  t

let bound t g ~source =
  let sx = Grid.node_x g source and sy = Grid.node_y g source in
  let min_l1 =
    List.fold_left
      (fun acc (tx, ty) -> min acc (abs (sx - tx) + abs (sy - ty)))
      max_int t.tgt_xy
  in
  if min_l1 = max_int then 0
  else begin
    (* Any source-to-target path that leaves the window strays at least
       [margin + 1] planar steps beyond the pin bounding box and back
       (the optimality argument of [Search.run]'s [Margin] window), so it
       costs at least wire × (L1 + 2(margin+1)); a path staying inside the
       window costs at least the field value.  The min of the two is a
       sound global lower bound. *)
    let escape = t.cost.Cost.wire * (min_l1 + (2 * (t.margin + 1))) in
    let inside =
      if in_win t ~x:sx ~y:sy then
        t.dist.(idx t ~layer:(Grid.node_layer g source) ~x:sx ~y:sy)
      else inf_cost
    in
    min inside escape
  end

(* Re-seed from everything whose incoming edges may have changed: a write
   at cell [c] changes penalty(c), i.e. the cost of edges INTO [c] — so
   [c]'s in-window neighbours (same-layer rects dilated by one, plus the
   other layer's rects undilated for the via edge) must recompute their
   local best and propagate any decrease.  Penalty increases are left
   stale-low (still admissible); only decreases enter the queue. *)
let reseed_rect t g ~passable ~layer (r : Geom.Rect.t) =
  match Geom.Rect.intersection r t.win with
  | None -> ()
  | Some r ->
      Geom.Rect.iter r (fun x y ->
          let i = idx t ~layer ~x ~y in
          (* Cells that are currently impassable are skipped: no reader
             consults them (searches never expand into them, [bound]
             sources are the net's own pins, [consider] gates on the
             neighbour's passability), and the release that eventually
             frees one is itself journaled, so it is recomputed then.
             Rip-then-reroute churn thus costs almost nothing to repair
             over: the freed corridor is usually re-occupied by the time
             the field is next consulted. *)
          if
            Bytes.get t.is_target i = '\000'
            && passable (Grid.node g ~layer ~x ~y) <> None
          then begin
            (* b(n) = min over stepped-into neighbours k of
               step(n->k) + penalty(k) + B(k), from current values. *)
            let best = ref inf_cost in
            let consider ~layer:kl ~x:kx ~y:ky step =
              if in_win t ~x:kx ~y:ky then
                match passable (Grid.node g ~layer:kl ~x:kx ~y:ky) with
                | None -> ()
                | Some pen ->
                    let kv = t.dist.(idx t ~layer:kl ~x:kx ~y:ky) in
                    if kv < inf_cost then
                      let c = step + pen + kv in
                      if c < !best then best := c
            in
            let ph = Grid.prefers_horizontal g ~layer in
            let hc = Cost.step_cost t.cost ~prefers_h:ph ~horizontal:true in
            let vc = Cost.step_cost t.cost ~prefers_h:ph ~horizontal:false in
            consider ~layer ~x:(x - 1) ~y hc;
            consider ~layer ~x:(x + 1) ~y hc;
            consider ~layer ~x ~y:(y - 1) vc;
            consider ~layer ~x ~y:(y + 1) vc;
            if layer + 1 < t.nl then
              consider ~layer:(layer + 1) ~x ~y t.cost.Cost.via;
            if layer > 0 then consider ~layer:(layer - 1) ~x ~y t.cost.Cost.via;
            if !best < t.dist.(i) then begin
              t.dist.(i) <- !best;
              Util.Pqueue.push t.q !best i
            end
          end)

(* Only FREEING rectangles are reprocessed: a blocking write (occupy,
   via, obstacle) can only increase true distances, so ignoring it keeps
   the field admissible — and since the reseed is decrease-only, a
   block-only rectangle could not have changed a single value anyway. *)
let repair g ~passable t =
  let rects =
    (* One freeing-rect list per layer; any wrapped ring loses history for
       the whole field. *)
    let rec gather l acc =
      if l < 0 then Some acc
      else
        match Grid.dirtied_freeing_rects g ~since:t.since ~layer:l with
        | None -> None
        | Some rs -> gather (l - 1) (rs :: acc)
    in
    gather (t.nl - 1) []
  in
  match rects with
  | None ->
      rebuild_in_place t g ~passable;
      Rebuilt
  | Some per_layer ->
      let touches =
        List.exists (fun r -> Geom.Rect.overlap (Geom.Rect.inflate r 1) t.win)
      in
      if not (List.exists touches per_layer) then begin
        t.since <- Grid.mark g;
        Clean
      end
      else begin
        Util.Pqueue.clear t.q;
        (* A write on layer [l] changes edges into its cells: same-layer
           neighbours (rects dilated by one) and the via edges from the
           adjacent layers (undilated). *)
        List.iteri
          (fun l rs ->
            List.iter
              (fun r ->
                reseed_rect t g ~passable ~layer:l (Geom.Rect.inflate r 1);
                if l + 1 < t.nl then
                  reseed_rect t g ~passable ~layer:(l + 1) r;
                if l > 0 then reseed_rect t g ~passable ~layer:(l - 1) r)
              rs)
          per_layer;
        drain t g ~passable;
        t.since <- Grid.mark g;
        Repaired
      end
