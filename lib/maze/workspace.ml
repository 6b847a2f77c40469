type t = {
  dist : int array;
  parent : int array;
  dist_gen : int array;
  mark_gen : int array;
      (* [gen]: a target of the current search; [-gen]: a node the
         current search's target-side flood has queued *)
  mutable gen : int;
  heap : Util.Pqueue.t;
  buckets : Util.Bucketq.t;
  flood : Util.Vec.t;  (* FIFO of the target-side flood, grown on demand *)
  hfield : int array;  (* planar heuristic field for array-based A* *)
  (* Memo key of the hfield contents: the field is a pure function of
     the planar targets (and the grid width) and independent of grid
     occupancy, so a matching key means the stored transform is exact
     and the recompute can be skipped.  [] encodes "no valid key": no
     field is ever built for an empty target list. *)
  mutable hkey_targets : int list;
  (* Per-layer bounding box of nodes expanded since [clear_touched];
     x0 > x1 encodes empty.  Deliberately NOT reset by [begin_search]:
     the region a whole net attempt read spans several searches
     (windowed probes included), so the accumulator survives until the
     caller clears it. *)
  tx0 : int array;
  ty0 : int array;
  tx1 : int array;
  ty1 : int array;
  nlayers : int;
}

let create g =
  let n = Grid.node_count g in
  let nl = Grid.layers g in
  {
    dist = Array.make n max_int;
    parent = Array.make n (-1);
    dist_gen = Array.make n 0;
    mark_gen = Array.make n 0;
    gen = 0;
    (* Sized to the grid: a search frontier rarely exceeds a small fraction
       of the node count, so n/8 avoids every grow on large grids without
       over-allocating on small ones. *)
    heap = Util.Pqueue.create ~capacity:(max 1024 (n / 8)) ();
    buckets = Util.Bucketq.create ();
    flood = Util.Vec.create ();
    hfield = Array.make (Grid.planar_cells g) 0;
    hkey_targets = [];
    tx0 = Array.make nl 1;
    ty0 = Array.make nl 1;
    tx1 = Array.make nl 0;
    ty1 = Array.make nl 0;
    nlayers = nl;
  }

let layers ws = ws.nlayers

let clear_touched ws =
  for l = 0 to ws.nlayers - 1 do
    ws.tx0.(l) <- 1;
    ws.tx1.(l) <- 0
  done

let note_touched ws ~layer ~x0 ~y0 ~x1 ~y1 =
  if ws.tx0.(layer) > ws.tx1.(layer) then begin
    ws.tx0.(layer) <- x0;
    ws.ty0.(layer) <- y0;
    ws.tx1.(layer) <- x1;
    ws.ty1.(layer) <- y1
  end
  else begin
    if x0 < ws.tx0.(layer) then ws.tx0.(layer) <- x0;
    if y0 < ws.ty0.(layer) then ws.ty0.(layer) <- y0;
    if x1 > ws.tx1.(layer) then ws.tx1.(layer) <- x1;
    if y1 > ws.ty1.(layer) then ws.ty1.(layer) <- y1
  end

let touched ws ~layer =
  if ws.tx0.(layer) > ws.tx1.(layer) then None
  else
    Some
      (Geom.Rect.make ws.tx0.(layer) ws.ty0.(layer) ws.tx1.(layer)
         ws.ty1.(layer))

let begin_search ws =
  ws.gen <- ws.gen + 1;
  Util.Pqueue.clear ws.heap;
  Util.Bucketq.clear ws.buckets;
  Util.Vec.clear ws.flood

let hfield_memo_hit ws ~targets = targets <> [] && ws.hkey_targets = targets

let hfield_memo_store ws ~targets = ws.hkey_targets <- targets
