(* The search's queues.  Only [Search] reads or writes them; they live
   here so that one workspace carries them from search to search. *)
type frontier = {
  node_bits : int;
  mutable keys : int array;
  mutable size : int;
  mutable heads : int array;
  mutable base : int;
  mutable hi : int;
  mutable count : int;
  mutable entry_node : int array;
  mutable entry_next : int array;
  mutable free : int;
  mutable fresh : int;
  mutable fifo : int array;
}

let rec bits_for n b = if 1 lsl b >= n then b else bits_for n (b + 1)

let make_frontier ~nodes =
  {
    node_bits = bits_for (max 1 nodes) 0;
    (* Sized to the grid: a search frontier rarely exceeds a small
       fraction of the node count, so n/8 avoids every grow on large
       grids without over-allocating on small ones. *)
    keys = Array.make (max 1024 (nodes / 8)) 0;
    size = 0;
    heads = Array.make 16 (-1);
    base = 0;
    hi = 0;
    count = 0;
    (* The bucket entries and the flood's FIFO grow by doubling to the
       largest search so far; a small grid never needs many. *)
    entry_node = Array.make 64 0;
    entry_next = Array.make 64 0;
    free = -1;
    fresh = 0;
    fifo = Array.make 64 0;
  }

(* Every stored bucket priority lies in [base, hi], so only those slots
   can hold a stack. *)
let clear_frontier f =
  f.size <- 0;
  if f.count > 0 then begin
    let mask = Array.length f.heads - 1 in
    for p = f.base to f.hi do
      f.heads.(p land mask) <- -1
    done
  end;
  f.base <- 0;
  f.hi <- 0;
  f.count <- 0;
  f.free <- -1;
  f.fresh <- 0

type t = {
  dist : int array;
  parent : int array;
  dist_gen : int array;
  mark_gen : int array;
      (* [gen]: a target of the current search; [-gen]: a node the
         current search's target-side flood has queued *)
  mutable gen : int;
  frontier : frontier;
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
    frontier = make_frontier ~nodes:n;
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
  clear_frontier ws.frontier

let hfield_memo_hit ws ~targets = targets <> [] && ws.hkey_targets = targets

let hfield_memo_store ws ~targets = ws.hkey_targets <- targets
