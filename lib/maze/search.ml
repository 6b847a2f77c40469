type result = { path : Grid.Path.t; total_cost : int; expanded : int }

type kernel = Binary_heap | Buckets

let kernel_name = function Binary_heap -> "heap" | Buckets -> "buckets"

type heuristic = Zero | L1

type guide_tally = { mutable hits : int; mutable fallbacks : int }

type window =
  | Full
  | Margin of int
  | Guide of { rect : Geom.Rect.t; tally : guide_tally }

type passable =
  | Own of int
  | Foreign of {
      net : int;
      protected : Bytes.t;
      rips : int array;
      penalty : int;
    }
  | Custom of (int -> int option)

(* The price of entering a cell under a [passable] rule, decoded once per
   search: the loop reads the grid's occupancy array itself, so pricing
   a cell calls nothing across a module boundary and allocates nothing
   unless the rule is [Custom]. *)
type pricing = {
  occ : int array;
  own : int;
  foreign : bool;  (* price other nets' unprotected cells *)
  protected : Bytes.t;
  rips : int array;
  penalty : int;
  custom : (int -> int option) option;
}

(* The price of a cell nothing may enter. *)
let blocked = -1

let pricing g passable =
  let free_only =
    {
      occ = Grid.occupancy g;
      own = 0;
      foreign = false;
      protected = Bytes.empty;
      rips = [||];
      penalty = 0;
      custom = None;
    }
  in
  match passable with
  | Own net -> { free_only with own = net }
  | Foreign { net; protected; rips; penalty } ->
      { free_only with own = net; foreign = true; protected; rips; penalty }
  | Custom f -> { free_only with custom = Some f }

(* [Grid.free] is 0 and [Grid.obstacle] -1; any other value is the
   owning net's id. *)
let price pr n =
  match pr.custom with
  | Some f -> ( match f n with None -> blocked | Some k -> k)
  | None ->
      let v = pr.occ.(n) in
      if v = 0 || v = pr.own then 0
      else if
        pr.foreign && v > 0 && Bytes.unsafe_get pr.protected n = '\000'
      then pr.penalty * (1 + pr.rips.(v - 1))
      else blocked

(* The search's queues, operated beside the loop (see search.mli).  The
   heap keeps [Util.Pqueue]'s sift rules exactly, comparing priorities
   only, so ties land where they would there.  A packed key is
   [(p lsl bits) lor node], so with [mask = 2^bits - 1]:
   [prio a > prio b] iff [a > b lor mask], and [prio a < prio b] iff
   [a < b land lnot mask]. *)
module Frontier = struct
  type t = Workspace.frontier

  let create ~nodes = Workspace.make_frontier ~nodes

  let clear = Workspace.clear_frontier

  (* [a] copied into an array twice as long. *)
  let doubled a =
    let n = Array.length a in
    let b = Array.make (2 * n) 0 in
    Array.blit a 0 b 0 n;
    b

  let heap_push (f : t) p n =
    let bits = f.node_bits in
    let k = (p lsl bits) lor n in
    if k asr bits <> p then
      invalid_arg "Search.Frontier: priority out of range";
    if f.size = Array.length f.keys then f.keys <- doubled f.keys;
    let keys = f.keys in
    let top = k lor ((1 lsl bits) - 1) in
    let i = ref f.size in
    f.size <- f.size + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      let kp = keys.(parent) in
      if kp > top then begin
        keys.(!i) <- kp;
        i := parent
      end
      else continue := false
    done;
    keys.(!i) <- k

  let heap_pop (f : t) =
    if f.size = 0 then invalid_arg "Search.Frontier.pop: empty";
    let keys = f.keys in
    let mask = (1 lsl f.node_bits) - 1 in
    let top = keys.(0) in
    let size = f.size - 1 in
    f.size <- size;
    if size > 0 then begin
      (* Move the last entry to the root and sift it down. *)
      let k = keys.(size) in
      let lo = k land lnot mask in
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        let r = l + 1 in
        let smallest = if l < size && keys.(l) < lo then l else !i in
        let smallest =
          if
            r < size
            && keys.(r)
               < if smallest = !i then lo else keys.(smallest) land lnot mask
          then r
          else smallest
        in
        if smallest = !i then continue := false
        else begin
          keys.(!i) <- keys.(smallest);
          i := smallest
        end
      done;
      keys.(!i) <- k
    end;
    top land mask

  let rec pow2_above n k = if k > n then k else pow2_above n (2 * k)

  (* Re-anchor the bucket window to [lo, hi], which holds every stored
     priority, growing the slot array so the span fits.  Before the grow
     each stored priority owns a unique slot, so the stacks move whole. *)
  let rebucket (f : t) ~lo ~hi =
    let old = f.heads in
    let omask = Array.length old - 1 in
    let n = pow2_above (hi - lo + 1) (2 * (omask + 1)) in
    let heads = Array.make n (-1) in
    let mask = n - 1 in
    for p = f.base to f.hi do
      let e = old.(p land omask) in
      if e >= 0 then heads.(p land mask) <- e
    done;
    f.heads <- heads;
    f.base <- lo;
    f.hi <- hi

  let bucket_push (f : t) p n =
    if f.count = 0 then begin
      f.base <- p;
      f.hi <- p
    end
    else begin
      let lo = if p < f.base then p else f.base in
      let hi = if p > f.hi then p else f.hi in
      if hi - lo >= Array.length f.heads then rebucket f ~lo ~hi
      else begin
        f.base <- lo;
        f.hi <- hi
      end
    end;
    let e =
      if f.free >= 0 then begin
        let e = f.free in
        f.free <- f.entry_next.(e);
        e
      end
      else begin
        if f.fresh = Array.length f.entry_node then begin
          f.entry_node <- doubled f.entry_node;
          f.entry_next <- doubled f.entry_next
        end;
        let e = f.fresh in
        f.fresh <- e + 1;
        e
      end
    in
    let heads = f.heads in
    let slot = p land (Array.length heads - 1) in
    f.entry_node.(e) <- n;
    f.entry_next.(e) <- heads.(slot);
    heads.(slot) <- e;
    f.count <- f.count + 1

  (* Advance [base] to the first non-empty slot, which holds the minimum;
     the queue must not be empty. *)
  let advance (f : t) =
    let heads = f.heads in
    let mask = Array.length heads - 1 in
    while heads.(f.base land mask) < 0 do
      f.base <- f.base + 1
    done

  let bucket_min (f : t) =
    if f.count = 0 then invalid_arg "Search.Frontier.min_priority: empty";
    advance f;
    f.base

  let bucket_pop (f : t) =
    if f.count = 0 then invalid_arg "Search.Frontier.pop: empty";
    advance f;
    let heads = f.heads in
    let slot = f.base land (Array.length heads - 1) in
    let e = heads.(slot) in
    heads.(slot) <- f.entry_next.(e);
    f.entry_next.(e) <- f.free;
    f.free <- e;
    f.count <- f.count - 1;
    f.entry_node.(e)

  let is_empty kernel (f : t) =
    match kernel with Binary_heap -> f.size = 0 | Buckets -> f.count = 0

  let push kernel f p n =
    match kernel with
    | Binary_heap -> heap_push f p n
    | Buckets -> bucket_push f p n

  let min_priority kernel (f : t) =
    match kernel with
    | Binary_heap ->
        if f.size = 0 then invalid_arg "Search.Frontier.min_priority: empty";
        f.keys.(0) asr f.node_bits
    | Buckets -> bucket_min f

  let pop kernel f =
    match kernel with Binary_heap -> heap_pop f | Buckets -> bucket_pop f
end

(* Inclusive search window in planar coordinates. *)
type win = { x0 : int; y0 : int; x1 : int; y1 : int }

let full_win g =
  { x0 = 0; y0 = 0; x1 = Grid.width g - 1; y1 = Grid.height g - 1 }

let backtrace (ws : Workspace.t) target =
  let rec loop n acc =
    let p = ws.parent.(n) in
    if p < 0 then n :: acc else loop p (n :: acc)
  in
  loop target []

(* The [Zero] heuristic: plain Dijkstra.  The expansion loop calls a
   heuristic on a node and the node's planar coordinates, which it
   already knows. *)
let zero _ _ _ = 0

(* The one expansion loop behind [run].  The frontier holds [g + h]
   priorities; [dist] holds settled/tentative [g].  Both kernels drive the
   same loop, so their relative cost is purely the queue discipline: the
   binary heap pays O(log n) per operation, the bucket queue O(1) (edge
   costs are small bounded ints — the ideal Dial case; the A* heuristic
   is consistent, so popped priorities stay monotone and the bucket span
   stays small).

   The loop is the router's hot path, and the project builds with
   [-opaque] in dune's default profile, so no call across a module
   boundary is ever inlined.  The loop therefore binds the workspace's
   arrays and generation once per search and indexes them directly,
   runs the frontier of this module on a loop-invariant kernel flag,
   prices cells with [price] (reading the occupancy array unless the
   rule is [Custom]), reads a pop's priority before its node instead of
   receiving a pair, and ends on a bool: per node it allocates
   nothing.

   [win] restricts the search: relaxations into nodes outside it are
   rejected, and with [escape] each rejected relaxation is priced as the
   frontier key [g + step + penalty + escape] (at the rejected node) it
   would have had in the full search, the minimum returned as
   [f_min_out] ([max_int] when nothing was priced).

   With [flood] on a full-grid attempt, a breadth-first flood from the
   targets runs in lockstep with the expansion: one flood node per
   settled node.  It reads only whether [price] blocks a node, and it
   stops for good as soon as it meets a node the forward search
   has labelled.  Sources are labelled before the loop starts, so a
   flood whose queue empties first has closed the targets' whole
   component without meeting a source: no target is reachable, and the
   search fails there instead of exhausting the source side.  Until
   then the forward loop is untouched, so every path, cost and
   expansion count is the unflooded search's.

   Returns the expansion count even on failure so windowed retries can
   account for wasted effort, and adds forward and flood nodes to
   [work].  [stop] is the cooperative cancellation hook: polled every 64
   expansions with the in-flight node count (flood nodes included), and
   when it answers [true] the search aborts, reporting the abort
   distinctly from exhaustion so a windowed caller gives up instead of
   widening and retrying. *)
let stop_interval = 64

type work = { mutable settled : int; mutable flooded : int }

let core g (ws : Workspace.t) ~kernel ~cost ~pricing:pr ~sources ~targets
    ~heuristic ~win ~escape ~stop ~flood ~work =
  Workspace.begin_search ws;
  let gen = ws.gen in
  let dist = ws.dist and dist_gen = ws.dist_gen in
  let parent = ws.parent and mark_gen = ws.mark_gen in
  let fr = ws.frontier in
  let push p n = Frontier.push kernel fr p n in
  let w = Grid.width g and h = Grid.height g in
  let nl = Grid.layers g in
  let pc = Grid.planar_cells g in
  (* Per-layer step prices, hoisted out of the expansion loop. *)
  let hcost =
    Array.init nl (fun l ->
        Cost.step_cost cost
          ~prefers_h:(Grid.prefers_horizontal g ~layer:l)
          ~horizontal:true)
  and vcost =
    Array.init nl (fun l ->
        Cost.step_cost cost
          ~prefers_h:(Grid.prefers_horizontal g ~layer:l)
          ~horizontal:false)
  in
  let via = cost.Cost.via in
  List.iter (fun t -> mark_gen.(t) <- gen) targets;
  List.iter
    (fun s ->
      if dist_gen.(s) <> gen || dist.(s) > 0 then begin
        dist.(s) <- 0;
        dist_gen.(s) <- gen;
        parent.(s) <- -1;
        push (heuristic s (Grid.node_x g s) (Grid.node_y g s)) s
      end)
    sources;
  let expanded = ref 0 in
  let found = ref None in
  let aborted = ref false in
  (* Found, aborted or certified unreachable. *)
  let finished = ref false in
  let f_min_out = ref max_int in
  (* Per-layer bbox of expanded and flooded nodes, merged into the
     workspace's touched accumulator at loop exit (so failed and aborted
     searches are covered too).  Small per-layer arrays keep the hot loop
     allocation-free. *)
  let tx0 = Array.make nl max_int and ty0 = Array.make nl max_int in
  let tx1 = Array.make nl min_int and ty1 = Array.make nl min_int in
  let full = win.x0 = 0 && win.y0 = 0 && win.x1 = w - 1 && win.y1 = h - 1 in
  (* The target-side flood, a FIFO in [fr.fifo] between [fhead] and
     [ftail]: every target is queued unconditionally (targets are
     already marked, which counts as seen). *)
  let flooding = ref (flood && full) in
  let fhead = ref 0 and ftail = ref 0 and flooded = ref 0 in
  let fifo_push m =
    if !ftail = Array.length fr.fifo then fr.fifo <- Frontier.doubled fr.fifo;
    fr.fifo.(!ftail) <- m;
    incr ftail
  in
  if !flooding then List.iter fifo_push targets;
  let flood_visit m =
    if dist_gen.(m) = gen then flooding := false
    else if abs mark_gen.(m) <> gen && price pr m <> blocked then begin
      mark_gen.(m) <- -gen;
      fifo_push m
    end
  in
  let flood_step () =
    if !fhead = !ftail then finished := true
    else begin
      let n = fr.fifo.(!fhead) in
      incr fhead;
      incr flooded;
      let layer = n / pc in
      let p = n - (layer * pc) in
      let y = p / w in
      let x = p - (y * w) in
      if x < tx0.(layer) then tx0.(layer) <- x;
      if x > tx1.(layer) then tx1.(layer) <- x;
      if y < ty0.(layer) then ty0.(layer) <- y;
      if y > ty1.(layer) then ty1.(layer) <- y;
      if dist_gen.(n) = gen then flooding := false
      else begin
        if x + 1 < w then flood_visit (n + 1);
        if x > 0 then flood_visit (n - 1);
        if y + 1 < h then flood_visit (n + w);
        if y > 0 then flood_visit (n - w);
        if layer + 1 < nl then flood_visit (n + pc);
        if layer > 0 then flood_visit (n - pc)
      end
    end
  in
  (* One relax, called directly with the neighbour's planar coordinates
     [x], [y]: a full-grid search skips the window test on a
     loop-invariant flag and never prices an escape.  A node whose
     [dist_gen] is not the current generation is unlabelled: its
     distance is [max_int]. *)
  let in_window x y =
    x >= win.x0 && x <= win.x1 && y >= win.y0 && y <= win.y1
  in
  let relax from gscore n x y extra =
    if full || in_window x y then begin
      let penalty = price pr n in
      if penalty <> blocked then begin
        let nd = gscore + extra + penalty in
        if dist_gen.(n) <> gen || nd < dist.(n) then begin
          dist.(n) <- nd;
          dist_gen.(n) <- gen;
          parent.(n) <- from;
          push (nd + heuristic n x y) n
        end
      end
    end
    else
      match escape with
      | None -> ()
      | Some h_out ->
          let penalty = price pr n in
          if penalty <> blocked then begin
            let key = gscore + extra + penalty + h_out n x y in
            if key < !f_min_out then f_min_out := key
          end
  in
  while (not !finished) && not (Frontier.is_empty kernel fr) do
    let prio = Frontier.min_priority kernel fr in
    let n = Frontier.pop kernel fr in
    (* Every popped node was labelled when it was pushed. *)
    let gscore = dist.(n) in
    (* Layer-major, row-major node numbering: two divisions. *)
    let layer = n / pc in
    let p = n - (layer * pc) in
    let y = p / w in
    let x = p - (y * w) in
    (* Stale frontier entry: the node was re-pushed with a smaller key. *)
    if prio - heuristic n x y <= gscore then begin
      incr expanded;
      if x < tx0.(layer) then tx0.(layer) <- x;
      if x > tx1.(layer) then tx1.(layer) <- x;
      if y < ty0.(layer) then ty0.(layer) <- y;
      if y > ty1.(layer) then ty1.(layer) <- y;
      let stop_now =
        match stop with
        | None -> false
        | Some f ->
            !expanded land (stop_interval - 1) = 0 && f (!expanded + !flooded)
      in
      if stop_now then begin
        aborted := true;
        finished := true
      end
      else if mark_gen.(n) = gen then begin
        found :=
          Some { path = backtrace ws n; total_cost = gscore; expanded = !expanded };
        finished := true
      end
      else begin
        let horizontal_cost = hcost.(layer) in
        let vertical_cost = vcost.(layer) in
        if x + 1 < w then relax n gscore (n + 1) (x + 1) y horizontal_cost;
        if x > 0 then relax n gscore (n - 1) (x - 1) y horizontal_cost;
        if y + 1 < h then relax n gscore (n + w) x (y + 1) vertical_cost;
        if y > 0 then relax n gscore (n - w) x (y - 1) vertical_cost;
        (* Layer changes: one relaxation per adjacent layer — exactly one
           on a two-layer stack, preserving the historical frontier
           evolution (and with it Buckets pop-order byte-identity). *)
        if layer + 1 < nl then relax n gscore (n + pc) x y via;
        if layer > 0 then relax n gscore (n - pc) x y via;
        if !flooding then flood_step ()
      end
    end
  done;
  for l = 0 to nl - 1 do
    if tx1.(l) >= tx0.(l) then
      Workspace.note_touched ws ~layer:l ~x0:tx0.(l) ~y0:ty0.(l) ~x1:tx1.(l)
        ~y1:ty1.(l)
  done;
  (match work with
  | None -> ()
  | Some wk ->
      wk.settled <- wk.settled + !expanded;
      wk.flooded <- wk.flooded + !flooded);
  (!found, !expanded, !aborted, !f_min_out)

(* Bounding box of the endpoint sets, in planar coordinates. *)
let bbox g nodes =
  List.fold_left
    (fun (x0, y0, x1, y1) n ->
      let x = Grid.node_x g n and y = Grid.node_y g n in
      (min x0 x, min y0 y, max x1 x, max y1 y))
    (max_int, max_int, min_int, min_int)
    nodes

(* The [Margin] policy: run [attempt] restricted to the endpoints'
   bounding box grown by [margin] cells, widening geometrically and
   retrying until the window covers the whole grid — the standard
   detailed-routing pruning: almost every connection fits its bbox plus a
   small margin, and the rare detour pays one cheap failed probe.

   The windowed result is kept only when it is provably globally optimal:
   any path that leaves the window must stray at least [margin + 1] planar
   steps beyond the endpoints' bounding box and come back, so it costs at
   least [wire * (min-L1 + 2 * (margin + 1))] (vias and penalties only add
   to that).  A found cost at or below the bound cannot be beaten outside
   the window; a costlier find triggers a widen-and-retry just like a
   failure.  Windowed searches therefore return exactly the unwindowed
   cost, and the expansion count of discarded probes is charged to the
   final result so effort metrics stay honest. *)
let widen g ~margin ~wire ~sources ~targets attempt =
  let full = full_win g in
  if sources = [] || targets = [] then
    let r, _, _, _ = attempt full in
    r
  else begin
    let bx0, by0, bx1, by1 = bbox g (List.rev_append sources targets) in
    let min_l1 =
      List.fold_left
        (fun acc s ->
          let sx = Grid.node_x g s and sy = Grid.node_y g s in
          List.fold_left
            (fun acc t ->
              min acc (abs (sx - Grid.node_x g t) + abs (sy - Grid.node_y g t)))
            acc targets)
        max_int sources
    in
    let clip m =
      {
        x0 = max 0 (bx0 - m);
        y0 = max 0 (by0 - m);
        x1 = min full.x1 (bx1 + m);
        y1 = min full.y1 (by1 + m);
      }
    in
    let rec loop m wasted =
      let win = clip m in
      let optimal r =
        win = full || r.total_cost <= wire * (min_l1 + (2 * (m + 1)))
      in
      match attempt win with
      | Some r, _, _, _ when optimal r ->
          Some { r with expanded = r.expanded + wasted }
      | Some r, _, _, _ -> loop ((2 * m) + 4) (wasted + r.expanded)
      (* Aborted probe: the budget tripped mid-search — give up instead
         of widening, the caller is unwinding anyway. *)
      | None, _, true, _ -> None
      | None, expanded, false, _ ->
          if win = full then None else loop ((2 * m) + 4) (wasted + expanded)
    in
    loop (max 0 margin) 0
  end

(* The [Guide] policy: one probe of the guide window (hulled with the
   endpoints and clipped to the grid), certified {e pop-order identical}
   to the full search — not merely equal in cost, byte-identical in path.

   The certificate: every relaxation the window rejects is a frontier
   entry the full search would have considered; its key would have been
   [g + step + penalty + h].  The probe prices each such entry ([escape])
   and keeps the minimum, [f_min_out].  If the target pops at cost [c*]
   with [f_min_out > c*] (strictly), then in the full search every
   out-of-window entry sits in a priority bucket strictly above [c*]: the
   full run pops the exact same node sequence and terminates at the same
   target pop, with the same parents — the same path, the same expansion
   count.  The strict inequality matters because the Dial bucket queue
   ([Buckets]) is LIFO within one bucket: an out-of-window entry sharing
   bucket [c*] could pop first.  The argument relies on bucket content
   identity and therefore holds for the [Buckets] kernel only — a binary
   heap's tie-breaking depends on the shape of the whole heap, which the
   extra out-of-window entries perturb.  An exhausted probe without one
   rejected escape is certified too: every reachable passable node lies
   in-window, so the full search fails identically.  A hulled window
   covering the grid (or a degenerate endpoint set) makes the probe the
   full search itself, trivially certified.

   A certified probe counts a hit and stands in for the full search.  An
   uncertified one counts a fallback: the full search runs, with the
   probe's expansions charged as waste.  An aborted probe counts neither
   and gives up. *)
let guided g ~rect ~tally ~sources ~targets attempt =
  let full = full_win g in
  let win =
    if sources = [] || targets = [] then full
    else
      let bx0, by0, bx1, by1 = bbox g (List.rev_append sources targets) in
      {
        x0 = max 0 (min bx0 rect.Geom.Rect.x0);
        y0 = max 0 (min by0 rect.Geom.Rect.y0);
        x1 = min full.x1 (max bx1 rect.Geom.Rect.x1);
        y1 = min full.y1 (max by1 rect.Geom.Rect.y1);
      }
  in
  let found, expanded, aborted, f_min_out = attempt win in
  let certified =
    match found with
    | Some r -> f_min_out > r.total_cost
    | None -> f_min_out = max_int
  in
  if aborted then None
  else if certified then begin
    tally.hits <- tally.hits + 1;
    found
  end
  else begin
    tally.fallbacks <- tally.fallbacks + 1;
    match attempt full with
    | Some r, _, _, _ -> Some { r with expanded = r.expanded + expanded }
    | None, _, _, _ -> None
  end

(* The [L1] heuristic: L1 distance to the nearest target times the wire
   cost, exact at every node of the grid.  A two-pass distance transform
   over the bounding box B of the targets' planar cells holds the exact
   distance inside B (a chamfer over any rectangle containing every
   target is exact).  A node outside B is clamped into B and pays its
   distance to the clamp point on top, which is exact too: for any
   target t in B, |x - tx| = |x - cx| + |cx - tx| where cx is x clamped
   into B's x-range, and likewise for y.  A build costs O(B) — one cell
   for a 2-pin net — and a lookup O(1), whatever the search window: it
   takes the coordinates the expansion loop already has, so it divides
   nothing.

   The field is a pure function of the planar target list: it reads
   neither grid occupancy nor the window.  The workspace's stored key is
   checked first and a matching field is reused verbatim, so the
   repeated searches of an escalation loop (shove-and-retry against the
   same target set) skip the rebuild.  No target means a constant
   heuristic. *)
let l1 g ws ~wire ~targets =
  match targets with
  | [] -> zero
  | _ ->
      let bx0, by0, bx1, by1 = bbox g targets in
      let w = Grid.width g in
      let hf = ws.Workspace.hfield in
      let tplanar = List.map (fun t -> Grid.planar g t) targets in
      if not (Workspace.hfield_memo_hit ws ~targets:tplanar) then begin
        let inf = max_int / 256 in
        for y = by0 to by1 do
          let row = y * w in
          for x = bx0 to bx1 do
            hf.(row + x) <- inf
          done
        done;
        List.iter (fun p -> hf.(p) <- 0) tplanar;
        for y = by0 to by1 do
          let row = y * w in
          for x = bx0 to bx1 do
            let i = row + x in
            if x > bx0 && hf.(i - 1) + 1 < hf.(i) then hf.(i) <- hf.(i - 1) + 1;
            if y > by0 && hf.(i - w) + 1 < hf.(i) then hf.(i) <- hf.(i - w) + 1
          done
        done;
        for y = by1 downto by0 do
          let row = y * w in
          for x = bx1 downto bx0 do
            let i = row + x in
            if x < bx1 && hf.(i + 1) + 1 < hf.(i) then hf.(i) <- hf.(i + 1) + 1;
            if y < by1 && hf.(i + w) + 1 < hf.(i) then hf.(i) <- hf.(i + w) + 1
          done
        done;
        Workspace.hfield_memo_store ws ~targets:tplanar
      end;
      fun _ x y ->
        let cx = if x < bx0 then bx0 else if x > bx1 then bx1 else x in
        let cy = if y < by0 then by0 else if y > by1 then by1 else y in
        wire * (abs (x - cx) + abs (y - cy) + hf.((cy * w) + cx))

let lower_bound g ws ~cost ~targets = function
  | Zero -> zero
  | L1 -> l1 g ws ~wire:cost.Cost.wire ~targets

let estimate g ws ~cost ~targets heuristic =
  let h = lower_bound g ws ~cost ~targets heuristic in
  fun n -> h n (Grid.node_x g n) (Grid.node_y g n)

let run ?(kernel = Binary_heap) ?(heuristic = Zero) ?(window = Full) ?stop
    ?(flood = false) ?work g ws ~cost ~passable ~sources ~targets () =
  (* One heuristic for the whole call: it orders the frontier of every
     attempt and prices the escapes a guide probe rejects. *)
  let h = lower_bound g ws ~cost ~targets heuristic in
  let pricing = pricing g passable in
  let attempt ~escape win =
    core g ws ~kernel ~cost ~pricing ~sources ~targets ~heuristic:h ~win
      ~escape ~stop ~flood ~work
  in
  match window with
  | Full ->
      let r, _, _, _ = attempt ~escape:None (full_win g) in
      r
  | Margin margin ->
      widen g ~margin ~wire:cost.Cost.wire ~sources ~targets
        (attempt ~escape:None)
  | Guide { rect; tally } ->
      guided g ~rect ~tally ~sources ~targets (attempt ~escape:(Some h))

(* Plain BFS wave expansion; dist doubles as the visited set. *)
let run_lee g (ws : Workspace.t) ~passable ~sources ~targets () =
  Workspace.begin_search ws;
  let pr = pricing g passable in
  let gen = ws.gen in
  let dist = ws.dist and dist_gen = ws.dist_gen and parent = ws.parent in
  List.iter (fun t -> ws.mark_gen.(t) <- gen) targets;
  let queue = Queue.create () in
  List.iter
    (fun s ->
      if dist_gen.(s) <> gen || dist.(s) > 0 then begin
        dist.(s) <- 0;
        dist_gen.(s) <- gen;
        parent.(s) <- -1;
        Queue.add s queue
      end)
    sources;
  let w = Grid.width g and h = Grid.height g in
  let expanded = ref 0 in
  let found = ref None in
  let searching = ref true in
  while !searching && not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    incr expanded;
    if ws.mark_gen.(n) = gen then begin
      found :=
        Some { path = backtrace ws n; total_cost = dist.(n); expanded = !expanded };
      searching := false
    end
    else begin
      let d = dist.(n) in
      let visit m =
        if dist_gen.(m) <> gen && price pr m <> blocked then begin
          dist.(m) <- d + 1;
          dist_gen.(m) <- gen;
          parent.(m) <- n;
          Queue.add m queue
        end
      in
      let x = Grid.node_x g n and y = Grid.node_y g n in
      let layer = Grid.node_layer g n in
      if x + 1 < w then visit (n + 1);
      if x > 0 then visit (n - 1);
      if y + 1 < h then visit (n + w);
      if y > 0 then visit (n - w);
      if layer + 1 < Grid.layers g then visit (Grid.node_above g n);
      if layer > 0 then visit (Grid.node_below g n)
    end
  done;
  !found

let reachable g ws ~passable ~sources ~targets =
  match
    run g ws ~cost:Cost.uniform ~passable ~sources ~targets ()
  with
  | Some _ -> true
  | None -> false
