(* Per-net incremental-search cache (DESIGN.md §11).

   Each net owns one read-region certificate: the per-layer bounding
   rectangles of everything the net's last planning searches read, plus
   the grid's mark taken when they finished.  While no release lands
   inside the certificate, a replan provably reaches the same verdict as
   the last one, so the whole net visit can be skipped.

   The cache is bound to one physical grid value: [matches] compares by
   physical identity, because marks and freed stamps are meaningless
   across re-instantiated grids. *)

type cert = {
  certs : Geom.Rect.t option array;  (* one read region per layer *)
  since : Grid.mark;
  owned : int;  (* the net's cell count when the verdict was recorded *)
}

type t = {
  grid : Grid.t;
  entries : cert option array;  (* index net - 1 *)
  mutable hits : int;
  mutable stale : int;
  mutable bound_skips : int;
}

let create g ~nets =
  {
    grid = g;
    entries = Array.make nets None;
    hits = 0;
    stale = 0;
    bound_skips = 0;
  }

let matches t g ~nets = t.grid == g && Array.length t.entries = nets

(* The cells a set of searches may have read, from the workspace's
   per-layer expanded bounding boxes: an expanded node's reads are its
   four planar neighbours (same layer, one step) and the same (x,y) on
   the adjacent layers (via relaxations), so layer [l]'s read set is the
   dilated layer-[l] box joined with the adjacent layers' undilated
   boxes. *)
let read_certs ws =
  let nl = Workspace.layers ws in
  let dil = Option.map (fun r -> Geom.Rect.inflate r 1) in
  let join a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (Geom.Rect.hull a b)
  in
  Array.init nl (fun l ->
      let own = dil (Workspace.touched ws ~layer:l) in
      let above =
        if l + 1 < nl then Workspace.touched ws ~layer:(l + 1) else None
      in
      let below = if l > 0 then Workspace.touched ws ~layer:(l - 1) else None in
      join (join own above) below)

(* A verdict certificate survives blocking writes: occupies and vias in
   the read region can remove candidate routes but never create a
   cheaper one, so "replanning cannot improve this net" stays true; only
   a freeing write (which may open a better corridor, or ripped the
   net's own wiring — own cells release inside the recorded own-wiring
   boxes) can flip the verdict.  The [owned] count guards the one
   mutation freed stamps cannot see: a net whose wiring grew with
   no release at all. *)
let verdict_clean g ~since certs =
  let nl = Array.length certs in
  let rec loop l =
    l >= nl
    || (match certs.(l) with
       | None -> true
       | Some r -> not (Grid.dirtied_in_freeing g ~since ~layer:l r))
       && loop (l + 1)
  in
  loop 0

(* Latched certificate lookup: a stale entry is dropped (and counted)
   exactly once.  [owned] is the net's current cell count. *)
let cert_status t ~net ~owned =
  match t.entries.(net - 1) with
  | None -> `Miss
  | Some c ->
      if c.owned = owned && verdict_clean t.grid ~since:c.since c.certs
      then begin
        t.hits <- t.hits + 1;
        `Hit
      end
      else begin
        t.entries.(net - 1) <- None;
        t.stale <- t.stale + 1;
        `Miss
      end

let record_cert t ~net ~certs ~owned =
  t.entries.(net - 1) <- Some { certs; since = Grid.mark t.grid; owned }

let note_bound_skip t = t.bound_skips <- t.bound_skips + 1

let hits t = t.hits

let stale t = t.stale

let bound_skips t = t.bound_skips
