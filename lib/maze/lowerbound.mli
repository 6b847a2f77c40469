(** Per-net backward distance fields over the actual cost model.

    A field is the exact cost-to-target function of a window-restricted
    backward Dijkstra from a net's target set: wire, via and wrong-way
    step costs plus the caller's per-node entry penalties — the same
    quantity a forward {!Search} restricted to the same window and
    passability would compute, but for {e every} window node at once.

    Once built, a field is maintained as an admissible {e lower} bound
    under grid mutation (DESIGN.md §11): blocking writes are ignored
    (true distances only grew), freeing writes are repaired by a
    decrease-only re-relaxation seeded from the dirty-journal rectangles
    accumulated since the field's mark.  The field therefore never
    over-estimates, which makes it simultaneously

    - a tighter-than-L1 admissible A* heuristic for window-restricted
      searches ({!Search.run} with the {!Search.Field} heuristic), and
    - combined with the window-escape bound, a sound global lower bound
      on any route cost ({!bound}) — the skip oracle of [Core.Improve]. *)

type t

val inf_cost : int
(** The "unreachable within the window" value; all finite field values
    are strictly below it. *)

val build :
  Grid.t ->
  cost:Cost.t ->
  passable:(int -> int option) ->
  targets:int list ->
  around:int list ->
  margin:int ->
  t
(** Build the field by backward Dijkstra from [targets].  The window is
    the bounding box of [targets @ around] inflated by [margin] and
    clipped to the grid; [around] must include every node the caller
    will later query ({!bound} sources), so the escape-bound argument
    applies to them.  The field's journal mark is taken at build time. *)

val window : t -> Geom.Rect.t
(** The planar window the field covers. *)

val built_margin : t -> int
(** The [margin] the field was built with — the escape-bound radius.
    The escape term of {!bound} grows with it, so a caller that needs
    [bound >= c] to be provable must have built with [margin >=
    (c - L1) / 2 - 1] (otherwise the escape detour caps the bound
    below [c] no matter how tight the field is). *)

val value : t -> Grid.t -> int -> int
(** Raw field value of a node: the cost of a cheapest in-window path
    from the node to the target set at the time of the last
    build/repair, or {!inf_cost} when unreachable within the window or
    outside it.  For nodes that are currently passable, never
    over-estimates the current in-window distance (lower-bound
    invariant).  Values of impassable nodes may be stale: repairs skip
    them, because no search can expand into one and the write that
    eventually frees it is itself journaled (so it is recomputed then). *)

val bound : t -> Grid.t -> source:int -> int
(** Admissible global lower bound on the cost of any source-to-target
    path: [min(value source, wire × (L1-to-nearest-target +
    2 × (margin + 1)))] — in-window paths are bounded by the field,
    window-leaving paths by the escape detour. *)

type repair_outcome =
  | Clean  (** no journal rectangle touched the window: reused verbatim *)
  | Repaired  (** decrease-only re-relaxation of the dirtied region *)
  | Rebuilt  (** journal ring wrapped past the mark: rebuilt from scratch *)

val repair : Grid.t -> passable:(int -> int option) -> t -> repair_outcome
(** Restore the lower-bound invariant against every grid write since the
    field's mark, and advance the mark.  [passable] must be the same
    passability the field was built with (the net's own view of the
    grid). *)
