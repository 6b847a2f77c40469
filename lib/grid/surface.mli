(** The mutable N-layer routing grid.

    The grid is the routing surface shared by the maze search, the
    modification operators and the verifier.  It is a dense [width × height ×
    layers] array of cells; each cell is either free, an obstacle, or owned
    by a net (a positive net id).  Vias join two {e adjacent} layers at a
    planar position and are only legal between two cells owned by the same
    net; a via pair [l] joins layers [l] and [l+1].

    Cells are addressed either by [(layer, x, y)] triples or by packed
    integer {e nodes} ([node = layer·w·h + y·w + x]), the representation used
    throughout the search hot path.

    Every layer carries a preferred routing direction.  The default stack is
    two layers, layer 0 horizontal-preferred and layer 1 vertical-preferred
    (the historical convention); taller stacks default to alternating H/V.
    Preference is enforced by search costs, not by the grid itself (the
    router may wire any direction on any layer, as the original system
    does). *)

type t

val default_layers : int
(** [2] — the layer count of every problem that does not say otherwise. *)

val obstacle : int
(** The occupancy value of an obstacle cell ([-1]). *)

val free : int
(** The occupancy value of a free cell ([0]). *)

val default_dirs : int -> bool array
(** Per-layer horizontal preference of the default stack: alternating,
    layer 0 horizontal. *)

val create :
  ?layers:int -> ?dirs:bool array -> width:int -> height:int -> unit -> t
(** A fully free grid.  [layers] defaults to {!default_layers}; [dirs]
    gives each layer's horizontal preference ([true] = horizontal) and
    defaults to {!default_dirs}.
    @raise Invalid_argument on empty grids, fewer than two layers, or a
    direction array of the wrong length. *)

val copy : t -> t
(** Deep copy; mutations of the copy do not affect the original. *)

val equal : t -> t -> bool
(** Same dimensions, layer stack, occupancy, and vias — used by the
    transactional session tests to prove rollbacks are exact. *)

val width : t -> int

val height : t -> int

val layers : t -> int
(** Number of routing layers of this grid (≥ 2). *)

val prefers_horizontal : t -> layer:int -> bool
(** The layer's preferred routing direction. *)

val layer_dirs : t -> bool array
(** Per-layer horizontal preference, freshly allocated. *)

val planar_cells : t -> int
(** [width × height]. *)

val node_count : t -> int
(** [layers × width × height]: exclusive upper bound of packed node
    values. *)

(** {1 Node packing} *)

val node : t -> layer:int -> x:int -> y:int -> int

val node_layer : t -> int -> int

val node_x : t -> int -> int

val node_y : t -> int -> int

val planar : t -> int -> int
(** Planar index [y·w + x] of a node, identifying its (x,y) regardless of
    layer. *)

val node_above : t -> int -> int
(** The node at the same (x,y) one layer up.  Only meaningful when
    [node_layer g n + 1 < layers g]. *)

val node_below : t -> int -> int
(** The node at the same (x,y) one layer down.  Only meaningful when
    [node_layer g n > 0]. *)

val in_bounds : t -> x:int -> y:int -> bool

(** {1 Occupancy} *)

val occ : t -> int -> int
(** Occupancy value at a packed node. *)

val occupancy : t -> int array
(** The live occupancy array itself, indexed by packed node: {!free},
    {!obstacle} or the owning net id.  It is a read-only view: every
    write must go through {!occupy}, {!release} and the obstacle
    setters, which keep the via flags and the freed stamps in step.
    The maze search binds it once per search and reads cells without a
    call per cell. *)

val occ_at : t -> layer:int -> x:int -> y:int -> int

val is_free : t -> int -> bool

val is_obstacle : t -> int -> bool

val owner : t -> int -> int option
(** [Some net] when the node is owned by a net, else [None]. *)

val occupy : t -> net:int -> int -> unit
(** Claim a node for a net.
    @raise Invalid_argument if the node is an obstacle or owned by a
    different net (the caller must rip first — silent overwrites would mask
    router bugs). *)

val release : t -> int -> unit
(** Free a node (clears the via pairs adjacent to it, since a freed cell
    can no longer anchor one).  Releasing a free cell is a no-op; releasing
    an obstacle raises [Invalid_argument]. *)

val set_obstacle : t -> layer:int -> x:int -> y:int -> unit
(** Mark a cell as an obstacle.  @raise Invalid_argument if the cell is
    currently owned by a net. *)

val set_obstacle_all : t -> x:int -> y:int -> unit
(** Obstacle on every layer at (x,y). *)

val block_outside : t -> Geom.Rect.t -> unit
(** Turn every free cell outside the rectangle into an obstacle — used to
    carve rectangular routing regions out of the allocated array. *)

val block_rect : t -> ?layer:int -> Geom.Rect.t -> unit
(** Obstruct every cell of the rectangle (all layers unless [layer] is
    given).  Cells already owned by nets raise [Invalid_argument]. *)

(** {1 Vias}

    A via pair [l] ([0 ≤ l < layers−1]) joins layers [l] and [l+1] at a
    planar position.  On the default two-layer stack there is exactly one
    pair, so the pairless queries below coincide with it. *)

val has_via_pair : t -> layer:int -> x:int -> y:int -> bool
(** Is pair [layer] (joining [layer] and [layer+1]) present at (x,y)? *)

val has_via : t -> x:int -> y:int -> bool
(** Any via pair at (x,y) — the planar query renderers and planar
    legality checks want. *)

val has_via_node : t -> int -> bool
(** {!has_via} at the node's planar position (any pair, any layer). *)

val via_above : t -> int -> bool
(** Does the pair joining this node's layer to the one above exist at the
    node's position?  [false] on the top layer. *)

val via_below : t -> int -> bool
(** Does the pair joining this node's layer to the one below exist at the
    node's position?  [false] on layer 0. *)

val set_via : ?layer:int -> t -> x:int -> y:int -> unit
(** Place via pair [layer] (default 0, the only pair of a two-layer
    grid).  @raise Invalid_argument unless layers [layer] and [layer+1] at
    (x,y) are owned by the same net. *)

val clear_via : ?layer:int -> t -> x:int -> y:int -> unit
(** Remove via pair [layer] (default 0) if present. *)

val via_count : t -> int

(** {1 Freed stamps}

    Every {e freeing} write — a {!release} of an owned cell, a
    {!clear_via} of a placed pair (both of its cells) — advances the
    grid's clock and stamps the node it freed with the new value.
    Occupies, via placements and obstacles are not stamped: they can
    remove routes but never create a cheaper one, so the stamps' one
    consumer — refinement's "cannot improve" certificates — never needs
    them.  Consumers take a {!mark} and later ask whether a region of a
    layer has been freed since; the answer is exact.  This is what lets
    refinement skip certified nets without rescanning the grid. *)

type mark
(** A point in the grid's history: the clock at some instant. *)

val mark : t -> mark
(** The current clock. *)

val dirtied_in_freeing : t -> since:mark -> layer:int -> Geom.Rect.t -> bool
(** [dirtied_in_freeing g ~since ~layer r] is [true] exactly when some
    cell of layer [layer] inside [r] (clipped to the grid) was released,
    or lost a via, after [since] was taken.  Costs at most one read per
    cell of the clipped rectangle. *)

(** {1 Iteration and statistics} *)

val iter_nodes : t -> (int -> unit) -> unit

val iter_planar : t -> (x:int -> y:int -> unit) -> unit

val iter_via_pairs : t -> (layer:int -> x:int -> y:int -> unit) -> unit
(** Visit every placed via pair, lowest pair plane first, row-major within
    a plane. *)

val count_owned : t -> net:int -> int
(** Number of cells owned by the net. *)

val occupied_nodes : t -> net:int -> int list
(** All nodes owned by the net (O(cells); for tests and the verifier — the
    router tracks its own route lists incrementally). *)

val flood_net : t -> net:int -> int -> (int, unit) Hashtbl.t
(** [flood_net g ~net start] is the set of nodes in the connected piece
    of [net]'s cells that contains [start] (planar steps within a layer,
    vias between layers); empty when [start] is not owned by [net].
    Costs the cells reached, not the grid. *)

val fill_ratio : t -> float
(** Fraction of non-obstacle cells that are owned by some net. *)
