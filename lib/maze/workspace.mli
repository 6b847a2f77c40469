(** Reusable search scratch space.

    A search over a [w × h × layers] grid needs distance, parent and membership
    arrays of that size.  The workspace allocates them once and invalidates
    them in O(1) between searches with generation stamps, so the router can
    run thousands of searches without per-search allocation. *)

type t

val create : Grid.t -> t
(** Workspace sized for the given grid (frontier queues sized to
    [node_count / 8], minimum 1024).  It may be reused for any grid of the
    same dimensions and layer stack. *)

val node_capacity : t -> int

val layers : t -> int
(** Layer count of the grid this workspace was sized for. *)

val begin_search : t -> unit
(** Invalidate all distances, parents and marks from previous searches. *)

val dist : t -> int -> int
(** Tentative distance of a node in the current search; [max_int] when
    unvisited. *)

val set_dist : t -> int -> int -> unit

val parent : t -> int -> int
(** Predecessor node in the current search ([-1] for sources/unvisited). *)

val set_parent : t -> int -> int -> unit

val mark : t -> int -> unit
(** Add a node to the current search's target/member set. *)

val marked : t -> int -> bool

(** {1 Target-side flood}

    The breadth-first flood a search runs from its targets when asked to
    ({!Search.run}'s [flood]) shares the mark array: a node carries a
    target mark or a flood mark, and the flood marks only nodes that are
    not yet {!flood_seen}, so it never unmarks a target. *)

val flood_mark : t -> int -> unit
(** Record a node as queued by the current search's flood. *)

val flood_seen : t -> int -> bool
(** The node is a target of the current search or was queued by its
    flood. *)

val flood_queue : t -> Util.Vec.t
(** The flood's FIFO (cleared by {!begin_search}).  It grows to the
    largest flood run so far; nothing is sized to the grid up front. *)

val heap : t -> Util.Pqueue.t
(** The binary-heap search frontier (cleared by {!begin_search}). *)

val buckets : t -> Util.Bucketq.t
(** The bucket-queue search frontier (cleared by {!begin_search}); used
    when the search runs with the [Buckets] kernel. *)

val hfield : t -> int array
(** Planar scratch array ([width × height]) holding the precomputed
    A* heuristic field (L1 distance to the nearest target, over the
    targets' bounding box); owned and rebuilt by {!Search.run} under the
    {!Search.L1} heuristic. *)

val hfield_memo_hit : t -> targets:int list -> bool
(** Whether the stored {!hfield} contents were computed for exactly this
    non-empty planar target list.  The field is a pure function of it (it
    never reads grid occupancy or the search window, so no dirty-state
    check is needed), hence a hit means the transform can be reused
    verbatim — this is what lets repeated searches against an unchanged
    target set, widening retries included, skip the recompute. *)

val hfield_memo_store : t -> targets:int list -> unit
(** Record the key the {!hfield} contents were just computed for. *)

(** {1 Touched-region accumulator}

    {!Search.run} records the per-layer bounding box of every node it
    expands (successful, failed and aborted searches alike).  Unlike the
    generation stamps this accumulator is {e not} cleared by
    {!begin_search}: a net attempt spans several searches (windowed
    probes, one search per connection) and the engine needs the union of
    everything those searches read, so only an explicit {!clear_touched}
    resets it. *)

val clear_touched : t -> unit

val note_touched :
  t -> layer:int -> x0:int -> y0:int -> x1:int -> y1:int -> unit
(** Merge a rectangle of expanded nodes into the accumulator (called by
    the search core once per completed search loop). *)

val touched : t -> layer:int -> Geom.Rect.t option
(** Bounding box of nodes expanded on [layer] since the last
    {!clear_touched}; [None] when no node of that layer was expanded. *)
