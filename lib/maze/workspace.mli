(** Reusable search scratch space.

    A search over a [w × h × layers] grid needs distance, parent and membership
    arrays of that size.  The workspace allocates them once and invalidates
    them in O(1) between searches with generation stamps, so the router can
    run thousands of searches without per-search allocation. *)

(** The search's queues: a binary heap, a Dial bucket queue and the
    target-side flood's FIFO.  Their operations live in {!Search}, beside
    the expansion loop, so that a push or a pop is a call inside one
    compilation unit (see {!Search.Frontier}); the record lives here so
    that a workspace carries the storage from search to search.  Nothing
    but {!Search} reads or writes it, and {!begin_search} empties it. *)
type frontier = {
  node_bits : int;
      (** bits a node index takes in a packed heap key: the least [b]
          with [2{^b}] at least the node count *)
  mutable keys : int array;
      (** the binary heap, one packed key per entry:
          [(priority lsl node_bits) lor node] *)
  mutable size : int;  (** heap entries *)
  mutable heads : int array;
      (** per circular priority slot (a power of two of them): the
          entry on top of that priority's LIFO stack, [-1] when empty *)
  mutable base : int;
      (** lower bound of the stored bucket priorities; every stored
          priority lies in [[base, hi]] and [hi - base] is below the slot
          count *)
  mutable hi : int;
  mutable count : int;  (** bucket entries stored *)
  mutable entry_node : int array;  (** per bucket entry: its node *)
  mutable entry_next : int array;
      (** per bucket entry: the entry below it on its stack, or the next
          free entry *)
  mutable free : int;  (** head of the free-entry list, [-1] when none *)
  mutable fresh : int;  (** entries at or above this index were never used *)
  mutable fifo : int array;
      (** the target-side flood's queue; it grows to the largest flood
          so far, nothing is sized to the grid up front *)
}

val make_frontier : nodes:int -> frontier
(** Empty queues for node indices below [nodes]: the heap sized to
    [nodes / 8] (minimum 1024), the bucket entries and the FIFO to 64;
    each doubles when full. *)

val clear_frontier : frontier -> unit
(** Empty all three queues, keeping their storage: O(1) for the heap
    and the FIFO, O(priority span) for the buckets. *)

type t = private {
  dist : int array;
      (** tentative cost of each node; valid only where [dist_gen] holds
          the current [gen] *)
  parent : int array;
      (** predecessor on the cheapest path found so far ([-1] for a
          source); valid only where [dist] is *)
  dist_gen : int array;  (** generation that last wrote [dist] *)
  mark_gen : int array;
      (** [gen]: a target of the current search; [-gen]: a node the
          current search's target-side flood has queued *)
  mutable gen : int;  (** the current search's generation *)
  frontier : frontier;  (** the search's queues *)
  hfield : int array;
      (** planar ([width × height]) scratch for the {!Search.L1}
          heuristic's distance transform over the targets' bounding
          box, owned and rebuilt by {!Search.run} *)
  mutable hkey_targets : int list;
      (** planar targets the [hfield] contents were built for; [] when
          none *)
  tx0 : int array;  (** touched-region accumulator, see below *)
  ty0 : int array;
  tx1 : int array;
  ty1 : int array;
  nlayers : int;
}
(** The record is [private] so that the search loop, the one hot loop of
    the router, binds the arrays and [gen] once per search and indexes
    them directly: the project builds with [-opaque] in dune's default
    profile, so no cross-module accessor call is ever inlined.  The
    current search's state is generation-stamped:

    - a node's distance is [dist.(n)] when [dist_gen.(n) = gen] and
      [max_int] otherwise, and a write stamps [dist_gen.(n) <- gen];
    - a node is a target when [mark_gen.(n) = gen], and has been seen by
      the target-side flood ({!Search.run}'s [flood]) when
      [abs mark_gen.(n) = gen]: the flood marks [-gen] only on nodes it
      has not seen, so it never unmarks a target.

    Nothing but {!Search} writes into the arrays or the frontier. *)

val create : Grid.t -> t
(** Workspace sized for the given grid (its frontier made by
    {!make_frontier} for the grid's node count).  It may be reused for any grid of the
    same dimensions and layer stack. *)

val layers : t -> int
(** Layer count of the grid this workspace was sized for. *)

val begin_search : t -> unit
(** Start a new generation, which invalidates every distance, parent and
    mark of previous searches in O(1), and empty the frontier
    ({!clear_frontier}). *)

val hfield_memo_hit : t -> targets:int list -> bool
(** Whether the stored [hfield] contents were computed for exactly this
    non-empty planar target list.  The field is a pure function of it (it
    never reads grid occupancy or the search window, so no dirty-state
    check is needed), hence a hit means the transform can be reused
    verbatim — this is what lets repeated searches against an unchanged
    target set skip the recompute. *)

val hfield_memo_store : t -> targets:int list -> unit
(** Record the key the [hfield] contents were just computed for. *)

(** {1 Touched-region accumulator}

    {!Search.run} records the per-layer bounding box of every node it
    expands (successful, failed and aborted searches alike).  Unlike the
    generation stamps this accumulator is {e not} cleared by
    {!begin_search}: planning a net spans several searches (one per
    connection) and refinement's certificates ({!Cache.read_certs}) need
    the union of everything those searches read, so only an explicit
    {!clear_touched} resets it. *)

val clear_touched : t -> unit

val note_touched :
  t -> layer:int -> x0:int -> y0:int -> x1:int -> y1:int -> unit
(** Merge a rectangle of expanded nodes into the accumulator (called by
    the search core once per completed search loop). *)

val touched : t -> layer:int -> Geom.Rect.t option
(** Bounding box of nodes expanded on [layer] since the last
    {!clear_touched}; [None] when no node of that layer was expanded. *)
