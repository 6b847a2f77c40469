(** Weighted maze search over the routing grid: one search, {!run}.

    The search explores the 6-neighbourhood of each node (four planar steps
    plus a via step to each adjacent layer) and returns a cheapest path from
    any source to any target under the {!Cost.t} model plus a
    caller-supplied per-node entry penalty.  Dijkstra, A*, window-restricted
    and guide-probed searches are all the same expansion loop; they differ
    in three parameters:

    - [kernel], the frontier: the classical binary heap, or a Dial bucket
      queue that exploits the small bounded integer edge costs for O(1)
      queue operations.  Both kernels return equal-cost (though possibly
      different) paths.
    - [heuristic], the lower bound on the remaining cost that orders the
      frontier: {!Zero} (Dijkstra) or {!L1}.
    - [window], the part of the grid searched: the {!Full} grid, a
      {!Margin} around the endpoints that widens until its result is
      provably optimal, or a {!Guide} probe certified against the full
      search.

    A relaxation calls nothing across a module boundary and allocates
    nothing, because the project builds with [-opaque] in dune's default
    profile and no cross-module call is ever inlined.  The loop reads the
    workspace's arrays directly ({!Workspace.t} is a private record),
    runs both frontiers inside this module ({!Frontier}) and prices cells
    from data ({!passable}) by reading the grid's occupancy array
    ({!Grid.occupancy}).  Under {!Own} and {!Foreign} a search allocates
    its returned path plus a fixed per-search overhead, never per node.

    The {!passable} rule prices entering a node: [0] for an ordinary free
    (or self-owned) cell, a surcharge [k] for a cell the caller is willing
    to cross at that price (the rip-up scheduler prices foreign nets this
    way), or blocked for an impassable cell (obstacle, foreign pin, fixed
    wiring).  Sources must themselves be passable or owned. *)

type result = {
  path : Grid.Path.t;  (** source-to-target node sequence, both inclusive *)
  total_cost : int;
  expanded : int;
      (** nodes settled — the search-effort metric; includes the wasted
          expansions of discarded windowed and guide probes, never the
          nodes of a [flood] *)
}

type kernel =
  | Binary_heap
      (** a binary heap of packed keys: O(log n) per operation, any
          costs; it pops exactly as {!Util.Pqueue} would *)
  | Buckets
      (** a Dial bucket queue, LIFO within a priority: O(1) per operation
          for the bounded integer costs of the routing cost model *)

val kernel_name : kernel -> string
(** ["heap"] or ["buckets"] — the CLI/bench spelling. *)

type passable =
  | Own of int
      (** free cells and the given net's own cells cost nothing extra;
          every other cell is blocked *)
  | Foreign of {
      net : int;
      protected : Bytes.t;  (** ['\000'] per node unless protected *)
      rips : int array;  (** per net index ([id - 1]): its rip count *)
      penalty : int;
    }
      (** as {!Own}, plus another net [v]'s cell that is not
          [protected] at surcharge [penalty * (1 + rips.(v - 1))];
          obstacles and protected cells are blocked.  [rips] is read
          live, so the prices follow rips made between searches. *)
  | Custom of (int -> int option)
      (** any other rule: [Some k] enters at surcharge [k >= 0], [None]
          is blocked.  It must be pure: the search may call it in any
          order.  Each call is a closure call, and the rule may
          allocate; the router's own searches use {!Own} and
          {!Foreign}. *)
(** How a search prices entering a node, decoded once per search. *)

(** The search's two frontiers, as the loop runs them, exposed so that
    tests can pin their pop order.  Both hold integer payloads (node
    indices below the [nodes] they were made for) under integer
    priorities.  [Binary_heap] pops exactly as {!Util.Pqueue} does
    (same sift rules; ties land where they land there).  [Buckets] pops
    the smallest priority, LIFO among equal ones, from a circular window
    of priority slots that re-anchors and doubles when a push falls
    outside it.  Neither pop nor push allocates except to grow storage.
    Pushing a priority that does not fit above the node bits of a heap
    key raises [Invalid_argument]. *)
module Frontier : sig
  type t = Workspace.frontier

  val create : nodes:int -> t
  (** Empty queues for payloads in [[0, nodes)]. *)

  val clear : t -> unit
  (** Empty both queues ({!Workspace.clear_frontier}). *)

  val is_empty : kernel -> t -> bool

  val push : kernel -> t -> int -> int -> unit
  (** [push kernel f priority payload] *)

  val min_priority : kernel -> t -> int
  (** The priority of the entry the next {!pop} returns.
      @raise Invalid_argument if that queue is empty. *)

  val pop : kernel -> t -> int
  (** Remove an entry of the smallest priority and return its payload.
      @raise Invalid_argument if that queue is empty. *)
end

type heuristic =
  | Zero  (** no heuristic: plain Dijkstra *)
  | L1
      (** A*: L1 distance to the nearest target times the wire cost —
          admissible and consistent, so it returns Dijkstra's cost with
          fewer expansions when the target set is compact.  A two-pass
          distance transform over the bounding box of the targets' planar
          cells holds the exact distance inside that box; a node outside
          it is clamped into the box and adds its distance to the clamp
          point, which is exact as well.  A build costs the box (one cell
          for a single target), not the grid or the window, and a lookup
          is O(1).  An empty target list gets a constant heuristic. *)

type guide_tally = { mutable hits : int; mutable fallbacks : int }
(** Certified probes and full-search fallbacks of {!Guide} searches. *)

type window =
  | Full  (** the whole grid *)
  | Margin of int
      (** the endpoints' bounding box grown by this margin.  A windowed
          result is kept only when its cost provably cannot be beaten
          outside the window; otherwise (and on failure) the margin widens
          geometrically and the search retries, falling back to the full
          grid.  The result is as complete as a full search and equal to
          it in cost (a path can differ on an exact-cost tie outside the
          window), but every discarded probe's expansions are wasted:
          under {!L1} a full search already settles only nodes whose key
          is at most the result's cost. *)
  | Guide of { rect : Geom.Rect.t; tally : guide_tally }
      (** A global router's prediction that the connection stays inside
          [rect].  One probe searches [rect] hulled with the endpoints and
          clipped to the grid, and prices every relaxation the window
          rejects with the frontier key it would have had in the full
          search.  The probe is certified {e pop-order identical} to the
          full search — same path, same expansion count — when the target
          popped strictly below the cheapest rejected key, or when the
          window exhausted with nothing rejected.  A certified probe stands
          in for the full search and counts a hit; otherwise the full
          search runs, with the probe's expansions charged as waste, and
          counts a fallback.  An aborted probe counts neither.  The
          argument relies on bucket content identity, so the byte-identity
          contract holds for the {!Buckets} kernel only — binary-heap
          tie-breaking is perturbed by the extra entries. *)

type work = { mutable settled : int; mutable flooded : int }
(** The work of {!run} calls, whether or not they find a path: forward
    nodes settled (discarded window and guide probes included) and
    target-side flood nodes.  Each call adds to it.  For a call that
    returns [Some r], [settled] grows by exactly [r.expanded]. *)

val run :
  ?kernel:kernel ->
  ?heuristic:heuristic ->
  ?window:window ->
  ?stop:(int -> bool) ->
  ?flood:bool ->
  ?work:work ->
  Grid.t ->
  Workspace.t ->
  cost:Cost.t ->
  passable:passable ->
  sources:int list ->
  targets:int list ->
  unit ->
  result option
(** Cheapest path from the source set to the target set; [None] when no
    target is reachable.  Defaults: [Binary_heap], [Zero], [Full] — plain
    Dijkstra over the whole grid, complete and optimal under non-negative
    costs.  A full-grid search skips the window test and never prices an
    escape.

    [stop] is a cooperative cancellation hook, polled every few dozen
    expansions with the in-flight node count (expansions plus flood
    nodes); answering [true] aborts the search, which then returns
    [None] without widening or re-running anything (an aborted probe
    must not trigger retries).

    [flood] (default [false]) proves failure from whichever side of the
    cut is smaller.  On an attempt over the full grid — a {!Full}
    search, the last widening of a {!Margin} search, a {!Guide}
    fallback — a breadth-first flood from the targets runs in lockstep
    with the expansion, one flood node per settled node, reading only
    whether [passable] blocks a node of the 6-neighbourhood.  It
    stops for good when it meets a node the search has labelled (the
    sources are labelled first).  If its queue empties first, the
    targets' component contains no source, and the search returns
    [None] without exhausting the source side.  The flood never changes
    the frontier, so a search that finds a path returns the same path,
    cost and [expanded] with the flag on or off, and a search that
    fails still fails.  What changes is a failure's cost and its read
    region: the flood's nodes join the workspace's touched accumulator.
    Windowed probes never flood, so their certificates are unchanged.

    [work], when given, receives the call's forward and flood nodes
    (see {!work}) — the only account of a failed search's cost.

    The {!L1} heuristic reuses the workspace's stored transform when the
    planar target list is unchanged since it was built — the transform
    reads neither grid occupancy nor the window, so the reuse is
    value-exact.  Escalation loops and retry sweeps re-search the same
    target set repeatedly and profit most.  Within one call the transform
    is built at most once: every widening of a {!Margin} search and the
    escape pricing of a {!Guide} probe share it. *)

val estimate :
  Grid.t ->
  Workspace.t ->
  cost:Cost.t ->
  targets:int list ->
  heuristic ->
  int ->
  int
(** [estimate g ws ~cost ~targets h] is the lower bound {!run} adds to a
    node's cost so far under [h], and the price it gives the escapes a
    {!Guide} probe rejects: [0] under {!Zero}, the wire cost times the
    node's L1 distance to the nearest target under {!L1} (building or
    reusing the workspace's transform, as {!run} does).  The returned
    function reads the workspace's transform, so it is valid until the
    next {!L1} build on that workspace. *)

val run_lee :
  Grid.t ->
  Workspace.t ->
  passable:passable ->
  sources:int list ->
  targets:int list ->
  unit ->
  result option
(** The original Lee (1961) wave expansion: plain breadth-first search with
    unit step costs and no cost model — every passable node costs 1 to
    enter regardless of direction, layer or the surcharge [passable]
    prices (only whether it blocks a node is used).  Finds a
    minimum-step path; kept as the historical baseline the weighted search
    is compared against in the micro-benchmarks. *)

val reachable :
  Grid.t ->
  Workspace.t ->
  passable:passable ->
  sources:int list ->
  targets:int list ->
  bool
(** Pure reachability (uniform costs) — the test oracle. *)
