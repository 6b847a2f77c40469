(** Net-level routing: connect all pins of a net into one tree.

    Pins are joined Prim-style: each {!Search.run} connects the grown tree
    to its nearest still-unconnected pin, which yields reasonable Steiner
    trees without a separate topology phase.  [plan_net] runs those
    searches read-only (refine's planner);
    [route_net] plans and then occupies the planned paths (the workload
    generators' witness routes, test and bench harnesses). *)

type failure = {
  failed_net : int;
  unreached : Netlist.Net.pin;  (** first pin the search could not reach *)
}

type success = {
  added : int list;  (** nodes newly occupied for the net (excludes pins) *)
  wirelength : int;
  vias : int;
  expanded : int;  (** total nodes settled over all searches *)
}

val occupy_path : Grid.t -> net:int -> Grid.Path.t -> int list
(** Claim every node of the path for the net and place vias at layer
    changes; returns the nodes that were newly occupied (already-owned nodes
    are skipped).  The path must only visit free or self-owned cells. *)

val release_nodes : Grid.t -> int list -> unit
(** Free the given nodes (used to undo a partial routing). *)

val pin_node : Grid.t -> Netlist.Net.pin -> int

val plan_net :
  ?kernel:Search.kernel ->
  ?heuristic:Search.heuristic ->
  ?window:Search.window ->
  Grid.t ->
  Workspace.t ->
  cost:Cost.t ->
  passable:Search.passable ->
  Netlist.Net.t ->
  (Grid.Path.t * int) list option
(** Read-only twin of a standard (non-escalating) net route: runs the
    Prim-style connection searches of {!route_net} against the current
    grid but never occupies anything.  Returns the connection paths in
    order, each with its expansion count (including discarded windowed
    and guide probes), or [None] if some connection fails.  When
    [passable] prices free and self-owned cells alike (as
    [Search.Own net] does), the searches — and thus the paths — are
    exactly those a mutating run from the same grid state would produce.
    The search parameters are forwarded to every {!Search.run}. *)

val route_net :
  ?passable:Search.passable ->
  ?kernel:Search.kernel ->
  ?heuristic:Search.heuristic ->
  ?window:Search.window ->
  ?stop:(int -> bool) ->
  Grid.t ->
  Workspace.t ->
  cost:Cost.t ->
  Netlist.Net.t ->
  (success, failure) Stdlib.result
(** Connect all pins of the net on the grid: {!plan_net}, then occupy the
    planned paths.  On success the grid is updated; on failure (a
    connection found no path, or [stop] aborted it) the grid is left
    untouched.  Nets with fewer than two pins succeed trivially.
    [passable] defaults to [Search.Own] of the net's id: free and
    self-owned cells at no surcharge, everything else blocked.  It must
    price free and self-owned cells alike (planning does not occupy
    between connections), and must never price foreign cells if the
    result is to be committed directly. *)
