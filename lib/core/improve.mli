(** Post-route refinement: one-net-at-a-time rip-up-and-improve.

    After a complete routing, early nets often took detours around wiring
    that has since moved or never materialised.  The classical cleanup pass
    revisits each net: replan it against the final state of everything
    else and commit the new route only if it improves the weighted cost
    (wirelength + via cost × vias).  Planning is read-only ([plan_net]'s
    free ≡ self-owned equivalence makes the searches exact replicas of a
    rip-then-reroute), so a rejected replan leaves the grid — and its
    freed stamps — completely untouched.  The pass is strictly monotone —
    total cost never increases and completeness is preserved — and it
    iterates until a pass makes no further improvement (or [max_passes]
    is reached).

    With [incremental] (the default, DESIGN.md §11) a per-net
    {!Maze.Cache} carries read-region certificates across passes (and,
    via [cache], across refine calls): a net whose certificate region
    has had no cell freed since it was recorded is skipped outright, and a
    net already at the closed-form floor of its pins (half-perimeter
    wire plus one via per layer gap) is skipped without searching.
    Every other net is planned.  Both skips replay decisions that a full
    replan would provably reproduce, so layouts, costs, pass counts and
    improved counts are byte-identical with the flag on or off.

    A plan is one full-grid A* search per connection on the bucket queue
    ({!Maze.Search.Buckets}, {!Maze.Search.L1}, {!Maze.Search.Full}),
    the detailed-route setting [Flow] forces.  A* settles only nodes
    whose key is at most the connection's cost, so each search, and
    the certificate it records, stays local without a window, and no
    search's work is discarded.

    This is the quality knob the ablation experiment E8 measures. *)

type stats = {
  passes : int;  (** passes actually executed *)
  improved_nets : int;  (** net-visits that kept a better route *)
  wirelength_before : int;
  wirelength_after : int;
  vias_before : int;
  vias_after : int;
  planned : int;  (** net-visits that actually ran planning searches *)
  skipped_cert : int;  (** visits skipped on a clean read-region certificate *)
  skipped_bound : int;
      (** visits skipped because the net is at its pins' closed-form
          floor *)
  cache_stale : int;  (** certificates invalidated by freed cells *)
}

val refine :
  ?max_passes:int ->
  ?cost:Maze.Cost.t ->
  ?incremental:bool ->
  ?cache:Maze.Cache.t ->
  Netlist.Problem.t ->
  Grid.t ->
  stats
(** Refine the routed grid in place.  Only nets that are currently fully
    connected are touched; fixed pre-wiring is never moved ([max_passes]
    defaults to 3, [cost] to {!Maze.Cost.default}, [incremental] to
    [true]).  [cache] persists certificates across refine calls on the
    {e same} grid value — rip-up/reroute cycles between calls invalidate
    exactly the nets whose regions were written; a cache created for
    another grid is ignored and rebuilt. *)
