(** Seeded simulated-annealing macro placement.

    The placer assigns locations to the free instances of a problem's
    placement section (fixed instances never move) so that the realized
    problem is routable: footprints stay inside the region, avoid
    obstructions, pre-wiring, and existing pins, and no two instances
    conflict (footprint overlap, pin-on-footprint, or coincident pin
    cells).  Legality against the static geometry is precomputed once per
    instance as a legal-anchor table; conflicts between instances are
    checked per move, on plain integer coordinates, stopping at the
    first conflict.

    The objective is total half-perimeter wirelength over all nets (fixed
    pins and instance pins together) plus a congestion penalty: net
    bounding boxes are spread over square bins and every bin pays
    quadratically for coverage beyond its capacity.  Moves are
    distance-limited displacements to legal anchors and swaps of
    equal-footprint instances, both with exact undo; the distance limit
    and temperature shrink together on a geometric cooling schedule.
    A move (and its undo) moves each touched net's coverage from its old
    bin range to its new one, writing only the bins the two ranges do
    not share; the cost delta equals removing the old range and adding
    the new one whole.

    Everything is driven by a {!Util.Prng} stream, so equal seeds yield
    equal placements.  An optional {!Router.Budget} bounds the run: when
    it trips, annealing stops and the best placement found so far is
    returned ([degraded] is set) — the placer never raises on budget
    pressure. *)

type stats = {
  insts : int;  (** instances in the problem *)
  free_insts : int;  (** instances the annealer may move *)
  moves : int;  (** moves attempted *)
  accepted : int;  (** moves accepted (uphill included) *)
  sweeps : int;  (** temperature steps executed *)
  initial_cost : int;  (** objective of the initial placement *)
  final_cost : int;  (** objective of the returned placement *)
  degraded : bool;  (** the budget tripped before the schedule ended *)
}

val place :
  ?seed:int ->
  ?budget:Router.Budget.t ->
  ?bin:int ->
  ?bin_capacity:int ->
  ?congestion_weight:int ->
  ?spacing:int ->
  ?sweeps:int ->
  Netlist.Problem.t ->
  (Netlist.Problem.t * stats, string) Stdlib.result
(** [place p] returns a copy of [p] with every instance placed, plus run
    statistics.  Instances that already have a location start there (and
    free ones may still be moved); unplaced ones are first seeded
    greedily onto the earliest legal anchor.  Problems without instances
    are returned unchanged.  [bin] (default 8) is the congestion bin
    size, [bin_capacity] (default 6) the per-bin coverage allowance,
    [congestion_weight] (default 4) the penalty multiplier, [spacing]
    (default 3) the minimum free-cell gap kept between any two
    footprints so routing alleys survive, [sweeps] (default 128) the
    length of the cooling schedule.  Errors (rather
    than raising) when some instance has no conflict-free legal
    anchor. *)

(** Exposed for the property tests: the incremental objective state with
    single-move apply/undo.  Not a stable API. *)
module Internal : sig
  type state

  val init :
    ?bin:int -> ?bin_capacity:int -> ?congestion_weight:int ->
    ?spacing:int -> Netlist.Problem.t -> state
  (** Requires a fully-placed problem.  @raise Invalid_argument
      otherwise. *)

  val cost : state -> int
  (** Current incrementally-maintained objective. *)

  val recompute_cost : state -> int
  (** Objective recomputed from scratch at the current locations. *)

  val random_move : state -> Util.Prng.t -> range:int -> bool
  (** Attempt one random displace/swap; [true] iff it was applied (the
      state then holds the move for {!undo}). *)

  val undo : state -> unit
  (** Revert the last applied move exactly, coverage counts included.
      No-op if none pending. *)
end
