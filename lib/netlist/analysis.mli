(** Congestion analysis and routability lower bounds.

    These quantities drive net ordering, workload calibration and the
    "routed in density" claims of the experiments. *)

val net_span : Net.t -> Geom.Interval.t option
(** Horizontal span of the net's pins ([None] for pinless nets). *)

val channel_density : Problem.t -> int
(** Classical channel (local) density: the maximum over columns of the
    number of nets whose horizontal pin span covers the column.  For a
    two-layer channel this is a lower bound on the number of tracks. *)

val column_density : Problem.t -> int array
(** Per-column local density (length = problem width). *)

val vertical_cuts : Problem.t -> int array
(** [cuts.(x)] = number of nets having pins both in columns ≤ x and in
    columns > x (length = width - 1).  Every such net must cross the cut. *)

val horizontal_cuts : Problem.t -> int array
(** Same across horizontal cut lines (length = height - 1). *)

val max_vertical_cut : Problem.t -> int

val max_horizontal_cut : Problem.t -> int

val switchbox_track_lower_bound : Problem.t -> int
(** Max cut flow in either direction: a two-layer switchbox needs at least
    this many rows/columns available in the crossing direction. *)

val wirelength_lower_bound : Problem.t -> int
(** Sum over nets of the pin bounding-box half-perimeter. *)

val demand_map : Problem.t -> float array
(** Pre-routing congestion estimate: every net spreads one unit of demand
    uniformly over its pin bounding box (the classical probabilistic
    usage model), accumulated per planar cell (index [y·width + x]).
    Cells under both-layer obstructions get infinite demand. *)

val demand_at : Problem.t -> float array -> x:int -> y:int -> float

val overflow_estimate : Problem.t -> float
(** Fraction of cells whose estimated demand exceeds the two-layer cell
    capacity (2.0) — a quick routability predictor used by the workload
    calibration. *)
