(** Measuring routing results on the grid.

    All quality numbers reported by tests, benches and the CLI are computed
    here from final grid occupancy (never from incremental counters, which
    rips and shoves would skew). *)

type net_stats = {
  net_id : int;
  cells : int;  (** grid cells owned by the net *)
  wirelength : int;  (** same-layer adjacency edges between owned cells *)
  vias : int;  (** vias whose cells the net owns *)
}

(** How a routing run ended.  A degraded result is still a valid,
    DRC-clean layout — the best one found before the budget tripped —
    with the unrouted nets listed in the stats. *)
type status =
  | Complete  (** every non-trivial net routed *)
  | Degraded of Budget.reason
      (** the budget tripped; partial best-so-far result *)
  | Infeasible
      (** the engine exhausted its strategies with no budget pressure *)

val status_name : status -> string
(** ["complete"], ["degraded"] or ["infeasible"]. *)

val pp_status : Format.formatter -> status -> unit

(** Search-effort telemetry, the one set of numbers that {e is} taken from
    the engine's counters (grid occupancy cannot recover where expansions
    were spent).  [total_expanded] is the nodes settled by searches that
    found a path (their discarded window and guide probes included),
    split by the escalation phase that ran the search — plain maze
    routing, weak modification (shove planning), strong modification
    (rip-up planning) — plus a per-net breakdown indexed by
    [net id - 1].  The remaining search work is counted beside it, so
    [total_expanded + failed_expanded + flood_expanded] is every node
    any search touched, the figure a budget's expansion ledger charges.
    Rendered by {!Report}; the phase split is how kernel/window wins
    show up in CLI reports. *)
type effort = {
  total_expanded : int;
  maze_expanded : int;
  weak_expanded : int;
  strong_expanded : int;
  per_net_expanded : int array;
  failed_expanded : int;
      (** settled and flood nodes of searches that returned no path:
          exhausted, flood-certified or aborted, window probes included *)
  flood_expanded : int;
      (** flood nodes of searches that found a path — the cost of the
          failure certificate they did not need *)
  reused : int;
      (** strong-modification steps that took the outcome of a weak pass
          that moved nothing — its plan, or its failure to find one —
          instead of repeating its search *)
  reused_expanded : int;
      (** the nodes those repeated searches would have added to
          [total_expanded]: the settled nodes of the reused plans *)
}

val no_effort : nets:int -> effort
(** All-zero effort record for [nets] nets. *)

val pp_effort : Format.formatter -> effort -> unit

(** Telemetry of guide-windowed routing (the flow pipeline's global-route
    guides).  A {e hit} is a standard-phase search whose guided probe was
    certified pop-order identical to the full search; a {e fallback} paid
    a wasted probe and re-ran unwindowed.  Counted per search. *)
type guide_stats = {
  guided : int;  (** nets that carried a guide rectangle *)
  hits : int;
  fallbacks : int;
}

val no_guide : guide_stats

val pp_guide : Format.formatter -> guide_stats -> unit

val measure_net : Grid.t -> net:int -> net_stats
(** One net's stats, by a scan of the whole grid. *)

val measure : Netlist.Problem.t -> Grid.t -> net_stats list
(** [measure_net] for every net of the problem, ascending id, from a
    single pass over the grid. *)

val total_wirelength : Grid.t -> Netlist.Problem.t -> int
(** Sum of every net's wirelength: one pass over the grid. *)

val total_vias : Grid.t -> int
(** All vias on the grid. *)
