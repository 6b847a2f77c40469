(** The incremental rip-up-and-reroute routing engine.

    Nets are routed sequentially in a configurable order.  Each pin-to-tree
    connection is attempted in three escalating modes:

    + {b search} — weighted maze search through free and self-owned cells;
      a blocked search stops as soon as either side of the cut is
      exhausted ({!Maze.Search.run}'s [flood]);
    + {b weak modification} — if blocked, plan a least-blocked path, shove
      the blocking foreign segments sideways ({!Shove}), and retry, up to
      [max_weak_passes] rounds;
    + {b strong modification} — if still blocked, search with foreign cells
      passable at penalty [ripup_penalty × (1 + rip count)], rip up every
      foreign net the chosen path crosses (their routes are cleared and the
      nets re-queued), then claim the path.  When the last weak pass
      moved nothing, its plan — searched with the same passability
      against the same grid — is taken instead of searching again.

    Pins and fixed pre-wiring are never shoved nor ripped.  A global rip
    budget ([rip_budget_factor × nets]) bounds the total number of strong
    modifications, so the algorithm terminates in finite time: once the
    budget is exhausted, nets route with search + weak modification only,
    each of which strictly consumes bounded work.  Nets that remain blocked
    are reported as failed rather than looping.

    On top of the rip budget, a {!Budget.t} bounds the whole call by
    wall-clock deadline, total expansions, or search count.  The budget is
    polled between nets and phases and cooperatively inside each search;
    when it trips the engine {e never raises} — it stops starting work,
    unwinds (any half-routed net is rolled back), and returns the
    best-so-far DRC-clean layout with [status = Degraded reason] and the
    unrouted nets in [stats.failed_nets].  Without budget options the
    engine behaves exactly as an unbudgeted build. *)

type stats = {
  routed_nets : int;
  failed_nets : int list;  (** net ids left unrouted, ascending *)
  total_wirelength : int;
  total_vias : int;
  rips : int;  (** strong modifications performed *)
  shoves : int;  (** weak modifications performed *)
  searches : int;  (** maze searches run *)
  expanded : int;
      (** nodes settled by the searches that found a path, their
          discarded window and guide probes included *)
  effort : Outcome.effort;
      (** the same total split by escalation phase and by net, next to
          the work of failed searches, flood nodes and reused plans *)
  attempts : int;  (** restart attempts consumed (≥ 1) *)
  guide : Outcome.guide_stats;
      (** guided-search telemetry of the winning attempt; all-zero for
          unguided runs *)
}

type t = {
  grid : Grid.t;  (** final grid (of the best attempt) *)
  completed : bool;  (** every non-trivial net routed *)
  status : Outcome.status;
      (** [Complete] iff [completed]; [Degraded] when a budget trip cut
          the run short; [Infeasible] when the engine ran out of
          strategies with no budget pressure *)
  stats : stats;
}

val route :
  ?config:Config.t -> ?budget:Budget.t -> ?chaos:Chaos.t ->
  ?guides:Geom.Rect.t option array ->
  Netlist.Problem.t -> t
(** Route the whole problem on a freshly instantiated grid.  With
    [config.restarts > 1], several net orders are attempted and the best
    result (completion first, then fewest vias, then wirelength) is kept.

    [budget] (default: built from the config's [deadline] /
    [max_expanded] / [max_searches] fields, i.e. unlimited when unset) is
    shared across all restart attempts.  [chaos] (default {!Chaos.none})
    is the fault injector used by the robustness tests; its spurious-trip
    hook is composed into the budget.  With [config.audit] above
    [Audit_off] the invariant auditor runs after each engine phase and
    raises {!Audit.Inconsistent} on any violation.

    [guides] (per net index, [None] entries unguided) restricts each
    guided net's standard-phase searches to its guide rectangle via the
    certified probe of {!Maze.Search.run}'s {!Maze.Search.Guide} window: a
    certified probe is pop-order identical to the full search, an
    uncertified one falls back to the full window — so the layout is
    byte-identical to the same run without guides.  Requires
    [config.kernel = Buckets] and [config.window_margin = None] (raises
    [Invalid_argument] otherwise); escalation searches are never guided. *)

val pp_stats : Format.formatter -> stats -> unit
