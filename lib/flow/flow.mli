(** The mini physical-design flow: placement → global route → detailed
    route.

    [run] drives a problem end to end: free instances are placed by the
    simulated annealer ({!Place}), the placement is realized into plain
    geometry, every net is globally routed into a region guide
    ({!Groute}), and the detailed router finishes the job with the
    guides as certified per-net search windows.  Guides never change
    the answer — an uncertified guided search falls back to the full
    window — so the final layout is byte-identical to routing the
    realized problem without guides.

    The flow forces the detailed-route config onto the guide-compatible
    kernel ({!detailed_config}: [Buckets], no [window_margin], A* on —
    the certificate works through the heuristic lower bound); everything
    else (order,
    escalation, restarts, …) is taken from [config].  A shared
    {!Router.Budget} degrades the whole pipeline gracefully: the placer
    stops annealing at its best-so-far, the router returns a partial
    layout, and the flow still completes. *)

type stats = {
  place : Place.stats option;  (** [None] when nothing needed placing *)
  groute : Groute.t;
  route : Router.Engine.stats;
  triage : Analyze.t option;
      (** the pre-route routability verdict, when [run ~triage:true];
          computed on the realized problem before any routing, so it can
          never affect the layout *)
  place_ns : int64;  (** wall-clock split of the three stages *)
  groute_ns : int64;
  route_ns : int64;
}

type t = {
  placed : Netlist.Problem.t;
      (** the input with every instance placed (unchanged if none) *)
  realized : Netlist.Problem.t;  (** the plain routable problem *)
  result : Router.Engine.t;  (** detailed-routing outcome *)
  stats : stats;
}

val detailed_config : Router.Config.t -> Router.Config.t
(** The detailed-route config {!run} routes with: [config] on the
    [Buckets] kernel, with no [window_margin] and A* on.  Refine's
    planner searches the same way ({!Router.Improve}).  Routing a
    realized problem without guides under this config gives the layout
    a guided {!run} must equal. *)

val run :
  ?config:Router.Config.t ->
  ?budget:Router.Budget.t ->
  ?seed:int ->
  ?tile:int ->
  ?triage:bool ->
  Netlist.Problem.t ->
  (t, string) Stdlib.result
(** [seed] (default [config.seed]) drives the placer; [tile] is the
    global-route tile size.  [triage] (default false) additionally runs
    the pre-route predictor on the realized problem and records its
    verdict in [stats.triage].  Errors when the placer cannot find a
    legal placement; detailed-route failures are reported in
    [result.stats.failed_nets], not as [Error]. *)

type triage_report = {
  score : float;  (** predictor's routability score *)
  predicted_overflow : float;  (** before routing, from {!Analyze.run} *)
  actual_overflow : float;
      (** after global routing: overflow units over total capacity *)
  agree : bool;
      (** both sides agree on whether the instance meaningfully
          overflows (either fraction above 1%) *)
}

val triage_report : t -> triage_report option
(** Predicted-vs-actual congestion for a [~triage:true] run: the
    predictor's verdict against the global router's realized overflow.
    [None] when the flow ran without triage. *)

val guide_hit_rate : t -> float
(** Certified-guide fraction of guided searches, in [0, 1]; [1.0] when
    nothing was guided. *)
