(** Incremental routing sessions: interactive add / remove / freeze /
    reroute.

    A session wraps an evolving problem and its current layout.  Every
    mutation (adding a net, removing one, freezing or thawing wiring)
    rebuilds the problem description with the surviving wiring carried over
    as pre-wiring — frozen nets as fixed pre-wires the router may never
    touch, the rest as loose pre-wires it may rip — and re-instantiates the
    grid.  [route] then runs the full engine over whatever is currently
    unrouted, leaving untouched wiring in place.

    This is the ECO workflow as a first-class API: route a block, freeze
    the critical nets, keep editing the rest.

    Every mutation is {b transactional}: it either completes, or the
    session's problem, grid and frozen set are restored to the exact
    pre-call state — including when a budget trip, an {!Audit} failure or
    an injected {!Chaos} fault fires in the middle of the call.  An
    injected fault surfaces as [Error] from the result-returning
    mutations, and re-raises from {!route}/{!refine} after rollback;
    either way the session stays usable and consistent. *)

type t

val create : ?config:Config.t -> ?chaos:Chaos.t -> Netlist.Problem.t -> t
(** A session over a fresh instantiation of the problem (nothing routed
    yet beyond the problem's own pre-wiring).  [chaos] (default
    {!Chaos.none}) is the fault injector threaded into every mutation and
    into the engine — test-only. *)

val problem : t -> Netlist.Problem.t
(** The current problem description (changes as nets are added/removed). *)

val config : t -> Config.t
(** The configuration the session was created with. *)

val grid : t -> Grid.t
(** The live layout.  Owned by the session: treat as read-only. *)

val net_id : t -> string -> int option
(** Look up a net id by name in the current problem. *)

val is_routed : t -> net:int -> bool
(** Whether the net's cells currently form one connected component. *)

val routed_count : t -> int
(** Number of nets {!is_routed} holds for, from one pass over the grid. *)

val is_frozen : t -> net:int -> bool

val route : ?budget:Budget.t -> t -> Engine.stats
(** Route everything currently unrouted with the session's engine
    configuration.  Already-routed nets are carried as pre-wiring (rippable
    unless frozen).  Updates the session grid.  A degraded (budget-tripped)
    result still commits — it is a consistent best-so-far layout; an
    exception rolls the session back and re-raises.  [budget] (default:
    built from the session config's budget fields) caps this one call;
    create a fresh budget per call. *)

val try_route : ?budget:Budget.t -> t -> (Engine.stats, Budget.reason) result
(** Like {!route}, but a budget trip {e rolls the session back} to its
    exact pre-call state and returns [Error reason] instead of committing
    the degraded layout.  This is the all-or-nothing contract the routing
    service builds its per-request SLOs on: a request that runs out of
    budget mid-flight leaves its session untouched.  [Complete] and
    [Infeasible] results commit as in {!route}. *)

val add_net : t -> name:string -> Netlist.Net.pin list -> (int, string) Stdlib.result
(** Add a net (unrouted).  Its pins must be in bounds (layer included),
    off obstructions and on currently free cells.  Returns the new net's id.  Existing wiring is
    preserved.  Rejected while the problem carries an unrealized
    placement section: net-list surgery renumbers ids and would dangle
    instance-pin references — place and realize first (see
    {!install}). *)

val remove_net : t -> net:int -> (unit, string) Stdlib.result
(** Delete a net entirely: its wiring and pins disappear and the remaining
    nets are renumbered to stay consecutive (use {!net_id} to re-resolve
    names afterwards).  Frozen nets must be thawed first. *)

val rip : t -> net:int -> (unit, string) Stdlib.result
(** Unroute a net, keeping its pins.  Frozen nets cannot be ripped. *)

val freeze : t -> net:int -> (unit, string) Stdlib.result
(** Mark a routed net's wiring as fixed: no future [route], rip-up or
    shove may move it.  Fails if the net is not currently routed. *)

val thaw : t -> net:int -> (unit, string) Stdlib.result

val verify : t -> Drc.Check.violation list
(** Full DRC over the routed nets of the current layout (unrouted nets are
    excluded from the connectivity check), in one pass over the grid. *)

val refine : ?max_passes:int -> t -> Improve.stats
(** Run the post-route refinement pass on the current layout (frozen nets
    untouched). *)

val install :
  t -> problem:Netlist.Problem.t -> grid:Grid.t -> (unit, string) Stdlib.result
(** Transactionally replace the session's problem and grid wholesale —
    the commit step for pipeline stages (placement, full flow) computed
    outside the session.  The grid must match the problem's dimensions;
    the session takes ownership of it.  Note for problems carrying a
    placement section: {!add_net}/{!remove_net} renumber nets, which
    would dangle instance-pin net references — realize the placement
    (via the flow pipeline) before netlist surgery. *)

(** {2 Durable checkpoints}

    The bridge to the service durability layer: a checkpoint captures
    the full session state as plain data — problem with wiring as
    pre-wiring (serialisable through {!Netlist.Parse}), the exact via
    positions (pre-wire via inference alone is lossy at pins), and the
    frozen-name set.  [of_checkpoint (checkpoint st)] reproduces the
    problem's net table, the grid byte-for-byte ({!Grid.equal}) and the
    frozen set. *)

val checkpoint :
  t -> Netlist.Problem.t * (int * int * int) list * string list
(** [(problem_with_wiring, via_pairs, frozen_names)] where each via is a
    [(pair_layer, x, y)] triple ([pair_layer] joins that layer with the
    one above).  Pure: the session is not mutated, no chaos point
    fires. *)

val of_checkpoint :
  ?config:Config.t ->
  ?chaos:Chaos.t ->
  vias:(int * int * int) list ->
  frozen:string list ->
  Netlist.Problem.t ->
  t
(** Rebuild a session from a checkpoint: instantiate the problem, then
    overwrite the inferred via flags with [vias] and the frozen set with
    [frozen] (ignoring what [pre_fixed] would have seeded). *)
