(** Router configuration.

    The default configuration is the full system as described by the paper:
    weighted maze search, weak modification (shoving), then strong
    modification (rip-up and reroute) with an escalating penalty and a global
    modification budget guaranteeing termination.  Every search of it is A*
    under the L1 heuristic on the binary heap over the whole grid.  The
    ablation experiments switch the individual features off. *)

type order =
  | As_given  (** problem order *)
  | Hpwl_ascending  (** shortest bounding box first *)
  | Hpwl_descending  (** longest bounding box first (default) *)
  | Pins_descending  (** most pins first, HPWL descending as tie-break *)
  | Congestion_descending
      (** nets crossing the most contested area first (estimated from the
          pre-routing demand map) *)
  | Random  (** seeded shuffle *)

type audit_level =
  | Audit_off  (** no auditing (default) *)
  | Audit_phase
      (** run the {!Audit} invariant checks after every engine phase
          (maze pass, retry sweeps, end of each restart attempt) *)
  | Audit_net  (** additionally audit after every net routed — slow *)

type t = {
  cost : Maze.Cost.t;
  use_astar : bool;
      (** A* under the {!Maze.Search.L1} heuristic (default [true]) in
          every rung of the engine; [false] searches with plain Dijkstra.
          Both return the same costs, not always the same paths *)
  kernel : Maze.Search.kernel;
      (** frontier data structure of every maze search: the classical
          binary heap (default), or the Dial bucket queue exploiting the
          small bounded integer edge costs — equal-cost results, O(1)
          queue operations *)
  window_margin : int option;
      (** when set, restrict each search to the endpoints' bounding box
          grown by this margin, with automatic widen-and-retry on failure
          (same completeness, far fewer expansions on large regions) *)
  order : order;
  enable_weak : bool;  (** weak modification: segment shoving *)
  enable_strong : bool;  (** strong modification: rip-up and reroute *)
  max_weak_passes : int;
      (** shove-and-retry rounds per blocked connection (default 3) *)
  ripup_penalty : int;
      (** base cost of crossing a cell of a foreign net; the effective
          penalty is [ripup_penalty × (1 + rip_count net)], so repeatedly
          ripped nets become progressively more expensive to disturb *)
  rip_budget_factor : int;
      (** total rip budget = factor × (number of nets); exhausting it
          disables strong modification, forcing termination (default 16) *)
  restarts : int;
      (** orderings attempted before giving up (default 1 = no restart);
          restarts > 1 reshuffles the queue with the seed *)
  seed : int;  (** tie-breaking and restart shuffles *)
  deadline : float option;
      (** wall-clock budget in seconds for the whole route call (restarts
          included); on expiry the engine returns its best-so-far layout
          with [status = Degraded Deadline].  [None] (default) = unlimited *)
  max_expanded : int option;
      (** total node-expansion budget across every search of the run *)
  max_searches : int option;  (** total maze-search budget for the run *)
  audit : audit_level;
      (** paranoia level: run the invariant auditor during routing and
          raise {!Audit.Inconsistent} on any violation *)
  incremental : bool;
      (** incremental refinement (default [true], DESIGN.md §11):
          refinement keeps a per-net {!Maze.Cache} of read-region
          certificates and skips nets at their pins' closed-form cost
          floor, so nets a replan cannot improve are skipped instead of
          replanned.  Value-exact either way: layouts and costs are
          byte-identical with the flag on or off *)
}

val default : t

val maze_only : t
(** One-shot sequential maze router: no weak, no strong modification.  The
    classical baseline the paper improves upon. *)

val weak_only : t
(** Shoving enabled, rip-up disabled. *)

val audit_name : audit_level -> string

val describe : t -> string
(** Short human-readable summary, e.g. ["weak+strong, order=hpwl-desc"].
    Past the strategy and order, a setting is mentioned only when it
    differs from {!default} (["dijkstra"] when [use_astar] is [false]),
    so configurations without such settings render exactly as before. *)
