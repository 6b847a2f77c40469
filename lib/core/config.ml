type order =
  | As_given
  | Hpwl_ascending
  | Hpwl_descending
  | Pins_descending
  | Congestion_descending
  | Random

type audit_level = Audit_off | Audit_phase | Audit_net

type t = {
  cost : Maze.Cost.t;
  use_astar : bool;
  kernel : Maze.Search.kernel;
  window_margin : int option;
  order : order;
  enable_weak : bool;
  enable_strong : bool;
  max_weak_passes : int;
  ripup_penalty : int;
  rip_budget_factor : int;
  restarts : int;
  seed : int;
  deadline : float option;
  max_expanded : int option;
  max_searches : int option;
  audit : audit_level;
  incremental : bool;  (* refine's certificate cache and cost-floor skip *)
}

let default =
  {
    cost = Maze.Cost.default;
    use_astar = true;
    kernel = Maze.Search.Binary_heap;
    window_margin = None;
    order = Hpwl_descending;
    enable_weak = true;
    enable_strong = true;
    max_weak_passes = 3;
    ripup_penalty = 30;
    rip_budget_factor = 16;
    restarts = 1;
    seed = 1;
    deadline = None;
    max_expanded = None;
    max_searches = None;
    audit = Audit_off;
    incremental = true;
  }

let maze_only = { default with enable_weak = false; enable_strong = false }

let weak_only = { default with enable_strong = false }

let order_name = function
  | As_given -> "as-given"
  | Hpwl_ascending -> "hpwl-asc"
  | Hpwl_descending -> "hpwl-desc"
  | Pins_descending -> "pins-desc"
  | Congestion_descending -> "congestion-desc"
  | Random -> "random"

let audit_name = function
  | Audit_off -> "off"
  | Audit_phase -> "phase"
  | Audit_net -> "net"

let describe c =
  let strategy =
    match (c.enable_weak, c.enable_strong) with
    | true, true -> "weak+strong"
    | true, false -> "weak-only"
    | false, true -> "strong-only"
    | false, false -> "maze-only"
  in
  Printf.sprintf "%s, order=%s%s%s%s%s%s%s%s%s" strategy (order_name c.order)
    (if c.use_astar then "" else ", dijkstra")
    (match c.kernel with
    | Maze.Search.Binary_heap -> ""
    | k -> Printf.sprintf ", kernel=%s" (Maze.Search.kernel_name k))
    (match c.window_margin with
    | None -> ""
    | Some m -> Printf.sprintf ", window=%d" m)
    (if c.restarts > 1 then Printf.sprintf ", restarts=%d" c.restarts else "")
    (match c.deadline with
    | None -> ""
    | Some s -> Printf.sprintf ", deadline=%gs" s)
    (match c.max_expanded with
    | None -> ""
    | Some m -> Printf.sprintf ", max-expanded=%d" m)
    (match c.max_searches with
    | None -> ""
    | Some m -> Printf.sprintf ", max-searches=%d" m)
    (match c.audit with
    | Audit_off -> ""
    | a -> Printf.sprintf ", audit=%s" (audit_name a))
  ^ if not c.incremental then ", no-incremental" else ""
