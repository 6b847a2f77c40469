type stats = {
  routed_nets : int;
  failed_nets : int list;
  total_wirelength : int;
  total_vias : int;
  rips : int;
  shoves : int;
  searches : int;
  expanded : int;
  effort : Outcome.effort;
  attempts : int;
  guide : Outcome.guide_stats;
}

(* The escalation mode a search serves, for the effort split. *)
type phase = Maze | Weak | Strong

type t = {
  grid : Grid.t;
  completed : bool;
  status : Outcome.status;
  stats : stats;
}

type state = {
  problem : Netlist.Problem.t;
  config : Config.t;
  budget : Budget.t;
  chaos : Chaos.t;
  g : Grid.t;
  ws : Maze.Workspace.t;
  protected : Bytes.t;  (* pins of all nets and fixed prewiring *)
  route_nodes : int list array;
      (* per net index: rippable owned nodes — every unprotected cell the
         net owns is listed (the auditor checks it) *)
  rip_count : int array;
  routed : bool array;
  in_queue : bool array;
  queue : int Queue.t;
  guides : Geom.Rect.t option array;
      (* per net index: global-route guide window; empty array = unguided *)
  heuristic : Maze.Search.heuristic;
  window : Maze.Search.window;  (* the configured, unguided search window *)
  tally : Maze.Search.guide_tally;  (* guide hits and fallbacks *)
  mutable rips_left : int;
  mutable rips : int;
  mutable shoves : int;
  mutable searches : int;
  mutable expanded : int;
  mutable expanded_maze : int;
  mutable expanded_weak : int;
  mutable expanded_strong : int;
  expanded_per_net : int array;
  mutable failed_expanded : int;
  mutable flood_expanded : int;
  mutable reused : int;
  mutable reused_expanded : int;
}

let is_protected st n = Bytes.get st.protected n <> '\000'

let make_state config problem ~budget ~chaos ~guides =
  let g = Netlist.Problem.instantiate problem in
  let nets = Netlist.Problem.net_count problem in
  let protected = Bytes.make (Grid.node_count g) '\000' in
  List.iter
    (fun (_, pin) ->
      Bytes.set protected (Maze.Route.pin_node g pin) '\001')
    (Netlist.Problem.pin_cells problem);
  let route_nodes = Array.make nets [] in
  List.iter
    (fun (pw : Netlist.Problem.prewire) ->
      let nodes =
        List.map
          (fun (layer, x, y) -> Grid.node g ~layer ~x ~y)
          pw.Netlist.Problem.pre_cells
      in
      if pw.Netlist.Problem.pre_fixed then
        List.iter (fun n -> Bytes.set protected n '\001') nodes
      else
        let i = pw.Netlist.Problem.pre_net - 1 in
        route_nodes.(i) <- nodes @ route_nodes.(i))
    problem.Netlist.Problem.prewires;
  {
    problem;
    config;
    budget;
    chaos;
    g;
    ws = Maze.Workspace.create g;
    protected;
    route_nodes;
    rip_count = Array.make nets 0;
    routed = Array.make nets false;
    in_queue = Array.make nets false;
    queue = Queue.create ();
    guides;
    heuristic = (if config.Config.use_astar then Maze.Search.L1 else Zero);
    window =
      (match config.Config.window_margin with
      | Some m -> Maze.Search.Margin m
      | None -> Full);
    tally = { Maze.Search.hits = 0; fallbacks = 0 };
    rips_left = config.Config.rip_budget_factor * max 1 nets;
    rips = 0;
    shoves = 0;
    searches = 0;
    expanded = 0;
    expanded_maze = 0;
    expanded_weak = 0;
    expanded_strong = 0;
    expanded_per_net = Array.make nets 0;
    failed_expanded = 0;
    flood_expanded = 0;
    reused = 0;
    reused_expanded = 0;
  }

let enqueue st id =
  if not st.in_queue.(id - 1) then begin
    st.in_queue.(id - 1) <- true;
    Queue.add id st.queue
  end

(* Passability for planning through foreign nets (weak planning and strong
   modification): foreign rippable cells cost an escalating penalty,
   read from the live rip counts.  The plain search mode passes only
   free or self-owned cells ([Own net]). *)
let foreign st ~net =
  Maze.Search.Foreign
    {
      net;
      protected = st.protected;
      rips = st.rip_count;
      penalty = st.config.Config.ripup_penalty;
    }

(* The standard-mode search window of a net: a probe of its global-route
   guide, tallied into [tally], when it has one; the configured window
   otherwise. *)
let standard_window st ~tally net =
  match if Array.length st.guides = 0 then None else st.guides.(net - 1) with
  | Some rect -> Maze.Search.Guide { rect; tally }
  | None -> st.window

(* The guards every escalation step passes before it may act: a search
   under a tripped budget is skipped outright, and a fault-injected
   failure fails the step and counts as a search. *)
let guarded st step =
  if Budget.check st.budget <> None then None
  else if Chaos.fail_search st.chaos then begin
    st.searches <- st.searches + 1;
    Budget.note_search st.budget;
    None
  end
  else step ()

(* One search behind the guards, with a live budget threaded in as a
   cooperative stop hook.  The search reports its whole work, so the
   budget's ledger charges every search exactly — forward and flood
   nodes, found or not — while the stats keep [expanded] for the
   settled nodes of searches that found a path and count the rest as
   flood and failed work.  Only the standard rung floods ([flood]). *)
let run_search st ~phase ~net ~window ?(flood = false) ~passable ~sources
    ~targets () =
  guarded st (fun () ->
      st.searches <- st.searches + 1;
      let work = { Maze.Search.settled = 0; flooded = 0 } in
      let result =
        Maze.Search.run ~kernel:st.config.Config.kernel
          ~heuristic:st.heuristic ~window
          ?stop:(Budget.stop_hook st.budget)
          ~flood ~work st.g st.ws
          ~cost:st.config.Config.cost ~passable ~sources ~targets ()
      in
      Budget.note_search st.budget;
      Budget.note_expanded st.budget (work.settled + work.flooded);
      (match result with
      | Some r ->
          let e = r.Maze.Search.expanded in
          st.expanded <- st.expanded + e;
          (match phase with
          | Maze -> st.expanded_maze <- st.expanded_maze + e
          | Weak -> st.expanded_weak <- st.expanded_weak + e
          | Strong -> st.expanded_strong <- st.expanded_strong + e);
          st.expanded_per_net.(net - 1) <- st.expanded_per_net.(net - 1) + e;
          st.flood_expanded <- st.flood_expanded + work.flooded
      | None ->
          st.failed_expanded <-
            st.failed_expanded + work.settled + work.flooded);
      result)

(* Rip a foreign net: clear its rippable wiring and put it back in the
   routing queue.  Pins stay on the grid, so the net can always be
   re-attempted. *)
let rip_net st id =
  let i = id - 1 in
  Maze.Route.release_nodes st.g st.route_nodes.(i);
  st.route_nodes.(i) <- [];
  st.routed.(i) <- false;
  st.rip_count.(i) <- st.rip_count.(i) + 1;
  st.rips <- st.rips + 1;
  st.rips_left <- st.rips_left - 1;
  enqueue st id

let foreign_owners st ~net path =
  List.sort_uniq Int.compare
    (List.filter_map
       (fun n ->
         let v = Grid.occ st.g n in
         if v > 0 && v <> net then Some v else None)
       path)

(* Weak modification: plan a least-blocked path and try to shove every
   blocking cell sideways.  [`Moved] when something moved; otherwise
   [`Stuck plan], the pass's own search result, made against a grid
   that is still exactly as the search saw it. *)
let weak_pass st ~net ~sources ~targets =
  match
    run_search st ~phase:Weak ~net ~window:st.window
      ~passable:(foreign st ~net)
      ~sources ~targets ()
  with
  | None -> `Stuck None
  | Some plan ->
      let moved = ref false in
      List.iter
        (fun n ->
          let v = Grid.occ st.g n in
          if v > 0 && v <> net then
            match Shove.try_shove st.g ~protected:(is_protected st) ~node:n with
            | None -> ()
            | Some m ->
                st.shoves <- st.shoves + 1;
                moved := true;
                let i = m.Shove.moved_net - 1 in
                st.route_nodes.(i) <-
                  m.Shove.added
                  @ List.filter
                      (fun x -> not (List.mem x m.Shove.released))
                      st.route_nodes.(i))
        plan.Maze.Search.path;
      if !moved then `Moved else `Stuck (Some plan)

(* The strong rung's plan when the last weak pass moved nothing: that
   pass searched with this rung's passability, window, sources and
   targets, and since then nothing has moved or been ripped, so the
   grid and the rip counts are unchanged too and a new search would
   return the same plan — or fail again.  The step keeps the guards of
   a search in their order, so a tripped budget still stops it before
   any rip and a forced failure still fails it. *)
let reuse_plan st plan =
  guarded st (fun () ->
      st.reused <- st.reused + 1;
      Option.iter
        (fun r ->
          st.reused_expanded <- st.reused_expanded + r.Maze.Search.expanded)
        plan;
      plan)

(* One tree-to-pin connection with escalation.  Returns the path found, or
   None if every enabled mode is exhausted.  Every step does new work:
   the strong rung searches only when the weak loop ended on a pass that
   moved something (or never ran), and otherwise takes that pass's
   plan. *)
let connect st ~net ~sources ~targets =
  let standard () =
    run_search st ~phase:Maze ~net
      ~window:(standard_window st ~tally:st.tally net)
      ~flood:true ~passable:(Own net) ~sources ~targets ()
  in
  match standard () with
  | Some r -> Some (r, [])
  | None -> (
      let rec weak_loop pass =
        if (not st.config.Config.enable_weak)
           || pass >= st.config.Config.max_weak_passes
        then `Search
        else
          match weak_pass st ~net ~sources ~targets with
          | `Stuck plan -> `Reuse plan
          | `Moved -> (
              match standard () with
              | Some r -> `Routed r
              | None -> weak_loop (pass + 1))
      in
      match weak_loop 0 with
      | `Routed r -> Some (r, [])
      | (`Search | `Reuse _) as strong ->
          if st.config.Config.enable_strong && st.rips_left > 0 then
            let plan =
              match strong with
              | `Reuse plan -> reuse_plan st plan
              | `Search ->
                  run_search st ~phase:Strong ~net ~window:st.window
                    ~passable:(foreign st ~net)
                    ~sources ~targets ()
            in
            Option.map
              (fun r -> (r, foreign_owners st ~net r.Maze.Search.path))
              plan
          else None)

(* After a net routes, release any of its wiring not connected to its
   first pin: pre-existing loose wiring the new route did not reuse would
   otherwise linger as floating metal.  Protected cells (pins, fixed
   pre-wiring) are never released, and every other cell the net owns is
   in its route list, so the flood and the candidates cost the net's own
   cells, never the grid. *)
let prune_orphans st id =
  match (Netlist.Problem.net st.problem id).Netlist.Net.pins with
  | [] -> ()
  | first :: _ ->
      let reached =
        Grid.flood_net st.g ~net:id (Maze.Route.pin_node st.g first)
      in
      let orphaned n = not (Hashtbl.mem reached n || is_protected st n) in
      let i = id - 1 in
      match List.filter orphaned st.route_nodes.(i) with
      | [] -> ()
      | orphans ->
          List.iter (Grid.release st.g) orphans;
          st.route_nodes.(i) <-
            List.filter (fun n -> not (orphaned n)) st.route_nodes.(i)

(* Route one net completely (Prim-style tree growth with escalation per
   connection).  On failure the net's partial additions are rolled back. *)
let route_net st id =
  let net = Netlist.Problem.net st.problem id in
  match net.Netlist.Net.pins with
  | [] | [ _ ] -> true
  | first :: rest ->
      let session = ref [] in
      let tree = ref [ Maze.Route.pin_node st.g first ] in
      let remaining =
        ref (List.map (fun p -> Maze.Route.pin_node st.g p) rest)
      in
      let ok = ref true in
      while !ok && !remaining <> [] do
        match connect st ~net:id ~sources:!tree ~targets:!remaining with
        | None ->
            ok := false;
            Maze.Route.release_nodes st.g !session;
            session := []
        | Some (r, victims) ->
            List.iter (rip_net st) victims;
            let added = Maze.Route.occupy_path st.g ~net:id r.Maze.Search.path in
            session := added @ !session;
            tree := r.Maze.Search.path @ !tree;
            let reached =
              match List.rev r.Maze.Search.path with
              | last :: _ -> last
              | [] -> assert false
            in
            remaining := List.filter (fun n -> n <> reached) !remaining
      done;
      if !ok then begin
        let i = id - 1 in
        st.route_nodes.(i) <- !session @ st.route_nodes.(i);
        st.routed.(i) <- true;
        prune_orphans st id
      end;
      !ok

(* The auditor: structural problem/grid consistency (via [Audit]) plus the
   engine's own bookkeeping — tracked route nodes must be owned by their
   net and every unprotected owned cell must be tracked (together: a
   net's route list holds every unprotected cell the net owns and no cell
   it does not, the premise of [prune_orphans]), rip counters must
   balance the rip budget, and every net marked routed must be one
   connected component spanning its pins. *)
let run_audit st ~where =
  let findings = ref (Audit.check_grid st.problem st.g) in
  let add fmt = Printf.ksprintf (fun s -> findings := s :: !findings) fmt in
  let nets = Netlist.Problem.net_count st.problem in
  let tracked = Bytes.make (Grid.node_count st.g) '\000' in
  for i = 0 to nets - 1 do
    List.iter
      (fun n ->
        Bytes.set tracked n '\001';
        let v = Grid.occ st.g n in
        if v <> i + 1 then add "net %d: tracked route node %d owned by %d"
            (i + 1) n v)
      st.route_nodes.(i)
  done;
  Grid.iter_nodes st.g (fun n ->
      let v = Grid.occ st.g n in
      if v > 0 && (not (is_protected st n)) && Bytes.get tracked n = '\000'
      then add "net %d: owned node %d is not tracked" v n);
  let per_net_rips = Array.fold_left ( + ) 0 st.rip_count in
  if per_net_rips <> st.rips then
    add "rip counters disagree: per-net sum %d, total %d" per_net_rips st.rips;
  let initial = st.config.Config.rip_budget_factor * max 1 nets in
  if st.rips + st.rips_left <> initial then
    add "rip budget accounting broken: %d used + %d left <> %d initial"
      st.rips st.rips_left initial;
  for i = 0 to nets - 1 do
    if st.routed.(i) then
      findings :=
        List.rev_append
          (Audit.check_net_connected st.problem st.g (i + 1))
          !findings
  done;
  Audit.require ~where (List.rev !findings)

let audit_phase st ~where =
  if st.config.Config.audit <> Config.Audit_off then run_audit st ~where

let audit_net st ~where =
  if st.config.Config.audit = Config.Audit_net then run_audit st ~where

(* Pop and route queued nets in order until the queue empties or the
   budget trips; returns the nets that failed. *)
let drain st =
  let failed = ref [] in
  while (not (Queue.is_empty st.queue)) && Budget.check st.budget = None do
    let id = Queue.pop st.queue in
    let i = id - 1 in
    st.in_queue.(i) <- false;
    if not st.routed.(i) then begin
      if route_net st id then failed := List.filter (fun f -> f <> id) !failed
      else if not (List.mem id !failed) then failed := id :: !failed;
      audit_net st ~where:(Printf.sprintf "after net %d" id)
    end
  done;
  !failed

(* After the queue drains, blocked nets get fresh chances: other nets may
   have been ripped or shoved since they failed.  Each sweep must make
   progress (route at least one failed net) to continue. *)
let rec retry_failed st failed =
  match failed with
  | [] -> []
  | _ when Budget.check st.budget <> None -> failed
  | _ ->
      List.iter (enqueue st) failed;
      let still_failed = drain st in
      audit_phase st ~where:"after retry sweep";
      if List.length still_failed < List.length failed then
        retry_failed st still_failed
      else still_failed

let route_once config problem order_ids ~budget ~chaos ~guides =
  let st = make_state config problem ~budget ~chaos ~guides in
  List.iter (enqueue st) order_ids;
  let failed = drain st in
  audit_phase st ~where:"after queue drain";
  let failed = retry_failed st failed in
  ignore (failed : int list);
  (* Derive the failed set from the routed flags rather than the drain
     bookkeeping: when the budget trips mid-queue, nets never attempted
     must be reported failed too.  For an uninterrupted run the two sets
     are identical. *)
  let failed =
    List.filter
      (fun id -> not st.routed.(id - 1))
      (Netlist.Problem.nontrivial_net_ids problem)
  in
  audit_phase st ~where:"end of attempt";
  let routed_nets =
    Array.fold_left (fun acc r -> if r then acc + 1 else acc) 0 st.routed
  in
  let stats =
    {
      routed_nets;
      failed_nets = failed;
      total_wirelength = Outcome.total_wirelength st.g problem;
      total_vias = Outcome.total_vias st.g;
      rips = st.rips;
      shoves = st.shoves;
      searches = st.searches;
      expanded = st.expanded;
      effort =
        {
          Outcome.total_expanded = st.expanded;
          maze_expanded = st.expanded_maze;
          weak_expanded = st.expanded_weak;
          strong_expanded = st.expanded_strong;
          per_net_expanded = Array.copy st.expanded_per_net;
          failed_expanded = st.failed_expanded;
          flood_expanded = st.flood_expanded;
          reused = st.reused;
          reused_expanded = st.reused_expanded;
        };
      attempts = 1;
      guide =
        {
          Outcome.guided =
            Array.fold_left
              (fun acc g -> if g = None then acc else acc + 1)
              0 st.guides;
          hits = st.tally.Maze.Search.hits;
          fallbacks = st.tally.Maze.Search.fallbacks;
        };
    }
  in
  let status =
    if failed = [] then Outcome.Complete
    else
      match Budget.tripped budget with
      | Some reason -> Outcome.Degraded reason
      | None -> Outcome.Infeasible
  in
  { grid = st.g; completed = failed = []; status; stats }

let better a b =
  (* true when [a] beats [b]. *)
  match (a.completed, b.completed) with
  | true, false -> true
  | false, true -> false
  | true, true | false, false ->
      let fa = List.length a.stats.failed_nets
      and fb = List.length b.stats.failed_nets in
      if fa <> fb then fa < fb
      else if a.stats.total_vias <> b.stats.total_vias then
        a.stats.total_vias < b.stats.total_vias
      else a.stats.total_wirelength < b.stats.total_wirelength

(* Restarts combine two classic tricks: the nets that failed last attempt
   are routed first next time (they were the hardest to fit), and the rest
   of the queue is reshuffled with a fresh seed. *)
let restart_order ~seed ~attempt ~last_failed base_order =
  let shuffled = Order.rotate_for_restart ~seed ~attempt base_order in
  let failed_first =
    List.filter (fun id -> List.mem id last_failed) shuffled
  in
  let others = List.filter (fun id -> not (List.mem id last_failed)) shuffled in
  failed_first @ others

let route ?(config = Config.default) ?budget ?chaos ?guides problem =
  let guides =
    match guides with
    | None -> [||]
    | Some a ->
        if Array.length a <> Netlist.Problem.net_count problem then
          invalid_arg "Engine.route: guides array length <> net count";
        (* The byte-identity certificate of a guided probe relies on
           bucket-queue pop-order identity and on the guide replacing the
           window outright; reject configs that break either premise. *)
        if config.Config.kernel <> Maze.Search.Buckets then
          invalid_arg "Engine.route: guides require the buckets kernel";
        if config.Config.window_margin <> None then
          invalid_arg "Engine.route: guides are exclusive with window_margin";
        a
  in
  let budget =
    match budget with
    | Some b -> b
    | None ->
        Budget.create ?deadline:config.Config.deadline
          ?max_expanded:config.Config.max_expanded
          ?max_searches:config.Config.max_searches ()
  in
  let chaos = match chaos with Some c -> c | None -> Chaos.none in
  (match Chaos.hook chaos with
  | Some h -> Budget.add_hook budget h
  | None -> ());
  let ids = Netlist.Problem.nontrivial_net_ids problem in
  let base_order =
    Order.arrange config.Config.order ~seed:config.Config.seed problem ids
  in
  let max_attempts = max 1 config.Config.restarts in
  let with_attempts r n = { r with stats = { r.stats with attempts = n } } in
  (* The budget is shared across restart attempts, and the final status
     reflects the whole run: an attempt kept from before the trip is still
     Degraded, because better orderings were cut short. *)
  let finalize r =
    let status =
      if r.completed then Outcome.Complete
      else
        match Budget.tripped budget with
        | Some reason -> Outcome.Degraded reason
        | None -> Outcome.Infeasible
    in
    { r with status }
  in
  let rec attempts i best =
    if i >= max_attempts then with_attempts best max_attempts
    else if Budget.check budget <> None then with_attempts best i
    else begin
      let order =
        restart_order ~seed:config.Config.seed ~attempt:i
          ~last_failed:best.stats.failed_nets base_order
      in
      let result = route_once config problem order ~budget ~chaos ~guides in
      let best = if better result best then result else best in
      if best.completed then with_attempts best (i + 1)
      else attempts (i + 1) best
    end
  in
  let first = route_once config problem base_order ~budget ~chaos ~guides in
  finalize
    (if first.completed || max_attempts = 1 then with_attempts first 1
     else attempts 1 first)

let pp_stats fmt s =
  Format.fprintf fmt
    "routed=%d failed=[%s] wl=%d vias=%d rips=%d shoves=%d searches=%d %a"
    s.routed_nets
    (String.concat "," (List.map string_of_int s.failed_nets))
    s.total_wirelength s.total_vias s.rips s.shoves s.searches
    Outcome.pp_effort s.effort;
  if s.guide <> Outcome.no_guide then
    Format.fprintf fmt " %a" Outcome.pp_guide s.guide
