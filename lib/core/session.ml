type t = {
  config : Config.t;
  chaos : Chaos.t;
  mutable problem : Netlist.Problem.t;
  mutable grid : Grid.t;
  mutable frozen : (string, unit) Hashtbl.t;
      (* keyed by name: survives renumbering *)
}

(* Transactional core: every public mutation snapshots the session state
   and restores it on failure, so callers never observe a half-applied
   mutation — not even when a budget trip or an injected fault fires in
   the middle of a rebuild. *)
let snapshot st = (st.problem, Grid.copy st.grid, Hashtbl.copy st.frozen)

let restore st (problem, grid, frozen) =
  st.problem <- problem;
  st.grid <- grid;
  st.frozen <- frozen

let transactionally st f =
  let saved = snapshot st in
  match f () with
  | Ok _ as ok -> ok
  | Error _ as e ->
      restore st saved;
      e
  | exception Chaos.Injected_fault msg ->
      restore st saved;
      Error msg
  | exception exn ->
      restore st saved;
      raise exn

let problem st = st.problem

let grid st = st.grid

let net_id st name =
  Option.map
    (fun (n : Netlist.Net.t) -> n.Netlist.Net.id)
    (Netlist.Problem.find_net st.problem name)

let is_frozen_name st name = Hashtbl.mem st.frozen name

let is_frozen st ~net =
  is_frozen_name st (Netlist.Problem.net st.problem net).Netlist.Net.name

let is_routed st ~net =
  let n = Netlist.Problem.net st.problem net in
  Netlist.Net.pin_count n = 0
  || Drc.Check.connected_components st.grid ~net <= 1

(* [is_routed] for every net, from one component pass. *)
let routed_count st =
  let counts =
    Drc.Check.component_counts st.grid
      ~nets:(Netlist.Problem.net_count st.problem)
  in
  Array.fold_left
    (fun acc (n : Netlist.Net.t) ->
      if Netlist.Net.pin_count n = 0 || counts.(n.Netlist.Net.id) <= 1 then
        acc + 1
      else acc)
    0 st.problem.Netlist.Problem.nets

(* Wiring a net owns beyond its pins, as prewire cell triples. *)
let route_cells problem g ~net =
  let pins =
    List.filter_map
      (fun (id, (p : Netlist.Net.pin)) ->
        if id = net then
          Some (p.Netlist.Net.layer, p.Netlist.Net.x, p.Netlist.Net.y)
        else None)
      (Netlist.Problem.pin_cells problem)
  in
  List.filter_map
    (fun node ->
      let cell =
        (Grid.node_layer g node, Grid.node_x g node, Grid.node_y g node)
      in
      if List.mem cell pins then None else Some cell)
    (Grid.occupied_nodes g ~net)

(* The problem description rebuilt around [new_nets], carrying over the
   wiring of every surviving net (matched by name) as pre-wiring.  Pure:
   reads the session, mutates nothing. *)
let rebuilt_problem st ?(keep_wiring = fun _ -> true) new_nets =
  let old = st.problem in
  let prewires =
    List.filter_map
      (fun (n : Netlist.Net.t) ->
        let name = n.Netlist.Net.name in
        match Netlist.Problem.find_net old name with
        | None -> None
        | Some old_net ->
            if not (keep_wiring name) then None
            else
              let cells =
                route_cells old st.grid ~net:old_net.Netlist.Net.id
              in
              if cells = [] then None
              else
                Some
                  {
                    Netlist.Problem.pre_net = n.Netlist.Net.id;
                    pre_cells = cells;
                    pre_fixed = is_frozen_name st name;
                  })
      new_nets
  in
  Netlist.Problem.make ~kind:old.Netlist.Problem.kind
    ~layers:old.Netlist.Problem.layers
    ~layer_dirs:old.Netlist.Problem.layer_dirs
    ~obstructions:old.Netlist.Problem.obstructions ~prewires
    ~insts:old.Netlist.Problem.insts ~name:old.Netlist.Problem.name
    ~width:old.Netlist.Problem.width ~height:old.Netlist.Problem.height
    new_nets

(* Rebuild problem + grid around a new net list. *)
let rebuild st ?keep_wiring new_nets =
  let problem = rebuilt_problem st ?keep_wiring new_nets in
  st.problem <- problem;
  (* Deliberately placed between the two state updates: an injected crash
     here leaves the session visibly inconsistent unless the caller's
     transaction rolls back — exactly what the chaos suite exercises. *)
  Chaos.maybe_crash st.chaos;
  st.grid <- Netlist.Problem.instantiate problem

let current_nets st = Array.to_list st.problem.Netlist.Problem.nets

let sync ?keep_wiring st = rebuild st ?keep_wiring (current_nets st)

let create ?(config = Config.default) ?(chaos = Chaos.none) problem =
  let st =
    {
      config;
      chaos;
      problem;
      grid = Netlist.Problem.instantiate problem;
      frozen = Hashtbl.create 8;
    }
  in
  (* Nets arriving with fixed pre-wiring stay untouchable for the whole
     session. *)
  List.iter
    (fun (pw : Netlist.Problem.prewire) ->
      if pw.Netlist.Problem.pre_fixed then
        Hashtbl.replace st.frozen
          (Netlist.Problem.net problem pw.Netlist.Problem.pre_net)
            .Netlist.Net.name ())
    problem.Netlist.Problem.prewires;
  st

(* Shared core of [route]/[try_route]: run the engine over the synced
   problem and either commit the resulting grid or roll the session back.
   [commit_degraded] decides the fate of budget-tripped results: the
   interactive API commits them (a consistent best-so-far layout), the
   service path rolls them back so a request that blows its SLO leaves
   the session exactly as it found it. *)
let route_core st ?budget ~commit_degraded () =
  let saved = snapshot st in
  try
    sync st;
    let result =
      Engine.route ~config:st.config ?budget ~chaos:st.chaos st.problem
    in
    match result.Engine.status with
    | Outcome.Degraded reason when not commit_degraded ->
        restore st saved;
        Error reason
    | Outcome.Complete | Outcome.Degraded _ | Outcome.Infeasible ->
        st.grid <- result.Engine.grid;
        Ok result.Engine.stats
  with exn ->
    (* An exception — injected fault, audit failure — always rolls back. *)
    restore st saved;
    raise exn

let config st = st.config

let route ?budget st =
  match route_core st ?budget ~commit_degraded:true () with
  | Ok stats -> stats
  | Error _ -> assert false (* commit_degraded:true never returns Error *)

let try_route ?budget st = route_core st ?budget ~commit_degraded:false ()

let add_net st ~name pins =
  transactionally st @@ fun () ->
  if Netlist.Problem.has_insts st.problem then
    Error "problem has an unrealized placement section; place it first \
           (netlist surgery would dangle instance-pin references)"
  else if Netlist.Problem.find_net st.problem name <> None then
    Error (Printf.sprintf "net %S already exists" name)
  else begin
    let free (p : Netlist.Net.pin) =
      Grid.in_bounds st.grid ~x:p.Netlist.Net.x ~y:p.Netlist.Net.y
      && p.Netlist.Net.layer >= 0
      && p.Netlist.Net.layer < Grid.layers st.grid
      && Grid.is_free st.grid
           (Grid.node st.grid ~layer:p.Netlist.Net.layer ~x:p.Netlist.Net.x
              ~y:p.Netlist.Net.y)
    in
    match List.find_opt (fun p -> not (free p)) pins with
    | Some p ->
        Error
          (Format.asprintf "pin %a is not on a free cell" Netlist.Net.pp_pin p)
    | None ->
        let id = Netlist.Problem.net_count st.problem + 1 in
        (match Netlist.Net.make ~id ~name pins with
        | exception Invalid_argument msg -> Error msg
        | net ->
            (match rebuild st (current_nets st @ [ net ]) with
            | exception Invalid_argument msg -> Error msg
            | () -> Ok id))
  end

let renumber nets =
  List.mapi
    (fun i (n : Netlist.Net.t) ->
      Netlist.Net.make ~cls:n.Netlist.Net.cls ~id:(i + 1)
        ~name:n.Netlist.Net.name n.Netlist.Net.pins)
    nets

let remove_net st ~net =
  transactionally st @@ fun () ->
  if Netlist.Problem.has_insts st.problem then
    Error "problem has an unrealized placement section; place it first \
           (net removal renumbers ids and would dangle instance-pin \
           references)"
  else if net < 1 || net > Netlist.Problem.net_count st.problem then
    Error (Printf.sprintf "unknown net %d" net)
  else if is_frozen st ~net then Error "net is frozen; thaw it first"
  else begin
    let keep =
      List.filter
        (fun (n : Netlist.Net.t) -> n.Netlist.Net.id <> net)
        (current_nets st)
    in
    rebuild st (renumber keep);
    Ok ()
  end

let rip st ~net =
  transactionally st @@ fun () ->
  if net < 1 || net > Netlist.Problem.net_count st.problem then
    Error (Printf.sprintf "unknown net %d" net)
  else if is_frozen st ~net then Error "net is frozen; thaw it first"
  else begin
    let name = (Netlist.Problem.net st.problem net).Netlist.Net.name in
    sync ~keep_wiring:(fun n -> n <> name) st;
    Ok ()
  end

let freeze st ~net =
  if net < 1 || net > Netlist.Problem.net_count st.problem then
    Error (Printf.sprintf "unknown net %d" net)
  else if not (is_routed st ~net) then Error "net is not routed"
  else begin
    Hashtbl.replace st.frozen
      (Netlist.Problem.net st.problem net).Netlist.Net.name ();
    Ok ()
  end

let thaw st ~net =
  if net < 1 || net > Netlist.Problem.net_count st.problem then
    Error (Printf.sprintf "unknown net %d" net)
  else begin
    Hashtbl.remove st.frozen
      (Netlist.Problem.net st.problem net).Netlist.Net.name;
    Ok ()
  end

(* An unrouted net (several pieces) is an expected open in a live
   session, not a violation.  [check] counts every net's pieces in its
   one pass, so dropping those opens from its report is the same as
   checking only the routed nets. *)
let verify st =
  List.filter
    (function
      | Drc.Check.Net_disconnected { components; _ } -> components <= 1
      | Drc.Check.Pin_not_owned _ | Drc.Check.Via_mismatch _
      | Drc.Check.Wire_on_obstruction _ ->
          true)
    (Drc.Check.check st.problem st.grid)

(* Wholesale replacement of the session's problem and grid — the commit
   step of pipeline stages (placement, full flow) that compute a new
   problem outside the session and hand the result back.  The caller
   owns nothing afterwards: the session adopts [grid] directly. *)
let install st ~problem ~grid =
  transactionally st @@ fun () ->
  if
    Grid.width grid <> problem.Netlist.Problem.width
    || Grid.height grid <> problem.Netlist.Problem.height
    || Grid.layers grid <> problem.Netlist.Problem.layers
  then Error "install: grid does not match the problem dimensions"
  else begin
    st.problem <- problem;
    Chaos.maybe_crash st.chaos;
    st.grid <- grid;
    Ok ()
  end

let refine ?max_passes st =
  let saved = snapshot st in
  try
    sync st;
    Improve.refine ?max_passes ~cost:st.config.Config.cost
      ~incremental:st.config.Config.incremental st.problem st.grid
  with exn ->
    restore st saved;
    raise exn

(* --- durable checkpoints ---

   A checkpoint is the session's state as data: the current problem with
   every net's wiring carried as pre-wiring (the FORMAT.md printer/parser
   serialises it), plus the exact via positions and the frozen-name set.

   The vias travel separately because [Problem.instantiate]'s via
   inference is lossy: it only recognises a via when {e one prewire}
   holds both cells of a pair position, so a layer change at a pin (the
   pin cell is not part of the prewire) loses its via flag.  Restoring
   from (problem, vias) reproduces the grid byte-for-byte — occupancy
   from pins + prewires, via pair flags overwritten with the recorded
   set of (pair layer, x, y) triples. *)

let checkpoint st =
  let problem = rebuilt_problem st (current_nets st) in
  let vias = ref [] in
  Grid.iter_via_pairs st.grid (fun ~layer ~x ~y ->
      vias := (layer, x, y) :: !vias);
  let frozen =
    List.sort String.compare
      (Hashtbl.fold (fun name () acc -> name :: acc) st.frozen [])
  in
  (problem, List.rev !vias, frozen)

let of_checkpoint ?(config = Config.default) ?(chaos = Chaos.none) ~vias
    ~frozen problem =
  let grid = Netlist.Problem.instantiate problem in
  Grid.iter_via_pairs grid (fun ~layer ~x ~y -> Grid.clear_via ~layer grid ~x ~y);
  List.iter (fun (layer, x, y) -> Grid.set_via ~layer grid ~x ~y) vias;
  let st = { config; chaos; problem; grid; frozen = Hashtbl.create 8 } in
  List.iter (fun name -> Hashtbl.replace st.frozen name ()) frozen;
  st
