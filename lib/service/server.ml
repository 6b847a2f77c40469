module J = Util.Json

type config = {
  router : Router.Config.t;
  chaos : Router.Chaos.t;
  queue_cap : int;
  default_slo_ms : int option;
  max_sessions : int;
  idle_ticks : int;
  allow_files : bool;
  data_dir : string option;
  snapshot_every : int;
  fsync : bool;
  shards : int;
}

let default_config =
  {
    router = Router.Config.default;
    chaos = Router.Chaos.none;
    queue_cap = 64;
    default_slo_ms = None;
    max_sessions = 64;
    idle_ticks = 10_000;
    allow_files = true;
    data_dir = None;
    snapshot_every = 64;
    fsync = true;
    shards = 1;
  }

(* [admitted_at]: when [submit] queued the request, on the monotonic
   clock. *)
type item = { client : int; request : Proto.request; admitted_at : int64 }

(* One shard: a registry partition, a bounded queue and a metrics store,
   owned by one executor at a time: its persistent worker domain, or the
   caller of [drain] while no workers run.  [qmutex]/[qcond] guard the
   queue (acceptor submits, executor pops); [lock] serialises execution
   against the cross-shard reads of a [stats] request.  The [exec_*]
   means feed shed hints and are written by the executor only;
   [inflight] flips under [qmutex]. *)
type shard = {
  index : int;
  registry : Registry.t;
  queue : item Sched.t;
  qmutex : Mutex.t;
  qcond : Condition.t;
  lock : Mutex.t;
  metrics : Metrics.t;
  mutable exec_count : int;
  mutable exec_sum_s : float;
  mutable inflight : bool;
}

type t = {
  config : config;
  shards : shard array;
  (* Acceptor-domain store: parse errors and the global queue-depth
     high-water mark.  Sheds count on the target shard's store. *)
  acceptor : Metrics.t;
  (* Requests admitted but not yet popped, across every shard — the
     global admission cap. *)
  queued : int Atomic.t;
  shutdown : bool Atomic.t;
  (* Tells the worker domains to exit once their queue is empty
     (graceful drain). *)
  draining : bool Atomic.t;
}

(* Stable session→shard affinity: FNV-1a over the session name.  Not
   OCaml's [Hashtbl.hash] on purpose — the mapping reaches the on-disk
   recovery partition ([Registry]'s [owns]), so it must stay fixed under
   compiler upgrades. *)
let shard_of_name ~shards name =
  if shards <= 1 || name = "" then 0
  else begin
    let h = ref 2166136261 in
    String.iter
      (fun c -> h := (!h lxor Char.code c) * 16777619 land max_int)
      name;
    !h mod shards
  end

(* [stats] reads every shard and is the only request that takes foreign
   shard locks; pinning it to shard 0 means lock acquisition is always
   ordered (holder of lock 0 takes 1..n-1) and can never deadlock. *)
let shard_for t (req : Proto.request) =
  match req.Proto.op with
  | Proto.Stats -> t.shards.(0)
  | _ ->
      let name = Option.value ~default:"" req.Proto.session in
      t.shards.(shard_of_name ~shards:(Array.length t.shards) name)

let create ?(config = default_config) () =
  let shards = max 1 config.shards in
  let data =
    Option.map
      (fun dir ->
        {
          Registry.dir;
          snapshot_every = max 1 config.snapshot_every;
          fsync = config.fsync;
        })
      config.data_dir
  in
  (* Per-shard queue slice of the global cap: a session flooding its own
     shard sheds early instead of filling the whole server's budget. *)
  let per_shard_cap = max 1 ((config.queue_cap + shards - 1) / shards) in
  let mk_shard index =
    {
      index;
      registry =
        Registry.create ~config:config.router ~chaos:config.chaos
          ~max_sessions:config.max_sessions ~idle_ticks:config.idle_ticks
          ~owns:(fun name -> shard_of_name ~shards name = index)
          ?data ();
      queue = Sched.create ~cap:per_shard_cap ();
      qmutex = Mutex.create ();
      qcond = Condition.create ();
      lock = Mutex.create ();
      metrics = Metrics.create ~kinds:Proto.op_names ();
      exec_count = 0;
      exec_sum_s = 0.0;
      inflight = false;
    }
  in
  {
    config;
    shards = Array.init shards mk_shard;
    acceptor = Metrics.create ~kinds:Proto.op_names ();
    queued = Atomic.make 0;
    shutdown = Atomic.make false;
    draining = Atomic.make false;
  }

let shard_count t = Array.length t.shards

let shard_of t name = shard_of_name ~shards:(Array.length t.shards) name

let metrics t =
  Metrics.merge
    (t.acceptor :: Array.to_list (Array.map (fun s -> s.metrics) t.shards))

let registry t = t.shards.(0).registry

let registry_for t name = t.shards.(shard_of t name).registry

let queue_depth t = Atomic.get t.queued

let pending t =
  Atomic.get t.queued
  + Array.fold_left (fun a s -> if s.inflight then a + 1 else a) 0 t.shards

let shutdown_requested t = Atomic.get t.shutdown

(* How long a shed client should wait before retrying: the time the
   target shard's backlog will plausibly take to drain, from that
   shard's observed mean execution time (falling back to the SLO, then
   to a token 50ms before any request has executed).  Queue wait is left
   out of the mean: the backlog factor already counts it.  Load-aware per
   shard: a client bounced off a deep queue gets a proportionally later
   retry slot than one bounced off a briefly-full shard. *)
let retry_after_ms t shard =
  let mean_ms =
    if shard.exec_count > 0 then
      1000.0 *. shard.exec_sum_s /. float_of_int shard.exec_count
    else
      match t.config.default_slo_ms with
      | Some ms -> float_of_int ms
      | None -> 50.0
  in
  max 1 (int_of_float (mean_ms *. float_of_int (Sched.length shard.queue + 1)))

(* --- request execution --- *)

exception Reply of string

let error_reply ~rid ?retry_after_ms code msg =
  raise (Reply (Proto.error_line ~rid ?retry_after_ms code msg))

let chaos_message msg =
  String.length msg >= 6 && String.sub msg 0 6 = "chaos:"

let with_session shard (req : Proto.request) f =
  match req.Proto.session with
  | None ->
      error_reply ~rid:req.Proto.rid Proto.Bad_request
        "this op needs a \"session\" field"
  | Some name -> (
      match Registry.find shard.registry name with
      | None ->
          error_reply ~rid:req.Proto.rid Proto.Unknown_session
            (Printf.sprintf "no session named %S" name)
      | Some entry -> f name entry)

(* Exactly-once resubmission: a client that never saw its reply (it or
   the server died in between) resends the same non-zero request id.
   If that id matches the session's last committed mutation — live or
   recovered from the journal — the work already happened: ack it with
   a [duplicate] marker instead of applying it twice.  Requests with
   id 0 opt out. *)
let deduped ~rid entry k =
  if Registry.is_duplicate entry ~rid then
    Proto.ok_line ~rid ~gen:(Registry.generation entry)
      (J.Obj [ ("duplicate", J.Bool true) ])
  else k ()

let resolve_target ~rid entry = function
  | Proto.Net_id id -> id
  | Proto.Net_name name -> (
      match Router.Session.net_id (Registry.session entry) name with
      | Some id -> id
      | None ->
          error_reply ~rid Proto.Net_error
            (Printf.sprintf "no net named %S" name))

(* Session mutations surface injected faults as [Error msg] with a
   recognisable prefix; re-raise them so [execute]'s one fault handler
   gives them their own error code, and clients (and the chaos tests)
   can tell a fault-aborted request from a rejected one.  Either way the
   session has already rolled back. *)
let mutation_error ~rid msg =
  if chaos_message msg then raise (Router.Chaos.Injected_fault msg)
  else error_reply ~rid Proto.Net_error msg

let budget_tripped ~rid shard msg =
  if chaos_message msg then raise (Router.Chaos.Injected_fault msg);
  Metrics.budget_trip shard.metrics;
  error_reply ~rid Proto.Budget_tripped msg

(* A request's wall-clock budget: its own [slo_ms], else the server's
   default, else none. *)
let slo_budget t slo_ms =
  Option.map
    (fun ms -> Router.Budget.create ~deadline:(float_of_int ms /. 1000.0) ())
    (match slo_ms with Some _ -> slo_ms | None -> t.config.default_slo_ms)

(* The session's problem with its placement realized, for the read-only
   whole-problem views ([groute], [analyze]). *)
let realized_problem ~rid entry =
  let problem = Router.Session.problem (Registry.session entry) in
  if Netlist.Problem.has_insts problem && not (Netlist.Problem.placed problem)
  then
    error_reply ~rid Proto.Net_error
      "the placement section has unplaced instances; place first";
  match Netlist.Problem.realize problem with
  | exception Invalid_argument msg -> mutation_error ~rid msg
  | realized -> realized

let engine_stats_json (s : Router.Engine.stats) =
  let status = if s.Router.Engine.failed_nets = [] then "complete" else "infeasible" in
  J.Obj
    [
      ("status", J.String status);
      ("routed", J.Int s.Router.Engine.routed_nets);
      ( "failed",
        J.List (List.map (fun id -> J.Int id) s.Router.Engine.failed_nets) );
      ("wirelength", J.Int s.Router.Engine.total_wirelength);
      ("vias", J.Int s.Router.Engine.total_vias);
      ("rips", J.Int s.Router.Engine.rips);
      ("shoves", J.Int s.Router.Engine.shoves);
      ("searches", J.Int s.Router.Engine.searches);
      ("expanded", J.Int s.Router.Engine.expanded);
      ("attempts", J.Int s.Router.Engine.attempts);
    ]

let place_stats_json (s : Place.stats) =
  J.Obj
    [
      ("insts", J.Int s.Place.insts);
      ("free_insts", J.Int s.Place.free_insts);
      ("moves", J.Int s.Place.moves);
      ("accepted", J.Int s.Place.accepted);
      ("sweeps", J.Int s.Place.sweeps);
      ("initial_cost", J.Int s.Place.initial_cost);
      ("final_cost", J.Int s.Place.final_cost);
      ("degraded", J.Bool s.Place.degraded);
    ]

let groute_json (g : Groute.t) =
  let class_total cls =
    Array.fold_left ( + ) 0 g.Groute.class_usage.(Groute.cls_index cls)
  in
  J.Obj
    [
      ("tiles_x", J.Int g.Groute.tiles_x);
      ("tiles_y", J.Int g.Groute.tiles_y);
      ("tile", J.Int g.Groute.tile);
      ("overflow_tiles", J.Int g.Groute.overflow_tiles);
      ( "audit",
        match Groute.audit g with
        | Ok () -> J.Bool true
        | Error _ -> J.Bool false );
      ( "class_usage",
        J.Obj
          [
            ("signal", J.Int (class_total Netlist.Net.Signal));
            ("clock", J.Int (class_total Netlist.Net.Clock));
            ("power", J.Int (class_total Netlist.Net.Power));
          ] );
      ( "guides",
        J.Int
          (Array.fold_left
             (fun a g -> if g <> None then a + 1 else a)
             0 g.Groute.guides) );
    ]

let guide_json (g : Router.Outcome.guide_stats) =
  let total = g.Router.Outcome.hits + g.Router.Outcome.fallbacks in
  J.Obj
    [
      ("guided", J.Int g.Router.Outcome.guided);
      ("hits", J.Int g.Router.Outcome.hits);
      ("fallbacks", J.Int g.Router.Outcome.fallbacks);
      ( "hit_rate",
        J.Float
          (if total = 0 then 1.0
           else float_of_int g.Router.Outcome.hits /. float_of_int total) );
    ]

let load_problem t ~rid = function
  | Proto.Open { problem_text = Some text; _ } -> (
      match Netlist.Parse.of_string ~src:"<request>" text with
      | Ok p -> p
      | Error e ->
          error_reply ~rid Proto.Bad_request (Netlist.Parse.error_to_string e))
  | Proto.Open { file = Some path; _ } -> (
      if not t.config.allow_files then
        error_reply ~rid Proto.Bad_request
          "open by \"file\" is disabled on this server";
      match Netlist.Parse.load path with
      | Ok p -> p
      | Error e ->
          error_reply ~rid Proto.Bad_request (Netlist.Parse.error_to_string e))
  | _ -> error_reply ~rid Proto.Bad_request "open needs \"problem\" or \"file\""

(* The [stats] reply: metrics merged lock-free across every per-domain
   store; registry tables (session maps, durability counters) read under
   each foreign shard's execution lock.  [self] is the shard executing
   the request — its lock is already held by our executor. *)
let stats_json t ~(self : shard) =
  let with_shard_lock s f =
    if s == self then f ()
    else begin
      Mutex.lock s.lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f
    end
  in
  let per_shard =
    Array.map
      (fun s ->
        let sessions, reg_rows, durability =
          with_shard_lock s (fun () ->
              ( Registry.count s.registry,
                Registry.snapshot s.registry,
                Registry.durability_json s.registry ))
        in
        (s, sessions, reg_rows, durability))
      t.shards
  in
  let total_sessions =
    Array.fold_left (fun a (_, n, _, _) -> a + n) 0 per_shard
  in
  let registry_rows =
    Array.to_list per_shard
    |> List.concat_map (fun (_, _, rows, _) ->
           match rows with J.Obj fields -> fields | _ -> [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let durabilities =
    Array.to_list (Array.map (fun (_, _, _, d) -> d) per_shard)
  in
  let sum_int name =
    J.Int
      (List.fold_left
         (fun a d ->
           match J.member name d with Some (J.Int n) -> a + n | _ -> a)
         0 durabilities)
  in
  let durability =
    J.Obj
      [
        ( "durable",
          J.Bool
            (List.exists
               (fun d -> J.member "durable" d = Some (J.Bool true))
               durabilities) );
        ("snapshots_written", sum_int "snapshots_written");
        ("sessions_recovered", sum_int "sessions_recovered");
        ("records_replayed", sum_int "records_replayed");
        ("torn_tails", sum_int "torn_tails");
        ("recover_failures", sum_int "recover_failures");
        ( "last_error",
          match
            List.find_opt
              (fun d ->
                match J.member "last_error" d with
                | Some (J.String _) -> true
                | _ -> false)
              durabilities
          with
          | Some d -> Option.get (J.member "last_error" d)
          | None -> J.Null );
      ]
  in
  let shard_rows =
    Array.to_list per_shard
    |> List.map (fun ((s : shard), sessions, _, _) ->
           J.Obj
             [
               ("shard", J.Int s.index);
               ("sessions", J.Int sessions);
               ("queue_depth", J.Int (Sched.length s.queue));
               ("queue_cap", J.Int (Sched.cap s.queue));
               ("shed", J.Int (Metrics.shed_count s.metrics));
               ("requests", J.Int (Metrics.requests s.metrics));
             ])
  in
  J.Obj
    [
      ("protocol", J.Int Proto.version);
      ( "metrics",
        Metrics.snapshot ~queue_depth:(Atomic.get t.queued)
          ~sessions:total_sessions (metrics t) );
      ("shards", J.List shard_rows);
      ("registry", J.Obj registry_rows);
      ("durability", durability);
    ]

let exec t shard (req : Proto.request) =
  let rid = req.Proto.rid in
  let ok ?gen result = Proto.ok_line ~rid ?gen result in
  match req.Proto.op with
  | Proto.Open _ -> assert false (* dispatched to [exec_open] by [execute] *)
  | Proto.Route { slo_ms } ->
      with_session shard req @@ fun _ entry ->
      deduped ~rid entry @@ fun () ->
      let budget = slo_budget t slo_ms in
      (match Router.Session.try_route ?budget (Registry.session entry) with
      | Ok stats ->
          Registry.commit shard.registry entry ~rid req.Proto.op;
          ok ~gen:(Registry.generation entry) (engine_stats_json stats)
      | Error reason ->
          budget_tripped ~rid shard (Router.Budget.reason_to_string reason))
  | Proto.Add_net { name; pins } -> (
      with_session shard req @@ fun _ entry ->
      deduped ~rid entry @@ fun () ->
      match Router.Session.add_net (Registry.session entry) ~name pins with
      | Ok id ->
          Registry.commit shard.registry entry ~rid req.Proto.op;
          ok ~gen:(Registry.generation entry) (J.Obj [ ("net", J.Int id) ])
      | Error msg -> mutation_error ~rid msg)
  | Proto.Remove_net target | Proto.Rip target
  | Proto.Freeze target | Proto.Thaw target -> (
      with_session shard req @@ fun _ entry ->
      deduped ~rid entry @@ fun () ->
      let session = Registry.session entry in
      let net = resolve_target ~rid entry target in
      let call =
        match req.Proto.op with
        | Proto.Remove_net _ -> Router.Session.remove_net
        | Proto.Rip _ -> Router.Session.rip
        | Proto.Freeze _ -> Router.Session.freeze
        | _ -> Router.Session.thaw
      in
      match call session ~net with
      | Ok () ->
          Registry.commit shard.registry entry ~rid req.Proto.op;
          ok ~gen:(Registry.generation entry) (J.Obj [ ("done", J.Bool true) ])
      | Error msg -> mutation_error ~rid msg)
  | Proto.Refine { max_passes } ->
      with_session shard req @@ fun _ entry ->
      deduped ~rid entry @@ fun () ->
      let s = Router.Session.refine ?max_passes (Registry.session entry) in
      Registry.commit shard.registry entry ~rid req.Proto.op;
      Metrics.refine_cache shard.metrics
        ~skips:(s.Router.Improve.skipped_cert + s.Router.Improve.skipped_bound)
        ~stale:s.Router.Improve.cache_stale;
      ok ~gen:(Registry.generation entry)
        (J.Obj
           [
             ("passes", J.Int s.Router.Improve.passes);
             ("improved_nets", J.Int s.Router.Improve.improved_nets);
             ("wirelength_before", J.Int s.Router.Improve.wirelength_before);
             ("wirelength_after", J.Int s.Router.Improve.wirelength_after);
             ("vias_before", J.Int s.Router.Improve.vias_before);
             ("vias_after", J.Int s.Router.Improve.vias_after);
             ("planned", J.Int s.Router.Improve.planned);
             ("skipped_cert", J.Int s.Router.Improve.skipped_cert);
             ("skipped_bound", J.Int s.Router.Improve.skipped_bound);
             ("cache_stale", J.Int s.Router.Improve.cache_stale);
           ])
  | Proto.Place { seed } -> (
      with_session shard req @@ fun _ entry ->
      deduped ~rid entry @@ fun () ->
      let session = Registry.session entry in
      let problem = Router.Session.problem session in
      if not (Netlist.Problem.has_insts problem) then
        error_reply ~rid Proto.Net_error
          "the session's problem has no placement section"
      else begin
        (* Resolve the seed now and journal the resolved value, so a WAL
           replay reruns the exact same annealing schedule. *)
        let seed =
          match seed with
          | Some s -> s
          | None -> t.config.router.Router.Config.seed
        in
        match Place.place ~seed problem with
        | Error msg -> mutation_error ~rid msg
        | Ok (placed, pstats) -> (
            match Netlist.Problem.realize placed with
            | exception Invalid_argument msg -> mutation_error ~rid msg
            | realized -> (
                match
                  Router.Session.install session ~problem:realized
                    ~grid:(Netlist.Problem.instantiate realized)
                with
                | Error msg -> mutation_error ~rid msg
                | Ok () ->
                    Registry.commit shard.registry entry ~rid
                      (Proto.Place { seed = Some seed });
                    ok ~gen:(Registry.generation entry)
                      (place_stats_json pstats)))
      end)
  | Proto.Groute { tile } ->
      with_session shard req @@ fun _ entry ->
      ok ~gen:(Registry.generation entry)
        (groute_json (Groute.run ?tile (realized_problem ~rid entry)))
  | Proto.Analyze { tile } ->
      (* Read-only like [groute]: nothing to commit, nothing journalled.
         Admission force-admits it, so this must stay cheap — it is
         (closed-form supply/demand over the tile graph, no routing). *)
      with_session shard req @@ fun _ entry ->
      ok ~gen:(Registry.generation entry)
        (Analyze.to_json (Analyze.run ?tile (realized_problem ~rid entry)))
  | Proto.Flow_run { seed; tile; slo_ms } -> (
      with_session shard req @@ fun _ entry ->
      deduped ~rid entry @@ fun () ->
      let session = Registry.session entry in
      let config = Router.Session.config session in
      let seed =
        match seed with Some s -> s | None -> config.Router.Config.seed
      in
      let budget = slo_budget t slo_ms in
      match
        Flow.run ~config ?budget ~seed ?tile (Router.Session.problem session)
      with
      | Error msg -> mutation_error ~rid msg
      | exception Invalid_argument msg -> mutation_error ~rid msg
      | Ok f ->
          let place_degraded =
            match f.Flow.stats.Flow.place with
            | Some ps -> ps.Place.degraded
            | None -> false
          in
          let route_degraded =
            match f.Flow.result.Router.Engine.status with
            | Router.Outcome.Degraded _ -> true
            | _ -> false
          in
          if place_degraded || route_degraded then
            (* SLO blown: like [route], leave the session untouched. *)
            budget_tripped ~rid shard "flow budget tripped; session unchanged"
          else
            match
              Router.Session.install session ~problem:f.Flow.realized
                ~grid:f.Flow.result.Router.Engine.grid
            with
            | Error msg -> mutation_error ~rid msg
            | Ok () ->
                let g = f.Flow.result.Router.Engine.stats.Router.Engine.guide in
                Metrics.flow_guides shard.metrics
                  ~guided:g.Router.Outcome.guided ~hits:g.Router.Outcome.hits
                  ~fallbacks:g.Router.Outcome.fallbacks;
                Registry.commit shard.registry entry ~rid
                  (Proto.Flow_run
                     { seed = Some seed; tile; slo_ms = None });
                ok ~gen:(Registry.generation entry)
                  (J.Obj
                     [
                       ( "place",
                         match f.Flow.stats.Flow.place with
                         | Some ps -> place_stats_json ps
                         | None -> J.Null );
                       ("groute", groute_json f.Flow.stats.Flow.groute);
                       ("route", engine_stats_json f.Flow.result.Router.Engine.stats);
                       ("guide", guide_json g);
                       ( "wall_ns",
                         J.Obj
                           [
                             ("place", J.Int (Int64.to_int f.Flow.stats.Flow.place_ns));
                             ("groute", J.Int (Int64.to_int f.Flow.stats.Flow.groute_ns));
                             ("route", J.Int (Int64.to_int f.Flow.stats.Flow.route_ns));
                           ] );
                     ]))
  | Proto.Verify ->
      with_session shard req @@ fun _ entry ->
      let violations = Router.Session.verify (Registry.session entry) in
      ok ~gen:(Registry.generation entry)
        (J.Obj
           [
             ("clean", J.Bool (violations = []));
             ( "violations",
               J.List
                 (List.map
                    (fun v ->
                      J.String
                        (Format.asprintf "%a" Drc.Check.pp_violation v))
                    violations) );
           ])
  | Proto.Render ->
      with_session shard req @@ fun _ entry ->
      ok ~gen:(Registry.generation entry)
        (J.Obj
           [
             ( "ascii",
               J.String (Viz.Ascii.render (Router.Session.grid (Registry.session entry)))
             );
           ])
  | Proto.Stats -> ok (stats_json t ~self:shard)
  | Proto.Close -> (
      match req.Proto.session with
      | None ->
          error_reply ~rid Proto.Bad_request "close needs a \"session\" field"
      | Some name ->
          if Registry.close shard.registry name then
            ok (J.Obj [ ("closed", J.String name) ])
          else
            error_reply ~rid Proto.Unknown_session
              (Printf.sprintf "no session named %S" name))
  | Proto.Shutdown ->
      Atomic.set t.shutdown true;
      ok (J.Obj [ ("stopping", J.Bool true) ])

(* [open] is special-cased before [exec]'s session lookup: it is the one
   session-scoped op whose session must not exist yet. *)
let exec_open t shard (req : Proto.request) op =
  let rid = req.Proto.rid in
  match req.Proto.session with
  | None -> error_reply ~rid Proto.Bad_request "open needs a \"session\" field"
  | Some name -> (
      let problem = load_problem t ~rid op in
      match Registry.open_session shard.registry ~name ~rid problem with
      | Ok entry ->
          Proto.ok_line ~rid ~gen:(Registry.generation entry)
            (J.Obj
               [
                 ("session", J.String name);
                 ("nets", J.Int (Netlist.Problem.net_count problem));
                 ("width", J.Int problem.Netlist.Problem.width);
                 ("height", J.Int problem.Netlist.Problem.height);
               ])
      | Error `Exists -> (
          (* A resubmitted open whose first try committed (journalled)
             but whose reply was lost: ack it as a duplicate. *)
          match Registry.find shard.registry name with
          | Some entry when Registry.is_duplicate entry ~rid ->
              Proto.ok_line ~rid ~gen:(Registry.generation entry)
                (J.Obj
                   [ ("session", J.String name); ("duplicate", J.Bool true) ])
          | _ ->
              error_reply ~rid Proto.Session_exists
                (Printf.sprintf "session %S already exists" name))
      | Error (`Cap n) ->
          error_reply ~rid Proto.Session_cap
            (Printf.sprintf "session cap reached (%d); close one first" n))

(* Execute one request on its shard.  The caller holds [shard.lock].
   Times come from the monotonic clock, so a wall-clock step cannot
   record a negative or inflated time.  The recorded latency runs from
   [admitted_at] to the reply, so it includes the queue wait; the shed
   hint's mean runs from the start of execution. *)
let execute t shard ~admitted_at (req : Proto.request) =
  let t0 = Monotonic_clock.now () in
  let reply, ok_flag =
    match
      match req.Proto.op with
      | Proto.Open _ as op -> exec_open t shard req op
      | _ -> exec t shard req
    with
    | reply -> (reply, true)
    | exception Reply reply -> (reply, false)
    | exception Router.Chaos.Injected_fault msg ->
        Metrics.fault shard.metrics;
        (Proto.error_line ~rid:req.Proto.rid Proto.Fault_injected msg, false)
    | exception (Router.Chaos.Killed _ as e) ->
        (* A simulated process death must not degrade into an [internal]
           reply: let it unwind the whole server, like the real thing. *)
        raise e
    | exception exn ->
        ( Proto.error_line ~rid:req.Proto.rid Proto.Internal
            (Printexc.to_string exn),
          false )
  in
  let t1 = Monotonic_clock.now () in
  let seconds since = Int64.to_float (Int64.sub t1 since) *. 1e-9 in
  shard.exec_count <- shard.exec_count + 1;
  shard.exec_sum_s <- shard.exec_sum_s +. seconds t0;
  Metrics.record shard.metrics ~kind:(Proto.op_name req.Proto.op) ~ok:ok_flag
    ~latency_s:(seconds admitted_at);
  Metrics.evicted shard.metrics
    (List.length (Registry.tick shard.registry));
  reply

(* --- admission --- *)

let submit t ~client line =
  if Atomic.get t.shutdown then
    Some
      (Proto.error_line ~rid:(Proto.request_id line) Proto.Shutting_down
         "server is shutting down")
  else
    match Proto.parse line with
    | Error (code, msg) ->
        Metrics.record t.acceptor ~kind:"invalid" ~ok:false ~latency_s:0.0;
        Some (Proto.error_line ~rid:(Proto.request_id line) code msg)
    | Ok request ->
        let shard = shard_for t request in
        let key = Option.value ~default:"" request.Proto.session in
        Mutex.lock shard.qmutex;
        (* Read-only requests bypass the queue-cap accounting entirely:
           they are force-admitted past both the global cap and the
           shard's slice, so a shard saturated with mutations still
           answers [analyze]/[stats]/[verify] probes.  They still count
           in [queued] until popped ([next] decrements uniformly),
           which only makes mutation admission stricter. *)
        let force = Proto.read_only request.Proto.op in
        let admitted =
          (force || Atomic.get t.queued < t.config.queue_cap)
          && Sched.submit ~force shard.queue ~key
               { client; request; admitted_at = Monotonic_clock.now () }
        in
        if admitted then begin
          Atomic.incr t.queued;
          let depth = Sched.length shard.queue in
          Condition.signal shard.qcond;
          Mutex.unlock shard.qmutex;
          Metrics.note_queue_depth t.acceptor (Atomic.get t.queued);
          Metrics.note_queue_depth shard.metrics depth;
          None
        end
        else begin
          let retry = retry_after_ms t shard in
          Mutex.unlock shard.qmutex;
          Metrics.shed shard.metrics;
          Some
            (Proto.error_line ~rid:request.Proto.rid ~retry_after_ms:retry
               Proto.Queue_full
               (Printf.sprintf "queue full (%d queued)" (Atomic.get t.queued)))
        end

let request_shutdown t = Atomic.set t.shutdown true

(* --- the execution path ---

   One pop-and-run step serves both executors: a shard's worker domain
   (blocking) and [drain] on the calling domain (non-blocking).  The pop
   and the in-flight mark share one [qmutex] critical section, so
   [pending] never reads a popped request as idle. *)

(* Pop the shard's next request and mark the shard in flight.  With
   [block], wait for one until [draining] is set — so a drain completes
   every admitted request; without, [None] means the queue is empty. *)
let next t shard ~block =
  Mutex.lock shard.qmutex;
  let rec pop () =
    match Sched.pop shard.queue with
    | Some (_key, item) ->
        shard.inflight <- true;
        Some item
    | None when block && not (Atomic.get t.draining) ->
        Condition.wait shard.qcond shard.qmutex;
        pop ()
    | None -> None
  in
  let popped = pop () in
  Mutex.unlock shard.qmutex;
  if Option.is_some popped then Atomic.decr t.queued;
  popped

let run t shard ~emit { client; request; admitted_at } =
  emit client
    (Mutex.protect shard.lock (fun () ->
         execute t shard ~admitted_at request));
  Mutex.lock shard.qmutex;
  shard.inflight <- false;
  Mutex.unlock shard.qmutex

let rec serve_shard t shard ~block ~emit =
  match next t shard ~block with
  | None -> ()
  | Some item ->
      run t shard ~emit item;
      serve_shard t shard ~block ~emit

let drain t =
  let replies = ref [] in
  let emit client reply = replies := (client, reply) :: !replies in
  Array.iter (fun shard -> serve_shard t shard ~block:false ~emit) t.shards;
  List.rev !replies

let handle_line t line =
  let immediate = submit t ~client:0 line in
  Option.to_list immediate @ List.map snd (drain t)

type workers = { group : Util.Parallel.Shards.t }

let start_workers t ~emit =
  Atomic.set t.draining false;
  {
    group =
      Util.Parallel.Shards.create ~n:(Array.length t.shards) ~run:(fun i ->
          serve_shard t t.shards.(i) ~block:true ~emit);
  }

let quiesce t =
  while pending t > 0 do
    Unix.sleepf 0.0002
  done

let stop_workers t w =
  Atomic.set t.draining true;
  Array.iter
    (fun s ->
      Mutex.lock s.qmutex;
      Condition.broadcast s.qcond;
      Mutex.unlock s.qmutex)
    t.shards;
  Util.Parallel.Shards.join w.group;
  Atomic.set t.draining false

let metrics_dump t =
  let sessions =
    Array.fold_left (fun a s -> a + Registry.count s.registry) 0 t.shards
  in
  Metrics.render ~queue_depth:(Atomic.get t.queued) ~sessions (metrics t)

(* End-of-life housekeeping shared by the transports: park every live
   session in a final snapshot (so a restart replays nothing), then
   report.  Runs after the workers have drained and been joined. *)
let finalize t =
  Array.iter (fun s -> Registry.flush_all s.registry) t.shards;
  prerr_string (metrics_dump t);
  flush stderr

(* --- transports --- *)

(* The acceptor (this domain) only parses, routes and writes; the worker
   domains execute.  Replies from different sessions may interleave
   across the admission order — each session's replies stay in its own
   request order. *)
let serve_pipe t ic oc =
  let out_mutex = Mutex.create () in
  let emit _client reply =
    Mutex.protect out_mutex (fun () ->
        output_string oc reply;
        output_char oc '\n';
        flush oc)
  in
  let w = start_workers t ~emit in
  let rec loop () =
    if not (Atomic.get t.shutdown) then
      match input_line ic with
      | exception (End_of_file | Sys_error _) ->
          (* A signal (SIGTERM handler flipping [shutdown]) can abort the
             blocking read; treat it like EOF and fall through to the
             graceful path. *)
          ()
      | line ->
          Option.iter (emit 0) (submit t ~client:0 line);
          loop ()
  in
  loop ();
  stop_workers t w;
  finalize t

(* One connected socket client: fd, partial-line input buffer. *)
type client = { fd : Unix.file_descr; buf : Buffer.t }

let serve_socket t ~path =
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 16;
  let clients : (int, client) Hashtbl.t = Hashtbl.create 8 in
  let next_id = ref 0 in
  let close_client id =
    match Hashtbl.find_opt clients id with
    | None -> ()
    | Some c ->
        (try Unix.close c.fd with Unix.Unix_error _ -> ());
        Hashtbl.remove clients id
  in
  let send id line =
    match Hashtbl.find_opt clients id with
    | None -> () (* client went away; its reply is dropped *)
    | Some c -> (
        let data = Bytes.of_string (line ^ "\n") in
        let len = Bytes.length data in
        let rec write off =
          if off < len then
            let n = Unix.write c.fd data off (len - off) in
            write (off + n)
        in
        try write 0 with Unix.Unix_error _ -> close_client id)
  in
  (* Workers push replies here; the acceptor flushes them to the right
     client after each select round.  The wake pipe breaks the select
     wait as soon as a reply lands, so reply latency is not bounded by
     the select timeout. *)
  let replies : (int * string) Queue.t = Queue.create () in
  let rmutex = Mutex.create () in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_w;
  let wake_buf = Bytes.create 64 in
  let emit client line =
    Mutex.lock rmutex;
    Queue.push (client, line) replies;
    Mutex.unlock rmutex;
    try ignore (Unix.write wake_w (Bytes.make 1 'w') 0 1)
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let flush_replies () =
    let drained = ref [] in
    Mutex.lock rmutex;
    while not (Queue.is_empty replies) do
      drained := Queue.pop replies :: !drained
    done;
    Mutex.unlock rmutex;
    List.iter (fun (id, line) -> send id line) (List.rev !drained)
  in
  let w = start_workers t ~emit in
  let read_chunk = Bytes.create 4096 in
  let feed id c =
    match Unix.read c.fd read_chunk 0 (Bytes.length read_chunk) with
    | 0 -> close_client id
    | n ->
        Buffer.add_subbytes c.buf read_chunk 0 n;
        (* Split completed lines off the front of the buffer. *)
        let data = Buffer.contents c.buf in
        Buffer.clear c.buf;
        let lines = String.split_on_char '\n' data in
        let rec consume = function
          | [] -> ()
          | [ partial ] -> Buffer.add_string c.buf partial
          | line :: rest ->
              (match submit t ~client:id line with
              | Some reply -> send id reply
              | None -> ());
              consume rest
        in
        consume lines
    | exception Unix.Unix_error _ -> close_client id
  in
  let rec loop () =
    let fds =
      listen_fd :: wake_r
      :: Hashtbl.fold (fun _ c acc -> c.fd :: acc) clients []
    in
    (match Unix.select fds [] [] 0.2 with
    | ready, _, _ ->
        List.iter
          (fun fd ->
            if fd = listen_fd then begin
              let cfd, _ = Unix.accept listen_fd in
              incr next_id;
              Hashtbl.replace clients !next_id
                { fd = cfd; buf = Buffer.create 256 }
            end
            else if fd = wake_r then
              ignore (Unix.read wake_r wake_buf 0 (Bytes.length wake_buf))
            else
              let found =
                Hashtbl.fold
                  (fun id c acc -> if c.fd = fd then Some (id, c) else acc)
                  clients None
              in
              match found with
              | Some (id, c) -> feed id c
              | None -> ())
          ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    flush_replies ();
    if (not (Atomic.get t.shutdown)) || pending t > 0 then loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      stop_workers t w;
      flush_replies ();
      Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) clients;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (try Unix.close wake_r with Unix.Unix_error _ -> ());
      (try Unix.close wake_w with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      finalize t)
    loop
