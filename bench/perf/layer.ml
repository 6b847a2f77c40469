(* The per-layer metric set.  Every workload reports the same names, so a
   layer a workload never calls reads 0 in its counters; no time below is
   ever 0, because every workload calls each of these layers. *)

let engine_counts (s : Router.Engine.stats) =
  let c name v = Span.count name (float_of_int v) in
  c "engine.searches" s.Router.Engine.searches;
  c "engine.expanded" s.Router.Engine.expanded;
  c "engine.expanded_maze" s.Router.Engine.effort.Router.Outcome.maze_expanded;
  c "engine.expanded_weak" s.Router.Engine.effort.Router.Outcome.weak_expanded;
  c "engine.expanded_strong"
    s.Router.Engine.effort.Router.Outcome.strong_expanded;
  c "engine.rips" s.Router.Engine.rips;
  c "engine.shoves" s.Router.Engine.shoves;
  c "engine.guide_hits" s.Router.Engine.guide.Router.Outcome.hits;
  c "engine.guide_fallbacks" s.Router.Engine.guide.Router.Outcome.fallbacks

let improve_counts (s : Router.Improve.stats) =
  let c name v = Span.count name (float_of_int v) in
  c "improve.passes" s.Router.Improve.passes;
  c "improve.planned" s.Router.Improve.planned;
  c "improve.skipped_cert" s.Router.Improve.skipped_cert;
  c "improve.skipped_bound" s.Router.Improve.skipped_bound;
  c "improve.improved_nets" s.Router.Improve.improved_nets

(* Layer spans timed on every workload: (span name, metric). *)
let timed =
  [
    ("netlist.parse", "netlist.parse_ms");
    ("analyze.run", "analyze.run_ms");
    ("engine.route", "engine.route_ms");
    ("improve.refine", "improve.refine_ms");
    ("drc.check", "drc.check_ms");
    ("viz.render", "viz.render_ms");
  ]

let counted =
  [
    "analyze.cost";
    "engine.searches";
    "engine.expanded";
    "engine.expanded_maze";
    "engine.expanded_weak";
    "engine.expanded_strong";
    "engine.rips";
    "engine.shoves";
    "engine.guide_hits";
    "engine.guide_fallbacks";
    "improve.passes";
    "improve.planned";
    "improve.skipped_cert";
    "improve.skipped_bound";
    "improve.improved_nets";
    "place.moves";
    "place.accepted";
    "place.final_cost";
    "groute.overflow_tiles";
  ]

(* Reported by the service workload only; 0 elsewhere. *)
let service_counted =
  [
    "sched.shed";
    "sched.max_queue_depth";
    "registry.snapshots_written";
    "registry.sessions_recovered";
    "registry.records_replayed";
    "wal.records_at_crash";
  ]

let sum_by f name spans =
  List.fold_left (fun a s -> if s.Span.name = name then a +. f s else a) 0.0 spans

let ns s = float_of_int (Span.dur s)

(* The per-layer metrics of a traced run, from its passes (each the spans
   and counters [Span.take] returned), as the median over passes.
   [extra] supplies the values only the workload knows. *)
let metrics ~passes ~inputs_s ~overhead_pct ~extra =
  let med f = Metric.median (List.map f passes) in
  let counter name (_, c) = Option.value ~default:0.0 (Hashtbl.find_opt c name) in
  let times =
    List.map
      (fun (span, metric) ->
        Metric.v metric "ms" (med (fun (s, _) -> sum_by ns span s /. 1e6)))
      timed
  in
  let job_self =
    med (fun (s, _) ->
        let self = Span.self_ns s in
        List.fold_left
          (fun a sp -> if sp.Span.name = "job" then a +. float_of_int (self sp) else a)
          0.0 s
        /. 1e6)
  in
  let mwords field span = med (fun (s, _) -> sum_by field span s /. 1e6) in
  let hits = med (counter "engine.guide_hits")
  and fallbacks = med (counter "engine.guide_fallbacks") in
  [ Metric.v "loadgen.inputs_s" "s" inputs_s ]
  @ times
  @ [
      Metric.v "job.self_ms" "ms" job_self;
      Metric.v "engine.ns_per_expanded" "ns"
        (med (fun (s, c) ->
             sum_by ns "engine.route" s /. Float.max 1.0 (counter "engine.expanded" (s, c))));
      Metric.v "engine.major_mwords" "Mwords"
        (mwords (fun s -> s.Span.major_words) "engine.route");
      Metric.v "engine.minor_mwords" "Mwords"
        (mwords (fun s -> s.Span.minor_words) "engine.route");
      Metric.v "improve.major_mwords" "Mwords"
        (mwords (fun s -> s.Span.major_words) "improve.refine");
      Metric.v "engine.guide_hit_rate" "ratio"
        (if hits +. fallbacks = 0.0 then 0.0 else hits /. (hits +. fallbacks));
    ]
  @ List.map (fun name -> Metric.v name "count" (med (counter name))) counted
  @ List.map
      (fun name ->
        Metric.v name "count" (Option.value ~default:0.0 (List.assoc_opt name extra)))
      service_counted
  @ [ Metric.v "trace.overhead_pct" "%" overhead_pct ]

(* Tracing overhead: the measured cost of one span times the spans the
   traced work recorded, over that work's wall time. *)
let overhead_pct ~spans ~wall_ns =
  100.0 *. Span.cost_ns () *. float_of_int spans /. Float.max 1.0 wall_ns
