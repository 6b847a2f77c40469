(* The batch workloads: each job takes one problem's text to a printed
   layout through the libraries' public entry points, one job after
   another on one domain, with the configuration [router_cli route] runs
   without flags. *)

let config = Router.Config.default

(* What [Flow.run] routes with: the guide-certifying kernel, everything
   else from [config]. *)
let guided =
  {
    config with
    Router.Config.kernel = Maze.Search.Buckets;
    window_margin = None;
    use_astar = true;
  }

let span = Span.run

let parse text = span "netlist.parse" (fun () -> Netlist.Parse.of_string_exn text)

let route_job text =
  let problem = parse text in
  let triage = span "analyze.run" (fun () -> Analyze.run problem) in
  Span.count "analyze.cost" (float_of_int triage.Analyze.cost);
  let r = span "engine.route" (fun () -> Router.Engine.route ~config problem) in
  Layer.engine_counts r.Router.Engine.stats;
  (problem, r, true)

let flow_job text =
  match Flow.run ~config ~triage:true (parse text) with
  | Ok f -> (f.Flow.realized, f.Flow.result, true)
  | Error msg -> failwith msg

(* [Flow.run] taken apart, one span per stage; its grid must equal the
   one [Flow.run] itself produced ([reference]). *)
let flow_job_traced ~reference text =
  let problem = parse text in
  let placed =
    if not (Netlist.Problem.has_insts problem) then problem
    else
      match
        span "place.run" (fun () -> Place.place ~seed:config.Router.Config.seed problem)
      with
      | Ok (p, st) ->
          Span.count "place.moves" (float_of_int st.Place.moves);
          Span.count "place.accepted" (float_of_int st.Place.accepted);
          Span.count "place.final_cost" (float_of_int st.Place.final_cost);
          p
      | Error msg -> failwith msg
  in
  let realized = span "netlist.realize" (fun () -> Netlist.Problem.realize placed) in
  let triage = span "analyze.run" (fun () -> Analyze.run realized) in
  Span.count "analyze.cost" (float_of_int triage.Analyze.cost);
  let gr = span "groute.run" (fun () -> Groute.run realized) in
  Span.count "groute.overflow_tiles" (float_of_int gr.Groute.overflow_tiles);
  let r =
    span "engine.route" (fun () ->
        Router.Engine.route ~config:guided ~guides:gr.Groute.guides realized)
  in
  Layer.engine_counts r.Router.Engine.stats;
  let same = span "bench.compare" (fun () -> Grid.equal r.Router.Engine.grid reference) in
  (realized, r, same)

(* The negative self-test: unroute one net behind the router's back. *)
let rip_by_hand grid ~net = List.iter (Grid.release grid) (Grid.occupied_nodes grid ~net)

type outcome = {
  complete : bool;
  flow_equal : bool;
  opens : int;  (** nets whose final wiring is not one connected piece *)
  violations : int;  (** other DRC violations *)
  wirelength : int;
  vias : int;
}

let ok o = o.complete && o.flow_equal && o.opens = 0 && o.violations = 0

let run_job ~inject route (name, text) =
  Span.job := name;
  let t0 = Span.now_ns () in
  let problem, r, flow_equal, violations =
    span "job" (fun () ->
        let problem, r, same = route text in
        let grid = r.Router.Engine.grid in
        let refined =
          span "improve.refine" (fun () ->
              Router.Improve.refine ~incremental:config.Router.Config.incremental
                problem grid)
        in
        Layer.improve_counts refined;
        if inject then rip_by_hand grid ~net:1;
        let violations = span "drc.check" (fun () -> Drc.Check.check problem grid) in
        ignore (span "viz.render" (fun () -> Viz.Ascii.render grid));
        (problem, r, same, violations))
  in
  let latency = Span.now_ns () - t0 in
  let open_net = function
    | Drc.Check.Net_disconnected { net; _ } | Drc.Check.Pin_not_owned { net; _ } -> Some net
    | _ -> None
  in
  let grid = r.Router.Engine.grid in
  ( {
      complete = r.Router.Engine.status = Router.Outcome.Complete;
      flow_equal;
      opens = List.length (List.sort_uniq compare (List.filter_map open_net violations));
      violations = List.length (List.filter (fun v -> open_net v = None) violations);
      wirelength = Router.Outcome.total_wirelength grid problem;
      vias = Router.Outcome.total_vias grid;
    },
    latency )

let seconds_of_ns ns = float_of_int ns /. 1e9

let run ~workload ~seconds ~trace ~smoke ~inject =
  let t_inputs = Span.now_ns () in
  let jobs = Array.of_list (Inputs.jobs ~smoke workload) in
  let inputs_s = seconds_of_ns (Span.now_ns () - t_inputs) in
  let n = Array.length jobs in
  (* Set-up: parse-validate every job's input, at least 15 times and for
     at least a quarter second; the median. *)
  let setup_reps =
    let start = Span.now_ns () in
    let rec go acc k =
      if k >= 15 && Span.now_ns () - start >= 250_000_000 then acc
      else begin
        let t0 = Span.now_ns () in
        Array.iter (fun (_, text) -> ignore (Netlist.Parse.of_string_exn text)) jobs;
        go (seconds_of_ns (Span.now_ns () - t0) :: acc) (k + 1)
      end
    in
    if trace then [] else go [] 0
  in
  let setup_s = Metric.median setup_reps in
  let route =
    if workload <> "flow_macro" then fun _ -> route_job
    else if not trace then fun _ -> flow_job
    else begin
      (* Untimed: [Flow.run]'s own grids, for the decomposition check. *)
      let reference =
        Array.map
          (fun (_, text) ->
            match Flow.run ~config ~triage:true (Netlist.Parse.of_string_exn text) with
            | Ok f -> f.Flow.result.Router.Engine.grid
            | Error msg -> failwith msg)
          jobs
      in
      fun i -> flow_job_traced ~reference:reference.(i)
    end
  in
  Span.enabled := trace;
  let budget_ns = int_of_float (seconds *. 1e9) in
  let pending_inject = ref inject in
  let start = Span.now_ns () in
  (* Whole passes while the next one, as long as the last, still fits;
     always at least one.  Each job starts on a collected heap, as it
     would in a process of its own; a pass's wall time is the sum of its
     jobs'. *)
  let rec passes acc last =
    if acc <> [] && Span.now_ns () - start + last > budget_ns then List.rev acc
    else begin
      let results =
        Array.mapi
          (fun i job ->
            let inject = !pending_inject in
            pending_inject := false;
            Gc.full_major ();
            run_job ~inject (route i) job)
          jobs
      in
      let wall = Array.fold_left (fun a (_, l) -> a + l) 0 results in
      let traced = if trace then Some (Span.take ()) else None in
      passes ((wall, results, traced) :: acc) wall
    end
  in
  let passes = passes [] 0 in
  Span.enabled := false;
  let outcomes = List.concat_map (fun (_, r, _) -> Array.to_list r) passes in
  let attempted = List.length outcomes in
  let failed = List.length (List.filter (fun (o, _) -> not (ok o)) outcomes) in
  let per_pass f =
    List.map (fun (_, r, _) -> Array.fold_left (fun a (o, _) -> a + f o) 0 r) passes
  in
  let first = function x :: _ -> x | [] -> 0 in
  let wirelength = per_pass (fun o -> o.wirelength) and vias = per_pass (fun o -> o.vias) in
  (* Every pass routes the same inputs anew: the layouts must
     repeat exactly. *)
  let repeats l = List.for_all (( = ) (first l)) l in
  let deterministic = repeats wirelength && repeats vias in
  if not deterministic then prerr_endline "FAIL: passes produced different layouts";
  let opens = first (per_pass (fun o -> o.opens))
  and violations = first (per_pass (fun o -> o.violations)) in
  if failed > 0 then
    Printf.eprintf "FAIL: %d of %d jobs not complete and DRC-clean (%d open nets, %d other violations in the first pass)\n"
      failed attempted opens violations;
  let counts =
    [
      Metric.v "passes" "count" (float_of_int (List.length passes));
      Metric.v "jobs" "count" (float_of_int n);
      Metric.v "open_nets" "count" (float_of_int opens);
      Metric.v "drc_violations" "count" (float_of_int violations);
      Metric.v "error_rate" "ratio" (float_of_int failed /. float_of_int attempted);
    ]
  in
  let reported, printed =
    if not trace then begin
      let latencies = Metric.sorted (List.map (fun (_, l) -> float_of_int l /. 1e6) outcomes) in
      let jobs_note = Printf.sprintf "n=%d jobs" (Array.length latencies) in
      ( [
          Metric.v "setup_s" "s"
            ~note:(Printf.sprintf "median of %d" (List.length setup_reps)) setup_s;
          Metric.v "wall_s" "s"
            ~note:(Printf.sprintf "median of %d passes" (List.length passes))
            (Metric.median (List.map (fun (w, _, _) -> seconds_of_ns w) passes));
          Metric.v "latency_p50_ms" "ms" ~note:jobs_note (Metric.quantile latencies 0.5);
          Metric.v "peak_rss_mb" "MB" (Metric.peak_rss_mb ());
          Metric.v "wirelength" "units" (float_of_int (first wirelength));
          Metric.v "vias" "count" (float_of_int (first vias));
        ],
        Metric.v "latency_p95_ms" "ms" ~note:jobs_note (Metric.quantile latencies 0.95)
        :: counts )
    end
    else begin
      let traced = List.filter_map (fun (_, _, t) -> t) passes in
      let all_spans = List.concat_map fst traced in
      Span.write_jsonl
        (Filename.concat (Inputs.out_dir ()) ("trace-" ^ workload ^ ".jsonl"))
        all_spans;
      let wall_ns = float_of_int (List.fold_left (fun a (w, _, _) -> a + w) 0 passes) in
      let stage span =
        Metric.median (List.map (fun (s, _) -> Layer.sum_by Layer.ns span s /. 1e6) traced)
      in
      ( Layer.metrics ~passes:traced ~inputs_s
          ~overhead_pct:(Layer.overhead_pct ~spans:(List.length all_spans) ~wall_ns)
          ~extra:[],
        counts
        @
        if workload = "flow_macro" then
          [
            Metric.v "place.run_ms" "ms" (stage "place.run");
            Metric.v "netlist.realize_ms" "ms" (stage "netlist.realize");
            Metric.v "groute.run_ms" "ms" (stage "groute.run");
          ]
        else [] )
    end
  in
  { Metric.correct = failed = 0 && deterministic; attempted; failed; reported; printed }
