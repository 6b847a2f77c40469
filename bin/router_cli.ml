(* Command-line interface to the router.

   Subcommands:
     route   FILE   route a problem file, verify, report, optionally render
     info    FILE   congestion analysis and lower bounds
     gen     KIND   generate a problem file (channel | switchbox | routable |
                    region | suite instances by name)
     show    FILE   render the unrouted problem as ASCII art
     channel FILE   run the channel baselines and the engine on a channel

   Exit codes of `route` (the contract scripts may rely on):
     0   complete — every non-trivial net routed
     2   incomplete — the run was degraded by a budget (--deadline,
         --max-expanded, --max-searches; reason printed on stderr) or the
         instance is infeasible for the engine; the layout printed/saved is
         the DRC-clean best-so-far partial result
     1   usage, parse or internal error
   Other subcommands use 0 for success and 1 for any error. *)

open Cmdliner

let problem_arg =
  let doc = "Problem file (see lib/netlist/parse.mli for the format)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let strategy_conv =
  Arg.enum
    [ ("full", `Full); ("weak-only", `Weak); ("maze-only", `Maze) ]

let order_conv =
  Arg.enum
    [
      ("as-given", Router.Config.As_given);
      ("hpwl-asc", Router.Config.Hpwl_ascending);
      ("hpwl-desc", Router.Config.Hpwl_descending);
      ("pins-desc", Router.Config.Pins_descending);
      ("congestion-desc", Router.Config.Congestion_descending);
      ("random", Router.Config.Random);
    ]

let config_term =
  let strategy =
    Arg.(
      value
      & opt strategy_conv `Full
      & info [ "strategy" ] ~doc:"Router strategy: full, weak-only, maze-only.")
  in
  let order =
    Arg.(
      value
      & opt order_conv Router.Config.Hpwl_descending
      & info [ "order" ]
          ~doc:
            "Net order: as-given, hpwl-asc, hpwl-desc, pins-desc, \
             congestion-desc, random.")
  in
  let restarts =
    Arg.(value & opt int 1 & info [ "restarts" ] ~doc:"Restart attempts.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let kernel =
    Arg.(
      value
      & opt
          (Arg.enum
             [
               ("heap", Maze.Search.Binary_heap);
               ("buckets", Maze.Search.Buckets);
             ])
          Maze.Search.Binary_heap
      & info [ "kernel" ]
          ~doc:
            "Search frontier kernel: heap (binary heap) or buckets (Dial \
             bucket queue, O(1) for the small integer edge costs).")
  in
  let window =
    Arg.(
      value
      & opt (some int) None
      & info [ "window" ] ~docv:"MARGIN"
          ~doc:
            "Restrict each search to the endpoints' bounding box grown by \
             MARGIN cells, widening and retrying automatically on failure.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget for the whole route call (restarts \
             included).  On expiry the best partial result found so far is \
             reported and the exit code is 2.")
  in
  let max_expanded =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-expanded" ] ~docv:"N"
          ~doc:
            "Node-expansion budget: total maze-search expansions allowed \
             across the run.")
  in
  let max_searches =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-searches" ] ~docv:"N"
          ~doc:"Total maze searches allowed across the run.")
  in
  let audit =
    Arg.(
      value
      & opt
          (Arg.enum
             [
               ("off", Router.Config.Audit_off);
               ("phase", Router.Config.Audit_phase);
               ("net", Router.Config.Audit_net);
             ])
          Router.Config.Audit_off
      & info [ "audit" ]
          ~doc:
            "Run the engine/grid invariant auditor during routing: off \
             (default), phase (after every engine phase), net (after \
             every net — slow).")
  in
  let incremental =
    Arg.(
      value
      & vflag true
          [
            ( true,
              info [ "incremental" ]
                ~doc:
                  "Enable incremental refinement (default): per-net \
                   read-region certificates plus a closed-form cost floor \
                   skip nets a replan cannot improve.  Layouts are \
                   byte-identical either way." );
            ( false,
              info [ "no-incremental" ]
                ~doc:
                  "Disable incremental refinement; every refinement visit \
                   plans its net." );
          ])
  in
  let make strategy order restarts seed kernel window deadline
      max_expanded max_searches audit incremental =
    let base =
      match strategy with
      | `Full -> Router.Config.default
      | `Weak -> Router.Config.weak_only
      | `Maze -> Router.Config.maze_only
    in
    {
      base with
      Router.Config.order;
      restarts;
      seed;
      kernel;
      window_margin = window;
      deadline;
      max_expanded;
      max_searches;
      audit;
      incremental;
    }
  in
  Term.(
    const make $ strategy $ order $ restarts $ seed $ kernel $ window
    $ deadline $ max_expanded $ max_searches $ audit $ incremental)

(* Parse errors already carry the source path since errors grew a [src]
   field — no prefixing needed here. *)
let load path =
  match Netlist.Parse.load path with
  | Ok _ as ok -> ok
  | Error e -> Error (Netlist.Parse.error_to_string e)

(* --- route --- *)

let route_cmd =
  let svg_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "svg" ] ~docv:"OUT" ~doc:"Write an SVG rendering of the result.")
  in
  let ascii =
    Arg.(value & flag & info [ "ascii" ] ~doc:"Print the routed grid as ASCII.")
  in
  let refine =
    Arg.(
      value & flag
      & info [ "refine" ]
          ~doc:"Run the post-route refinement pass after routing.")
  in
  let report =
    Arg.(
      value & flag
      & info [ "report" ] ~doc:"Print the per-net routing report.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ]
          ~doc:
            "With $(b,--refine), print the refinement cache's counters: \
             nets planned, nets skipped on a clean certificate or at \
             their cost floor, and stale certificates.")
  in
  let run path config svg ascii refine report verbose =
    match load path with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok problem ->
        Format.printf "%a@." Netlist.Problem.pp problem;
        Format.printf "config: %s@." (Router.Config.describe config);
        let t0 = Monotonic_clock.now () in
        let result = Router.Engine.route ~config problem in
        let elapsed =
          Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9
        in
        Format.printf "completed: %b  (%.3fs)@." result.Router.Engine.completed
          elapsed;
        Format.printf "%a@." Router.Engine.pp_stats result.Router.Engine.stats;
        if refine && result.Router.Engine.completed then begin
          let s =
            Router.Improve.refine
              ~incremental:config.Router.Config.incremental problem
              result.Router.Engine.grid
          in
          Format.printf "refined: wirelength %d -> %d, vias %d -> %d@."
            s.Router.Improve.wirelength_before s.Router.Improve.wirelength_after
            s.Router.Improve.vias_before s.Router.Improve.vias_after;
          if verbose then
            Format.printf
              "refine-cache: planned %d  cert-skips %d  bound-skips %d  \
               stale %d@."
              s.Router.Improve.planned s.Router.Improve.skipped_cert
              s.Router.Improve.skipped_bound s.Router.Improve.cache_stale
        end;
        (match Drc.Check.check problem result.Router.Engine.grid with
        | [] -> Format.printf "drc: clean@."
        | violations when result.Router.Engine.completed ->
            Format.printf "drc: VIOLATIONS@.%s@." (Drc.Check.explain violations)
        | _ -> Format.printf "drc: incomplete routing (expected opens)@.");
        if report then print_endline (Router.Report.render problem result);
        if ascii then print_endline (Viz.Ascii.render result.Router.Engine.grid);
        (match svg with
        | Some out ->
            Viz.Svg.save out problem result.Router.Engine.grid;
            Format.printf "wrote %s@." out
        | None -> ());
        (match result.Router.Engine.status with
        | Router.Outcome.Complete -> 0
        | Router.Outcome.Degraded reason ->
            Printf.eprintf "degraded: %s; %d net(s) left unrouted\n%!"
              (Router.Budget.reason_to_string reason)
              (List.length result.Router.Engine.stats.Router.Engine.failed_nets);
            2
        | Router.Outcome.Infeasible ->
            Printf.eprintf "infeasible: %d net(s) could not be routed\n%!"
              (List.length result.Router.Engine.stats.Router.Engine.failed_nets);
            2)
  in
  let term =
    Term.(
      const run $ problem_arg $ config_term $ svg_out $ ascii $ refine
      $ report $ verbose)
  in
  Cmd.v
    (Cmd.info "route" ~doc:"Route a problem file and verify the result.")
    term

(* --- info --- *)

let info_cmd =
  let run path =
    match load path with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok problem ->
        Format.printf "%a@." Netlist.Problem.pp problem;
        Format.printf "channel density:        %d@."
          (Netlist.Analysis.channel_density problem);
        Format.printf "max vertical cut:       %d@."
          (Netlist.Analysis.max_vertical_cut problem);
        Format.printf "max horizontal cut:     %d@."
          (Netlist.Analysis.max_horizontal_cut problem);
        Format.printf "wirelength lower bound: %d@."
          (Netlist.Analysis.wirelength_lower_bound problem);
        Format.printf "overflow estimate:      %s@."
          (Util.Table.cell_pct (Netlist.Analysis.overflow_estimate problem));
        Format.printf "demand heatmap:@.%s"
          (Viz.Ascii.render_heatmap problem);
        0
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print congestion analysis of a problem file.")
    Term.(const run $ problem_arg)

(* --- analyze --- *)

let analyze_cmd =
  let tile =
    Arg.(
      value
      & opt (some int) None
      & info [ "tile" ] ~docv:"N"
          ~doc:"Congestion-tile size in cells (default 8).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the verdict as one JSON line (the same shape the \
             service's analyze op returns).")
  in
  let threshold =
    Arg.(
      value
      & opt (some float) None
      & info [ "fail-below" ] ~docv:"SCORE"
          ~doc:
            "Exit with code 2 when the routability score falls below \
             $(docv) — the triage-gate form for scripts.")
  in
  let run path tile json threshold =
    match load path with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok problem when
        Netlist.Problem.has_insts problem
        && not (Netlist.Problem.placed problem) ->
        prerr_endline
          "the placement section has unplaced instances; run flow or place \
           first";
        1
    | Ok problem -> (
        match Netlist.Problem.realize problem with
        | exception Invalid_argument msg ->
            prerr_endline msg;
            1
        | realized ->
            let a = Analyze.run ?tile realized in
            if json then
              print_endline (Util.Json.to_string (Analyze.to_json a))
            else begin
              Format.printf "%a@." Netlist.Problem.pp realized;
              Format.printf "analyze: %a@." Analyze.pp a;
              List.iter
                (fun (hr : Analyze.hot_rect) ->
                  Format.printf
                    "hot: (%d,%d)-(%d,%d)  demand %.1f  supply %d@."
                    hr.Analyze.rect.Geom.Rect.x0 hr.Analyze.rect.Geom.Rect.y0
                    hr.Analyze.rect.Geom.Rect.x1 hr.Analyze.rect.Geom.Rect.y1
                    hr.Analyze.demand hr.Analyze.supply)
                a.Analyze.verdict.Analyze.hot_rects
            end;
            (match threshold with
            | Some s when a.Analyze.verdict.Analyze.score < s ->
                Printf.eprintf "routability score %.3f below %.3f\n%!"
                  a.Analyze.verdict.Analyze.score s;
                2
            | _ -> 0))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Pre-route routability prediction: supply/demand over the \
          global-route tile graph, wrong-way and via pressure, and a \
          calibrated verdict — without routing anything.")
    Term.(const run $ problem_arg $ tile $ json $ threshold)

(* --- show --- *)

let show_cmd =
  let run path =
    match load path with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok problem ->
        print_endline (Viz.Ascii.render_problem problem);
        0
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Render the unrouted problem as ASCII art.")
    Term.(const run $ problem_arg)

(* --- gen --- *)

let gen_cmd =
  let kind =
    Arg.(
      required
      & pos 0
          (some
             (Arg.enum
                [
                  ("channel", `Channel);
                  ("switchbox", `Switchbox);
                  ("routable", `Routable);
                  ("region", `Region);
                  ("chip", `Chip);
                  ("chipscale", `Chipscale);
                  ("macro", `Macro);
                ]))
          None
      & info [] ~docv:"KIND"
          ~doc:
            "channel | switchbox | routable | region | chip | chipscale | \
             macro")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output problem file.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Generator seed.") in
  let width = Arg.(value & opt int 16 & info [ "width" ] ~doc:"Region width / columns.") in
  let height = Arg.(value & opt int 12 & info [ "height" ] ~doc:"Region height.") in
  let nets = Arg.(value & opt int 10 & info [ "nets" ] ~doc:"Net count.") in
  let macros =
    Arg.(
      value & opt int 6
      & info [ "macros" ] ~doc:"Macro instance count (macro kind only).")
  in
  let layers =
    Arg.(
      value
      & opt (some int) None
      & info [ "layers" ] ~docv:"N"
          ~doc:
            "Routing layers for the chip kind (default 2, alternating \
             H/V preference starting horizontal).")
  in
  let macro_cols =
    Arg.(
      value & opt int 3
      & info [ "macro-cols" ] ~doc:"Macro array columns (chip kind only).")
  in
  let macro_rows =
    Arg.(
      value & opt int 2
      & info [ "macro-rows" ] ~doc:"Macro array rows (chip kind only).")
  in
  let slot_prob =
    Arg.(
      value & opt float 0.35
      & info [ "slot-prob" ] ~docv:"P"
          ~doc:
            "Chance a candidate cell becomes a pin slot (chip kind \
             only); raise it for chip-scale net counts.")
  in
  let run kind out seed width height nets macros layers macro_cols macro_rows
      slot_prob =
    let prng = Util.Prng.create seed in
    let problem =
      match kind with
      | `Channel -> Workload.Gen.channel prng ~columns:width ~nets
      | `Switchbox -> Workload.Gen.switchbox prng ~width ~height ~nets
      | `Routable -> Workload.Gen.routable_switchbox prng ~width ~height
      | `Region -> Workload.Gen.region prng ~width ~height ~nets
      | `Chip ->
          Workload.Gen.routable_chip ?layers ~macro_cols ~macro_rows
            ~slot_prob prng ~width ~height
      | `Chipscale ->
          Workload.Gen.chip_scale ?layers ~macro_cols ~macro_rows ~slot_prob
            prng ~width ~height
      | `Macro -> Workload.Gen.macro ~macros prng ~width ~height ~nets
    in
    Netlist.Parse.save out problem;
    Format.printf "wrote %s: %a@." out Netlist.Problem.pp problem;
    0
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a random problem file.")
    Term.(
      const run $ kind $ out $ seed $ width $ height $ nets $ macros $ layers
      $ macro_cols $ macro_rows $ slot_prob)

(* --- flow --- *)

let flow_cmd =
  let tile =
    Arg.(
      value
      & opt (some int) None
      & info [ "tile" ] ~docv:"N"
          ~doc:"Global-route tile size in cells (default 8).")
  in
  let svg_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "svg" ] ~docv:"OUT" ~doc:"Write an SVG rendering of the result.")
  in
  let ascii =
    Arg.(value & flag & info [ "ascii" ] ~doc:"Print the routed grid as ASCII.")
  in
  let report =
    Arg.(
      value & flag & info [ "report" ] ~doc:"Print the per-net routing report.")
  in
  let save_placed =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-placed" ] ~docv:"FILE"
          ~doc:"Write the placed (unrealized) problem back out to $(docv).")
  in
  let triage =
    Arg.(
      value & flag
      & info [ "triage" ]
          ~doc:
            "Run the pre-route routability predictor on the realized \
             problem and report predicted-vs-actual overflow.")
  in
  let run path config tile triage svg ascii report save_placed =
    match load path with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok problem -> (
        Format.printf "%a@." Netlist.Problem.pp problem;
        Format.printf "config: %s@." (Router.Config.describe config);
        let budget =
          match
            ( config.Router.Config.deadline,
              config.Router.Config.max_expanded,
              config.Router.Config.max_searches )
          with
          | None, None, None -> None
          | deadline, max_expanded, max_searches ->
              Some
                (Router.Budget.create ?deadline ?max_expanded ?max_searches ())
        in
        match Flow.run ~config ?budget ?tile ~triage problem with
        | Error msg ->
            prerr_endline msg;
            1
        | Ok f ->
            let ms ns = Int64.to_float ns /. 1e6 in
            (match Flow.triage_report f with
            | None -> ()
            | Some r ->
                Format.printf
                  "triage: score %.3f, predicted overflow %.3f, actual \
                   %.3f  (%s)@."
                  r.Flow.score r.Flow.predicted_overflow r.Flow.actual_overflow
                  (if r.Flow.agree then "agree" else "DISAGREE"));
            (match f.Flow.stats.Flow.place with
            | None -> Format.printf "place:  (no placement section)@."
            | Some p ->
                Format.printf
                  "place:  %d inst(s) (%d free), cost %d -> %d, %d/%d moves \
                   accepted, %d sweep(s)%s  (%.1fms)@."
                  p.Place.insts p.Place.free_insts p.Place.initial_cost
                  p.Place.final_cost p.Place.accepted p.Place.moves
                  p.Place.sweeps
                  (if p.Place.degraded then "  [degraded]" else "")
                  (ms f.Flow.stats.Flow.place_ns));
            let gr = f.Flow.stats.Flow.groute in
            Format.printf "groute: %a  (%.1fms)@." Groute.pp gr
              (ms f.Flow.stats.Flow.groute_ns);
            (match Groute.audit gr with
            | Ok () -> ()
            | Error msg -> Format.printf "groute audit: %s@." msg);
            let result = f.Flow.result in
            Format.printf "route:  completed %b  (%.1fms)@."
              result.Router.Engine.completed
              (ms f.Flow.stats.Flow.route_ns);
            let g = result.Router.Engine.stats.Router.Engine.guide in
            Format.printf
              "guides: %d net(s) guided, %d hit(s), %d fallback(s)  (hit \
               rate %.2f)@."
              g.Router.Outcome.guided g.Router.Outcome.hits
              g.Router.Outcome.fallbacks (Flow.guide_hit_rate f);
            Format.printf "%a@." Router.Engine.pp_stats
              result.Router.Engine.stats;
            (match Drc.Check.check f.Flow.realized result.Router.Engine.grid with
            | [] -> Format.printf "drc: clean@."
            | violations when result.Router.Engine.completed ->
                Format.printf "drc: VIOLATIONS@.%s@."
                  (Drc.Check.explain violations)
            | _ -> Format.printf "drc: incomplete routing (expected opens)@.");
            (match save_placed with
            | Some out ->
                Netlist.Parse.save out f.Flow.placed;
                Format.printf "wrote %s@." out
            | None -> ());
            if report then
              print_endline (Router.Report.render f.Flow.realized result);
            if ascii then
              print_endline (Viz.Ascii.render result.Router.Engine.grid);
            (match svg with
            | Some out ->
                Viz.Svg.save out f.Flow.realized result.Router.Engine.grid;
                Format.printf "wrote %s@." out
            | None -> ());
            (match result.Router.Engine.status with
            | Router.Outcome.Complete -> 0
            | Router.Outcome.Degraded reason ->
                Printf.eprintf "degraded: %s; %d net(s) left unrouted\n%!"
                  (Router.Budget.reason_to_string reason)
                  (List.length
                     result.Router.Engine.stats.Router.Engine.failed_nets);
                2
            | Router.Outcome.Infeasible ->
                Printf.eprintf "infeasible: %d net(s) could not be routed\n%!"
                  (List.length
                     result.Router.Engine.stats.Router.Engine.failed_nets);
                2))
  in
  let term =
    Term.(
      const run $ problem_arg $ config_term $ tile $ triage $ svg_out $ ascii
      $ report $ save_placed)
  in
  Cmd.v
    (Cmd.info "flow"
       ~doc:
         "Run the full mini-flow on a problem file: annealing placement, \
          global-route guides, then guide-windowed detailed routing.  The \
          final layout is byte-identical to routing the realized problem \
          without guides.  Exit codes match $(b,route).")
    term

(* --- channel --- *)

let channel_cmd =
  let run path =
    match load path with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok problem -> (
        match problem.Netlist.Problem.kind with
        | Netlist.Problem.Channel ->
            let spec = Channel.Model.spec_of_problem problem in
            let show = function None -> "fail" | Some t -> string_of_int t in
            Format.printf "density:   %d@." (Channel.Model.density spec);
            Format.printf "left-edge: %s@." (show (Channel.Lea.min_tracks spec));
            Format.printf "dogleg:    %s@."
              (show (Channel.Dogleg.min_tracks spec));
            Format.printf "greedy:    %s@."
              (show (Channel.Greedy.min_tracks spec));
            Format.printf "yacr:      %s@."
              (show (Channel.Yacr.min_tracks spec));
            Format.printf "full:      %s@."
              (show (Option.map fst (Channel.Adapter.min_tracks spec)));
            0
        | Netlist.Problem.Switchbox | Netlist.Problem.Region ->
            prerr_endline "not a channel problem";
            1)
  in
  Cmd.v
    (Cmd.info "channel"
       ~doc:"Compare channel routers (minimum tracks) on a channel file.")
    Term.(const run $ problem_arg)

(* --- serve --- *)

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve on a Unix domain socket at $(docv) (multiple clients) \
             instead of stdin/stdout pipe mode.")
  in
  let queue_cap =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Admission-control bound on queued requests; past it new \
             requests are shed with a queue_full + retry_after_ms reply.")
  in
  let slo =
    Arg.(
      value
      & opt (some int) None
      & info [ "slo" ] ~docv:"MS"
          ~doc:
            "Default per-request wall-clock budget for route requests, in \
             milliseconds (a request's slo_ms field overrides it).  A \
             request that trips its budget is rolled back and answered \
             with a budget_tripped error.")
  in
  let max_sessions =
    Arg.(
      value & opt int 64
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"Hard cap on concurrently open sessions.")
  in
  let idle_ticks =
    Arg.(
      value & opt int 10_000
      & info [ "idle-ticks" ] ~docv:"N"
          ~doc:
            "Evict a session after it has sat idle for $(docv) served \
             requests.")
  in
  let data_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "data-dir" ] ~docv:"PATH"
          ~doc:
            "Make sessions durable: journal every committed mutation to a \
             per-session write-ahead log under $(docv), snapshot \
             periodically, and recover every session found there on \
             startup.  Without it the server is fully in-memory.")
  in
  let snapshot_every =
    Arg.(
      value & opt int 64
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "With --data-dir: compact each session's log into a snapshot \
             every $(docv) committed mutations.")
  in
  let no_fsync =
    Arg.(
      value & flag
      & info [ "no-fsync" ]
          ~doc:
            "With --data-dir: skip fsync on log appends and snapshots.  \
             Faster; a crash of the whole machine (not just the server \
             process) may then lose the last few committed requests.")
  in
  let shards =
    Arg.(
      value & opt int 0
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Shard sessions over $(docv) persistent worker domains (0 = \
             one per core).  Each session is pinned to one shard by a \
             stable hash of its name, so per-session determinism and \
             reply order are unchanged; different sessions execute in \
             parallel, and their replies may interleave.")
  in
  let run config socket queue_cap slo max_sessions idle_ticks data_dir
      snapshot_every no_fsync shards =
    let shards =
      if shards > 0 then shards else Domain.recommended_domain_count ()
    in
    let sconfig =
      {
        Service.Server.default_config with
        Service.Server.router = config;
        queue_cap;
        default_slo_ms = slo;
        max_sessions;
        idle_ticks;
        data_dir;
        snapshot_every;
        fsync = not no_fsync;
        shards;
      }
    in
    let server = Service.Server.create ~config:sconfig () in
    (* Graceful shutdown: stop admitting, drain the queue, final
       snapshots, metrics.  SIGTERM/SIGINT only flip the flag; the
       serving loop notices and runs its normal end-of-life path. *)
    let graceful _ = Service.Server.request_shutdown server in
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle graceful)
     with Invalid_argument _ | Sys_error _ -> ());
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle graceful)
     with Invalid_argument _ | Sys_error _ -> ());
    (match socket with
    | None -> Service.Server.serve_pipe server stdin stdout
    | Some path -> Service.Server.serve_socket server ~path);
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the router as a long-lived service: line-delimited JSON \
          requests (see docs/PROTOCOL.md) over stdin/stdout, or over a \
          Unix socket with --socket.  Sessions are sharded over \
          persistent worker domains (--shards); with --data-dir they are \
          journalled and survive crashes and restarts.  Metrics are \
          dumped to stderr on shutdown; SIGTERM/SIGINT shut down \
          gracefully (drain, snapshot, report).")
    Term.(
      const run $ config_term $ socket $ queue_cap $ slo $ max_sessions
      $ idle_ticks $ data_dir $ snapshot_every $ no_fsync $ shards)

(* --- suite --- *)

let suite_cmd =
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Route suite instances on N domains in parallel (0 = one per \
             core).  Results are independent of N.")
  in
  let run jobs =
    let jobs = if jobs = 0 then Util.Parallel.default_jobs () else jobs in
    let table =
      Util.Table.create
        ~headers:[ "instance"; "kind"; "nets"; "maze-only"; "full"; "drc" ]
    in
    let instances =
      List.map (fun (n, p) -> (n, "switchbox", p)) (Workload.Hard.all_switchboxes ())
      @ List.map (fun (n, p) -> (n, "channel", p)) (Workload.Hard.all_channels ())
    in
    (* Each instance routes on its own grid/workspace, so instances are
       independent and the pool keeps the row order deterministic. *)
    let rows =
      Util.Parallel.map ~jobs
        (fun (name, kind, problem) ->
          let maze =
            Router.Engine.route ~config:Router.Config.maze_only problem
          in
          let full = Router.Engine.route problem in
          [
            name;
            kind;
            Util.Table.cell_int (Netlist.Problem.net_count problem);
            Util.Table.cell_bool maze.Router.Engine.completed;
            Util.Table.cell_bool full.Router.Engine.completed;
            (if
               (not full.Router.Engine.completed)
               || Drc.Check.is_clean problem full.Router.Engine.grid
             then "clean"
             else "VIOLATION");
          ])
        instances
    in
    List.iter (Util.Table.add_row table) rows;
    Util.Table.print table;
    0
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:"Route the built-in hard instance suites and report completion.")
    Term.(const run $ jobs)

let () =
  let doc = "A rip-up-and-reroute detailed router for N-layer grids." in
  let info = Cmd.info "router_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            route_cmd; flow_cmd; analyze_cmd; info_cmd; show_cmd; gen_cmd;
            channel_cmd; suite_cmd; serve_cmd;
          ]))
