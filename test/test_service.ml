(* The routing service (lib/service): protocol, scheduler fairness,
   registry lifecycle, admission control, and the two service-level
   guarantees the acceptance criteria pin:

   - a scripted request trace produces layouts byte-identical to the
     equivalent batch engine run, on every committed instance;
   - a request that trips its budget or hits an injected chaos fault
     returns a structured error and leaves its session state unchanged —
     the qcheck property replays only the committed requests of a
     fault-riddled trace on a clean server and demands identical state.

   Set DESIGN_CHAOS=1 to crank the qcheck iteration counts. *)

let heavy = Sys.getenv_opt "DESIGN_CHAOS" <> None
let count n = if heavy then n * 5 else n
let prng seed = Util.Prng.create seed

module J = Util.Json

let ok_of_reply line =
  match J.of_string line with
  | Ok json -> Option.bind (J.member "ok" json) J.to_bool_opt = Some true
  | Error _ -> false

let error_code_of_reply line =
  match J.of_string line with
  | Ok json ->
      Option.bind (J.member "error" json) (fun e ->
          Option.bind (J.member "code" e) J.to_string_opt)
  | Error _ -> None

let result_of_reply line name =
  match J.of_string line with
  | Ok json -> Option.bind (J.member "result" json) (J.member name)
  | Error _ -> None

let one_reply server line =
  match Service.Server.handle_line server line with
  | [ reply ] -> reply
  | replies ->
      Alcotest.failf "expected one reply to %s, got %d" line
        (List.length replies)

(* --- protocol --- *)

let test_proto_parse_ok () =
  (match Service.Proto.parse {|{"id":7,"op":"route","session":"s","slo_ms":250}|} with
  | Ok { rid; session; op = Service.Proto.Route { slo_ms } } ->
      Testkit.check_int "id" 7 rid;
      Testkit.check_true "session" (session = Some "s");
      Testkit.check_true "slo" (slo_ms = Some 250)
  | Ok _ -> Alcotest.fail "wrong op"
  | Error (_, msg) -> Alcotest.fail msg);
  match
    Service.Proto.parse
      {|{"op":"add_net","session":"s","name":"n1","pins":[[0,1],[2,3,1]]}|}
  with
  | Ok { rid; op = Service.Proto.Add_net { name; pins }; _ } ->
      Testkit.check_int "default id" 0 rid;
      Testkit.check_true "name" (name = "n1");
      Testkit.check_int "pins" 2 (List.length pins);
      Testkit.check_true "layered pin"
        (List.exists (fun (p : Netlist.Net.pin) -> p.Netlist.Net.layer = 1) pins)
  | Ok _ -> Alcotest.fail "wrong op"
  | Error (_, msg) -> Alcotest.fail msg

let test_proto_parse_errors () =
  let expect code line =
    match Service.Proto.parse line with
    | Ok _ -> Alcotest.failf "expected %s for %s" (Service.Proto.code_name code) line
    | Error (c, _) ->
        Testkit.check_true
          (Printf.sprintf "%s -> %s" line (Service.Proto.code_name code))
          (c = code)
  in
  expect Service.Proto.Parse_error "not json at all";
  expect Service.Proto.Parse_error {|{"op":"route"|};
  expect Service.Proto.Unknown_op {|{"op":"frobnicate"}|};
  expect Service.Proto.Bad_request {|{"noop":1}|};
  expect Service.Proto.Bad_request {|{"op":"add_net","session":"s","name":"x"}|};
  expect Service.Proto.Bad_request {|{"op":"rip","session":"s"}|};
  expect Service.Proto.Bad_request
    {|{"op":"open","session":"s","problem":"p","file":"f"}|}

let test_proto_reply_shape () =
  let line =
    Service.Proto.error_line ~rid:3 ~retry_after_ms:120
      Service.Proto.Queue_full "queue full"
  in
  let json = J.of_string_exn line in
  Testkit.check_true "versioned"
    (J.member "v" json = Some (J.Int Service.Proto.version));
  Testkit.check_true "not ok" (J.member "ok" json = Some (J.Bool false));
  let error = Option.get (J.member "error" json) in
  Testkit.check_true "code"
    (J.member "code" error = Some (J.String "queue_full"));
  Testkit.check_true "retry hint"
    (J.member "retry_after_ms" error = Some (J.Int 120));
  let okl = Service.Proto.ok_line ~rid:9 ~gen:4 (J.Obj [ ("x", J.Int 1) ]) in
  let json = J.of_string_exn okl in
  Testkit.check_true "ok" (J.member "ok" json = Some (J.Bool true));
  Testkit.check_true "gen" (J.member "gen" json = Some (J.Int 4));
  Testkit.check_true "id echoed" (J.member "id" json = Some (J.Int 9))

(* --- scheduler --- *)

let test_sched_fifo_and_cap () =
  let q = Service.Sched.create ~cap:3 () in
  Testkit.check_true "a" (Service.Sched.submit q ~key:"s" 1);
  Testkit.check_true "b" (Service.Sched.submit q ~key:"s" 2);
  Testkit.check_true "c" (Service.Sched.submit q ~key:"s" 3);
  Testkit.check_false "full -> shed" (Service.Sched.submit q ~key:"s" 4);
  Testkit.check_int "depth" 3 (Service.Sched.length q);
  Testkit.check_true "fifo 1" (Service.Sched.pop q = Some ("s", 1));
  Testkit.check_true "fifo 2" (Service.Sched.pop q = Some ("s", 2));
  Testkit.check_true "shed left no trace" (Service.Sched.pop q = Some ("s", 3));
  Testkit.check_true "empty" (Service.Sched.pop q = None)

let test_sched_round_robin_fairness () =
  (* A floods 4 requests before B and C submit one each: the drain order
     must still interleave sessions, so B and C wait behind exactly one
     of A's requests, not all four. *)
  let q = Service.Sched.create ~cap:16 () in
  List.iter (fun i -> ignore (Service.Sched.submit q ~key:"a" (10 + i)))
    [ 0; 1; 2; 3 ];
  ignore (Service.Sched.submit q ~key:"b" 20);
  ignore (Service.Sched.submit q ~key:"c" 30);
  let order = List.init 6 (fun _ -> Option.get (Service.Sched.pop q)) in
  Testkit.check_true "fair rotation"
    (order
    = [ ("a", 10); ("b", 20); ("c", 30); ("a", 11); ("a", 12); ("a", 13) ])

(* --- registry --- *)

let small_problem seed =
  Workload.Gen.routable_switchbox (prng seed) ~width:8 ~height:6

let test_registry_cap_and_generations () =
  let r = Service.Registry.create ~max_sessions:2 () in
  let open_ok name seed =
    match Service.Registry.open_session r ~name (small_problem seed) with
    | Ok e -> e
    | Error _ -> Alcotest.failf "open %s failed" name
  in
  let a = open_ok "a" 1 in
  let _b = open_ok "b" 2 in
  (match Service.Registry.open_session r ~name:"c" (small_problem 3) with
  | Error (`Cap 2) -> ()
  | Ok _ | Error _ -> Alcotest.fail "cap must refuse the third session");
  (match Service.Registry.open_session r ~name:"a" (small_problem 4) with
  | Error `Exists -> ()
  | Ok _ | Error _ -> Alcotest.fail "duplicate name must be refused");
  Testkit.check_int "fresh gen" 0 (Service.Registry.generation a);
  Service.Registry.bump a;
  Service.Registry.bump a;
  Testkit.check_int "bumped" 2 (Service.Registry.generation a);
  Testkit.check_true "close" (Service.Registry.close r "b");
  Testkit.check_false "close twice" (Service.Registry.close r "b");
  match Service.Registry.open_session r ~name:"c" (small_problem 3) with
  | Ok _ -> Testkit.check_int "slot freed" 2 (Service.Registry.count r)
  | Error _ -> Alcotest.fail "slot freed by close"

let test_registry_idle_eviction () =
  let r = Service.Registry.create ~idle_ticks:3 () in
  (match Service.Registry.open_session r ~name:"idle" (small_problem 5) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "open failed");
  (match Service.Registry.open_session r ~name:"busy" (small_problem 6) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "open failed");
  let evicted = ref [] in
  for _ = 1 to 6 do
    ignore (Service.Registry.find r "busy");
    evicted := !evicted @ Service.Registry.tick r
  done;
  Testkit.check_true "idle session evicted" (!evicted = [ "idle" ]);
  Testkit.check_true "gone" (Service.Registry.find r "idle" = None);
  Testkit.check_true "busy survives" (Service.Registry.find r "busy" <> None)

(* --- metrics --- *)

let test_metrics_quantiles_and_counters () =
  let m = Service.Metrics.create () in
  for i = 1 to 100 do
    (* 95 fast requests and a 5-wide slow tail: p50/p95 stay small, the
       p99 rank (99 of 100) lands inside the tail's bucket. *)
    let latency_s = if i > 95 then 0.5 else 0.0001 in
    Service.Metrics.record m ~kind:"route" ~ok:(i mod 10 <> 0) ~latency_s
  done;
  Service.Metrics.shed m;
  Service.Metrics.shed m;
  Service.Metrics.budget_trip m;
  Service.Metrics.note_queue_depth m 7;
  let s = Service.Metrics.snapshot ~queue_depth:1 ~sessions:2 m in
  let get path =
    match
      List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some s) path
    with
    | Some v -> v
    | None -> Alcotest.failf "missing %s" (String.concat "." path)
  in
  Testkit.check_true "requests" (get [ "requests" ] = J.Int 100);
  Testkit.check_true "errors" (get [ "errors" ] = J.Int 10);
  Testkit.check_true "shed" (get [ "shed" ] = J.Int 2);
  Testkit.check_true "trips" (get [ "budget_trips" ] = J.Int 1);
  Testkit.check_true "hwm" (get [ "max_queue_depth" ] = J.Int 7);
  let q name = Option.get (J.to_float_opt (get [ "by_kind"; "route"; name ])) in
  Testkit.check_true "p50 under 1ms" (q "p50_ms" <= 1.0);
  Testkit.check_true "p99 sees the outlier" (q "p99_ms" >= 100.0);
  Testkit.check_true "monotone" (q "p50_ms" <= q "p95_ms" && q "p95_ms" <= q "p99_ms")

let kind_row snapshot kind =
  match Option.bind (J.member "by_kind" snapshot) (J.member kind) with
  | Some row -> row
  | None -> Alcotest.failf "snapshot has no %s row" kind

let row_ms row name =
  match Option.bind (J.member name row) J.to_float_opt with
  | Some v -> v
  | None -> Alcotest.failf "row misses %s" name

(* Quantiles resolve to 1/8 of an octave: a 1.3 ms population reads
   within 1/8 of 1.3 ms. *)
let test_metrics_resolution () =
  let m = Service.Metrics.create () in
  for _ = 1 to 1000 do
    Service.Metrics.record m ~kind:"route" ~ok:true ~latency_s:0.0013
  done;
  let row = kind_row (Service.Metrics.snapshot m) "route" in
  let p50 = row_ms row "p50_ms" in
  Testkit.check_true
    (Printf.sprintf "p50 %.4f ms within 1/8 of 1.3 ms" p50)
    (Float.abs (p50 -. 1.3) <= 1.3 /. 8.0)

(* Every reported quantile lies between the exact sample at its rank and
   the kind's maximum, and at most 1/8 above that sample (1 µs floor). *)
let prop_metrics_quantiles_bounded =
  Testkit.qcheck ~count:(count 100) "quantiles bracket the sample, never above max"
    QCheck2.Gen.(list_size (int_range 1 300) (int_range 0 2_000_000))
    (fun samples_us ->
      let m = Service.Metrics.create () in
      List.iter
        (fun us ->
          Service.Metrics.record m ~kind:"route" ~ok:true
            ~latency_s:(float_of_int us /. 1e6))
        samples_us;
      let row = kind_row (Service.Metrics.snapshot m) "route" in
      let sorted = Array.of_list (List.sort compare samples_us) in
      let n = Array.length sorted in
      let max_ms = row_ms row "max_ms" in
      List.for_all
        (fun (name, q) ->
          let got = row_ms row name in
          let rank = max 1 (int_of_float (Float.round (q *. float_of_int n))) in
          let exact = float_of_int sorted.(rank - 1) /. 1000.0 in
          got <= max_ms
          && got >= exact *. (1.0 -. 1e-9)
          && got <= Float.max (exact *. 1.125) 0.001 *. (1.0 +. 1e-9))
        [ ("p50_ms", 0.50); ("p95_ms", 0.95); ("p99_ms", 0.99) ])

(* --- server: trace equivalence with the batch engine --- *)

let fast_config =
  {
    Router.Config.default with
    Router.Config.use_astar = true;
    kernel = Maze.Search.Buckets;
    window_margin = Some 4;
  }

let server ?(config = fast_config) ?(chaos = Router.Chaos.none)
    ?(queue_cap = 64) ?default_slo_ms ?(shards = 1) () =
  Service.Server.create
    ~config:
      {
        Service.Server.default_config with
        Service.Server.router = config;
        chaos;
        queue_cap;
        default_slo_ms;
        shards;
      }
    ()

let open_line ~session problem =
  J.to_string
    (J.Obj
       [
         ("op", J.String "open");
         ("session", J.String session);
         ("problem", J.String (Netlist.Parse.to_string problem));
       ])

let session_of server name =
  match Service.Registry.find (Service.Server.registry server) name with
  | Some e -> Service.Registry.session e
  | None -> Alcotest.failf "session %s disappeared" name

(* The acceptance criterion: open → route → verify over the service must
   give the byte-identical layout and the same DRC verdict as the batch
   engine call it wraps, on every committed instance. *)
let check_trace_equivalence name =
  let problem = Testkit.instance name in
  let batch = Router.Engine.route ~config:fast_config problem in
  let batch_ascii = Viz.Ascii.render batch.Router.Engine.grid in
  let batch_clean = Drc.Check.check problem batch.Router.Engine.grid = [] in
  let s = server () in
  let reply line =
    let r = one_reply s line in
    Testkit.check_true (name ^ ": ok reply to " ^ line) (ok_of_reply r);
    r
  in
  ignore (reply (open_line ~session:"t" problem));
  ignore (reply {|{"op":"route","session":"t"}|});
  let render = reply {|{"op":"render","session":"t"}|} in
  let service_ascii =
    match Option.bind (result_of_reply render "ascii") J.to_string_opt with
    | Some a -> a
    | None -> Alcotest.fail "render reply carries no ascii"
  in
  Testkit.check_true (name ^ ": byte-identical layout")
    (String.equal batch_ascii service_ascii);
  Testkit.check_true (name ^ ": grid equal")
    (Grid.equal batch.Router.Engine.grid
       (Router.Session.grid (session_of s "t")));
  let verify = reply {|{"op":"verify","session":"t"}|} in
  let service_clean =
    Option.bind (result_of_reply verify "clean") J.to_bool_opt = Some true
  in
  Testkit.check_true (name ^ ": same DRC verdict")
    (Bool.equal batch_clean service_clean)

let test_trace_equivalence_small () =
  List.iter check_trace_equivalence
    [ "switchbox_12x10"; "switchbox_32x26"; "chip_128x96" ]

let test_trace_equivalence_large () =
  List.iter check_trace_equivalence
    [ "switchbox_64x52"; "switchbox_128x104"; "chip_96x64" ]

(* --- server: admission control --- *)

let test_shed_with_retry_after () =
  let s = server ~queue_cap:2 () in
  (* Mutating requests count against the cap (read-only ones bypass it —
     see [test_read_only_bypasses_cap]). *)
  let line n = Printf.sprintf {|{"id":%d,"op":"route","session":"s"}|} n in
  Testkit.check_true "1 admitted" (Service.Server.submit s ~client:0 (line 1) = None);
  Testkit.check_true "2 admitted" (Service.Server.submit s ~client:0 (line 2) = None);
  (match Service.Server.submit s ~client:0 (line 3) with
  | None -> Alcotest.fail "third request must be shed"
  | Some reply ->
      Testkit.check_true "queue_full code"
        (error_code_of_reply reply = Some "queue_full");
      let retry =
        Option.bind (J.of_string reply |> Result.to_option) (fun j ->
            Option.bind (J.member "error" j) (fun e ->
                Option.bind (J.member "retry_after_ms" e) J.to_int_opt))
      in
      Testkit.check_true "positive retry_after_ms"
        (match retry with Some ms -> ms > 0 | None -> false));
  (* Drain; the shed count must be visible in the next stats snapshot. *)
  ignore (Service.Server.drain s);
  let stats = one_reply s {|{"op":"stats"}|} in
  let shed =
    Option.bind (result_of_reply stats "metrics") (fun m ->
        Option.bind (J.member "shed" m) J.to_int_opt)
  in
  Testkit.check_true "shed count surfaces in stats" (shed = Some 1);
  Testkit.check_int "metrics agree" 1
    (Service.Metrics.shed_count (Service.Server.metrics s))

(* A request's recorded latency runs from its admission to its reply: a
   render admitted, then left queued for 50 ms before the drain, reads
   at least 50 ms. *)
let test_latency_includes_queue_wait () =
  let s = server () in
  let problem = Testkit.instance "switchbox_12x10" in
  List.iter
    (fun line ->
      Testkit.check_true ("admitted: " ^ line)
        (Service.Server.submit s ~client:0 line = None))
    [ open_line ~session:"q" problem; {|{"op":"render","session":"q"}|} ];
  Unix.sleepf 0.05;
  Testkit.check_true "both replied ok"
    (List.for_all (fun (_, r) -> ok_of_reply r) (Service.Server.drain s));
  let metrics =
    match result_of_reply (one_reply s {|{"op":"stats"}|}) "metrics" with
    | Some m -> m
    | None -> Alcotest.fail "stats reply has no metrics"
  in
  let max_ms = row_ms (kind_row metrics "render") "max_ms" in
  Testkit.check_true
    (Printf.sprintf "render max_ms %.3f >= 50 (queue wait included)" max_ms)
    (max_ms >= 50.0)

(* Read-only requests ([analyze], [stats], [verify], …) bypass the
   queue-cap accounting: a shard saturated with mutations must still
   admit and answer them. *)
let test_read_only_bypasses_cap () =
  let s = server ~queue_cap:1 () in
  let problem =
    Workload.Gen.routable_switchbox (prng 5) ~width:12 ~height:10
  in
  Testkit.check_true "open ok"
    (ok_of_reply (one_reply s (open_line ~session:"ro" problem)));
  (* Saturate: one route fills the cap, the second is shed. *)
  Testkit.check_true "mutation admitted"
    (Service.Server.submit s ~client:0 {|{"id":1,"op":"route","session":"ro"}|}
     = None);
  (match
     Service.Server.submit s ~client:0 {|{"id":2,"op":"route","session":"ro"}|}
   with
  | None -> Alcotest.fail "second mutation must be shed at cap 1"
  | Some reply ->
      Testkit.check_true "queue_full"
        (error_code_of_reply reply = Some "queue_full"));
  (* The saturated shard still admits read-only triage probes. *)
  List.iter
    (fun line ->
      Testkit.check_true ("force-admitted: " ^ line)
        (Service.Server.submit s ~client:0 line = None))
    [
      {|{"id":3,"op":"analyze","session":"ro"}|};
      {|{"id":4,"op":"stats"}|};
      {|{"id":5,"op":"verify","session":"ro"}|};
    ];
  (* Drain: every admitted request answers; the analyze reply carries a
     verdict. *)
  let replies = List.map snd (Service.Server.drain s) in
  let analyze_reply =
    List.find_opt
      (fun r ->
        match J.of_string r with
        | Ok j -> Option.bind (J.member "id" j) J.to_int_opt = Some 3
        | Error _ -> false)
      replies
  in
  match analyze_reply with
  | None -> Alcotest.fail "analyze reply missing after drain"
  | Some r ->
      Testkit.check_true "analyze ok" (ok_of_reply r);
      Testkit.check_true "has score"
        (match result_of_reply r "score" with
        | Some (J.Float _ | J.Int _) -> true
        | _ -> false)

(* --- server: budget trips and chaos faults leave sessions unchanged --- *)

let test_budget_trip_rolls_back () =
  let s = server () in
  let problem =
    Workload.Gen.routable_switchbox (prng 11) ~width:16 ~height:12
  in
  Testkit.check_true "open ok"
    (ok_of_reply (one_reply s (open_line ~session:"b" problem)));
  let before = Grid.copy (Router.Session.grid (session_of s "b")) in
  (* slo_ms 0: the deadline has already passed when routing starts, so
     the request must trip, roll back and answer budget_tripped. *)
  let reply = one_reply s {|{"op":"route","session":"b","slo_ms":0}|} in
  Testkit.check_true "budget_tripped code"
    (error_code_of_reply reply = Some "budget_tripped");
  Testkit.check_true "session unchanged"
    (Grid.equal before (Router.Session.grid (session_of s "b")));
  (* The same session still routes fine without the impossible SLO. *)
  let reply = one_reply s {|{"op":"route","session":"b"}|} in
  Testkit.check_true "recovers" (ok_of_reply reply);
  let stats = one_reply s {|{"op":"stats"}|} in
  let trips =
    Option.bind (result_of_reply stats "metrics") (fun m ->
        Option.bind (J.member "budget_trips" m) J.to_int_opt)
  in
  Testkit.check_true "trip counted" (trips = Some 1)

let test_chaos_fault_rolls_back () =
  let chaos = Router.Chaos.create ~crash:1.0 ~seed:3 () in
  let s = server ~chaos () in
  let problem = small_problem 21 in
  Testkit.check_true "open ok"
    (ok_of_reply (one_reply s (open_line ~session:"c" problem)));
  let before = Grid.copy (Router.Session.grid (session_of s "c")) in
  let reply = one_reply s {|{"op":"rip","session":"c","net":1}|} in
  Testkit.check_true "fault_injected code"
    (error_code_of_reply reply = Some "fault_injected");
  Testkit.check_true "session unchanged"
    (Grid.equal before (Router.Session.grid (session_of s "c")));
  Testkit.check_true "fault counted"
    (Option.bind
       (result_of_reply (one_reply s {|{"op":"stats"}|}) "metrics")
       (fun m -> Option.bind (J.member "faults" m) J.to_int_opt)
    = Some 1)

(* --- the qcheck property (satellite): committed-requests replay --- *)

(* Drive a fault-riddled trace (spurious budget trips + injected crashes
   + a tight expansion budget; NO forced search failures, which would
   make committed results chaos-dependent) against server A.  Every
   reply is structured: ok means the request committed, an error means
   the session rolled back.  Replaying exactly the committed mutations
   on a chaos-free server B must reproduce every session byte for
   byte — problem text and grid. *)

let trace_line rng i session =
  match Util.Prng.int rng 10 with
  | 0 | 1 ->
      let x () = Util.Prng.int rng 10 and y () = Util.Prng.int rng 8 in
      Printf.sprintf
        {|{"op":"add_net","session":"%s","name":"t%d","pins":[[%d,%d],[%d,%d]]}|}
        session i (x ()) (y ()) (x ()) (y ())
  | 2 | 3 ->
      Printf.sprintf {|{"op":"rip","session":"%s","net":%d}|} session
        (1 + Util.Prng.int rng 6)
  | 4 ->
      Printf.sprintf {|{"op":"remove_net","session":"%s","net":%d}|} session
        (1 + Util.Prng.int rng 6)
  | 5 ->
      Printf.sprintf {|{"op":"freeze","session":"%s","net":%d}|} session
        (1 + Util.Prng.int rng 6)
  | 6 ->
      Printf.sprintf {|{"op":"thaw","session":"%s","net":%d}|} session
        (1 + Util.Prng.int rng 6)
  | 7 ->
      Printf.sprintf {|{"op":"refine","session":"%s"}|} session
  | _ -> Printf.sprintf {|{"op":"route","session":"%s"}|} session

let replay_config =
  { fast_config with Router.Config.max_expanded = Some 2_000 }

let sessions = [ "a"; "b" ]

let prop_committed_replay =
  Testkit.qcheck ~count:(count 20)
    "fault-riddled trace == replay of its committed requests"
    QCheck2.Gen.(
      pair (int_range 0 100_000) (list_size (int_range 1 14) (int_range 0 999)))
    (fun (seed, codes) ->
      let chaos = Router.Chaos.create ~trip:0.05 ~crash:0.25 ~seed () in
      let a = server ~config:replay_config ~chaos () in
      let b = server ~config:replay_config () in
      let rng = prng (seed lxor 0x7E57) in
      let committed = ref [] in
      (* open both sessions on both servers — opens never fault (no
         chaos decision point), so they are always part of the replay *)
      List.iteri
        (fun i name ->
          let problem =
            Workload.Gen.switchbox (prng (seed + i)) ~width:10 ~height:8
              ~nets:4
          in
          let line = open_line ~session:name problem in
          if not (ok_of_reply (one_reply a line)) then
            Alcotest.failf "open %s failed on the chaos server" name;
          if not (ok_of_reply (one_reply b line)) then
            Alcotest.failf "open %s failed on the replay server" name)
        sessions;
      List.iteri
        (fun i code ->
          let session = List.nth sessions (code mod List.length sessions) in
          let line = trace_line rng i session in
          if ok_of_reply (one_reply a line) then
            committed := line :: !committed)
        codes;
      List.iter
        (fun line ->
          if not (ok_of_reply (one_reply b line)) then
            Alcotest.failf
              "committed request failed on the replay server: %s" line)
        (List.rev !committed);
      List.for_all
        (fun name ->
          let sa = session_of a name and sb = session_of b name in
          Grid.equal (Router.Session.grid sa) (Router.Session.grid sb)
          && String.equal
               (Netlist.Parse.to_string (Router.Session.problem sa))
               (Netlist.Parse.to_string (Router.Session.problem sb))
          && Router.Session.verify sa = [])
        sessions)

(* --- sharding: merge exactness, shard-count invariance, real domains --- *)

(* Per-domain metrics stores merged with {!Service.Metrics.merge} must be
   indistinguishable from one global store fed the same samples: every
   counter, histogram count and quantile — pinned by comparing the full
   snapshot JSON byte for byte. *)
let prop_metrics_merge =
  Testkit.qcheck ~count:(count 50)
    "merged per-domain histograms == one global store"
    QCheck2.Gen.(
      pair (int_range 1 8)
        (list_size (int_range 0 200)
           (triple (int_range 0 4) bool (int_range 0 400_000))))
    (fun (parts, samples) ->
      let kinds = [ "route"; "add_net"; "rip"; "stats"; "refine" ] in
      let global = Service.Metrics.create ~kinds () in
      let stores = Array.init parts (fun _ -> Service.Metrics.create ~kinds ()) in
      List.iteri
        (fun i (k, ok, us) ->
          let part = stores.(i mod parts) in
          let kind = List.nth kinds k in
          let latency_s = float_of_int us /. 1e6 in
          Service.Metrics.record global ~kind ~ok ~latency_s;
          Service.Metrics.record part ~kind ~ok ~latency_s;
          if us mod 7 = 0 then begin
            Service.Metrics.shed global;
            Service.Metrics.shed part
          end;
          Service.Metrics.note_queue_depth global (us mod 13);
          Service.Metrics.note_queue_depth part (us mod 13))
        samples;
      let merged = Service.Metrics.merge (Array.to_list stores) in
      String.equal
        (J.to_string (Service.Metrics.snapshot global))
        (J.to_string (Service.Metrics.snapshot merged)))

(* A trace touching several sessions, submitted as a burst and drained in
   whatever order the shards produce.  Each line is tagged with a unique
   id, so sorting the reply lines recovers a canonical transcript
   regardless of cross-session interleaving. *)
let shard_trace_sessions = [ "alpha"; "bravo"; "charlie"; "delta" ]

let shard_trace () =
  List.concat
    (List.mapi
       (fun i name ->
         let problem =
           Workload.Gen.switchbox (prng (100 + i)) ~width:10 ~height:8 ~nets:4
         in
         [
           J.to_string
             (J.Obj
                [
                  ("id", J.Int (1 + (10 * i)));
                  ("op", J.String "open");
                  ("session", J.String name);
                  ("problem", J.String (Netlist.Parse.to_string problem));
                ]);
           Printf.sprintf
             {|{"id":%d,"op":"add_net","session":"%s","name":"x","pins":[[1,2],[7,5]]}|}
             (2 + (10 * i)) name;
           Printf.sprintf {|{"id":%d,"op":"route","session":"%s"}|}
             (3 + (10 * i)) name;
           Printf.sprintf {|{"id":%d,"op":"refine","session":"%s"}|}
             (4 + (10 * i)) name;
         ])
       shard_trace_sessions)

(* Run the burst on the calling domain: submit everything, drain
   everything, then render each session.  Returns the sorted reply
   transcript and the per-session layouts. *)
let run_sync_trace ~shards =
  let s = server ~queue_cap:128 ~shards () in
  List.iter
    (fun line ->
      match Service.Server.submit s ~client:0 line with
      | None -> ()
      | Some r -> Alcotest.failf "unexpected immediate reply %s" r)
    (shard_trace ());
  let replies = List.map snd (Service.Server.drain s) in
  let layouts =
    List.map
      (fun name ->
        let r =
          one_reply s
            (Printf.sprintf {|{"op":"render","session":"%s"}|} name)
        in
        match Option.bind (result_of_reply r "ascii") J.to_string_opt with
        | Some a -> (name, a)
        | None -> Alcotest.failf "no ascii for %s" name)
      shard_trace_sessions
  in
  (List.sort String.compare replies, layouts)

let test_shard_count_invariance () =
  let base_replies, base_layouts = run_sync_trace ~shards:1 in
  List.iter
    (fun shards ->
      let replies, layouts = run_sync_trace ~shards in
      Testkit.check_true
        (Printf.sprintf "identical transcript at %d shards" shards)
        (replies = base_replies);
      List.iter2
        (fun (name, a) (_, b) ->
          Testkit.check_true
            (Printf.sprintf "%s layout byte-identical at %d shards" name
               shards)
            (String.equal a b))
        layouts base_layouts)
    [ 2; 4; 8 ]

(* The same burst through real persistent worker domains: every reply
   and every layout must match the single-shard [drain] run. *)
let test_parallel_workers_equivalence () =
  let base_replies, base_layouts = run_sync_trace ~shards:1 in
  let s = server ~queue_cap:128 ~shards:4 () in
  let replies = ref [] in
  let m = Mutex.create () in
  let emit _client reply =
    Mutex.lock m;
    replies := reply :: !replies;
    Mutex.unlock m
  in
  let w = Service.Server.start_workers s ~emit in
  List.iter
    (fun line ->
      match Service.Server.submit s ~client:0 line with
      | None -> ()
      | Some r -> Alcotest.failf "unexpected immediate reply %s" r)
    (shard_trace ());
  Service.Server.quiesce s;
  Service.Server.stop_workers s w;
  Testkit.check_true "all replies emitted"
    (List.length !replies = List.length base_replies);
  Testkit.check_true "identical transcript under worker domains"
    (List.sort String.compare !replies = base_replies);
  List.iter
    (fun (name, expected) ->
      let r =
        one_reply s (Printf.sprintf {|{"op":"render","session":"%s"}|} name)
      in
      let got = Option.bind (result_of_reply r "ascii") J.to_string_opt in
      Testkit.check_true
        (Printf.sprintf "%s layout byte-identical under worker domains" name)
        (got = Some expected))
    base_layouts

(* The per-shard rows of the stats reply (satellite): every shard
   reports its queue gauge and shed counter, and a session's requests
   land on the shard {!Service.Server.shard_of} names. *)
let test_per_shard_stats_fields () =
  let s = server ~shards:4 () in
  List.iter
    (fun line -> ignore (one_reply s line))
    (shard_trace ());
  let stats = one_reply s {|{"op":"stats"}|} in
  let rows =
    match result_of_reply stats "shards" with
    | Some (J.List rows) -> rows
    | _ -> Alcotest.fail "stats reply carries no shards array"
  in
  Testkit.check_int "one row per shard" 4 (List.length rows);
  let int_field row name =
    match Option.bind (J.member name row) J.to_int_opt with
    | Some n -> n
    | None -> Alcotest.failf "shard row misses %s" name
  in
  List.iteri
    (fun i row ->
      Testkit.check_int "indexed in order" i (int_field row "shard");
      Testkit.check_int "drained queue" 0 (int_field row "queue_depth");
      Testkit.check_true "cap is the per-shard slice"
        (int_field row "queue_cap" = 16))
    rows;
  let sessions_by_shard =
    List.map (fun row -> int_field row "sessions") rows
  in
  List.iter
    (fun name ->
      let shard = Service.Server.shard_of s name in
      Testkit.check_true
        (Printf.sprintf "%s counted on shard %d" name shard)
        (List.nth sessions_by_shard shard > 0);
      Testkit.check_true "registry_for finds the session"
        (Service.Registry.find (Service.Server.registry_for s name) name
        <> None))
    shard_trace_sessions;
  let total_requests =
    List.fold_left (fun a row -> a + int_field row "requests") 0 rows
  in
  (* Compare against the merged metrics of the same reply — both were
     computed inside the one stats execution. *)
  let merged_requests =
    Option.bind (result_of_reply stats "metrics") (fun m ->
        Option.bind (J.member "requests" m) J.to_int_opt)
  in
  Testkit.check_true "per-shard requests sum to the merged total"
    (Some total_requests = merged_requests)

(* --- protocol fuzzing against live workers --- *)

(* Request lines for a server holding one open session, [fz]: truncated
   and non-JSON bytes, every op name plus unknown ones, and fields of the
   wrong type or out of range.  Each line carries the id its reply must
   echo: the integer [id] of a well-formed object, else 0. *)
module G = QCheck2.Gen

let fuzz_session = "fz"

let wrong_type =
  G.oneofl [ J.String "1"; J.Float 1.5; J.Bool true; J.Null; J.List []; J.Obj [] ]

let int_value lo hi =
  G.frequency
    [
      (6, G.map (fun n -> J.Int n) (G.int_range lo hi));
      (1, G.oneofl [ J.Int max_int; J.Int min_int; J.Int 0; J.Int (-1) ]);
      (1, wrong_type);
    ]

let coord = G.int_range (-1) 8

let pin_value =
  G.frequency
    [
      (4, G.map (fun (x, y) -> J.List [ J.Int x; J.Int y ]) (G.pair coord coord));
      ( 5,
        G.map
          (fun (x, y, l) -> J.List [ J.Int x; J.Int y; J.Int l ])
          (G.triple coord coord (G.int_range (-1) 3)) );
      (1, G.oneofl [ J.List [ J.Int 1 ]; J.List [ J.String "a"; J.Int 1 ]; J.Int 3 ]);
    ]

(* Two unplaced instances, so [place], [groute] and [flow] have work. *)
let placement_text =
  "problem fz-place region 12 12\nnet a\npin 0 0\nnet b\npin 11 11\n\
   inst m1 2 2 free\nipin a 2 1 0\nipin b -1 0 0\n\
   inst m2 3 2 free\nipin a 0 -1 0\nipin b 3 1 0\n"

(* A problem text of at most 16x16, whole or cut short. *)
let problem_value =
  let text =
    G.map
      (fun (kind, (w, h), seed) ->
        let rng = prng seed and nets = 1 + (seed mod 3) in
        match kind with
        | 0 -> Netlist.Parse.to_string (Workload.Gen.switchbox rng ~width:w ~height:h ~nets)
        | 1 -> Netlist.Parse.to_string (Workload.Gen.region rng ~width:w ~height:h ~nets)
        | _ -> placement_text)
      (G.triple (G.int_range 0 2)
         (G.pair (G.int_range 6 16) (G.int_range 6 16))
         (G.int_range 0 10_000))
  in
  G.frequency
    [
      (4, G.map (fun t -> J.String t) text);
      ( 1,
        G.map
          (fun (t, cut) -> J.String (String.sub t 0 (cut mod (String.length t + 1))))
          (G.pair text G.nat) );
      (1, wrong_type);
    ]

(* Mostly the open session; [open] mostly names a new one. *)
let session_value op =
  let fz, fresh = if op = "open" then (1, 4) else (8, 2) in
  G.frequency
    [
      (fz, G.pure (J.String fuzz_session));
      (fresh, G.oneofl [ J.String "other"; J.String "" ]);
      (1, wrong_type);
    ]

(* Each field with the generator of its value; an op's own fields are
   present more often than the others. *)
let fuzz_fields =
  [
    ("net", int_value (-2) 12);
    ( "name",
      G.frequency
        [ (7, G.oneofl [ J.String "n1"; J.String "n2"; J.String "q"; J.String "" ]);
          (1, wrong_type) ] );
    ( "pins",
      G.frequency
        [ (7, G.map (fun ps -> J.List ps) (G.list_size (G.int_range 0 4) pin_value));
          (1, wrong_type) ] );
    ("tile", int_value (-3) 20);
    ("seed", int_value (-5) 100);
    ("slo_ms", int_value (-5) 500);
    ("max_passes", int_value (-3) 4);
    ("problem", problem_value);
    ( "file",
      G.oneofl
        [ J.String "/dev/zero"; J.String "instances/switchbox_12x10.problem"; J.Int 1 ] );
  ]

let own_fields = function
  | "open" -> [ "problem" ]
  | "add_net" -> [ "name"; "pins" ]
  | "remove_net" | "rip" -> [ "net" ]
  | "freeze" | "thaw" -> [ "name" ]
  | "route" -> [ "slo_ms" ]
  | "refine" -> [ "max_passes" ]
  | "place" -> [ "seed" ]
  | "groute" | "analyze" -> [ "tile" ]
  | "flow" -> [ "seed"; "tile"; "slo_ms" ]
  | _ -> []

let fuzz_line =
  let open G in
  let id =
    frequency
      [
        (2, pure ([], 0));
        (5, map (fun n -> ([ ("id", J.Int n) ], n)) (int_range (-5) 100_000));
        (1, pure ([ ("id", J.Float 7.0) ], 7));
        ( 1,
          map
            (fun v -> ([ ("id", v) ], 0))
            (oneofl [ J.Float 7.5; J.String "7"; J.Null; J.Bool true ]) );
      ]
  in
  (* [shutdown] is rarer than the rest: every line after it is refused. *)
  let op =
    frequency
      [
        (40, oneofl (List.filter (( <> ) "shutdown") Service.Proto.op_names));
        (1, pure "shutdown");
        (3, string_size ~gen:(char_range 'a' 'z') (int_range 0 8));
      ]
  in
  let request =
    bind (pair id op) (fun ((id_field, rid), op) ->
        let field (name, gen) =
          let own = List.mem name ("session" :: own_fields op) in
          let ratio = if own then 0.85 else 0.1 in
          map (Option.map (fun v -> (name, v))) (option ~ratio gen)
        in
        let fields = ("session", session_value op) :: fuzz_fields in
        let rec all = function
          | [] -> pure []
          | f :: rest -> map2 (fun x xs -> Option.to_list x @ xs) (field f) (all rest)
        in
        map
          (fun fields ->
            (J.to_string (J.Obj (id_field @ (("op", J.String op) :: fields))), rid))
          (all fields))
  in
  (* Bytes that are not a JSON object: no reply can echo an id. *)
  let junk = string_size ~gen:(char_range ' ' 'z') (int_range 0 40) in
  frequency
    [
      (8, request);
      ( 1,
        map
          (fun ((line, _), cut) -> (String.sub line 0 (cut mod String.length line), 0))
          (pair request nat) );
      (1, map (fun s -> (String.map (fun c -> if c = '{' then '(' else c) s, 0)) junk);
    ]

(* Submit each line as its own client to a server whose workers are
   running, then demand exactly one well-formed reply per line, echoing
   its id, none of them [internal]; the server ends idle and its workers
   join cleanly. *)
let run_fuzz ~shards cases =
  let s =
    Service.Server.create
      ~config:
        {
          Service.Server.default_config with
          Service.Server.router = fast_config;
          allow_files = false;
          shards;
        }
      ()
  in
  let opened = one_reply s (open_line ~session:fuzz_session (small_problem 1)) in
  if not (ok_of_reply opened) then Alcotest.fail "fuzz session did not open";
  let cases = Array.of_list cases in
  let replies = Array.make (Array.length cases) [] in
  let m = Mutex.create () in
  let emit client reply =
    Mutex.protect m (fun () -> replies.(client) <- reply :: replies.(client))
  in
  let w = Service.Server.start_workers s ~emit in
  Array.iteri
    (fun i (line, _) -> Option.iter (emit i) (Service.Server.submit s ~client:i line))
    cases;
  Service.Server.quiesce s;
  Service.Server.stop_workers s w;
  if Service.Server.pending s <> 0 then
    QCheck2.Test.fail_reportf "%d requests pending after quiesce"
      (Service.Server.pending s);
  Array.iteri
    (fun i (line, rid) ->
      let well_formed r =
        match J.of_string r with
        | Ok (J.Obj _ as j) ->
            J.member "v" j = Some (J.Int 1)
            && Option.bind (J.member "ok" j) J.to_bool_opt <> None
            && J.member "id" j = Some (J.Int rid)
            && error_code_of_reply r <> Some "internal"
        | _ -> false
      in
      match replies.(i) with
      | [ r ] when well_formed r -> ()
      | rs ->
          QCheck2.Test.fail_reportf "at %d shards, %s\ngot [%s]" shards line
            (String.concat "; " rs))
    cases;
  true

let prop_protocol_fuzz =
  Testkit.qcheck ~count:(count 200)
    ~print:(fun cases -> String.concat "\n" (List.map fst cases))
    "generated lines against live workers at 1 and 3 shards"
    (G.list_size (G.int_range 1 24) fuzz_line)
    (fun cases -> run_fuzz ~shards:1 cases && run_fuzz ~shards:3 cases)

(* --- misc server behaviour --- *)

let test_unknown_session_and_close () =
  let s = server () in
  let r = one_reply s {|{"op":"route","session":"ghost"}|} in
  Testkit.check_true "unknown_session"
    (error_code_of_reply r = Some "unknown_session");
  let r = one_reply s {|{"op":"close","session":"ghost"}|} in
  Testkit.check_true "close unknown"
    (error_code_of_reply r = Some "unknown_session")

(* A problem too large to instantiate is the client's error, reported
   as such — not an internal failure of the server. *)
let test_oversized_open_is_bad_request () =
  let s = server () in
  let line =
    J.to_string
      (J.Obj
         [
           ("op", J.String "open");
           ("session", J.String "big");
           ( "problem",
             J.String (Printf.sprintf "problem big region %d 10\n" max_int) );
         ])
  in
  let r = one_reply s line in
  Testkit.check_true "bad_request"
    (error_code_of_reply r = Some "bad_request")

let test_session_cap_reply () =
  let s =
    Service.Server.create
      ~config:
        {
          Service.Server.default_config with
          Service.Server.router = fast_config;
          max_sessions = 1;
        }
      ()
  in
  Testkit.check_true "first open"
    (ok_of_reply (one_reply s (open_line ~session:"one" (small_problem 1))));
  let r = one_reply s (open_line ~session:"two" (small_problem 2)) in
  Testkit.check_true "session_cap"
    (error_code_of_reply r = Some "session_cap");
  let r = one_reply s (open_line ~session:"one" (small_problem 3)) in
  Testkit.check_true "session_exists"
    (error_code_of_reply r = Some "session_exists")

let id_of_reply line =
  match J.of_string line with
  | Ok j -> Option.bind (J.member "id" j) J.to_int_opt
  | Error _ -> None

let test_shutdown_refuses_new_requests () =
  let s = server () in
  Testkit.check_true "shutdown ok"
    (ok_of_reply (one_reply s {|{"op":"shutdown"}|}));
  Testkit.check_true "flag" (Service.Server.shutdown_requested s);
  match Service.Server.submit s ~client:0 {|{"id":11,"op":"stats"}|} with
  | Some reply ->
      Testkit.check_true "shutting_down"
        (error_code_of_reply reply = Some "shutting_down");
      Testkit.check_true "refusal echoes the id" (id_of_reply reply = Some 11)
  | None -> Alcotest.fail "requests after shutdown must be refused"

(* Lines refused before they become requests still echo their integer
   id — with replies interleaving across sessions, the id is how a pipe
   client matches them up.  Lines with no usable id answer 0. *)
let test_rejections_echo_id () =
  let s = server () in
  List.iter
    (fun (line, code, id) ->
      let r = one_reply s line in
      Testkit.check_true (line ^ " -> " ^ code) (error_code_of_reply r = Some code);
      Testkit.check_true (Printf.sprintf "%s echoes id %d" line id)
        (id_of_reply r = Some id))
    [
      ({|{"id":7,"op":"frobnicate"}|}, "unknown_op", 7);
      ({|{"id":9,"op":"rip","session":"s"}|}, "bad_request", 9);
      ({|{"id":4,"op":3}|}, "bad_request", 4);
      ({|{"id":"7","op":"frobnicate"}|}, "bad_request", 0);
      ({|{"op":"frobnicate"}|}, "unknown_op", 0);
      ({|[7]|}, "bad_request", 0);
      ({|{"id":7,"op":"rip"|}, "parse_error", 0);
    ]

(* A pin on a layer outside the session's stack is a rejected mutation,
   not an internal error, and commits nothing. *)
let test_add_net_out_of_stack_layer () =
  let s = server () in
  let problem = Testkit.instance "switchbox_12x10" in
  Testkit.check_true "open ok"
    (ok_of_reply (one_reply s (open_line ~session:"a" problem)));
  let before = Netlist.Parse.to_string (Router.Session.problem (session_of s "a")) in
  List.iter
    (fun pins ->
      let r =
        one_reply s
          (Printf.sprintf {|{"op":"add_net","session":"a","name":"q","pins":%s}|} pins)
      in
      Testkit.check_true (pins ^ " -> net_error") (error_code_of_reply r = Some "net_error"))
    [ "[[1,2,2],[3,4,0]]"; "[[1,2,-1],[3,4,0]]" ];
  let r = one_reply s {|{"op":"verify","session":"a"}|} in
  Testkit.check_true "gen unchanged"
    (Option.bind (J.of_string r |> Result.to_option) (J.member "gen") = Some (J.Int 0));
  Testkit.check_true "problem unchanged"
    (String.equal before
       (Netlist.Parse.to_string (Router.Session.problem (session_of s "a"))))

let test_generation_counts_commits () =
  let s = server () in
  let problem = Workload.Gen.routable_switchbox (prng 31) ~width:10 ~height:8 in
  ignore (one_reply s (open_line ~session:"g" problem));
  let gen_of reply =
    match J.of_string reply with
    | Ok j -> Option.bind (J.member "gen" j) J.to_int_opt
    | Error _ -> None
  in
  let r1 = one_reply s {|{"op":"route","session":"g"}|} in
  Testkit.check_true "gen 1 after route" (gen_of r1 = Some 1);
  let r2 = one_reply s {|{"op":"rip","session":"g","net":1}|} in
  Testkit.check_true "gen 2 after rip" (gen_of r2 = Some 2);
  (* A failed mutation must not advance the generation. *)
  let r3 = one_reply s {|{"op":"rip","session":"g","net":999}|} in
  Testkit.check_true "error reply" (not (ok_of_reply r3));
  let r4 = one_reply s {|{"op":"verify","session":"g"}|} in
  Testkit.check_true "gen unchanged by failure/read" (gen_of r4 = Some 2)

(* The mini-flow protocol ops: place mutates the placement section,
   groute is a read-only stats query, flow installs the routed layout —
   and the installed grid equals a direct Flow.run on the same problem. *)
let test_flow_ops () =
  let problem = Testkit.instance "macro_48x40" in
  let s = server () in
  ignore (one_reply s (open_line ~session:"f" problem));
  (* groute before placement must refuse, not crash. *)
  let r = one_reply s {|{"op":"groute","session":"f"}|} in
  Testkit.check_true "groute before place refused"
    (error_code_of_reply r = Some "net_error");
  let r = one_reply s {|{"op":"place","session":"f","seed":7}|} in
  Testkit.check_true "place ok" (ok_of_reply r);
  Testkit.check_true "place reports free insts"
    (Option.bind (result_of_reply r "free_insts") J.to_int_opt = Some 3);
  (* place realized the section: a second place has nothing to do. *)
  let r = one_reply s {|{"op":"place","session":"f"}|} in
  Testkit.check_true "re-place refused (no placement section left)"
    (not (ok_of_reply r));
  let r = one_reply s {|{"op":"groute","session":"f"}|} in
  Testkit.check_true "groute ok after place" (ok_of_reply r);
  (* Audit verdict depends on the placement; here only the reply shape is
     pinned (cleanliness on the default seed is pinned in test_flow.ml). *)
  Testkit.check_true "groute reports an audit verdict"
    (Option.bind (result_of_reply r "audit") J.to_bool_opt <> None);
  Testkit.check_true "groute reports tile counts"
    (match Option.bind (result_of_reply r "overflow_tiles") J.to_int_opt with
    | Some n -> n >= 0
    | None -> false);
  (* flow on a fresh session: one request, routed layout installed. *)
  ignore (one_reply s (open_line ~session:"g" problem));
  let r = one_reply s {|{"op":"flow","session":"g","seed":7}|} in
  Testkit.check_true "flow ok" (ok_of_reply r);
  let hit_rate =
    Option.bind (result_of_reply r "guide") (fun g ->
        Option.bind (J.member "hit_rate" g) J.to_float_opt)
  in
  Testkit.check_true "flow reports a guide hit rate"
    (match hit_rate with Some h -> h >= 0.0 && h <= 1.0 | None -> false);
  let verify = one_reply s {|{"op":"verify","session":"g"}|} in
  Testkit.check_true "flow layout verifies clean"
    (Option.bind (result_of_reply verify "clean") J.to_bool_opt = Some true);
  (* The service flow equals the library flow, byte for byte. *)
  let direct =
    match Flow.run ~config:fast_config ~seed:7 problem with
    | Ok f -> f
    | Error msg -> Alcotest.failf "direct flow failed: %s" msg
  in
  Testkit.check_true "service flow grid = library flow grid"
    (Grid.equal
       direct.Flow.result.Router.Engine.grid
       (Router.Session.grid (session_of s "g")))

let () =
  Alcotest.run "service"
    [
      ( "proto",
        [
          Alcotest.test_case "parse ok" `Quick test_proto_parse_ok;
          Alcotest.test_case "parse errors" `Quick test_proto_parse_errors;
          Alcotest.test_case "reply shape" `Quick test_proto_reply_shape;
        ] );
      ( "sched",
        [
          Alcotest.test_case "fifo and cap" `Quick test_sched_fifo_and_cap;
          Alcotest.test_case "round-robin fairness" `Quick
            test_sched_round_robin_fairness;
        ] );
      ( "registry",
        [
          Alcotest.test_case "cap and generations" `Quick
            test_registry_cap_and_generations;
          Alcotest.test_case "idle eviction" `Quick test_registry_idle_eviction;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "quantiles and counters" `Quick
            test_metrics_quantiles_and_counters;
          Alcotest.test_case "eighth-octave resolution" `Quick
            test_metrics_resolution;
          prop_metrics_quantiles_bounded;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "committed instances (small)" `Quick
            test_trace_equivalence_small;
          Alcotest.test_case "committed instances (large)" `Slow
            test_trace_equivalence_large;
        ] );
      ( "admission",
        [
          Alcotest.test_case "shed with retry_after" `Quick
            test_shed_with_retry_after;
          Alcotest.test_case "read-only bypasses queue cap" `Quick
            test_read_only_bypasses_cap;
          Alcotest.test_case "latency includes queue wait" `Quick
            test_latency_includes_queue_wait;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "budget trip rolls back" `Quick
            test_budget_trip_rolls_back;
          Alcotest.test_case "chaos fault rolls back" `Quick
            test_chaos_fault_rolls_back;
          prop_committed_replay;
        ] );
      ( "sharding",
        [
          prop_metrics_merge;
          Alcotest.test_case "shard-count invariance" `Quick
            test_shard_count_invariance;
          Alcotest.test_case "worker-domain equivalence" `Quick
            test_parallel_workers_equivalence;
          Alcotest.test_case "per-shard stats fields" `Quick
            test_per_shard_stats_fields;
        ] );
      ( "server",
        [
          Alcotest.test_case "unknown session" `Quick
            test_unknown_session_and_close;
          Alcotest.test_case "session cap" `Quick test_session_cap_reply;
          Alcotest.test_case "oversized open" `Quick
            test_oversized_open_is_bad_request;
          Alcotest.test_case "shutdown refuses" `Quick
            test_shutdown_refuses_new_requests;
          Alcotest.test_case "rejections echo the id" `Quick
            test_rejections_echo_id;
          Alcotest.test_case "add_net out-of-stack layer" `Quick
            test_add_net_out_of_stack_layer;
          Alcotest.test_case "generation counts commits" `Quick
            test_generation_counts_commits;
        ] );
      ("flow", [ Alcotest.test_case "place/groute/flow ops" `Quick test_flow_ops ]);
      ("fuzz", [ prop_protocol_fuzz ]);
    ]
