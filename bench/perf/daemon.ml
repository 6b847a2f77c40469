(* The durable daemon under an open-loop request stream.

   One generator (this domain) sends each request when it is due, at a
   fixed rate, sleeping in between; the server executes on its worker
   domains and durably journals every mutation.  Latency runs from a
   request's due time to its reply, so a stall also charges the requests
   queued behind it.  After the window the server is dropped without its
   shutdown path, like a [kill -9], and brought back from its directory. *)

let sessions = 16
let rate = 200.0

(* Each session cycles through three journalled writes and three reads
   that bypass admission, so writes and reads are half and half. *)
let ops = [| "rip"; "route"; "refine"; "verify"; "render"; "analyze" |]
let is_write kind = kind < 3
let session_name c = Printf.sprintf "s%02d" c

(* As many shards as this host runs domains, at most two. *)
let shards = min 2 (Util.Parallel.default_jobs ())

(* The queue is deep enough to hold several seconds of arrivals, so that
   a stall of the host shows as latency rather than as shed requests. *)
let server_config dir =
  {
    Service.Server.default_config with
    Service.Server.data_dir = Some dir;
    fsync = true;
    shards;
    queue_cap = 1024;
  }

type stream = { opens : string array; lines : string array; kinds : int array }

(* Every session receives one request per round of sixteen, and its own
   sequence — the op cycle, started at a per-session offset so that every
   moment of the window mixes all six ops, and the nets its rips unroute —
   is fixed.  [seed] only shuffles the order of the sessions within each
   round: it moves the interleaving, and with it the queueing, while every
   final layout stays the same. *)
let stream ~seed ~seconds =
  let problems = Array.init sessions Inputs.session_problem in
  let opens =
    Array.mapi
      (fun c p ->
        Printf.sprintf {|{"id":%d,"op":"open","session":"%s","problem":%s}|} (c + 1)
          (session_name c)
          (Util.Json.to_string (Util.Json.String (Inputs.text p))))
      problems
  in
  let rounds = max 1 (int_of_float (rate *. seconds) / sessions) in
  let n = rounds * sessions in
  let order = Array.init sessions Fun.id and prng = Util.Prng.create seed in
  let rips = Array.init sessions (fun c -> Util.Prng.create (100 + c)) in
  let kinds = Array.make n 0 and lines = Array.make n "" in
  for i = 0 to n - 1 do
    if i mod sessions = 0 then Util.Prng.shuffle prng order;
    let c = order.(i mod sessions) and rid = 1000 + i in
    let kind = ((i / sessions) + c) mod 6 in
    kinds.(i) <- kind;
    lines.(i) <-
      (if kind = 0 then
         Printf.sprintf {|{"id":%d,"op":"rip","session":"%s","net":%d}|} rid
           (session_name c)
           (1 + Util.Prng.int rips.(c) (Netlist.Problem.net_count problems.(c)))
       else
         Printf.sprintf {|{"id":%d,"op":"%s","session":"%s"}|} rid ops.(kind)
           (session_name c))
  done;
  { opens; lines; kinds }

let json_path path json =
  List.fold_left (fun j k -> Option.bind j (Util.Json.member k)) (Some json) path

let reply_ok reply =
  match Util.Json.of_string reply with
  | Ok j -> Util.Json.member "ok" j = Some (Util.Json.Bool true)
  | Error _ -> false

let stat server path =
  match Service.Server.handle_line server {|{"op":"stats"}|} with
  | [ reply ] -> (
      match
        Option.bind
          (Result.to_option (Util.Json.of_string reply))
          (json_path ("result" :: path))
      with
      | Some (Util.Json.Int v) -> float_of_int v
      | _ -> failwith ("stats reply lacks " ^ String.concat "." path))
  | _ -> failwith "stats produced an unexpected reply count"

let session_in reg c = Option.map Service.Registry.session (Service.Registry.find reg (session_name c))

let session server c = session_in (Service.Server.registry_for server (session_name c)) c

let render s = Viz.Ascii.render (Router.Session.grid s)

let render_of server c = Option.map render (session server c)

(* The traced replay: the admitted lines once more, in order, on one
   domain, against a durable registry and the session layer directly —
   the per-op costs the server's workers paid, without the queueing. *)
let replay_one reg line =
  let span = Span.run in
  let fail msg = failwith (Printf.sprintf "replay: %s: %s" msg line) in
  match span "proto.parse" (fun () -> Service.Proto.parse line) with
  | Error (_, msg) -> fail msg
  | Ok { Service.Proto.rid; session = Some name; op } -> (
      (match op with
      | Service.Proto.Open { problem_text = Some text; _ } -> (
          let p = span "netlist.parse" (fun () -> Netlist.Parse.of_string_exn text) in
          match Service.Registry.open_session reg ~name ~rid p with
          | Ok _ -> ()
          | Error _ -> fail "open refused")
      | op -> (
          let entry =
            match Service.Registry.find reg name with Some e -> e | None -> fail "no session"
          in
          let s = Service.Registry.session entry in
          let commit () = span "registry.commit" (fun () -> Service.Registry.commit reg entry ~rid op) in
          match op with
          | Service.Proto.Rip (Service.Proto.Net_id net) -> (
              match span "session.rip" (fun () -> Router.Session.rip s ~net) with
              | Ok () -> commit ()
              | Error msg -> fail msg)
          | Service.Proto.Route _ -> (
              match span "engine.route" (fun () -> Router.Session.try_route s) with
              | Ok stats ->
                  Layer.engine_counts stats;
                  commit ()
              | Error _ -> fail "route budget tripped")
          | Service.Proto.Refine { max_passes } ->
              Layer.improve_counts
                (span "improve.refine" (fun () -> Router.Session.refine ?max_passes s));
              commit ()
          | Service.Proto.Verify -> ignore (span "drc.check" (fun () -> Router.Session.verify s))
          | Service.Proto.Render -> ignore (span "viz.render" (fun () -> render s))
          | Service.Proto.Analyze { tile } ->
              let realized = Netlist.Problem.realize (Router.Session.problem s) in
              let a = span "analyze.run" (fun () -> Analyze.run ?tile realized) in
              Span.count "analyze.cost" (float_of_int a.Analyze.cost)
          | _ -> fail "op outside the workload"));
      ignore (Service.Registry.tick reg))
  | Ok _ -> fail "request without a session"

let seconds_of_ns ns = float_of_int ns /. 1e9

let run ~seed ~seconds ~trace =
  let t_inputs = Span.now_ns () in
  let s = stream ~seed ~seconds in
  let inputs_s = seconds_of_ns (Span.now_ns () - t_inputs) in
  let n = Array.length s.lines in
  (* Replies land by client tag: the window's requests are 0..n-1, the
     opens n..n+15. *)
  let reply_ns = Array.make (n + sessions) 0 and replies = Array.make (n + sessions) "" in
  let emit client reply =
    reply_ns.(client) <- Span.now_ns ();
    replies.(client) <- reply
  in
  let out = Inputs.out_dir () in
  let dir k = Filename.concat out (Printf.sprintf "daemon-%d-%d" (Unix.getpid ()) k) in
  (* Set-up: a server over a fresh durable directory, its workers, and
     the sixteen opens.  Done three times, the first two thrown away. *)
  let rec setup k times =
    let d = dir k in
    Inputs.rm_rf d;
    let t0 = Span.now_ns () in
    let server = Service.Server.create ~config:(server_config d) () in
    let workers = Service.Server.start_workers server ~emit in
    Array.iteri
      (fun c line ->
        match Service.Server.submit server ~client:(n + c) line with
        | None -> ()
        | Some reply -> failwith ("open refused: " ^ reply))
      s.opens;
    Service.Server.quiesce server;
    let times = seconds_of_ns (Span.now_ns () - t0) :: times in
    if k < 2 then begin
      Service.Server.stop_workers server workers;
      Inputs.rm_rf d;
      setup (k + 1) times
    end
    else (server, workers, d, Metric.median times)
  in
  let server, workers, d, setup_s = setup 0 [] in
  let opens_ok = Array.for_all reply_ok (Array.sub replies n sessions) in
  (* The window. *)
  let period = 1e9 /. rate in
  let start = Span.now_ns () + 1_000_000 in
  let due i = start + int_of_float (float_of_int i *. period) in
  let submit0 = Array.make n 0 and submit1 = Array.make n 0 in
  let admitted = Array.make n false in
  for i = 0 to n - 1 do
    let rec wait () =
      let ahead = due i - Span.now_ns () in
      if ahead > 0 then begin
        Unix.sleepf (float_of_int ahead /. 1e9);
        wait ()
      end
    in
    wait ();
    submit0.(i) <- Span.now_ns ();
    (match Service.Server.submit server ~client:i s.lines.(i) with
    | None -> admitted.(i) <- true
    | Some reply ->
        replies.(i) <- reply;
        reply_ns.(i) <- Span.now_ns ());
    submit1.(i) <- Span.now_ns ()
  done;
  Service.Server.quiesce server;
  Service.Server.stop_workers server workers;
  let answered i = reply_ns.(i) > 0 in
  let failed =
    List.length (List.filter (fun i -> not (answered i && reply_ok replies.(i))) (List.init n Fun.id))
  in
  let latency i = float_of_int (reply_ns.(i) - due i) /. 1e6 in
  let latencies = List.filter_map (fun i -> if answered i then Some (latency i) else None) (List.init n Fun.id) in
  let wall_s = seconds_of_ns (Array.fold_left max 0 (Array.sub reply_ns 0 n) - start) in
  (* The layouts the crash leaves behind. *)
  let live c = Option.get (session server c) in
  let before = Array.init sessions (render_of server) in
  let drc = Array.fold_left ( + ) 0 (Array.init sessions (fun c -> List.length (Router.Session.verify (live c)))) in
  let quality f = Array.fold_left ( + ) 0 (Array.init sessions (fun c -> f (live c))) in
  let wirelength =
    quality (fun s -> Router.Outcome.total_wirelength (Router.Session.grid s) (Router.Session.problem s))
  and vias = quality (fun s -> Router.Outcome.total_vias (Router.Session.grid s)) in
  let shed = stat server [ "metrics"; "shed" ]
  and max_depth = stat server [ "metrics"; "max_queue_depth" ]
  and snapshots = stat server [ "durability"; "snapshots_written" ] in
  let wal_records =
    Array.fold_left ( + ) 0
      (Array.init sessions (fun c ->
           let path = Filename.concat d (Service.Wal.file_key (session_name c) ^ ".wal") in
           let records, _, _ = Service.Wal.load path in
           List.length records))
  in
  (* The crash: no shutdown path, no final snapshot. *)
  let t0 = Span.now_ns () in
  let recovered = Service.Server.create ~config:(server_config d) () in
  let recover_s = seconds_of_ns (Span.now_ns () - t0) in
  let recovered_same = Array.for_all2 ( = ) before (Array.init sessions (render_of recovered)) in
  let sessions_recovered = stat recovered [ "durability"; "sessions_recovered" ]
  and records_replayed = stat recovered [ "durability"; "records_replayed" ] in
  (* The reference: the same admitted lines through one in-memory shard,
     synchronously. *)
  let reference = Service.Server.create () in
  let admitted_lines =
    Array.to_list s.opens
    @ List.filter_map (fun i -> if admitted.(i) then Some s.lines.(i) else None) (List.init n Fun.id)
  in
  List.iter (fun l -> ignore (Service.Server.handle_line reference l)) admitted_lines;
  let reference_same = Array.for_all2 ( = ) before (Array.init sessions (render_of reference)) in
  let replay_same, traced =
    if not trace then (true, None)
    else begin
      Span.enabled := true;
      let rdir = dir 3 in
      Inputs.rm_rf rdir;
      let reg =
        Service.Registry.create ~config:Router.Config.default
          ~data:{ Service.Registry.dir = rdir; snapshot_every = 64; fsync = true }
          ()
      in
      let t0 = Span.now_ns () in
      List.iteri
        (fun k line ->
          Span.job := Printf.sprintf "replay-%d" k;
          Span.run "job" (fun () -> replay_one reg line))
        admitted_lines;
      let replay_ns = Span.now_ns () - t0 in
      let replay_spans = List.length !Span.spans in
      let same =
        Array.for_all2 ( = ) before
          (Array.init sessions (fun c -> Option.map render (session_in reg c)))
      in
      for i = 0 to n - 1 do
        let job = Printf.sprintf "req-%d" i in
        Span.add ~name:"server.submit" ~job ~t0:submit0.(i) ~t1:submit1.(i);
        if answered i then Span.add ~name:"server.reply" ~job ~t0:(due i) ~t1:reply_ns.(i)
      done;
      let spans, counters = Span.take () in
      Span.enabled := false;
      Inputs.rm_rf rdir;
      Span.write_jsonl (Filename.concat out "trace-service_mixed.jsonl") spans;
      (same, Some (spans, counters, replay_spans, replay_ns))
    end
  in
  Inputs.rm_rf d;
  let checks =
    [
      (opens_ok, "an open was refused");
      (failed = 0, Printf.sprintf "%d of %d requests failed, were shed or got no reply" failed n);
      (drc = 0, Printf.sprintf "%d DRC violations in the final layouts" drc);
      (reference_same, "a session's layout differs from the 1-shard in-memory replay");
      (recovered_same, "a recovered session's layout differs from before the crash");
      (replay_same, "the traced replay's layouts differ from the server's");
    ]
  in
  List.iter (fun (ok, msg) -> if not ok then prerr_endline ("FAIL: " ^ msg)) checks;
  let lat_sorted = Metric.sorted latencies in
  let late = Metric.sorted (List.init n (fun i -> float_of_int (submit0.(i) - due i) /. 1e6)) in
  let nl = Array.length lat_sorted in
  let lat_note = Printf.sprintf "n=%d" nl in
  let service_printed =
    Metric.v "latency_p95_ms" "ms" ~note:lat_note (Metric.quantile lat_sorted 0.95)
    (* p99 only where it has at least ten samples beyond it. *)
    :: (if nl >= 1000 then
          [ Metric.v "latency_p99_ms" "ms" ~note:lat_note (Metric.quantile lat_sorted 0.99) ]
        else [])
    @ [
      Metric.v "requests" "count" (float_of_int n);
      Metric.v "shards" "count" (float_of_int shards);
      Metric.v "error_rate" "ratio" (float_of_int failed /. float_of_int n);
      Metric.v "drc_violations" "count" (float_of_int drc);
      Metric.v "recover_s" "s" recover_s;
      Metric.v "loadgen.late_ms_max" "ms" (Metric.quantile late 1.0);
    ]
  in
  let reported, printed =
    match traced with
    | None ->
        ( [
            Metric.v "setup_s" "s" ~note:"median of 3" setup_s;
            Metric.v "wall_s" "s" ~note:"first due send to last reply" wall_s;
            Metric.v "latency_p50_ms" "ms" ~note:lat_note (Metric.quantile lat_sorted 0.5);
            Metric.v "peak_rss_mb" "MB" (Metric.peak_rss_mb ());
            Metric.v "wirelength" "units" (float_of_int wirelength);
            Metric.v "vias" "count" (float_of_int vias);
          ],
          service_printed )
    | Some (spans, counters, replay_spans, replay_ns) ->
        let named name = List.filter (fun sp -> sp.Span.name = name) spans in
        let dist name scale filter =
          let xs =
            Metric.sorted
              (List.filter_map
                 (fun sp -> if filter sp then Some (float_of_int (Span.dur sp) /. scale) else None)
                 (named name))
          in
          let label, t = Metric.tail xs in
          let k = Array.length xs in
          [
            (Metric.quantile xs 0.5, Printf.sprintf "p50, n=%d" k);
            (t, Printf.sprintf "%s, n=%d" label k);
          ]
        in
        let pair base unit l =
          List.map2 (fun suffix (v, note) -> Metric.v ~note (base ^ suffix) unit v) [ "_p50"; "_tail" ] l
        in
        let kind_of sp = Scanf.sscanf sp.Span.job "req-%d" (fun i -> s.kinds.(i)) in
        let per_call name unit scale =
          let xs = List.map (fun sp -> float_of_int (Span.dur sp) /. scale) (named name) in
          Metric.v ~note:(Printf.sprintf "median per call, n=%d" (List.length xs))
            (name ^ "_" ^ unit) unit (Metric.median xs)
        in
        ( Layer.metrics ~passes:[ (spans, counters) ] ~inputs_s
            ~overhead_pct:(Layer.overhead_pct ~spans:replay_spans ~wall_ns:(float_of_int replay_ns))
            ~extra:
              [
                ("sched.shed", shed);
                ("sched.max_queue_depth", max_depth);
                ("registry.snapshots_written", snapshots);
                ("registry.sessions_recovered", sessions_recovered);
                ("registry.records_replayed", records_replayed);
                ("wal.records_at_crash", float_of_int wal_records);
              ],
          service_printed
          @ pair "server.submit_us" "us" (dist "server.submit" 1e3 (fun _ -> true))
          @ pair "server.reply_ms.write" "ms"
              (dist "server.reply" 1e6 (fun sp -> is_write (kind_of sp)))
          @ pair "server.reply_ms.read" "ms"
              (dist "server.reply" 1e6 (fun sp -> not (is_write (kind_of sp))))
          @ [
              Metric.v "loadgen.late_ms_p99" "ms" (Metric.quantile late 0.99);
              per_call "proto.parse" "us" 1e3;
              per_call "registry.commit" "us" 1e3;
              per_call "session.rip" "us" 1e3;
            ] )
  in
  {
    Metric.correct = List.for_all fst checks;
    attempted = n;
    failed;
    reported;
    printed;
  }
