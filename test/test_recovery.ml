(* Durability and crash recovery (lib/service Wal/Snapshot + the durable
   Registry/Server):

   - WAL torn tails and CRC corruption truncate to the valid prefix;
   - snapshot writes are atomic (a crash at any point leaves the newest
     complete snapshot readable);
   - the flagship qcheck property: kill the server at EVERY kill point a
     random trace traverses (chosen per iteration), restart over the same
     data directory, let the client resubmit its un-acked request, and
     demand state identical to the run that never crashed — generation
     counter, net table, frozen set, via set and layout bytes;
   - idle eviction parks sessions to disk and [find] resurrects them;
   - WAL-replayed parse errors carry wal:<path>#<record> provenance.

   Set DESIGN_CHAOS=1 to crank the qcheck iteration counts. *)

let heavy = Sys.getenv_opt "DESIGN_CHAOS" <> None
let count n = if heavy then n * 5 else n
let prng seed = Util.Prng.create seed

module J = Util.Json

(* --- scratch directories --- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "router_recovery_%d_%d" (Unix.getpid ()) !n)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let with_dirs n f =
  let dirs = List.init n (fun _ -> fresh_dir ()) in
  Fun.protect ~finally:(fun () -> List.iter rm_rf dirs) (fun () -> f dirs)

(* --- reply plumbing (same idioms as test_service.ml) --- *)

let ok_of_reply line =
  match J.of_string line with
  | Ok json -> Option.bind (J.member "ok" json) J.to_bool_opt = Some true
  | Error _ -> false

let result_of_reply line name =
  match J.of_string line with
  | Ok json -> Option.bind (J.member "result" json) (J.member name)
  | Error _ -> None

let gen_of_reply line =
  match J.of_string line with
  | Ok json -> Option.bind (J.member "gen" json) J.to_int_opt
  | Error _ -> None

let one_reply server line =
  match Service.Server.handle_line server line with
  | [ reply ] -> reply
  | replies ->
      Alcotest.failf "expected one reply to %s, got %d" line
        (List.length replies)

let fast_config =
  {
    Router.Config.default with
    Router.Config.use_astar = true;
    kernel = Maze.Search.Buckets;
    window_margin = Some 4;
  }

(* fsync off: these tests simulate process death in-process, so OS
   buffers survive by construction and the suite stays fast. *)
let durable_server ?(router = fast_config) ?(chaos = Router.Chaos.none)
    ?(snapshot_every = 3) ?(idle_ticks = 10_000) ~dir () =
  Service.Server.create
    ~config:
      {
        Service.Server.default_config with
        Service.Server.router;
        chaos;
        idle_ticks;
        data_dir = Some dir;
        snapshot_every;
        fsync = false;
      }
    ()

let open_line ?(rid = 1) ~session problem =
  J.to_string
    (J.Obj
       [
         ("id", J.Int rid);
         ("op", J.String "open");
         ("session", J.String session);
         ("problem", J.String (Netlist.Parse.to_string problem));
       ])

(* The full observable state of one session, as a comparable string:
   generation + last request id + canonical problem text (wiring as
   pre-wires) + via set + frozen set + rendered layout. *)
let vias_text vias =
  String.concat ";"
    (List.map (fun (l, x, y) -> Printf.sprintf "%d,%d,%d" l x y) vias)

let fingerprint_in registry name =
  match Service.Registry.find registry name with
  | None -> "<missing>"
  | Some e ->
      let s = Service.Registry.session e in
      let problem, vias, frozen = Router.Session.checkpoint s in
      Printf.sprintf "gen=%d rid=%d\n%s\nvias=%s\nfrozen=%s\n%s"
        (Service.Registry.generation e)
        (Service.Registry.last_rid e)
        (Netlist.Parse.to_string problem)
        (vias_text vias) (String.concat "," frozen)
        (Viz.Ascii.render (Router.Session.grid s))

let fingerprint server name =
  fingerprint_in (Service.Server.registry server) name

(* --- WAL unit tests --- *)

let record i =
  {
    Service.Wal.gen = i;
    rid = i;
    req = J.Obj [ ("op", J.String "rip"); ("net", J.Int i) ];
  }

let test_wal_roundtrip_and_torn_tail () =
  with_dirs 1 @@ fun dirs ->
  let path = Filename.concat (List.hd dirs) "a.wal" in
  let w = Service.Wal.create ~fsync:false path in
  List.iter (Service.Wal.append w) [ record 1; record 2; record 3 ];
  Service.Wal.close w;
  let recs, _, torn = Service.Wal.load path in
  Testkit.check_int "all records back" 3 (List.length recs);
  Testkit.check_false "no torn tail" torn;
  Testkit.check_true "payload survives"
    (List.map (fun r -> r.Service.Wal.gen) recs = [ 1; 2; 3 ]);
  (* A torn append: half a record, no newline. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  let half = Service.Wal.encode_record (record 4) in
  output_string oc (String.sub half 0 (String.length half / 2));
  close_out oc;
  let recs, valid_bytes, torn = Service.Wal.load path in
  Testkit.check_int "torn tail excluded" 3 (List.length recs);
  Testkit.check_true "torn tail detected" torn;
  (* Reopening truncates the torn tail and appends cleanly after it. *)
  let w =
    Service.Wal.reopen ~fsync:false path ~valid_bytes
      ~records:(List.length recs)
  in
  Testkit.check_int "reopen counts valid prefix" 3 (Service.Wal.records w);
  Service.Wal.append w (record 5);
  Service.Wal.close w;
  let recs, _, torn = Service.Wal.load path in
  Testkit.check_false "clean after repair" torn;
  Testkit.check_true "append after truncation"
    (List.map (fun r -> r.Service.Wal.gen) recs = [ 1; 2; 3; 5 ])

let test_wal_crc_rejects_corruption () =
  with_dirs 1 @@ fun dirs ->
  let path = Filename.concat (List.hd dirs) "b.wal" in
  let w = Service.Wal.create ~fsync:false path in
  List.iter (Service.Wal.append w) [ record 1; record 2; record 3 ];
  Service.Wal.close w;
  (* Flip one byte inside the second record's JSON. *)
  let data = In_channel.with_open_bin path In_channel.input_all in
  let line1_len = String.index data '\n' + 1 in
  let bytes = Bytes.of_string data in
  let target = line1_len + 12 in
  Bytes.set bytes target
    (if Bytes.get bytes target = 'x' then 'y' else 'x');
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc bytes);
  let recs, _, torn = Service.Wal.load path in
  (* Everything from the corrupt record on is gone — including the valid
     record behind it: replaying past a hole would reorder history. *)
  Testkit.check_int "valid prefix only" 1 (List.length recs);
  Testkit.check_true "corruption detected" torn

let test_wal_kill_points () =
  with_dirs 1 @@ fun dirs ->
  let path = Filename.concat (List.hd dirs) "c.wal" in
  let chaos = Router.Chaos.create ~seed:1 () in
  let w = Service.Wal.create ~chaos ~fsync:false path in
  Service.Wal.append w (record 1);
  (* Kill before the next append touches the file: record 2 must leave
     no trace. *)
  Router.Chaos.arm_kill chaos ~after:0;
  (match Service.Wal.append w (record 2) with
  | () -> Alcotest.fail "kill point did not fire"
  | exception Router.Chaos.Killed name ->
      Testkit.check_true "pre-append point" (name = "wal:pre-append"));
  let recs, _, torn = Service.Wal.load path in
  Testkit.check_int "nothing written" 1 (List.length recs);
  Testkit.check_false "no torn tail" torn;
  (* Kill mid-record: the flushed half must read back as a torn tail. *)
  Router.Chaos.arm_kill chaos ~after:1;
  (match Service.Wal.append w (record 2) with
  | () -> Alcotest.fail "kill point did not fire"
  | exception Router.Chaos.Killed name ->
      Testkit.check_true "mid-record point" (name = "wal:mid-record"));
  let recs, _, torn = Service.Wal.load path in
  Testkit.check_int "valid prefix" 1 (List.length recs);
  Testkit.check_true "torn record on disk" torn

let test_wal_name_encoding () =
  List.iter
    (fun name ->
      let key = Service.Wal.file_key name in
      Testkit.check_true
        (Printf.sprintf "key %S is filename-safe" key)
        (String.for_all
           (fun c ->
             match c with
             | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '%' -> true
             | _ -> false)
           key);
      Testkit.check_true
        (Printf.sprintf "%S round-trips" name)
        (Service.Wal.key_name key = Some name))
    [ "plain"; "with space"; "sl/ash"; "dots.and..more"; "uni\xc3\xa9"; "" ]

(* --- snapshot atomicity --- *)

let test_snapshot_atomic_under_kill () =
  with_dirs 1 @@ fun dirs ->
  let path = Filename.concat (List.hd dirs) "s.snap" in
  let problem =
    Workload.Gen.routable_switchbox (prng 7) ~width:8 ~height:6
  in
  let session = Router.Session.create ~config:fast_config problem in
  ignore (Router.Session.route session);
  let cp_problem, vias, frozen = Router.Session.checkpoint session in
  let write ?chaos ~gen () =
    Service.Snapshot.write ?chaos ~fsync:false ~gen ~last_rid:gen ~vias
      ~frozen cp_problem path
  in
  write ~gen:1 ();
  (match Service.Snapshot.read path with
  | Ok info ->
      Testkit.check_int "gen back" 1 info.Service.Snapshot.gen;
      Testkit.check_true "same layout"
        (Grid.equal (Router.Session.grid session)
           (Router.Session.grid
              (Router.Session.of_checkpoint
                 ~vias:info.Service.Snapshot.vias
                 ~frozen:info.Service.Snapshot.frozen
                 info.Service.Snapshot.problem)))
  | Error msg -> Alcotest.failf "snapshot read failed: %s" msg);
  (* Crash at every point of the next write: the gen-1 snapshot must
     stay readable until the rename, after which gen 2 is live. *)
  let chaos = Router.Chaos.create ~seed:2 () in
  List.iter
    (fun (after, expected_gen) ->
      Router.Chaos.arm_kill chaos ~after;
      (match write ~chaos ~gen:2 () with
      | () -> Alcotest.fail "kill point did not fire"
      | exception Router.Chaos.Killed _ -> ());
      match Service.Snapshot.read path with
      | Ok info ->
          Testkit.check_int
            (Printf.sprintf "complete snapshot after kill %d" after)
            expected_gen info.Service.Snapshot.gen
      | Error msg -> Alcotest.failf "snapshot unreadable: %s" msg)
    [ (0, 1) (* mid-write *); (1, 1) (* pre-rename *); (2, 2) (* renamed *) ];
  (* A truncated snapshot file is rejected, not misread. *)
  write ~gen:3 ();
  let data = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub data 0 (String.length data - 7)));
  match Service.Snapshot.read path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated snapshot must not read back"

(* Every single-bit flip of the header line reads back as an error or as
   the unchanged snapshot: the CRC covers the generation and the last
   request id, not only the body.  A version-1 file, whose CRC covers
   the body alone, still reads. *)
let test_snapshot_header_checksummed () =
  with_dirs 1 @@ fun dirs ->
  let path = Filename.concat (List.hd dirs) "h.snap" in
  let problem =
    Workload.Gen.routable_switchbox (prng 7) ~width:8 ~height:6
  in
  Service.Snapshot.write ~fsync:false ~gen:13 ~last_rid:25 ~vias:[]
    ~frozen:[] problem path;
  let data = In_channel.with_open_bin path In_channel.input_all in
  let header_len = String.index data '\n' + 1 in
  let overwrite bytes =
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes)
  in
  for bit = 0 to (8 * header_len) - 1 do
    let b = Bytes.of_string data in
    Bytes.set b (bit / 8)
      (Char.chr (Char.code data.[bit / 8] lxor (1 lsl (bit mod 8))));
    overwrite (Bytes.to_string b);
    match Service.Snapshot.read path with
    | Error _ -> ()
    | Ok info ->
        Testkit.check_true
          (Printf.sprintf "header bit %d: read back unchanged" bit)
          (info.Service.Snapshot.gen = 13 && info.Service.Snapshot.last_rid = 25)
  done;
  let body = String.sub data header_len (String.length data - header_len) in
  overwrite
    (Printf.sprintf "walsnap 1 13 25 %d %s\n%s" (String.length body)
       (Util.Crc.to_hex (Util.Crc.string body))
       body);
  match Service.Snapshot.read path with
  | Ok info -> Testkit.check_int "version 1 still reads" 13 info.Service.Snapshot.gen
  | Error msg -> Alcotest.failf "version 1 snapshot unreadable: %s" msg

(* --- server restart (deterministic smoke) --- *)

let trace_line rng i session =
  match Util.Prng.int rng 10 with
  | 0 | 1 ->
      let x () = Util.Prng.int rng 10 and y () = Util.Prng.int rng 8 in
      Printf.sprintf
        {|{"id":%d,"op":"add_net","session":"%s","name":"t%d","pins":[[%d,%d],[%d,%d]]}|}
        (i + 2) session i (x ()) (y ()) (x ()) (y ())
  | 2 | 3 ->
      Printf.sprintf {|{"id":%d,"op":"rip","session":"%s","net":%d}|} (i + 2)
        session
        (1 + Util.Prng.int rng 6)
  | 4 ->
      Printf.sprintf {|{"id":%d,"op":"remove_net","session":"%s","net":%d}|}
        (i + 2) session
        (1 + Util.Prng.int rng 6)
  | 5 ->
      Printf.sprintf {|{"id":%d,"op":"freeze","session":"%s","net":%d}|}
        (i + 2) session
        (1 + Util.Prng.int rng 6)
  | 6 ->
      Printf.sprintf {|{"id":%d,"op":"thaw","session":"%s","net":%d}|} (i + 2)
        session
        (1 + Util.Prng.int rng 6)
  | 7 -> Printf.sprintf {|{"id":%d,"op":"refine","session":"%s"}|} (i + 2) session
  | _ -> Printf.sprintf {|{"id":%d,"op":"route","session":"%s"}|} (i + 2) session

let test_restart_recovers_sessions () =
  with_dirs 1 @@ fun dirs ->
  let dir = List.hd dirs in
  let problem =
    Workload.Gen.routable_switchbox (prng 42) ~width:10 ~height:8
  in
  let s1 = durable_server ~dir ~snapshot_every:100 () in
  Testkit.check_true "open" (ok_of_reply (one_reply s1 (open_line ~session:"w" problem)));
  Testkit.check_true "route"
    (ok_of_reply (one_reply s1 {|{"id":2,"op":"route","session":"w"}|}));
  Testkit.check_true "freeze"
    (ok_of_reply (one_reply s1 {|{"id":3,"op":"freeze","session":"w","net":1}|}));
  let before = fingerprint s1 "w" in
  (* No finalize, no flush: this restart replays the log alone. *)
  let s2 = durable_server ~dir () in
  Testkit.check_true "state survives the restart"
    (String.equal before (fingerprint s2 "w"));
  let stats = one_reply s2 {|{"op":"stats"}|} in
  let dur name =
    Option.bind (result_of_reply stats "durability") (fun d ->
        Option.bind (J.member name d) J.to_int_opt)
  in
  Testkit.check_true "one session recovered" (dur "sessions_recovered" = Some 1);
  Testkit.check_true "replay did the work"
    (match dur "records_replayed" with Some n -> n >= 2 | None -> false)

let test_graceful_finalize_compacts () =
  with_dirs 1 @@ fun dirs ->
  let dir = List.hd dirs in
  let problem =
    Workload.Gen.routable_switchbox (prng 43) ~width:10 ~height:8
  in
  let s1 = durable_server ~dir ~snapshot_every:100 () in
  ignore (one_reply s1 (open_line ~session:"g" problem));
  ignore (one_reply s1 {|{"id":2,"op":"route","session":"g"}|});
  let before = fingerprint s1 "g" in
  Service.Server.finalize s1;
  let wal = Filename.concat dir (Service.Wal.file_key "g" ^ ".wal") in
  Testkit.check_int "log compacted away" 0 (Unix.stat wal).Unix.st_size;
  let s2 = durable_server ~dir () in
  Testkit.check_true "state survives graceful shutdown"
    (String.equal before (fingerprint s2 "g"));
  let stats = one_reply s2 {|{"op":"stats"}|} in
  let replayed =
    Option.bind (result_of_reply stats "durability") (fun d ->
        Option.bind (J.member "records_replayed" d) J.to_int_opt)
  in
  Testkit.check_true "snapshot recovery replays nothing" (replayed = Some 0)

(* place and flow are journalled mutations: a restart that replays the
   log alone must reconstruct the annealed placement and the guided
   layout byte-for-byte (the ops journal their resolved seeds, so replay
   reruns the exact same schedule). *)
let test_flow_replay () =
  with_dirs 1 @@ fun dirs ->
  let dir = List.hd dirs in
  let problem =
    Workload.Gen.macro ~macros:4 (prng 5) ~width:48 ~height:40 ~nets:9
  in
  let s1 = durable_server ~dir ~snapshot_every:100 () in
  Testkit.check_true "open"
    (ok_of_reply (one_reply s1 (open_line ~session:"f" problem)));
  Testkit.check_true "flow"
    (ok_of_reply (one_reply s1 {|{"id":2,"op":"flow","session":"f"}|}));
  let before = fingerprint s1 "f" in
  (* No finalize: the restart replays the WAL alone. *)
  let s2 = durable_server ~dir () in
  Testkit.check_true "flow state survives replay"
    (String.equal before (fingerprint s2 "f"))

(* A committed flow replays un-budgeted, whatever budget the server's
   router config sets: the live request ran under its own [slo_ms]
   deadline, which replaces the config's expansion cap, so a replay
   under that cap would bring back a degraded layout as if it were the
   committed one. *)
let test_flow_replay_ignores_server_budget () =
  with_dirs 1 @@ fun dirs ->
  let dir = List.hd dirs in
  let router = { fast_config with Router.Config.max_expanded = Some 200 } in
  let s1 = durable_server ~router ~dir ~snapshot_every:100 () in
  Testkit.check_true "open"
    (ok_of_reply
       (one_reply s1
          (open_line ~session:"m" (Testkit.instance "macro_48x40"))));
  let flow =
    one_reply s1 {|{"id":2,"op":"flow","session":"m","slo_ms":60000}|}
  in
  Testkit.check_true "flow commits under its own budget" (ok_of_reply flow);
  Testkit.check_true "generation 1" (gen_of_reply flow = Some 1);
  let before = fingerprint s1 "m" in
  let s2 = durable_server ~router ~dir () in
  Testkit.check_true "replayed flow equals the live one"
    (String.equal before (fingerprint s2 "m"))

let test_duplicate_resubmission () =
  with_dirs 1 @@ fun dirs ->
  let dir = List.hd dirs in
  let problem =
    Workload.Gen.routable_switchbox (prng 44) ~width:10 ~height:8
  in
  let s = durable_server ~dir () in
  ignore (one_reply s (open_line ~session:"d" problem));
  let r1 = one_reply s {|{"id":7,"op":"route","session":"d"}|} in
  Testkit.check_true "route committed" (ok_of_reply r1);
  Testkit.check_true "gen 1" (gen_of_reply r1 = Some 1);
  (* The client never saw r1 and resends: same id, no second apply. *)
  let r2 = one_reply s {|{"id":7,"op":"route","session":"d"}|} in
  Testkit.check_true "resubmission acked" (ok_of_reply r2);
  Testkit.check_true "marked duplicate"
    (Option.bind (result_of_reply r2 "duplicate") J.to_bool_opt = Some true);
  Testkit.check_true "generation unchanged" (gen_of_reply r2 = Some 1);
  (* A fresh id applies normally again. *)
  let r3 = one_reply s {|{"id":8,"op":"rip","session":"d","net":1}|} in
  Testkit.check_true "next mutation applies" (gen_of_reply r3 = Some 2)

(* --- idle eviction x durability (satellite) --- *)

let test_eviction_parks_and_reattaches () =
  with_dirs 1 @@ fun dirs ->
  let dir = List.hd dirs in
  let problem =
    Workload.Gen.routable_switchbox (prng 45) ~width:10 ~height:8
  in
  let s = durable_server ~dir ~idle_ticks:2 () in
  ignore (one_reply s (open_line ~session:"park" problem));
  let r = one_reply s {|{"id":2,"op":"route","session":"park"}|} in
  Testkit.check_true "routed before parking" (gen_of_reply r = Some 1);
  let before = fingerprint s "park" in
  (* Session-less requests advance the logical clock past idle_ticks. *)
  for _ = 1 to 4 do
    ignore (one_reply s {|{"op":"stats"}|})
  done;
  Testkit.check_int "parked out of memory" 0
    (Service.Registry.count (Service.Server.registry s));
  Testkit.check_true "snapshot on disk"
    (Sys.file_exists
       (Filename.concat dir (Service.Wal.file_key "park" ^ ".snap")));
  (* Any touch resurrects it from disk, history intact. *)
  Testkit.check_true "reattached state identical"
    (String.equal before (fingerprint s "park"));
  let r = one_reply s {|{"id":3,"op":"rip","session":"park","net":1}|} in
  Testkit.check_true "generation monotone across park/reattach"
    (gen_of_reply r = Some 2);
  let stats = one_reply s {|{"op":"stats"}|} in
  let recovered =
    Option.bind (result_of_reply stats "durability") (fun d ->
        Option.bind (J.member "sessions_recovered" d) J.to_int_opt)
  in
  Testkit.check_true "reattach counted as recovery"
    (match recovered with Some n -> n >= 1 | None -> false)

(* --- WAL replay provenance (satellite) --- *)

let test_replay_error_provenance () =
  with_dirs 1 @@ fun dirs ->
  let dir = List.hd dirs in
  let path = Filename.concat dir (Service.Wal.file_key "bad" ^ ".wal") in
  (* A well-formed record whose problem text does not parse. *)
  let line =
    Service.Wal.encode_record
      {
        Service.Wal.gen = 0;
        rid = 1;
        req =
          J.Obj
            [
              ("op", J.String "open");
              ("problem", J.String "problem oops nope\n");
            ];
      }
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (line ^ "\n"));
  let r =
    Service.Registry.create ~config:fast_config
      ~data:{ Service.Registry.dir; snapshot_every = 4; fsync = false }
      ()
  in
  Testkit.check_true "recovery refused" (Service.Registry.find r "bad" = None);
  let err =
    match Service.Registry.durability_json r with
    | J.Obj fields -> (
        match List.assoc_opt "last_error" fields with
        | Some (J.String m) -> m
        | _ -> "")
    | _ -> ""
  in
  Testkit.check_true
    (Printf.sprintf "error %S names the journal record" err)
    (Testkit.contains err ("wal:" ^ path ^ "#0"))

(* --- damaged bytes: one bit flip or one truncation of the journal or
   the snapshot --- *)

(* Protocol per case:
   1. Run a random trace on one durable session, noting the session's
      fingerprint at every generation.  In journal mode nothing is ever
      snapshotted; in snapshot mode the run ends with [finalize], which
      leaves one snapshot and an empty journal.
   2. Flip one bit of that file, or cut it short.
   3. The file must still read sanely: [Wal.load] returns a prefix of the
      original records, [Snapshot.read] the original content or an
      [Error].
   4. A 2-shard server recovers the data directory without raising, and
      its worker domains then answer a render and a stats request.
   5. The recovered session is the state at the surviving prefix (the
      last surviving record's generation; absent when nothing that can
      open it survived), and whenever recovery dropped bytes it could
      see were damaged, [stats.durability.last_error] names the file. *)
let prop_damaged_bytes_recover_a_prefix =
  Testkit.qcheck ~count:(count 40)
    "bit flip or truncation of the journal or snapshot recovers a prefix"
    QCheck2.Gen.(
      quad (int_range 0 100_000) bool
        (* Half the damage lands in the first 48 bytes: the snapshot
           header and the first journal record's framing. *)
        (pair bool
           (frequency [ (1, int_range 0 383); (1, int_range 0 1_000_000) ]))
        (list_size (int_range 1 8) (int_range 0 999)))
    (fun (seed, snapshot_mode, (flip, where), codes) ->
      with_dirs 1 @@ fun dirs ->
      let dir = List.hd dirs in
      let name = "s" in
      let problem = Workload.Gen.switchbox (prng seed) ~width:10 ~height:8 ~nets:4 in
      let lines =
        let rng = prng (seed lxor 0xDA3A) in
        open_line ~rid:1000 ~session:name problem
        :: List.mapi (fun i _ -> trace_line rng i name) codes
      in
      (* 1: the live run, and the state at each generation. *)
      let live =
        durable_server ~dir
          ~snapshot_every:(if snapshot_mode then 2 else 1_000_000)
          ()
      in
      let states = Hashtbl.create 16 in
      List.iter
        (fun line ->
          ignore (one_reply live line);
          match Service.Registry.find (Service.Server.registry live) name with
          | Some e ->
              Hashtbl.replace states (Service.Registry.generation e)
                (fingerprint live name)
          | None -> ())
        lines;
      let final = fingerprint live name in
      if snapshot_mode then Service.Server.finalize live;
      let file =
        Filename.concat dir
          (Service.Wal.file_key name ^ if snapshot_mode then ".snap" else ".wal")
      in
      let describe (i : Service.Snapshot.info) =
        Printf.sprintf "gen=%d rid=%d vias=%s frozen=%s\n%s" i.gen i.last_rid
          (vias_text i.vias) (String.concat "," i.frozen)
          (Netlist.Parse.to_string i.problem)
      in
      let original_records, original_snapshot =
        if snapshot_mode then
          match Service.Snapshot.read file with
          | Ok info -> ([], describe info)
          | Error msg -> Alcotest.failf "fresh snapshot unreadable: %s" msg
        else
          let records, _, _ = Service.Wal.load file in
          (records, "")
      in
      (* 2: damage it. *)
      let data = In_channel.with_open_bin file In_channel.input_all in
      let len = String.length data in
      let damaged =
        if flip && len > 0 then begin
          let b = Bytes.of_string data in
          let bit = where mod (8 * len) in
          Bytes.set b (bit / 8)
            (Char.chr (Char.code data.[bit / 8] lxor (1 lsl (bit mod 8))));
          Bytes.to_string b
        end
        else String.sub data 0 (where mod (len + 1))
      in
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc damaged);
      let dir_bytes () =
        List.map
          (fun f ->
            let path = Filename.concat dir f in
            (f, In_channel.with_open_bin path In_channel.input_all))
          (List.sort compare (Array.to_list (Sys.readdir dir)))
      in
      let damaged_dir = dir_bytes () in
      (* 3: the damaged file reads back sanely. *)
      let detected, expected =
        if snapshot_mode then
          match Service.Snapshot.read file with
          | Ok info ->
              if describe info <> original_snapshot then
                QCheck2.Test.fail_reportf
                  "damaged snapshot read back changed:\n%s" (describe info);
              (false, final)
          | Error _ -> (true, "<missing>")
        else begin
          let records, _, torn = Service.Wal.load file in
          let k = List.length records in
          if records <> List.filteri (fun i _ -> i < k) original_records then
            QCheck2.Test.fail_reportf "damaged journal is not a prefix";
          match List.rev records with
          | [] -> (true, "<missing>")
          | last :: _ -> (torn, Hashtbl.find states last.Service.Wal.gen)
        end
      in
      (* 4: recover on two shards and serve through live workers. *)
      let s =
        Service.Server.create
          ~config:
            {
              Service.Server.default_config with
              Service.Server.router = fast_config;
              data_dir = Some dir;
              fsync = false;
              shards = 2;
            }
          ()
      in
      let replies = Array.make 2 [] in
      let m = Mutex.create () in
      let emit client reply =
        Mutex.protect m (fun () -> replies.(client) <- reply :: replies.(client))
      in
      let workers = Service.Server.start_workers s ~emit in
      List.iteri
        (fun client line ->
          Option.iter (emit client) (Service.Server.submit s ~client line))
        [ Printf.sprintf {|{"id":1,"op":"render","session":"%s"}|} name;
          {|{"id":2,"op":"stats"}|} ];
      Service.Server.quiesce s;
      Service.Server.stop_workers s workers;
      let well_formed r =
        match J.of_string r with
        | Ok (J.Obj _ as j) -> Option.bind (J.member "ok" j) J.to_bool_opt <> None
        | _ -> false
      in
      Array.iteri
        (fun i rs ->
          match rs with
          | [ r ] when well_formed r -> ()
          | _ ->
              QCheck2.Test.fail_reportf "request %d got [%s]" i
                (String.concat "; " rs))
        replies;
      (* 5: the surviving prefix, and the damage reported. *)
      let recovered = fingerprint_in (Service.Server.registry_for s name) name in
      if not (String.equal recovered expected) then
        QCheck2.Test.fail_reportf
          "recovered state is not the surviving prefix:\n%s\nexpected:\n%s"
          recovered expected;
      (* A refused session leaves its files for post-mortem inspection:
         byte for byte what step 2 wrote, and no new file. *)
      if recovered = "<missing>" && dir_bytes () <> damaged_dir then
        QCheck2.Test.fail_reportf "a failed recovery changed the data directory";
      let last_error =
        match J.of_string (List.hd replies.(1)) with
        | Ok j ->
            Option.bind (J.member "result" j) (J.member "durability")
            |> Fun.flip Option.bind (J.member "last_error")
            |> Fun.flip Option.bind J.to_string_opt
        | Error _ -> None
      in
      (if detected then
         match last_error with
         | Some msg when Testkit.contains msg file -> ()
         | Some msg ->
             QCheck2.Test.fail_reportf "last_error %S does not name %s" msg file
         | None -> QCheck2.Test.fail_reportf "damage to %s not reported" file);
      true)

(* --- the flagship qcheck property: crash anywhere, recover, converge --- *)

(* Protocol per iteration:
   1. COUNT: run the trace on a durable server with a disarmed kill
      injector; record the never-crashed fingerprints and the number of
      kill points T the trace traverses.
   2. KILL: re-run on a fresh directory with the injector armed at
      K in [0, T): the server dies mid-request with [Killed].
   3. RECOVER: build a new server over the same directory (recovery =
      snapshot + WAL tail replay), resubmit the un-acked request (same
      id — the dedup layer must not double-apply), then the rest of the
      trace.
   4. The recovered run's fingerprints must equal the never-crashed
      run's, for every session. *)
let prop_crash_anywhere_recovers =
  Testkit.qcheck ~count:(count 12)
    "crash at any kill point, recover, state converges"
    QCheck2.Gen.(
      triple (int_range 0 100_000) (int_range 0 1_000_000)
        (list_size (int_range 2 12) (int_range 0 999)))
    (fun (seed, kill_choice, codes) ->
      let sessions = [ "a"; "b" ] in
      let problems =
        List.mapi
          (fun i name ->
            ( name,
              Workload.Gen.switchbox
                (prng (seed + i))
                ~width:10 ~height:8 ~nets:4 ))
          sessions
      in
      let lines =
        let rng = prng (seed lxor 0x7E57) in
        List.mapi
          (fun i name -> open_line ~rid:(i + 1000) ~session:name (List.assoc name problems))
          sessions
        @ List.mapi
            (fun i code ->
              trace_line rng i
                (List.nth sessions (code mod List.length sessions)))
            codes
      in
      let fingerprints server =
        List.map (fun name -> fingerprint server name) sessions
      in
      (* 1: count kill points and record the reference state. *)
      let reference, points =
        with_dirs 1 @@ fun dirs ->
        let chaos = Router.Chaos.create ~seed () in
        let s = durable_server ~chaos ~dir:(List.hd dirs) () in
        List.iter (fun line -> ignore (one_reply s line)) lines;
        (fingerprints s, Router.Chaos.kill_points chaos)
      in
      if points = 0 then Alcotest.fail "durable trace traversed no kill points";
      (* 2+3: die at kill point K, restart, resubmit, finish. *)
      let k = kill_choice mod points in
      with_dirs 1 @@ fun dirs ->
      let dir = List.hd dirs in
      let chaos = Router.Chaos.create ~seed () in
      Router.Chaos.arm_kill chaos ~after:k;
      let s = durable_server ~chaos ~dir () in
      let rec run s = function
        | [] -> s
        | line :: rest -> (
            match one_reply s line with
            | (_ : string) -> run s rest
            | exception Router.Chaos.Killed _ ->
                (* The process is gone: everything in memory is dropped,
                   a new server recovers from disk, and the client —
                   which never saw a reply for [line] — resends it. *)
                let s' = durable_server ~dir () in
                run s' (line :: rest))
      in
      let s = run s lines in
      List.for_all2 String.equal reference (fingerprints s))

let () =
  Alcotest.run "recovery"
    [
      ( "wal",
        [
          Alcotest.test_case "roundtrip and torn tail" `Quick
            test_wal_roundtrip_and_torn_tail;
          Alcotest.test_case "crc rejects corruption" `Quick
            test_wal_crc_rejects_corruption;
          Alcotest.test_case "kill points" `Quick test_wal_kill_points;
          Alcotest.test_case "name encoding" `Quick test_wal_name_encoding;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "atomic under kill" `Quick
            test_snapshot_atomic_under_kill;
          Alcotest.test_case "header checksummed" `Quick
            test_snapshot_header_checksummed;
        ] );
      ( "restart",
        [
          Alcotest.test_case "replay recovers sessions" `Quick
            test_restart_recovers_sessions;
          Alcotest.test_case "graceful finalize compacts" `Quick
            test_graceful_finalize_compacts;
          Alcotest.test_case "duplicate resubmission" `Quick
            test_duplicate_resubmission;
          Alcotest.test_case "flow replay" `Quick test_flow_replay;
          Alcotest.test_case "flow replay ignores server budget" `Quick
            test_flow_replay_ignores_server_budget;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "eviction parks and reattaches" `Quick
            test_eviction_parks_and_reattaches;
          Alcotest.test_case "replay error provenance" `Quick
            test_replay_error_provenance;
        ] );
      ( "chaos",
        [ prop_crash_anywhere_recovers; prop_damaged_bytes_recover_a_prefix ] );
    ]
