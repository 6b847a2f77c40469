module J = Util.Json

type data = { dir : string; snapshot_every : int; fsync : bool }

type entry = {
  name : string;
  mutable session : Router.Session.t;
  mutable gen : int;
  mutable last_used : int;
  mutable wal : Wal.t option;
  mutable last_rid : int;
}

type counters = {
  mutable snapshots_written : int;
  mutable sessions_recovered : int;
  mutable records_replayed : int;
  mutable torn_tails : int;
  mutable recover_failures : int;
  mutable last_error : string option;
}

type t = {
  config : Router.Config.t;
  chaos : Router.Chaos.t;
  max_sessions : int;
  idle_ticks : int;
  data : data option;
  (* Shard-affinity filter: on a sharded server each shard's registry
     recovers only the on-disk sessions it owns, so two shards never
     open the same WAL.  [fun _ -> true] on unsharded registries. *)
  owns : string -> bool;
  sessions : (string, entry) Hashtbl.t;
  counters : counters;
  mutable clock : int;
}

let wal_path data name = Filename.concat data.dir (Wal.file_key name ^ ".wal")

let snap_path data name =
  Filename.concat data.dir (Wal.file_key name ^ ".snap")

let count t = Hashtbl.length t.sessions

let session e = e.session

let generation e = e.gen

let last_rid e = e.last_rid

let is_duplicate e ~rid = rid <> 0 && rid = e.last_rid

let bump e = e.gen <- e.gen + 1

(* --- durability plumbing --- *)

let write_snapshot t e =
  match t.data with
  | None -> ()
  | Some data ->
      let problem, vias, frozen = Router.Session.checkpoint e.session in
      Snapshot.write ~chaos:t.chaos ~fsync:data.fsync ~gen:e.gen
        ~last_rid:e.last_rid ~vias ~frozen problem (snap_path data e.name);
      t.counters.snapshots_written <- t.counters.snapshots_written + 1;
      (match e.wal with Some w -> Wal.truncate w | None -> ())

let commit t e ~rid op =
  bump e;
  if rid <> 0 then e.last_rid <- rid;
  match (t.data, e.wal) with
  | Some data, Some wal ->
      Wal.append wal { Wal.gen = e.gen; rid; req = Proto.op_to_json op };
      if Wal.records wal >= data.snapshot_every then write_snapshot t e
  | _ -> ()

(* Replay one WAL record through the normal session mutation path.  A
   committed [route] replays with an explicitly unlimited budget: the
   live request finished inside whatever budget it ran under, and the
   engine is deterministic given (state, config, seed), so the
   un-budgeted rerun reconverges on the same layout. *)
let apply_op session (op : Proto.op) =
  let resolve target =
    match target with
    | Proto.Net_id id -> Ok id
    | Proto.Net_name name -> (
        match Router.Session.net_id session name with
        | Some id -> Ok id
        | None -> Error (Printf.sprintf "unknown net %S" name))
  in
  let on_net target f =
    Result.bind (resolve target) (fun net -> f session ~net)
  in
  match op with
  | Proto.Route _ -> (
      match
        Router.Session.try_route ~budget:(Router.Budget.unlimited ()) session
      with
      | Ok _ -> Ok ()
      | Error reason -> Error (Router.Budget.reason_to_string reason))
  | Proto.Add_net { name; pins } ->
      Result.map
        (fun (_ : int) -> ())
        (Router.Session.add_net session ~name pins)
  | Proto.Remove_net target -> on_net target Router.Session.remove_net
  | Proto.Rip target -> on_net target Router.Session.rip
  | Proto.Freeze target -> on_net target Router.Session.freeze
  | Proto.Thaw target -> on_net target Router.Session.thaw
  | Proto.Refine { max_passes } ->
      let (_ : Router.Improve.stats) =
        Router.Session.refine ?max_passes session
      in
      Ok ()
  | Proto.Place { seed } -> (
      let problem = Router.Session.problem session in
      if not (Netlist.Problem.has_insts problem) then
        Error "place: the problem has no placement section"
      else
        let seed =
          match seed with
          | Some s -> s
          | None -> (Router.Session.config session).Router.Config.seed
        in
        match Place.place ~seed problem with
        | Error e -> Error e
        | Ok (placed, _) -> (
            match Netlist.Problem.realize placed with
            | exception Invalid_argument msg -> Error msg
            | realized ->
                Router.Session.install session ~problem:realized
                  ~grid:(Netlist.Problem.instantiate realized)))
  | Proto.Flow_run { seed; tile; slo_ms = _ } -> (
      (* Committed flows replay with an explicitly unlimited budget, like
         [Route]: the live request only commits non-degraded results, and
         the pipeline is deterministic given (problem, config, seed).
         Without a budget the engine would build one from the router
         config, which the live request's own budget replaced. *)
      let config = Router.Session.config session in
      let seed =
        match seed with Some s -> s | None -> config.Router.Config.seed
      in
      match
        Flow.run ~config ~budget:(Router.Budget.unlimited ()) ~seed ?tile
          (Router.Session.problem session)
      with
      | Error e -> Error e
      | exception Invalid_argument msg -> Error msg
      | Ok f ->
          Router.Session.install session ~problem:f.Flow.realized
            ~grid:f.Flow.result.Router.Engine.grid)
  | Proto.Open _ | Proto.Groute _ | Proto.Analyze _ | Proto.Verify
  | Proto.Render | Proto.Stats | Proto.Close | Proto.Shutdown ->
      Error (Printf.sprintf "op %S cannot appear mid-log" (Proto.op_name op))

let provenance path idx = Printf.sprintf "wal:%s#%d" path idx

(* Rebuild one session from its on-disk state: newest valid snapshot if
   any, then the WAL tail (records with [gen] beyond the snapshot's —
   the gen filter makes a crash between snapshot rename and WAL
   truncation harmless, the overlapping records just skip).  Without a
   snapshot the WAL must start with its [open] record.  The files are
   only read until the replay succeeds: a refused session leaves them as
   they were. *)
let recover_session t data name =
  let file = wal_path data name in
  let records, valid_bytes, torn = Wal.load file in
  let note msg = t.counters.last_error <- Some msg in
  (* Snapshots are renamed into place complete, so one that exists and
     does not read is damaged: report it, whether or not the log can
     stand in for it. *)
  let snap = snap_path data name in
  let snapshot = Snapshot.read snap in
  let damaged_snapshot =
    match snapshot with
    | Error msg when Sys.file_exists snap ->
        let msg = Printf.sprintf "snapshot:%s: %s" snap msg in
        note msg;
        Some msg
    | Ok _ | Error _ -> None
  in
  let fail msg =
    match damaged_snapshot with
    | Some damage -> Error (damage ^ "; " ^ msg)
    | None -> Error msg
  in
  let base =
    match snapshot with
    | Ok info ->
        let session =
          Router.Session.of_checkpoint ~config:t.config ~chaos:t.chaos
            ~vias:info.Snapshot.vias ~frozen:info.Snapshot.frozen
            info.Snapshot.problem
        in
        Ok (session, info.Snapshot.gen, info.Snapshot.last_rid)
    | Error _ -> (
        (* No usable snapshot: the log must open the session itself. *)
        match records with
        | { Wal.req; rid; _ } :: _ -> (
            match Proto.op_of_json req with
            | Ok (Proto.Open { problem_text = Some text; _ }) -> (
                match
                  Netlist.Parse.of_string ~src:(provenance file 0) text
                with
                | Ok problem ->
                    Ok
                      ( Router.Session.create ~config:t.config ~chaos:t.chaos
                          problem,
                        0,
                        rid )
                | Error e -> Error (Netlist.Parse.error_to_string e))
            | Ok _ ->
                Error
                  (Printf.sprintf "%s: log does not start with an open record"
                     (provenance file 0))
            | Error msg ->
                Error (Printf.sprintf "%s: %s" (provenance file 0) msg))
        | [] ->
            Error
              (Printf.sprintf "%s: no snapshot and an empty log"
                 (provenance file 0)))
  in
  match base with
  | Error msg -> fail msg
  | Ok (session, base_gen, base_rid) -> (
      let replay () =
        List.fold_left
          (fun acc (idx, { Wal.gen; rid; req }) ->
            Result.bind acc (fun (g, r) ->
                if gen <= base_gen then Ok (g, r)
                else
                  match Proto.op_of_json req with
                  | Error msg ->
                      Error (Printf.sprintf "%s: %s" (provenance file idx) msg)
                  | Ok op -> (
                      match apply_op session op with
                      | Ok () ->
                          t.counters.records_replayed <-
                            t.counters.records_replayed + 1;
                          Ok (gen, if rid <> 0 then rid else r)
                      | Error msg ->
                          Error
                            (Printf.sprintf "%s: %s" (provenance file idx) msg)
                      )))
          (Ok (base_gen, base_rid))
          (List.mapi (fun i r -> (i, r)) records)
      in
      match Router.Chaos.with_paused t.chaos replay with
      | Error msg -> fail msg
      | Ok (gen, rid) ->
          if torn then begin
            t.counters.torn_tails <- t.counters.torn_tails + 1;
            note
              (Printf.sprintf "%s: dropped a damaged journal tail"
                 (provenance file (List.length records)))
          end;
          let wal =
            Wal.reopen ~chaos:t.chaos ~fsync:data.fsync file ~valid_bytes
              ~records:(List.length records)
          in
          let e =
            {
              name;
              session;
              gen;
              last_used = t.clock;
              wal = Some wal;
              last_rid = rid;
            }
          in
          Hashtbl.replace t.sessions name e;
          t.counters.sessions_recovered <- t.counters.sessions_recovered + 1;
          Ok e)

let has_disk_state data name =
  Sys.file_exists (wal_path data name) || Sys.file_exists (snap_path data name)

(* Reattach a session from disk, respecting the session cap.  Failures
   count in [recover_failures] and leave the files untouched for post
   mortem inspection. *)
let maybe_recover t name =
  match t.data with
  | None -> None
  | Some data ->
      if
        (not (t.owns name))
        || (not (has_disk_state data name))
        || count t >= t.max_sessions
      then None
      else (
        match recover_session t data name with
        | Ok e -> Some e
        | Error msg ->
            t.counters.recover_failures <- t.counters.recover_failures + 1;
            t.counters.last_error <- Some msg;
            None)

let recover_all t =
  match t.data with
  | None -> 0
  | Some data ->
      let keys = Hashtbl.create 16 in
      Array.iter
        (fun file ->
          match Filename.chop_suffix_opt file ~suffix:".wal" with
          | Some key -> Hashtbl.replace keys key ()
          | None -> (
              match Filename.chop_suffix_opt file ~suffix:".snap" with
              | Some key -> Hashtbl.replace keys key ()
              | None -> ()))
        (try Sys.readdir data.dir with Sys_error _ -> [||]);
      let names =
        List.sort String.compare
          (Hashtbl.fold
             (fun key () acc ->
               match Wal.key_name key with
               | Some name when t.owns name -> name :: acc
               | Some _ | None -> acc)
             keys [])
      in
      List.fold_left
        (fun recovered name ->
          if Hashtbl.mem t.sessions name then recovered
          else
            match maybe_recover t name with
            | Some _ -> recovered + 1
            | None -> recovered)
        0 names

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?(config = Router.Config.default) ?(chaos = Router.Chaos.none)
    ?(max_sessions = 64) ?(idle_ticks = 10_000) ?(owns = fun _ -> true)
    ?data () =
  (match data with Some d -> mkdir_p d.dir | None -> ());
  let t =
    {
      config;
      chaos;
      max_sessions = max 1 max_sessions;
      idle_ticks = max 1 idle_ticks;
      data;
      owns;
      sessions = Hashtbl.create 16;
      counters =
        {
          snapshots_written = 0;
          sessions_recovered = 0;
          records_replayed = 0;
          torn_tails = 0;
          recover_failures = 0;
          last_error = None;
        };
      clock = 0;
    }
  in
  let (_ : int) = recover_all t in
  t

let open_session t ~name ?(rid = 0) problem =
  if Hashtbl.mem t.sessions name then Error `Exists
  else
    match maybe_recover t name with
    | Some _ -> Error `Exists
    | None ->
        if count t >= t.max_sessions then Error (`Cap t.max_sessions)
        else begin
          let session =
            Router.Session.create ~config:t.config ~chaos:t.chaos problem
          in
          let wal =
            match t.data with
            | None -> None
            | Some data ->
                (* A fresh open supersedes whatever an earlier life of
                   this name left behind. *)
                (try Sys.remove (snap_path data name)
                 with Sys_error _ -> ());
                let w =
                  Wal.create ~chaos:t.chaos ~fsync:data.fsync
                    (wal_path data name)
                in
                Wal.append w
                  {
                    Wal.gen = 0;
                    rid;
                    req =
                      Proto.op_to_json
                        (Proto.Open
                           {
                             (* Canonical text, not the client's bytes or a
                                file path: the file may change or vanish
                                before recovery replays this record. *)
                             problem_text =
                               Some (Netlist.Parse.to_string problem);
                             file = None;
                           });
                  };
                Some w
          in
          let e =
            {
              name;
              session;
              gen = 0;
              last_used = t.clock;
              wal;
              last_rid = rid;
            }
          in
          Hashtbl.replace t.sessions name e;
          Ok e
        end

let find t name =
  match Hashtbl.find_opt t.sessions name with
  | None -> (
      match maybe_recover t name with
      | None -> None
      | Some e ->
          e.last_used <- t.clock;
          Some e)
  | Some e ->
      e.last_used <- t.clock;
      Some e

let close t name =
  match Hashtbl.find_opt t.sessions name with
  | None -> false
  | Some e ->
      (match e.wal with Some w -> Wal.close w | None -> ());
      (match t.data with
      | Some data ->
          (try Sys.remove (wal_path data name) with Sys_error _ -> ());
          (try Sys.remove (snap_path data name) with Sys_error _ -> ())
      | None -> ());
      Hashtbl.remove t.sessions name;
      true

let names t =
  List.sort String.compare
    (Hashtbl.fold (fun name _ acc -> name :: acc) t.sessions [])

(* Park a session on disk: final snapshot (compacting the WAL away),
   then drop the in-memory half.  [find] resurrects it on demand. *)
let park t e =
  write_snapshot t e;
  (match e.wal with Some w -> Wal.close w | None -> ());
  Hashtbl.remove t.sessions e.name

let tick t =
  t.clock <- t.clock + 1;
  let stale =
    Hashtbl.fold
      (fun name e acc ->
        if t.clock - e.last_used > t.idle_ticks then (name, e) :: acc else acc)
      t.sessions []
  in
  let stale =
    List.sort (fun (a, _) (b, _) -> String.compare a b) stale
  in
  List.iter
    (fun (_, e) ->
      match t.data with
      | Some _ -> park t e
      | None -> Hashtbl.remove t.sessions e.name)
    stale;
  List.map fst stale

let flush_all t =
  match t.data with
  | None -> ()
  | Some _ ->
      List.iter
        (fun name ->
          match Hashtbl.find_opt t.sessions name with
          | Some e -> write_snapshot t e
          | None -> ())
        (names t)

let durable t = t.data <> None

let durability_json t =
  let c = t.counters in
  J.Obj
    [
      ("durable", J.Bool (durable t));
      ("snapshots_written", J.Int c.snapshots_written);
      ("sessions_recovered", J.Int c.sessions_recovered);
      ("records_replayed", J.Int c.records_replayed);
      ("torn_tails", J.Int c.torn_tails);
      ("recover_failures", J.Int c.recover_failures);
      ( "last_error",
        match c.last_error with None -> J.Null | Some m -> J.String m );
    ]

let snapshot t =
  let row name =
    let e = Hashtbl.find t.sessions name in
    let problem = Router.Session.problem e.session in
    ( name,
      J.Obj
        [
          ("gen", J.Int e.gen);
          ("nets", J.Int (Netlist.Problem.net_count problem));
          ("routed", J.Int (Router.Session.routed_count e.session));
        ] )
  in
  J.Obj (List.map row (names t))
