module J = Util.Json

let version = 1

type target = Net_id of int | Net_name of string

type op =
  | Open of { problem_text : string option; file : string option }
  | Route of { slo_ms : int option }
  | Add_net of { name : string; pins : Netlist.Net.pin list }
  | Remove_net of target
  | Rip of target
  | Freeze of target
  | Thaw of target
  | Refine of { max_passes : int option }
  | Place of { seed : int option }
  | Groute of { tile : int option }
  | Flow_run of { seed : int option; tile : int option; slo_ms : int option }
  | Analyze of { tile : int option }
  | Verify
  | Render
  | Stats
  | Close
  | Shutdown

type request = { rid : int; session : string option; op : op }

let op_name = function
  | Open _ -> "open"
  | Route _ -> "route"
  | Add_net _ -> "add_net"
  | Remove_net _ -> "remove_net"
  | Rip _ -> "rip"
  | Freeze _ -> "freeze"
  | Thaw _ -> "thaw"
  | Refine _ -> "refine"
  | Place _ -> "place"
  | Groute _ -> "groute"
  | Flow_run _ -> "flow"
  | Analyze _ -> "analyze"
  | Verify -> "verify"
  | Render -> "render"
  | Stats -> "stats"
  | Close -> "close"
  | Shutdown -> "shutdown"

(* Every value [op_name] can produce, plus the pseudo-kind the server
   records for unparseable lines.  The sharded metrics stores pre-create
   one histogram per name so their tables never mutate structurally
   after creation — that is what makes lock-free cross-domain reads at
   [stats] time safe. *)
let op_names =
  [
    "open"; "route"; "add_net"; "remove_net"; "rip"; "freeze"; "thaw";
    "refine"; "place"; "groute"; "flow"; "analyze"; "verify"; "render";
    "stats"; "close"; "shutdown"; "invalid";
  ]

(* Read-only ops never touch a session's state, are never journalled,
   and are deliberately cheap; admission control lets them through a
   full queue so a saturated shard still answers triage requests. *)
let read_only = function
  | Groute _ | Analyze _ | Verify | Render | Stats -> true
  | Open _ | Route _ | Add_net _ | Remove_net _ | Rip _ | Freeze _ | Thaw _
  | Refine _ | Place _ | Flow_run _ | Close | Shutdown ->
      false

type error_code =
  | Parse_error
  | Bad_request
  | Unknown_op
  | Unknown_session
  | Session_exists
  | Session_cap
  | Net_error
  | Budget_tripped
  | Fault_injected
  | Queue_full
  | Shutting_down
  | Internal

let code_name = function
  | Parse_error -> "parse_error"
  | Bad_request -> "bad_request"
  | Unknown_op -> "unknown_op"
  | Unknown_session -> "unknown_session"
  | Session_exists -> "session_exists"
  | Session_cap -> "session_cap"
  | Net_error -> "net_error"
  | Budget_tripped -> "budget_tripped"
  | Fault_injected -> "fault_injected"
  | Queue_full -> "queue_full"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

(* --- request decoding --- *)

exception Reject of error_code * string

let reject code fmt = Printf.ksprintf (fun msg -> raise (Reject (code, msg))) fmt

let str_field json name =
  match Option.bind (J.member name json) J.to_string_opt with
  | Some s -> s
  | None -> reject Bad_request "missing or non-string field %S" name

let opt_str json name =
  match J.member name json with
  | None | Some J.Null -> None
  | Some v -> (
      match J.to_string_opt v with
      | Some s -> Some s
      | None -> reject Bad_request "field %S must be a string" name)

let opt_int json name =
  match J.member name json with
  | None | Some J.Null -> None
  | Some v -> (
      match J.to_int_opt v with
      | Some n -> Some n
      | None -> reject Bad_request "field %S must be an integer" name)

(* [net] (id) or [name]; exactly one. *)
let target_of json =
  match (opt_int json "net", opt_str json "name") with
  | Some id, None -> Net_id id
  | None, Some name -> Net_name name
  | Some _, Some _ -> reject Bad_request "give either \"net\" or \"name\", not both"
  | None, None -> reject Bad_request "missing target: give \"net\" (id) or \"name\""

let pin_of = function
  | J.List [ x; y ] -> (
      match (J.to_int_opt x, J.to_int_opt y) with
      | Some x, Some y -> Netlist.Net.pin x y
      | _ -> reject Bad_request "pin coordinates must be integers")
  | J.List [ x; y; layer ] -> (
      match (J.to_int_opt x, J.to_int_opt y, J.to_int_opt layer) with
      | Some x, Some y, Some layer -> Netlist.Net.pin ~layer x y
      | _ -> reject Bad_request "pin coordinates must be integers")
  | _ -> reject Bad_request "each pin must be [x,y] or [x,y,layer]"

let op_of json = function
  | "open" ->
      let problem_text = opt_str json "problem" and file = opt_str json "file" in
      (match (problem_text, file) with
      | None, None ->
          reject Bad_request "open needs \"problem\" (inline text) or \"file\""
      | Some _, Some _ ->
          reject Bad_request "open takes either \"problem\" or \"file\", not both"
      | _ -> ());
      Open { problem_text; file }
  | "route" -> Route { slo_ms = opt_int json "slo_ms" }
  | "add_net" ->
      let name = str_field json "name" in
      let pins =
        match Option.bind (J.member "pins" json) J.to_list_opt with
        | Some ps -> List.map pin_of ps
        | None -> reject Bad_request "add_net needs a \"pins\" array"
      in
      Add_net { name; pins }
  | "remove_net" -> Remove_net (target_of json)
  | "rip" -> Rip (target_of json)
  | "freeze" -> Freeze (target_of json)
  | "thaw" -> Thaw (target_of json)
  | "refine" -> Refine { max_passes = opt_int json "max_passes" }
  | "place" -> Place { seed = opt_int json "seed" }
  | "groute" -> Groute { tile = opt_int json "tile" }
  | "flow" ->
      Flow_run
        {
          seed = opt_int json "seed";
          tile = opt_int json "tile";
          slo_ms = opt_int json "slo_ms";
        }
  | "analyze" -> Analyze { tile = opt_int json "tile" }
  | "verify" -> Verify
  | "render" -> Render
  | "stats" -> Stats
  | "close" -> Close
  | "shutdown" -> Shutdown
  | other -> reject Unknown_op "unknown op %S" other

let parse line =
  match J.of_string line with
  | Error msg -> Error (Parse_error, "bad JSON: " ^ msg)
  | Ok json -> (
      match
        let rid = Option.value ~default:0 (opt_int json "id") in
        let session = opt_str json "session" in
        let op = op_of json (str_field json "op") in
        { rid; session; op }
      with
      | req -> Ok req
      | exception Reject (code, msg) -> Error (code, msg))

let request_id line =
  match J.of_string line with
  | Ok json -> Option.value ~default:0 (Option.bind (J.member "id" json) J.to_int_opt)
  | Error _ -> 0

(* --- op re-encoding: the WAL record format ---

   [op_to_json] emits exactly the request-shaped object [op_of] decodes,
   so a WAL record replays through the same decoder that handled the
   live request — one wire grammar, not two.  [Route]'s [slo_ms] is
   deliberately dropped: an SLO budgets one {e execution}, it is not
   part of the mutation, and a committed route must replay without a
   budget (determinism of the engine makes the un-budgeted replay land
   on the same layout). *)

let target_fields = function
  | Net_id id -> [ ("net", J.Int id) ]
  | Net_name name -> [ ("name", J.String name) ]

let op_to_json op =
  let fields =
    match op with
    | Open { problem_text; file } ->
        (match problem_text with
        | Some t -> [ ("problem", J.String t) ]
        | None -> [])
        @ (match file with Some f -> [ ("file", J.String f) ] | None -> [])
    | Route _ -> []
    | Add_net { name; pins } ->
        [
          ("name", J.String name);
          ( "pins",
            J.List
              (List.map
                 (fun (p : Netlist.Net.pin) ->
                   J.List
                     [
                       J.Int p.Netlist.Net.x;
                       J.Int p.Netlist.Net.y;
                       J.Int p.Netlist.Net.layer;
                     ])
                 pins) );
        ]
    | Remove_net t | Rip t | Freeze t | Thaw t -> target_fields t
    | Refine { max_passes } -> (
        match max_passes with
        | Some n -> [ ("max_passes", J.Int n) ]
        | None -> [])
    | Place { seed } -> (
        match seed with Some s -> [ ("seed", J.Int s) ] | None -> [])
    | Groute { tile } | Analyze { tile } -> (
        match tile with Some n -> [ ("tile", J.Int n) ] | None -> [])
    | Flow_run { seed; tile; slo_ms = _ } ->
        (* [slo_ms] is dropped for the same reason as [Route]'s. *)
        (match seed with Some s -> [ ("seed", J.Int s) ] | None -> [])
        @ (match tile with Some n -> [ ("tile", J.Int n) ] | None -> [])
    | Verify | Render | Stats | Close | Shutdown -> []
  in
  J.Obj (("op", J.String (op_name op)) :: fields)

let op_of_json json =
  match Option.bind (J.member "op" json) J.to_string_opt with
  | None -> Error "missing \"op\" field"
  | Some name -> (
      match op_of json name with
      | op -> Ok op
      | exception Reject (_, msg) -> Error msg)

(* --- reply encoding --- *)

let ok_line ~rid ?gen result =
  let gen_field = match gen with None -> [] | Some g -> [ ("gen", J.Int g) ] in
  J.to_string
    (J.Obj
       ([ ("v", J.Int version); ("id", J.Int rid); ("ok", J.Bool true) ]
       @ gen_field
       @ [ ("result", result) ]))

let error_line ~rid ?retry_after_ms code msg =
  let retry =
    match retry_after_ms with
    | None -> []
    | Some ms -> [ ("retry_after_ms", J.Int ms) ]
  in
  J.to_string
    (J.Obj
       [
         ("v", J.Int version);
         ("id", J.Int rid);
         ("ok", J.Bool false);
         ( "error",
           J.Obj
             ([ ("code", J.String (code_name code)); ("msg", J.String msg) ]
             @ retry) );
       ])
