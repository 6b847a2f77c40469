(** The routing-service wire protocol.

    Line-delimited JSON: every request is one line, every reply is one
    line.  Requests carry an [op] string, an optional client-chosen [id]
    (echoed verbatim in the reply, default 0) and, for session-scoped
    operations, the [session] name.  Replies are versioned ([v], see
    {!version}) and either [{"ok":true, "gen":…, "result":…}] or
    [{"ok":false, "error":{"code":…, "msg":…}}] with a machine-parseable
    {!error_code}; shed replies additionally carry [retry_after_ms].

    The full message catalogue, field by field, lives in
    docs/PROTOCOL.md — this module is its executable form. *)

val version : int
(** Protocol version stamped on every reply ([1]). *)

(** A net referenced either by id (the protocol's [net] field) or by name
    (the [name] field).  Ids are renumbered by [remove_net]; names are
    stable, so interactive clients should prefer them. *)
type target = Net_id of int | Net_name of string

type op =
  | Open of { problem_text : string option; file : string option }
      (** create a session; the problem arrives inline ([problem]) or as
          a server-side path ([file]) — exactly one must be present *)
  | Route of { slo_ms : int option }
      (** route everything unrouted, under an optional per-request SLO
          overriding the server default *)
  | Add_net of { name : string; pins : Netlist.Net.pin list }
  | Remove_net of target
  | Rip of target
  | Freeze of target
  | Thaw of target
  | Refine of { max_passes : int option }
  | Place of { seed : int option }
      (** anneal the session's placement section, realize it, and
          install the realized problem on a fresh grid; the server
          journals the {e resolved} seed so replay is exact *)
  | Groute of { tile : int option }
      (** read-only: global-route the (realized) problem and report the
          tile-capacity picture — never journalled *)
  | Flow_run of { seed : int option; tile : int option; slo_ms : int option }
      (** the full mini-flow: place (if needed) → realize → global route
          → guide-windowed detailed route, installed atomically *)
  | Analyze of { tile : int option }
      (** read-only: the pre-route routability predictor ({!Analyze.run})
          on the session's (realized) problem — never journalled, never
          shed by admission control *)
  | Verify
  | Render  (** ASCII rendering of the session's current layout *)
  | Stats  (** server-wide metrics + registry snapshot; no session *)
  | Close
  | Shutdown

type request = { rid : int; session : string option; op : op }

val op_name : op -> string
(** The wire name of the operation — also the metrics key. *)

val op_names : string list
(** Every possible {!op_name} plus ["invalid"] (the pseudo-kind recorded
    for unparseable request lines).  The server seeds each shard's
    {!Metrics} store with these so the per-kind tables are structurally
    immutable after creation and safe to read from other domains. *)

val read_only : op -> bool
(** Ops that never mutate session state and are never journalled
    ([groute], [analyze], [verify], [render], [stats]).  Admission
    control force-admits them past the queue cap, so a saturated shard
    still answers triage requests. *)

type error_code =
  | Parse_error  (** request line is not valid JSON *)
  | Bad_request  (** JSON is fine, fields are not *)
  | Unknown_op
  | Unknown_session
  | Session_exists
  | Session_cap  (** registry hard cap reached *)
  | Net_error  (** session mutation rejected (bad pin, frozen net, …) *)
  | Budget_tripped
      (** the per-request budget expired; the session was rolled back *)
  | Fault_injected
      (** an injected chaos fault aborted the request after rollback *)
  | Queue_full  (** admission control shed the request; retry later *)
  | Shutting_down
  | Internal

val code_name : error_code -> string
(** Stable wire identifier, e.g. ["queue_full"]. *)

val parse : string -> (request, error_code * string) result
(** Decode one request line.  Errors come back as the code to put in the
    structured reply plus a human-readable message. *)

val request_id : string -> int
(** The integer [id] of a request line, for replies to lines that are
    refused before they become a {!request} (parse errors, shutdown);
    0 when the line is not a JSON object or has no integer [id]. *)

val op_to_json : op -> Util.Json.t
(** Re-encode an op as the request-shaped object {!parse} accepts (the
    [op] field plus its parameters, no [id]/[session]) — the payload of
    a WAL record.  [Route]'s [slo_ms] is dropped: budgets scope one
    execution, not the mutation, and committed mutations must replay
    un-budgeted. *)

val op_of_json : Util.Json.t -> (op, string) result
(** Decode the object {!op_to_json} produced (same grammar as a request
    line) — the replay half of the WAL. *)

val ok_line : rid:int -> ?gen:int -> Util.Json.t -> string
(** Encode a success reply line (no trailing newline).  [gen] is the
    session's generation counter after the request, present on
    session-scoped replies. *)

val error_line :
  rid:int -> ?retry_after_ms:int -> error_code -> string -> string
(** Encode a failure reply line (no trailing newline). *)
