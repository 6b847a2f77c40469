(** Per-session write-ahead log.

    One append-only text file per session.  Each record is one line:

    {v <crc32 hex, 8 chars> <space> <compact JSON> v}

    where the JSON object is [{"gen":G,"rid":R,"req":{...}}] — the
    session generation {e after} applying the request, the client
    request id (0 = unset), and the request's op re-encoded through
    {!Proto.op_to_json}.  The CRC covers the JSON bytes, so a torn tail
    (partial line at EOF, bad CRC, or unparseable JSON) is detected and
    the log truncates to the last valid record; everything before the
    first corrupt record replays.

    Appends happen {e after} the session transaction commits: a
    rolled-back or shed request never reaches the log.  Crash points
    (before, mid-record after a partial flush, after) fire through
    {!Router.Chaos.kill_point} so the recovery suite can kill at every
    byte boundary that matters. *)

type record = { gen : int; rid : int; req : Util.Json.t }

type t

val path : t -> string

val records : t -> int
(** Records currently in the log (valid ones; after {!reopen}, the torn
    tail is already excluded). *)

val create : ?chaos:Router.Chaos.t -> fsync:bool -> string -> t
(** Open for append, truncating any previous content — used by a fresh
    [open] of a session name. *)

val load : string -> record list * int * bool
(** Read-only scan: [(valid_records, valid_bytes, torn)].  Missing file
    = [([], 0, false)]. *)

val reopen :
  ?chaos:Router.Chaos.t -> fsync:bool -> string -> valid_bytes:int ->
  records:int -> t
(** Open a log that {!load} has read for append: truncate the file to
    the [valid_bytes] of its valid prefix (dropping a torn tail), or
    create it empty when missing, and count its [records] valid
    records.  Recovery calls it only once the replay has succeeded, so
    a refused session's files stay as they were. *)

val append : t -> record -> unit
(** Write one record, flush, and (when [fsync]) push it to disk.  Kill
    points: ["wal:pre-append"], ["wal:mid-record"] (a partial record has
    been flushed — a torn write), ["wal:appended"]. *)

val truncate : t -> unit
(** Drop every record (snapshot compaction: the snapshot now owns the
    state).  Kill point ["wal:truncated"] fires after. *)

val close : t -> unit

val encode_record : record -> string
(** The exact line (without newline) {!append} writes — exposed for
    tests that hand-craft corrupt logs. *)

val file_key : string -> string
(** Encode an arbitrary session name into a safe filename fragment
    (alphanumerics, ['-'] and ['_'] kept, everything else [%XX]). *)

val key_name : string -> string option
(** Inverse of {!file_key}; [None] on malformed encodings. *)
