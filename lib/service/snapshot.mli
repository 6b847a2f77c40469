(** Durable session snapshots: the compaction half of the WAL.

    A snapshot file is a self-validating capture of one session's full
    checkpoint ({!Router.Session.checkpoint}) plus its service-level
    counters:

    {v
    walsnap 2 <gen> <last_rid> <len> <crc32 hex>
    {"frozen":[...],"vias":[[x,y],[x,y,l],...]}
    <problem text, FORMAT.md syntax, wiring as pre-wires>
    v}

    A via element [[x,y]] is a pair-0 via (joining layers 0 and 1 —
    the only kind a 2-layer session can hold, so 2-layer snapshots are
    byte-identical to the historical format); [[x,y,l]] records a via
    pair at layer [l] (joining layers [l] and [l+1]).

    The header's [crc] covers [gen], [last_rid] and the body (meta line
    + problem text), and [len] frames the body, so a torn or bit-flipped
    snapshot is detected on read and reported as an error — recovery
    then falls back to replaying the WAL from scratch.  Version 1
    headers, whose CRC covered the body alone, are still read.  Writes
    go to [<path>.tmp] and rename into place, so the previous snapshot
    survives any crash before the rename: at every instant the path
    holds either the old complete snapshot, the new complete snapshot,
    or nothing (first ever write). *)

type info = {
  gen : int;  (** session generation at capture time *)
  last_rid : int;  (** last applied client request id (0 = none) *)
  vias : (int * int * int) list;  (** (pair layer, x, y) *)
  frozen : string list;
  problem : Netlist.Problem.t;
}

val write :
  ?chaos:Router.Chaos.t ->
  fsync:bool ->
  gen:int ->
  last_rid:int ->
  vias:(int * int * int) list ->
  frozen:string list ->
  Netlist.Problem.t ->
  string ->
  unit
(** [write ... problem path] captures atomically.  Kill points:
    ["snapshot:mid-write"] (half the body flushed to the tmp file),
    ["snapshot:pre-rename"] (tmp complete, rename pending),
    ["snapshot:renamed"] (snapshot live, WAL truncation pending). *)

val read : string -> (info, string) result
(** Validate and decode.  Errors cover: missing file, bad header, torn
    body, CRC mismatch, malformed meta JSON, problem-text parse failure
    (with the snapshot path as source). *)
