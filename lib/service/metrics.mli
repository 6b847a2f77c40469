(** Live service telemetry: monotonic counters and latency histograms.

    One {!t} lives for the whole life of a server.  Every executed
    request records its kind, outcome and wall-clock latency (queue wait
    included); admission
    control records sheds; the session layer records budget trips,
    injected faults and idle evictions.  Latencies go into per-kind
    histograms with log-linear microsecond buckets — each octave split
    into eight, from 1 µs up to ~18 minutes — from which {!snapshot}
    reports p50/p95/p99 as the upper bound of the quantile's bucket,
    clamped to the kind's maximum: monotone, never above [max_ms], and
    at most 1/8 above the true sample quantile.

    Everything here is plain mutation with {b per-field single-writer
    ownership} — no locks, no atomics.  On the sharded server each shard
    owns one store; its worker domain is the only writer of the
    execution-side fields ([record], [budget_trip], [fault], [evicted],
    [refine_cache], [flow_guides]) while the acceptor domain is the only
    writer of the admission-side fields ([shed], [note_queue_depth]).
    The two sides never write the same field, so there are no lost
    updates; cross-domain {e reads} ({!merge}, {!snapshot} of a foreign
    shard) may observe slightly stale values, which is acceptable for
    telemetry and exact once the writers have quiesced.  For that
    discipline to be safe the per-kind table must not grow while foreign
    domains read it — pass every kind the store will ever record to
    {!create} ([Proto.op_names] for a server shard). *)

type t

val create : ?kinds:string list -> unit -> t
(** [kinds] pre-creates one (empty) histogram per name so the table is
    structurally immutable afterwards.  Pre-seeded kinds with zero
    requests never appear in {!snapshot} or {!render}. *)

val merge : t list -> t
(** Fold several per-domain stores into one fresh store: counters and
    histogram buckets sum, maxima take the max.  Lock-free — safe to
    call while the owners are still writing (the result is then a
    near-point-in-time view), exact when they are quiet.  The inputs are
    not modified. *)

val record : t -> kind:string -> ok:bool -> latency_s:float -> unit
(** Account one executed request of wire kind [kind] (e.g. ["route"]).
    [latency_s] is seconds of wall clock from the request's admission to
    its reply: the time it waited in its shard's queue plus the time
    spent executing it. *)

val shed : t -> unit
(** One request refused by admission control. *)

val budget_trip : t -> unit
(** One request rolled back by a budget trip. *)

val fault : t -> unit
(** One request aborted by an injected chaos fault. *)

val evicted : t -> int -> unit
(** [n] sessions evicted for idleness. *)

val refine_cache : t -> skips:int -> stale:int -> unit
(** Accumulate one refine request's incremental-cache effectiveness:
    net-visits skipped (certificate hits + cost-floor skips) and stale
    certificates dropped.  Reported under ["refine_cache"] in
    {!snapshot}. *)

val flow_guides : t -> guided:int -> hits:int -> fallbacks:int -> unit
(** Accumulate one flow request's guided-search telemetry: nets guided,
    certified window hits, full-window fallbacks.  Reported under
    ["flow_guides"] in {!snapshot}, next to ["refine_cache"]. *)

val note_queue_depth : t -> int -> unit
(** Sample the scheduler queue depth (tracked as a high-water mark). *)

val shed_count : t -> int

val requests : t -> int
(** Total executed requests (sheds excluded). *)

val snapshot : ?queue_depth:int -> ?sessions:int -> t -> Util.Json.t
(** The [stats] reply body: totals, gauges and the per-kind table
    [{count, errors, p50_ms, p95_ms, p99_ms, max_ms}], kinds sorted
    alphabetically so snapshots diff cleanly. *)

val render : ?queue_depth:int -> ?sessions:int -> t -> string
(** Human-readable multi-line dump (the shutdown report). *)
