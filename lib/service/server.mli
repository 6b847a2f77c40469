(** The routing service: a long-lived daemon around {!Router.Session}.

    One server owns an array of {b shards} — each a {!Registry}
    partition, a bounded {!Sched} queue slice and a contention-free
    {!Metrics} store.  Requests arrive as protocol lines ({!Proto}),
    pass admission control on the acceptor, and are routed to their
    session's shard by a stable FNV-1a hash of the session name;
    every reply is one line.

    {b Affinity and parallelism.}  A session lives on exactly one shard
    for its whole life (including its on-disk WAL/snapshot state), so
    each session's requests execute single-threaded in FIFO order —
    per-session determinism is untouched — while different sessions'
    requests execute in parallel on one worker domain per shard
    ({!start_workers}, used by the transports at every shard count).

    {b Transactionality.}  Every mutating request rides the transactional
    session layer: a request that trips its per-request budget (the SLO)
    or hits an injected chaos fault returns a structured error {e and
    leaves its session exactly as it was before the request} — the reply
    stream tells the client precisely which requests took effect (and the
    [gen] counter in each reply counts them).

    {b Determinism.}  With no budget and no chaos, a request trace
    produces layouts byte-identical to running the equivalent batch
    calls directly — the service adds scheduling, not behaviour — and
    byte-identical across any shard count, because sharding only changes
    {e which domain} runs a session, never the order within it.

    {b One execution path.}  A request is executed by one step: pop the
    shard's next request and mark the shard in flight, then run it
    under the shard lock and hand its reply on.  Worker domains take
    that step in a blocking loop; {!drain} takes it on the calling
    domain, shard by shard, until every queue is empty.

    Two transports share this engine: {!serve_pipe} (stdin/stdout, one
    client) and {!serve_socket} (Unix domain socket, many clients
    multiplexed onto one acceptor); both start the workers.  Tests and
    benches can also drive it directly with {!submit} + {!drain}
    (deterministic, on the calling domain) or {!submit} +
    {!start_workers}. *)

type config = {
  router : Router.Config.t;  (** engine configuration of every session *)
  chaos : Router.Chaos.t;  (** fault injector handed to every session *)
  queue_cap : int;
      (** admission-control bound on queued requests, across all shards;
          each shard's queue slice is [queue_cap / shards] (rounded up,
          at least 1), so one flooding session sheds early instead of
          consuming the whole server's budget *)
  default_slo_ms : int option;
      (** default per-request wall-clock budget for [route] requests;
          a request's [slo_ms] field overrides it.  [None] = no deadline
          unless the client asks for one. *)
  max_sessions : int;  (** registry hard cap, per shard *)
  idle_ticks : int;  (** idle-session eviction horizon, in requests *)
  allow_files : bool;
      (** permit [open] by server-side [file] path (on for the CLI;
          turn off when exposing the socket beyond trusted clients) *)
  data_dir : string option;
      (** durability root: one write-ahead log + snapshot per session
          lives here, sessions found here are recovered at {!create}.
          Shards share the directory; each recovers only the sessions
          hashed to it.  [None] = fully in-memory. *)
  snapshot_every : int;
      (** compact each session's log into a snapshot every this many
          committed mutations *)
  fsync : bool;  (** fsync log appends and snapshots (slower, safer) *)
  shards : int;
      (** number of shards (clamped to at least 1): sessions spread
          over this many queues, each executed by one persistent worker
          domain once {!start_workers} runs *)
}

val default_config : config
(** [Router.Config.default], no chaos, queue cap 64, no default SLO,
    64 sessions, eviction after 10_000 requests, files allowed, no
    durability ([data_dir = None]; snapshot every 64, fsync on when a
    directory is given), 1 shard. *)

type t

val create : ?config:config -> unit -> t

val shard_count : t -> int

val shard_of : t -> string -> int
(** The shard index session [name] is (and will always be) assigned to:
    FNV-1a of the name mod {!shard_count}.  Stable across runs and
    processes — the on-disk recovery partition depends on it. *)

val metrics : t -> Metrics.t
(** A fresh {!Metrics.merge} of the acceptor store and every shard
    store.  Exact when the server is quiet (tests, post-drain); a
    near-point-in-time view while workers are executing. *)

val registry : t -> Registry.t
(** Shard 0's registry.  On a single-shard server (the default, and
    every test that uses this) that is {e the} registry; on a sharded
    server use {!registry_for} with the session's name. *)

val registry_for : t -> string -> Registry.t
(** The registry of the shard owning session [name]. *)

val queue_depth : t -> int
(** Requests admitted and not yet popped, across all shards. *)

val pending : t -> int
(** {!queue_depth} plus requests currently executing on a worker —
    0 means the server is fully idle.  Only meaningful while workers
    are running. *)

val shutdown_requested : t -> bool

val request_shutdown : t -> unit
(** Flip the shutdown flag from outside the request stream — the signal
    handlers of the CLI call this on SIGTERM/SIGINT.  Admission stops
    immediately ({!submit} refuses with [shutting_down]); the transports
    drain what was already queued, then run their normal end-of-life
    path (final snapshots, metrics dump). *)

val finalize : t -> unit
(** The transports' end-of-life path: snapshot every durable session
    (so a restart replays nothing) and dump merged metrics to [stderr].
    Exposed for tests and embedders driving {!submit}/{!drain}
    directly.  With workers running, call {!stop_workers} first. *)

val submit : t -> client:int -> string -> string option
(** Feed one request line.  [Some reply] is an immediate reply that
    bypassed the queue — a parse error, a shed ([queue_full] with a
    load-aware [retry_after_ms] scaled by the {e target shard's} queue
    depth and observed mean latency), or a [shutting_down] refusal.
    Immediate replies echo the line's integer [id] when it has one
    ({!Proto.request_id}).  [None] means the request was admitted to its
    session's shard; its reply will come out of a worker's [emit] (or
    {!drain}) tagged with [client].  Thread-safe against running
    workers. *)

val drain : t -> (int * string) list
(** Execute every queued request on the calling domain and return the
    client tags and reply lines in execution order: shard by shard, and
    within a shard in the scheduler's fair round-robin order over
    sessions.  The same pop-and-run step the workers take, without
    blocking — the deterministic hook for tests and benches.  Do not
    call while workers are running. *)

val handle_line : t -> string -> string list
(** {!submit} as client 0, then {!drain}; returns every reply produced,
    in order.  For tests and in-process replays; safe after
    {!stop_workers}. *)

type workers
(** A running pool of one persistent worker domain per shard. *)

val start_workers : t -> emit:(int -> string -> unit) -> workers
(** Spawn one domain per shard.  Each worker blocks on its shard's
    queue, executes requests (FIFO per session, fair across a shard's
    sessions) and hands every reply to [emit client reply].  [emit] is
    called concurrently from different domains and must be thread-safe;
    all of one session's replies come from one domain, in order. *)

val quiesce : t -> unit
(** Block until {!pending} is 0 — every admitted request has replied.
    Call only while workers are running (or nothing is queued). *)

val stop_workers : t -> workers -> unit
(** Graceful drain: workers finish everything already admitted, then
    exit; joins every domain.  After this {!drain}, {!handle_line} and
    {!finalize} are safe again. *)

val metrics_dump : t -> string
(** Human-readable merged metrics + registry summary (printed to stderr
    on shutdown by the transports). *)

val serve_pipe : t -> in_channel -> out_channel -> unit
(** Serve line-delimited requests until EOF or a [shutdown] request;
    replies go to [oc], flushed per line.  At every shard count the
    calling domain only parses, routes and writes while the workers
    execute: replies of {e different} sessions (session-less ops such
    as [stats] form their own session) may interleave, each session's
    replies stay in its own request order, and a client that writes
    faster than the server executes can draw [queue_full].  Returns
    after draining, joining the workers and dumping metrics to
    [stderr]. *)

val serve_socket : t -> path:string -> unit
(** Bind a Unix domain socket at [path] (replacing any stale file),
    accept any number of clients, and multiplex their requests onto the
    shard pool (workers run at any shard count; a self-pipe wakes the
    acceptor's [select] the moment a reply is ready).  Runs until a
    [shutdown] request once every pending request has replied, then
    closes every client, unlinks [path] and dumps merged metrics to
    [stderr]. *)
