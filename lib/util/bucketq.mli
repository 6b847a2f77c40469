(** Dial-style bucket queue keyed by small integer priorities.

    A circular array of buckets, one per priority value, covering a sliding
    window of priorities.  For the monotone access pattern of Dijkstra/A*
    with bounded integer edge costs — the maze search's exact profile —
    every operation is O(1) amortised ([pop] scans at most the priority
    span, which is the maximum edge cost).  Payloads are integers (packed
    grid node indices), and equal-priority elements pop in LIFO order.

    The structure is in fact fully general: priorities may arrive in any
    order and may be negative; the bucket window re-anchors and grows on
    demand.  Only the complexity guarantee (span stays small) relies on the
    monotone, bounded-increment usage. *)

type t

val create : ?span:int -> unit -> t
(** [create ~span ()] sizes the circular bucket array for priorities
    spanning [span] consecutive values (rounded up to a power of two); it
    grows automatically when exceeded.  [span] defaults to 16, comfortably
    above the default cost model's largest step. *)

val length : t -> int

val is_empty : t -> bool

val clear : t -> unit
(** Remove every element (O(buckets); storage retained). *)

val push : t -> int -> int -> unit
(** [push q priority payload] inserts an element. *)

val min_priority : t -> int
(** The smallest stored priority: the priority of the element the next
    {!pop} returns.  It advances the window to the first non-empty
    bucket, which that {!pop} would do anyway.
    @raise Invalid_argument if the queue is empty. *)

val pop : t -> int
(** Remove an element with the smallest priority and return its
    payload.  Equal priorities pop LIFO.  Neither {!pop} nor
    {!min_priority} allocates.
    @raise Invalid_argument if the queue is empty. *)
