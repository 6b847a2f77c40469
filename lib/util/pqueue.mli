(** Mutable binary min-heap keyed by integer priorities.

    The maze search is the hot loop of the router, so the heap stores
    priorities and payloads in growable int arrays and allocates only
    when {!push} doubles them: {!clear}, {!min_priority} and {!pop}
    never allocate.  A caller that needs the priority of the element it
    pops reads {!min_priority} first.  Payloads are integers (packed
    grid node indices). *)

type t

val create : ?capacity:int -> unit -> t

val length : t -> int

val is_empty : t -> bool

val clear : t -> unit
(** Remove every element (O(1); storage retained). *)

val push : t -> int -> int -> unit
(** [push q priority payload] inserts an element. *)

val min_priority : t -> int
(** The smallest stored priority: the priority of the element the next
    {!pop} returns.  @raise Invalid_argument if the heap is empty. *)

val pop : t -> int
(** Remove an element with the smallest priority and return its
    payload.  Ties are broken arbitrarily.
    @raise Invalid_argument if the heap is empty. *)
