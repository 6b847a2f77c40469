(** Mutable binary min-heap keyed by integer priorities.

    The maze search is the hot loop of the router, so the heap stores
    priorities and payloads in growable int arrays: {!push} allocates
    only when it doubles them, {!clear} never.  {!pop} and {!peek}
    return a freshly allocated [(priority, payload)] pair, and
    {!pop_opt}/{!peek_opt} wrap it in an option as well.  Payloads are
    integers (packed grid node indices). *)

type t

val create : ?capacity:int -> unit -> t

val length : t -> int

val is_empty : t -> bool

val clear : t -> unit
(** Remove every element (O(1); storage retained). *)

val push : t -> int -> int -> unit
(** [push q priority payload] inserts an element. *)

val pop : t -> int * int
(** Remove and return the [(priority, payload)] pair with the smallest
    priority.  Ties are broken arbitrarily.
    @raise Invalid_argument if the heap is empty. *)

val pop_opt : t -> (int * int) option
(** [pop] returning [None] instead of raising on an empty heap. *)

val peek : t -> int * int
(** Like {!pop} without removing.  @raise Invalid_argument if empty. *)

val peek_opt : t -> (int * int) option
