(** Routing budgets: cooperative cancellation and bounded effort.

    A budget caps a whole [Engine.route] call — including restarts — by
    wall-clock time, total node expansions, total searches, or an arbitrary
    injected predicate.  The engine polls the budget between nets and
    phases; the maze search polls it every few dozen expansions through
    {!stop_hook}.  A budget that trips stays tripped ([check] latches), so
    every layer sees a consistent answer and the engine can unwind to its
    best-so-far snapshot without racing the clock.

    A budget is single-use: create a fresh one per [Engine.route] call.
    The default budget is {!unlimited}, which costs nothing on the hot
    path ({!stop_hook} returns [None]). *)

type reason =
  | Deadline  (** wall-clock deadline passed *)
  | Expansion_limit  (** total expanded maze nodes exceeded the cap *)
  | Search_limit  (** total maze searches exceeded the cap *)
  | Cancelled of string  (** external [should_stop] hook fired *)

type t

val unlimited : unit -> t
(** Never trips on its own; hooks may still be attached later. *)

val create :
  ?deadline:float ->
  ?max_expanded:int ->
  ?max_searches:int ->
  ?hook:(unit -> reason option) ->
  unit ->
  t
(** [deadline] is seconds from now, measured on the monotonic clock.
    [max_expanded] caps the sum of node expansions over every search of
    the run (including searches that fail or are discarded by windowed
    retries).  [max_searches] caps the number of maze searches.  [hook]
    is polled by [check]; returning [Some r] trips the budget with [r]. *)

val is_unlimited : t -> bool
(** No limit set, no hook attached, not manually tripped. *)

val add_hook : t -> (unit -> reason option) -> unit
(** Compose an extra [should_stop] predicate; existing hooks run first. *)

val note_search : t -> unit
(** Record one completed maze search. *)

val note_expanded : t -> int -> unit
(** Record node expansions of a completed search. *)

val searches : t -> int

val expanded : t -> int

val check : ?in_flight:int -> t -> reason option
(** Poll the budget: returns the tripping reason, latching it so all later
    [check]/[tripped] calls agree.  [in_flight] adds expansions of the
    search currently running to the expansion test, so a search aborts as
    it crosses the cap rather than one search late. *)

val tripped : t -> reason option
(** Latched result of past [check]/[trip] calls; never polls the clock. *)

val trip : t -> reason -> unit
(** Force the budget into the tripped state (first reason wins). *)

val stop_hook : t -> (int -> bool) option
(** Cooperative cancellation closure for the search core: [f in_flight]
    is [true] when the search must abort.  [None] when the budget is
    unlimited, so an unbudgeted run pays zero overhead per expansion. *)

val reason_to_string : reason -> string

val pp_reason : Format.formatter -> reason -> unit
