(** Design-rule and connectivity verification.

    Every routing result accepted by the tests, benches and CLI passes
    through this checker.  The grid representation already makes true shorts
    (two nets in one cell) unrepresentable, so the checks concentrate on:

    - {b pin ownership} — every pin cell owned by its net;
    - {b obstruction integrity} — no net wiring on declared obstructions;
    - {b via legality} — every via joins two cells of the same net, and
      every same-net two-layer adjacency used as a connection has a via
      (connectivity is computed through vias only);
    - {b net connectivity} — all cells owned by a net (pins included) form
      a single connected component: no open net and no floating wire. *)

type violation =
  | Net_disconnected of { net : int; components : int }
  | Pin_not_owned of { net : int; pin : Netlist.Net.pin }
  | Via_mismatch of { x : int; y : int }
      (** via flag present where the two layers are not owned by one net *)
  | Wire_on_obstruction of { net : int; layer : int; x : int; y : int }

val check :
  ?nets:int list -> Netlist.Problem.t -> Grid.t -> violation list
(** All violations found.  Connectivity is verified for the given net ids
    (default: every net of the problem); the other checks are always
    global.  Pass the routed subset when verifying an incomplete result. *)

val is_clean : ?nets:int list -> Netlist.Problem.t -> Grid.t -> bool

val component_counts : Grid.t -> nets:int -> int array
(** [(component_counts g ~nets).(id)], for [1 ≤ id ≤ nets], is the number
    of connected components of net [id]'s owned cells (planar adjacency
    per layer; across layers only through vias).  One pass over the grid
    counts every net; index 0 and owners above [nets] are ignored. *)

val connected_components : Grid.t -> net:int -> int
(** One net's entry of {!component_counts}. *)

val pp_violation : Format.formatter -> violation -> unit

val explain : violation list -> string
(** Multi-line human-readable report (empty string when clean). *)
