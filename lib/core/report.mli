(** Human-readable routing reports.

    Renders the outcome of a routing run the way a user of the CLI wants to
    read it: a per-net table (pins, wirelength, vias, status) followed by a
    summary block comparing totals against the problem's lower bounds. *)

val per_net_table :
  Netlist.Problem.t -> Engine.t -> Util.Table.t
(** One row per net: name, pins, cells, wirelength, vias, routed/failed. *)

val summary : Netlist.Problem.t -> Engine.t -> string
(** Multi-line summary: completion, totals, wirelength vs the
    half-perimeter lower bound, modification counts and search effort
    (including failed-search, flood and reused-plan work). *)

val render : Netlist.Problem.t -> Engine.t -> string
(** The full report: table then summary. *)
