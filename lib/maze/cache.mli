(** Per-net incremental-search cache with freed-stamp invalidation.

    Persists one {e read-region certificate} per net across
    rip-up/improve iterations (DESIGN.md §11): the per-layer rectangles
    everything the net's last improvement verdict read (planning
    searches, the net's own wiring), with the grid's mark taken when it
    was reached.  While no {e freeing} write lands inside the
    certificate and the net's cell count is unchanged, revisiting the
    net provably reproduces the same no-commit verdict — blocking writes
    can remove candidate routes but never create a cheaper one — so the
    visit is skipped outright.

    A cache is bound to one physical grid value ({!matches} compares by
    identity): marks do not survive grid re-instantiation. *)

type t

val create : Grid.t -> nets:int -> t

val matches : t -> Grid.t -> nets:int -> bool
(** [true] when the cache was created for this exact grid value (physical
    equality) and net count — the precondition for reusing it. *)

val read_certs : Workspace.t -> Geom.Rect.t option array
(** Per-layer read-region certificates of everything the workspace's
    searches expanded since its last [clear_touched]: each layer's
    touched box dilated by one (planar neighbour reads) hulled with the
    adjacent layers' undilated boxes (via reads). *)

val verdict_clean :
  Grid.t -> since:Grid.mark -> Geom.Rect.t option array -> bool
(** No cell of any layer's certificate was freed since [since].  Only
    {e freeing} writes are stamped, so this is the verdict-replay
    validity test: "replanning cannot improve this net" survives the
    blocking writes the stamps never see. *)

val cert_status : t -> net:int -> owned:int -> [ `Hit | `Miss ]
(** Validate the net's certificate: {!verdict_clean} plus an unchanged
    cell count [owned] (the guard against wiring that grew without any
    release, the one mutation freed stamps cannot witness).
    [`Hit] counts a hit; a stale certificate is dropped and counted
    exactly once, then reported [`Miss]. *)

val record_cert :
  t -> net:int -> certs:Geom.Rect.t option array -> owned:int -> unit
(** Store a certificate with the grid's mark taken now.  [owned] is
    the net's cell count at verdict time; the certificates must cover
    everything the verdict read, including the net's own wiring. *)

val note_bound_skip : t -> unit

(** {1 Effectiveness counters} *)

val hits : t -> int
(** Certificate validations that allowed skipping a net visit. *)

val stale : t -> int
(** Certificates invalidated by a cell freed inside them. *)

val bound_skips : t -> int
(** Net visits skipped because the net is at its pins' closed-form
    cost floor. *)
