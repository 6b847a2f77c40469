(** Domain-based work pool for independent tasks (OCaml 5 [Domain]).

    Runs a list of independent jobs across [jobs] domains and returns their
    results in input order, so output is identical for every [jobs] value —
    callers get parallelism without giving up determinism.  Jobs must not
    share mutable state (each experiment instance builds its own
    [Grid]/[Workspace]); the pool only shares the read-only input array and
    a work-stealing counter. *)

exception Multiple of exn list
(** Raised when two or more applications of a parallel map fail, carrying
    every failure in input order (earliest first).  A sole failure is
    re-raised as itself. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element of [xs], running up to
    [jobs] applications concurrently (clamped below to 1 and above to the
    list length; [jobs <= 1] degrades to plain [List.map]).  Results
    preserve input order.  After all domains finish, a single failing
    element's exception is re-raised as-is; several failures raise
    {!Multiple} with the earliest first. *)

val run : ?jobs:int -> (unit -> 'a) list -> 'a list
(** [run ~jobs tasks] executes the thunks concurrently; [run] is
    [map ~jobs (fun t -> t ())]. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count], the hardware-sized default for
    [--jobs 0] style flags. *)

(** Long-lived {e shard} domains: one domain per shard, each running its
    own loop to completion — no barrier, no work stealing.

    Where {!map} fans a shared task list over domains and joins per call,
    a [Shards] group hands each domain a fixed identity ([run i]) and
    lets it live for the whole life of a service: the routing daemon
    parks one request-executing loop on each shard this way, with the
    shard index selecting the queue/registry partition the domain owns.
    Termination is the loop's own business (a drain flag checked by
    [run]); {!join} only waits for the loops to return. *)
module Shards : sig
  type t

  val create : n:int -> run:(int -> unit) -> t
  (** Spawn [n] domains; domain [i] runs [run i] to completion.
      [n <= 0] spawns none. *)

  val count : t -> int

  val join : t -> unit
  (** Wait for every loop to return.  Idempotent.  The caller must make
      the loops exit (e.g. flip a drain flag and signal their queues)
      before joining, or this blocks forever. *)
end
