(** Plain-text problem format: parser and printer.

    The format is line-based:
    {v
    # comment
    problem <name> <switchbox|channel|region> <width> <height>
    obstruct <layer|*> <x0> <y0> <x1> <y1>
    net <name>
    pin <x> <y> [layer]
    prewire <net-name> <fixed|loose>
    cell <layer> <x> <y>
    v}
    A [net] line opens a net; subsequent [pin] lines belong to it.  A
    [prewire] line opens a pre-existing wire for the named net; subsequent
    [cell] lines belong to it.  Net ids are assigned in order of appearance.
    [to_string] followed by [of_string] round-trips a problem (up to
    obstruction merging).

    Parsing never raises: {!of_string} and {!load} return a [result] whose
    error carries the source name (file path, or ["<string>"] /
    ["<stdin>"] for in-memory input) and the 1-based line and column of
    the offending token.  The [_exn] variants raise {!Error} for callers
    that prefer exceptions. *)

type error = {
  src : string;
      (** where the text came from: the file path for {!load}, the
          [?src] argument of {!of_string} (default ["<string>"]) *)
  line : int;  (** 1-based; 0 for file-level or semantic errors *)
  col : int;  (** 1-based column of the offending token; 0 if unknown *)
  msg : string;
}

val error_to_string : error -> string
(** ["src: line L, column C: msg"], or ["src: msg"] for position-less
    errors — always prefixed with the source name. *)

exception Error of int * string
(** Raised only by the [_exn] entry points: 1-based line number (0 when
    unknown) and rendered message (which includes the source name). *)

val max_nodes : int
(** The grid size cap: width × height × layers of a parsed problem is at
    most this many nodes (2{^22}).  An oversized dimension or layer count
    is a parse error at its token, reported before anything is allocated
    for it. *)

val of_string : ?src:string -> string -> (Problem.t, error) result
(** Parse a problem description.  Syntax errors carry their position;
    semantic validation failures ({!Problem.make}, {!Net.make}) are
    reported with [line = 0] and the validation message.  [src] (default
    ["<string>"]) names the source in errors — pass ["<stdin>"] when
    parsing piped input. *)

val of_string_exn : ?src:string -> string -> Problem.t
(** @raise Error on any parse or validation failure. *)

val to_string : Problem.t -> string

val load : string -> (Problem.t, error) result
(** Read a problem from a file path; I/O failures (missing file,
    permissions) are reported as position-less errors. *)

val load_exn : string -> Problem.t
(** @raise Error on any I/O, parse or validation failure. *)

val save : string -> Problem.t -> unit
