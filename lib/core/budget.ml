type reason =
  | Deadline
  | Expansion_limit
  | Search_limit
  | Cancelled of string

type t = {
  deadline_ns : int64 option;  (* absolute, on the monotonic clock *)
  max_expanded : int option;
  max_searches : int option;
  mutable hook : (unit -> reason option) option;
  mutable searches : int;
  mutable expanded : int;
  mutable tripped : reason option;
}

let create ?deadline ?max_expanded ?max_searches ?hook () =
  let deadline_ns =
    Option.map
      (fun s ->
        Int64.add (Monotonic_clock.now ()) (Int64.of_float (s *. 1e9)))
      deadline
  in
  {
    deadline_ns;
    max_expanded;
    max_searches;
    hook;
    searches = 0;
    expanded = 0;
    tripped = None;
  }

let unlimited () = create ()

let is_unlimited b =
  b.deadline_ns = None
  && b.max_expanded = None
  && b.max_searches = None
  && (match b.hook with None -> true | Some _ -> false)
  && b.tripped = None

let add_hook b f =
  match b.hook with
  | None -> b.hook <- Some f
  | Some g ->
      b.hook <-
        Some
          (fun () -> match g () with Some _ as r -> r | None -> f ())

let note_search b = b.searches <- b.searches + 1

let note_expanded b n = b.expanded <- b.expanded + n

let searches b = b.searches

let expanded b = b.expanded

let trip b reason = if b.tripped = None then b.tripped <- Some reason

let poll ~in_flight b =
  match match b.hook with Some f -> f () | None -> None with
  | Some _ as r -> r
  | None -> (
      match b.deadline_ns with
      | Some d when Monotonic_clock.now () >= d -> Some Deadline
      | _ -> (
          match b.max_expanded with
          | Some m when b.expanded + in_flight > m -> Some Expansion_limit
          | _ -> (
              match b.max_searches with
              | Some m when b.searches > m -> Some Search_limit
              | _ -> None)))

let check ?(in_flight = 0) b =
  match b.tripped with
  | Some _ as r -> r
  | None ->
      let r = poll ~in_flight b in
      (match r with Some reason -> b.tripped <- Some reason | None -> ());
      r

let tripped b = b.tripped

let stop_hook b =
  if is_unlimited b then None
  else Some (fun in_flight -> check ~in_flight b <> None)

let reason_to_string = function
  | Deadline -> "deadline exceeded"
  | Expansion_limit -> "expansion budget exhausted"
  | Search_limit -> "search budget exhausted"
  | Cancelled why -> Printf.sprintf "cancelled (%s)" why

let pp_reason fmt r = Format.pp_print_string fmt (reason_to_string r)
