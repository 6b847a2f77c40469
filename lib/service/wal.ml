module J = Util.Json

type record = { gen : int; rid : int; req : J.t }

type t = {
  path : string;
  fsync : bool;
  chaos : Router.Chaos.t;
  mutable oc : out_channel;
  mutable records : int;
}

let path t = t.path

let records t = t.records

(* --- encoding --- *)

let encode_record { gen; rid; req } =
  let body =
    J.to_string
      (J.Obj [ ("gen", J.Int gen); ("rid", J.Int rid); ("req", req) ])
  in
  Util.Crc.to_hex (Util.Crc.string body) ^ " " ^ body

let record_of_json json =
  match
    ( Option.bind (J.member "gen" json) J.to_int_opt,
      Option.bind (J.member "rid" json) J.to_int_opt,
      J.member "req" json )
  with
  | Some gen, Some rid, Some req -> Some { gen; rid; req }
  | _ -> None

(* A line is valid iff it carries a well-formed CRC prefix, the CRC
   matches the JSON bytes, and the JSON has the record shape.  Anything
   else — including a syntactically fine line whose CRC disagrees — is
   treated as the start of a torn tail. *)
let decode_line line =
  let n = String.length line in
  if n < 10 || line.[8] <> ' ' then None
  else
    match Util.Crc.of_hex (String.sub line 0 8) with
    | None -> None
    | Some crc ->
        let body = String.sub line 9 (n - 9) in
        if not (Int32.equal crc (Util.Crc.string body)) then None
        else (
          match J.of_string body with
          | Error _ -> None
          | Ok json -> record_of_json json)

(* --- scanning --- *)

let load path =
  if not (Sys.file_exists path) then ([], 0, false)
  else begin
    let ic = open_in_bin path in
    let data =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> In_channel.input_all ic)
    in
    let len = String.length data in
    let rec go offset acc =
      if offset >= len then (List.rev acc, offset, false)
      else
        match String.index_from_opt data offset '\n' with
        | None -> (List.rev acc, offset, true) (* partial line at EOF *)
        | Some nl -> (
            let line = String.sub data offset (nl - offset) in
            match decode_line line with
            | None -> (List.rev acc, offset, true)
            | Some r -> go (nl + 1) (r :: acc))
    in
    go 0 []
  end

(* --- lifecycle --- *)

let do_fsync t =
  if t.fsync then
    try Unix.fsync (Unix.descr_of_out_channel t.oc)
    with Unix.Unix_error _ -> ()

let create ?(chaos = Router.Chaos.none) ~fsync path =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path in
  { path; fsync; chaos; oc; records = 0 }

let reopen ?(chaos = Router.Chaos.none) ~fsync path ~valid_bytes ~records =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
  Unix.ftruncate (Unix.descr_of_out_channel oc) valid_bytes;
  { path; fsync; chaos; oc; records }

let append t record =
  Router.Chaos.kill_point t.chaos "wal:pre-append";
  let line = encode_record record in
  let n = String.length line in
  let half = n / 2 in
  (* Flush a deliberate half-record before the mid kill point so a crash
     there leaves a genuinely torn record on disk for recovery to find. *)
  output_substring t.oc line 0 half;
  flush t.oc;
  Router.Chaos.kill_point t.chaos "wal:mid-record";
  output_substring t.oc line half (n - half);
  output_char t.oc '\n';
  flush t.oc;
  do_fsync t;
  t.records <- t.records + 1;
  Router.Chaos.kill_point t.chaos "wal:appended"

let truncate t =
  close_out_noerr t.oc;
  t.oc <- open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 t.path;
  do_fsync t;
  t.records <- 0;
  Router.Chaos.kill_point t.chaos "wal:truncated"

let close t = close_out_noerr t.oc

(* --- session-name <-> filename encoding --- *)

let file_key name =
  let buf = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' ->
          Buffer.add_char buf c
      | c -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
    name;
  Buffer.contents buf

let key_name key =
  let n = String.length key in
  let buf = Buffer.create n in
  let rec go i =
    if i >= n then Some (Buffer.contents buf)
    else
      match key.[i] with
      | '%' ->
          if i + 2 >= n then None
          else (
            match int_of_string_opt ("0x" ^ String.sub key (i + 1) 2) with
            | Some c when c >= 0 && c < 256 ->
                Buffer.add_char buf (Char.chr c);
                go (i + 3)
            | _ -> None)
      | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_') as c ->
          Buffer.add_char buf c;
          go (i + 1)
      | _ -> None
  in
  go 0
