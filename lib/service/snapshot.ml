module J = Util.Json

type info = {
  gen : int;
  last_rid : int;
  vias : (int * int * int) list;  (* (pair layer, x, y) *)
  frozen : string list;
  problem : Netlist.Problem.t;
}

(* A pair-0 via encodes as the historical [x, y] pair so 2-layer
   snapshots stay byte-identical; higher pairs carry the layer as a
   third element. *)
let encode_body ~vias ~frozen problem =
  let meta =
    J.to_string
      (J.Obj
         [
           ("frozen", J.List (List.map (fun s -> J.String s) frozen));
           ( "vias",
             J.List
               (List.map
                  (fun (l, x, y) ->
                    if l = 0 then J.List [ J.Int x; J.Int y ]
                    else J.List [ J.Int x; J.Int y; J.Int l ])
                  vias) );
         ])
  in
  meta ^ "\n" ^ Netlist.Parse.to_string problem

(* Version 2's CRC covers the generation and the last request id as
   well as the body, so no flipped bit in the header reads back as
   another generation.  Version 1 covered the body alone; it is still
   read. *)
let checksum ~version ~gen ~last_rid body =
  if version = 1 then Util.Crc.string body
  else Util.Crc.string (Printf.sprintf "%d %d\n%s" gen last_rid body)

let write ?(chaos = Router.Chaos.none) ~fsync ~gen ~last_rid ~vias ~frozen
    problem path =
  let body = encode_body ~vias ~frozen problem in
  let header =
    Printf.sprintf "walsnap 2 %d %d %d %s\n" gen last_rid (String.length body)
      (Util.Crc.to_hex (checksum ~version:2 ~gen ~last_rid body))
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc header;
     let n = String.length body in
     let half = n / 2 in
     output_substring oc body 0 half;
     flush oc;
     Router.Chaos.kill_point chaos "snapshot:mid-write";
     output_substring oc body half (n - half);
     flush oc;
     if fsync then (
       try Unix.fsync (Unix.descr_of_out_channel oc)
       with Unix.Unix_error _ -> ())
   with exn ->
     close_out_noerr oc;
     raise exn);
  close_out_noerr oc;
  Router.Chaos.kill_point chaos "snapshot:pre-rename";
  Sys.rename tmp path;
  Router.Chaos.kill_point chaos "snapshot:renamed"

(* --- reading --- *)

let meta_of_json json =
  let frozen =
    Option.bind (J.member "frozen" json) J.to_list_opt
    |> Option.map (List.filter_map J.to_string_opt)
  in
  let vias =
    Option.bind (J.member "vias" json) J.to_list_opt
    |> Option.map
         (List.filter_map (fun v ->
              match v with
              | J.List [ x; y ] -> (
                  match (J.to_int_opt x, J.to_int_opt y) with
                  | Some x, Some y -> Some (0, x, y)
                  | _ -> None)
              | J.List [ x; y; l ] -> (
                  match (J.to_int_opt x, J.to_int_opt y, J.to_int_opt l) with
                  | Some x, Some y, Some l -> Some (l, x, y)
                  | _ -> None)
              | _ -> None))
  in
  match (frozen, vias) with
  | Some frozen, Some vias -> Some (frozen, vias)
  | _ -> None

let read path =
  if not (Sys.file_exists path) then Error "no snapshot"
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | exception End_of_file -> Error "empty snapshot"
        | header -> (
            match
              Scanf.sscanf header "walsnap %d %d %d %d %s"
                (fun v gen rid len crc -> (v, gen, rid, len, crc))
            with
            | exception _ -> Error "bad snapshot header"
            | v, _, _, _, _ when v <> 1 && v <> 2 ->
                Error (Printf.sprintf "unsupported snapshot version %d" v)
            | version, gen, last_rid, len, crc_hex -> (
                match really_input_string ic len with
                | exception End_of_file -> Error "truncated snapshot body"
                | body -> (
                    match Util.Crc.of_hex crc_hex with
                    | None -> Error "bad snapshot header"
                    | Some crc
                      when not
                             (Int32.equal crc
                                (checksum ~version ~gen ~last_rid body)) ->
                        Error "snapshot CRC mismatch"
                    | Some _ -> (
                        let meta_line, problem_text =
                          match String.index_opt body '\n' with
                          | None -> (body, "")
                          | Some nl ->
                              ( String.sub body 0 nl,
                                String.sub body (nl + 1)
                                  (String.length body - nl - 1) )
                        in
                        match J.of_string meta_line with
                        | Error msg -> Error ("bad snapshot meta: " ^ msg)
                        | Ok meta_json -> (
                            match meta_of_json meta_json with
                            | None -> Error "snapshot meta missing fields"
                            | Some (frozen, vias) -> (
                                match
                                  Netlist.Parse.of_string ~src:path
                                    problem_text
                                with
                                | Error e ->
                                    Error (Netlist.Parse.error_to_string e)
                                | Ok problem ->
                                    Ok
                                      { gen; last_rid; vias; frozen; problem }
                                )))))))
  end
