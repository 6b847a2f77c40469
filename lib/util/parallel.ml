exception Multiple of exn list

let () =
  Printexc.register_printer (function
    | Multiple es ->
        Some
          (Printf.sprintf "Parallel.Multiple (%d failures; first: %s)"
             (List.length es)
             (match es with e :: _ -> Printexc.to_string e | [] -> "?"))
    | _ -> None)

let default_jobs () = Domain.recommended_domain_count ()

(* Collect results in input order; a sole failure re-raises as-is so
   callers' handlers keep working, two or more raise [Multiple] with the
   earliest element's exception first. *)
let collect results =
  let errs =
    Array.to_list results
    |> List.filter_map (function
         | Some (Error e) -> Some e
         | Some (Ok _) -> None
         | None -> assert false)
  in
  match errs with
  | [] ->
      Array.to_list results
      |> List.map (function Some (Ok v) -> v | _ -> assert false)
  | [ e ] -> raise e
  | es -> raise (Multiple es)

let map ?(jobs = 1) f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let jobs = max 1 jobs in
  (* explicit lower clamp *)
  let jobs = min jobs n in
  if jobs <= 1 then List.map f xs
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else
          results.(i) <-
            Some (try Ok (f items.(i)) with e -> Error e)
      done
    in
    let helpers = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join helpers;
    collect results
  end

let run ?jobs tasks = map ?jobs (fun t -> t ()) tasks

module Shards = struct
  type t = { mutable domains : unit Domain.t array }

  let create ~n ~run =
    { domains = Array.init (max 0 n) (fun i -> Domain.spawn (fun () -> run i)) }

  let count t = Array.length t.domains

  let join t =
    Array.iter Domain.join t.domains;
    t.domains <- [||]
end
