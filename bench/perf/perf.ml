(* perf.exe — the repository benchmark: four seeded workloads, timed end
   to end, and a traced mode that times each layer.  See README.md. *)

let workloads = [ "chip_batch"; "switchbox_batch"; "flow_macro"; "service_mixed" ]

let usage =
  "usage: perf.exe [run|trace] [--workload W]... [--seed S] [--seconds N]\n\
  \                [--trace 0|1] [--out FILE] [--smoke] [--inject-open]\n\
  \       perf.exe --check-inputs\n\
   workloads: chip_batch switchbox_batch flow_macro service_mixed"

type opts = {
  mutable chosen : string list;
  mutable seed : int;
  mutable seconds : float option;
  mutable trace : bool;
  mutable out : string option;
  mutable smoke : bool;
  mutable inject : bool;
  mutable check_inputs : bool;
}

let parse_args args =
  let o =
    {
      chosen = [];
      seed = 0;
      seconds = None;
      trace = false;
      out = None;
      smoke = false;
      inject = false;
      check_inputs = false;
    }
  in
  let bad msg =
    prerr_endline (msg ^ "\n" ^ usage);
    exit 2
  in
  let number conv flag v =
    match conv v with Some x -> x | None -> bad (Printf.sprintf "%s: not a number: %s" flag v)
  in
  let rec go = function
    | [] -> ()
    | "run" :: rest -> go rest
    | "trace" :: rest ->
        o.trace <- true;
        go rest
    | "--workload" :: w :: rest ->
        if not (List.mem w workloads) then bad ("unknown workload " ^ w);
        o.chosen <- o.chosen @ [ w ];
        go rest
    | "--seed" :: v :: rest ->
        o.seed <- number int_of_string_opt "--seed" v;
        go rest
    | "--seconds" :: v :: rest ->
        o.seconds <- Some (number float_of_string_opt "--seconds" v);
        go rest
    | "--trace" :: v :: rest ->
        o.trace <- number int_of_string_opt "--trace" v <> 0;
        go rest
    | "--out" :: f :: rest ->
        o.out <- Some f;
        go rest
    | "--smoke" :: rest ->
        o.smoke <- true;
        go rest
    | "--inject-open" :: rest ->
        o.inject <- true;
        go rest
    | "--check-inputs" :: rest ->
        o.check_inputs <- true;
        go rest
    | arg :: _ -> bad ("unexpected argument " ^ arg)
  in
  go args;
  o

(* The run length of [BENCHMARK.json]; smoke runs make one pass and a
   half-second window. *)
let seconds o = Option.value o.seconds ~default:(if o.smoke then 0.5 else 25.0)

let run_here o w =
  let seconds = seconds o in
  let r =
    if w = "service_mixed" then Daemon.run ~seed:o.seed ~seconds ~trace:o.trace
    else Batch.run ~workload:w ~seconds ~trace:o.trace ~smoke:o.smoke ~inject:o.inject
  in
  List.iter (Metric.print w) (r.Metric.reported @ r.Metric.printed);
  ( r.Metric.correct,
    Metric.result_json ~correct:r.Metric.correct ~attempted:r.Metric.attempted
      ~failed:r.Metric.failed r.Metric.reported )

(* A workload in a child process of its own, so that its peak RSS is its
   own.  The child's lines pass through; its last line is its result. *)
let run_child o w =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--workload"; w; "--seed"; string_of_int o.seed; "--seconds";
      Printf.sprintf "%g" (seconds o); "--trace"; (if o.trace then "1" else "0") ]
    @ (if o.smoke then [ "--smoke" ] else [])
    @ if o.inject then [ "--inject-open" ] else []
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let rec pass last =
    match In_channel.input_line ic with
    | Some line ->
        print_endline line;
        pass (Some line)
    | None -> last
  in
  let last = pass None in
  let exited_ok = Unix.close_process_in ic = Unix.WEXITED 0 in
  match Option.map Util.Json.of_string last with
  | Some (Ok json) -> (exited_ok, json)
  | _ ->
      Printf.eprintf "FAIL: %s printed no result\n%!" w;
      (false, Util.Json.Null)

let git_commit () =
  let read f =
    try Some (String.trim (In_channel.with_open_text f In_channel.input_all))
    with Sys_error _ -> None
  in
  match read (Filename.concat ".git" "HEAD") with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | Some sha -> sha
      | None ->
          Option.bind (read (Filename.concat ".git" "packed-refs")) (fun packed ->
              List.find_map
                (fun l ->
                  match String.split_on_char ' ' l with
                  | [ sha; name ] when name = r -> Some sha
                  | _ -> None)
                (String.split_on_char '\n' packed))
          |> Option.value ~default:"unknown")
  | Some sha -> sha

let write_results o path results =
  let open Util.Json in
  let cores = Util.Parallel.default_jobs () in
  let json =
    Obj
      [
        ( "host",
          Obj
            [
              ("cores", Int cores);
              ("ocaml", String Sys.ocaml_version);
              (* The load generator and the shard workers want more
                 domains than the host has cores. *)
              ("cpu_bound", Bool (cores < Daemon.shards + 1));
            ] );
        ("commit", String (git_commit ()));
        ("seed", Int o.seed);
        ("seconds", Float (seconds o));
        ("trace", Bool o.trace);
        ("smoke", Bool o.smoke);
        ("results", Obj results);
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (to_string json);
      output_char oc '\n')

let () =
  let o = parse_args (List.tl (Array.to_list Sys.argv)) in
  if o.check_inputs then exit (if Inputs.check () = 0 then 0 else 1);
  let results =
    match o.chosen with
    | [ w ] ->
        let correct, json = run_here o w in
        print_endline (Util.Json.to_string json);
        [ (w, correct, json) ]
    | chosen ->
        let results =
          List.map
            (fun w ->
              let ok, json = run_child o w in
              (w, ok, json))
            (if chosen = [] then workloads else chosen)
        in
        let field name json = Option.value ~default:(Util.Json.Int 0) (Util.Json.member name json) in
        let sum name =
          List.fold_left
            (fun a (_, _, j) -> a + Option.value ~default:0 (Util.Json.to_int_opt (field name j)))
            0 results
        in
        let metrics =
          List.concat_map
            (fun (w, _, j) ->
              match field "metrics" j with
              | Util.Json.Obj ms -> List.map (fun (m, v) -> (w ^ "/" ^ m, v)) ms
              | _ -> [])
            results
        in
        print_endline
          (Util.Json.to_string
             (Util.Json.Obj
                [
                  ("correct", Util.Json.Bool (List.for_all (fun (_, ok, _) -> ok) results));
                  ("attempted", Util.Json.Int (sum "attempted"));
                  ("failed", Util.Json.Int (sum "failed"));
                  ("metrics", Util.Json.Obj metrics);
                ]));
        results
  in
  let out =
    match (o.out, results) with
    | Some f, _ -> Some f
    | None, _ :: _ :: _ -> Some (Filename.concat (Inputs.out_dir ()) "results.json")
    | None, _ -> None
  in
  Option.iter
    (fun path -> write_results o path (List.map (fun (w, _, j) -> (w, j)) results))
    out;
  exit (if List.for_all (fun (_, ok, _) -> ok) results then 0 else 1)
