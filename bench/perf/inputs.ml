(* Benchmark inputs: the committed instance files and the generator
   recipes that produced them (instances/README.md). *)

let chip ~layers ~cols ~rows ~w ~h ~seed () =
  Workload.Gen.chip_scale ~layers ~macro_cols:cols ~macro_rows:rows
    ~slot_prob:0.6 (Util.Prng.create seed) ~width:w ~height:h

let macro ~macros ~nets ~w ~h ~seed () =
  Workload.Gen.macro ~macros (Util.Prng.create seed) ~width:w ~height:h ~nets

let routable ~w ~h ~seed () =
  Workload.Gen.routable_switchbox (Util.Prng.create seed) ~width:w ~height:h

(* Committed file name → the generator call at its recorded seed. *)
let recipes =
  [
    ("chip_320x224_l3", chip ~layers:3 ~cols:10 ~rows:7 ~w:320 ~h:224 ~seed:11);
    ("chip_288x192_l4", chip ~layers:4 ~cols:9 ~rows:6 ~w:288 ~h:192 ~seed:11);
    ("switchbox_32x26", routable ~w:32 ~h:26 ~seed:58);
    ("switchbox_64x52", routable ~w:64 ~h:52 ~seed:116);
    ("switchbox_128x104", routable ~w:128 ~h:104 ~seed:232);
    ("macro_48x40", macro ~macros:4 ~nets:9 ~w:48 ~h:40 ~seed:5);
    ("macro_64x52", macro ~macros:6 ~nets:14 ~w:64 ~h:52 ~seed:11);
    ("macro_128x104", macro ~macros:8 ~nets:26 ~w:128 ~h:104 ~seed:23);
  ]

let path name = Filename.concat "instances" (name ^ ".problem")

let read name = In_channel.with_open_bin (path name) In_channel.input_all

let text p = Netlist.Parse.to_string p

(* The jobs of each batch workload as (name, problem text).  Smoke inputs
   are tiny generated instances, so the smoke run needs no files. *)
let jobs ~smoke workload =
  match (workload, smoke) with
  | "chip_batch", false ->
      List.map (fun n -> (n, read n)) [ "chip_320x224_l3"; "chip_288x192_l4" ]
  | "chip_batch", true ->
      [
        ("chip_48x32_l3", text (chip ~layers:3 ~cols:2 ~rows:2 ~w:48 ~h:32 ~seed:11 ()));
        ("chip_40x32_l4", text (chip ~layers:4 ~cols:2 ~rows:2 ~w:40 ~h:32 ~seed:11 ()));
      ]
  | "switchbox_batch", false ->
      List.map (fun n -> (n, read n))
        [ "switchbox_32x26"; "switchbox_64x52"; "switchbox_128x104" ]
      @ List.map (fun (n, p) -> (n, text p)) (Workload.Hard.all_switchboxes ())
  | "switchbox_batch", true ->
      [
        ("tiny-blocked", text (Workload.Hard.tiny_blocked ()));
        ("switchbox_16x12", text (routable ~w:16 ~h:12 ~seed:100 ()));
      ]
  | "flow_macro", false ->
      List.map (fun n -> (n, read n)) [ "macro_48x40"; "macro_64x52"; "macro_128x104" ]
  | "flow_macro", true ->
      [ ("macro_48x40", text (macro ~macros:4 ~nets:9 ~w:48 ~h:40 ~seed:5 ())) ]
  | _ -> invalid_arg ("no batch inputs for " ^ workload)

(* The service sessions' problems: fixed, so that the seed moves only the
   request stream. *)
let session_problem c = routable ~w:16 ~h:12 ~seed:(100 + c) ()

(* Everything the benchmark writes goes under this directory of the
   working directory (git-ignored). *)
let out_dir () =
  let dir = Filename.concat (Filename.concat "bench" "perf") "out" in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
    end
  in
  mkdir_p dir;
  dir

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error _ -> ()
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* Regenerate every committed instance and compare it byte for byte with
   its file.  Returns the number of mismatches. *)
let check () =
  List.fold_left
    (fun bad (name, recipe) ->
      let ok = String.equal (text (recipe ())) (read name) in
      Printf.printf "%s %s\n%!" (path name) (if ok then "matches its generator" else "DIFFERS");
      if ok then bad else bad + 1)
    0 recipes
