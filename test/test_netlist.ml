(* Tests for nets, problems, builders, the text format and congestion
   analysis. *)

let pin = Netlist.Net.pin

(* --- nets --- *)

let test_net_make () =
  let n = Netlist.Net.make ~id:1 ~name:"a" [ pin 0 0; pin ~layer:1 3 4 ] in
  Testkit.check_int "pins" 2 (Netlist.Net.pin_count n);
  Testkit.check_false "not trivial" (Netlist.Net.is_trivial n);
  Testkit.check_int "hpwl" 7 (Netlist.Net.half_perimeter n)

let test_net_rejects_bad () =
  (try
     ignore (Netlist.Net.make ~id:0 ~name:"z" []);
     Alcotest.fail "expected id rejection"
   with Invalid_argument _ -> ());
  try
    ignore (Netlist.Net.make ~id:1 ~name:"d" [ pin 1 1; pin 1 1 ]);
    Alcotest.fail "expected duplicate pin rejection"
  with Invalid_argument _ -> ()

let test_net_trivial_and_bbox () =
  let n = Netlist.Net.make ~id:1 ~name:"t" [ pin 2 3 ] in
  Testkit.check_true "single pin trivial" (Netlist.Net.is_trivial n);
  Testkit.check_int "hpwl zero" 0 (Netlist.Net.half_perimeter n);
  Testkit.check_true "bbox degenerate"
    (Netlist.Net.bounding_box n = Some (Geom.Rect.make 2 3 2 3));
  let empty = Netlist.Net.make ~id:2 ~name:"e" [] in
  Testkit.check_true "no bbox" (Netlist.Net.bounding_box empty = None)

(* --- problems --- *)

let simple_problem () =
  Netlist.Problem.make ~name:"p" ~width:10 ~height:8
    [
      Netlist.Net.make ~id:1 ~name:"a" [ pin 0 0; pin 9 7 ];
      Netlist.Net.make ~id:2 ~name:"b" [ pin 5 5; pin ~layer:1 5 6 ];
    ]

let test_problem_basics () =
  let p = simple_problem () in
  Testkit.check_int "nets" 2 (Netlist.Problem.net_count p);
  Testkit.check_int "pins" 4 (Netlist.Problem.total_pins p);
  Testkit.check_true "find by name"
    ((Netlist.Problem.find_net p "b" |> Option.get).Netlist.Net.id = 2);
  Testkit.check_true "unknown name" (Netlist.Problem.find_net p "zz" = None);
  Testkit.check_true "nontrivial ids"
    (Netlist.Problem.nontrivial_net_ids p = [ 1; 2 ])

let test_problem_validation () =
  let net id name pins = Netlist.Net.make ~id ~name pins in
  (try
     ignore
       (Netlist.Problem.make ~name:"bad" ~width:4 ~height:4
          [ net 2 "a" [ pin 0 0 ] ]);
     Alcotest.fail "expected id gap rejection"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Netlist.Problem.make ~name:"bad" ~width:4 ~height:4
          [ net 1 "a" [ pin 4 0 ] ]);
     Alcotest.fail "expected out-of-bounds rejection"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Netlist.Problem.make ~name:"bad" ~width:4 ~height:4
          [ net 1 "a" [ pin 1 1 ]; net 2 "b" [ pin 1 1 ] ]);
     Alcotest.fail "expected shared-cell rejection"
   with Invalid_argument _ -> ());
  try
    ignore
      (Netlist.Problem.make ~name:"bad" ~width:4 ~height:4
         ~obstructions:
           [
             {
               Netlist.Problem.obs_layer = None;
               obs_rect = Geom.Rect.make 0 0 1 1;
             };
           ]
         [ net 1 "a" [ pin 1 1 ] ]);
    Alcotest.fail "expected obstructed pin rejection"
  with Invalid_argument _ -> ()

let test_problem_instantiate () =
  let p =
    Netlist.Problem.make ~name:"q" ~width:6 ~height:6
      ~obstructions:
        [
          {
            Netlist.Problem.obs_layer = Some 1;
            obs_rect = Geom.Rect.make 2 2 3 3;
          };
        ]
      [ Netlist.Net.make ~id:1 ~name:"a" [ pin 0 0; pin 5 5 ] ]
  in
  let g = Netlist.Problem.instantiate p in
  Testkit.check_true "pin occupied"
    (Grid.owner g (Grid.node g ~layer:0 ~x:0 ~y:0) = Some 1);
  Testkit.check_true "obstruction layer1"
    (Grid.is_obstacle g (Grid.node g ~layer:1 ~x:2 ~y:2));
  Testkit.check_true "layer0 free there"
    (Grid.is_free g (Grid.node g ~layer:0 ~x:2 ~y:2))

let test_problem_prewires () =
  let p =
    Netlist.Problem.make ~name:"pw" ~width:6 ~height:4
      ~prewires:
        [
          {
            Netlist.Problem.pre_net = 1;
            pre_cells = [ (0, 1, 1); (0, 2, 1); (1, 2, 1) ];
            pre_fixed = false;
          };
        ]
      [ Netlist.Net.make ~id:1 ~name:"a" [ pin 0 1; pin ~layer:1 2 3 ] ]
  in
  let g = Netlist.Problem.instantiate p in
  Testkit.check_true "prewire occupied"
    (Grid.owner g (Grid.node g ~layer:0 ~x:1 ~y:1) = Some 1);
  Testkit.check_true "stacked prewire gets via" (Grid.has_via g ~x:2 ~y:1)

let test_prewire_validation () =
  try
    ignore
      (Netlist.Problem.make ~name:"pw" ~width:4 ~height:4
         ~prewires:
           [
             {
               Netlist.Problem.pre_net = 7;
               pre_cells = [ (0, 0, 0) ];
               pre_fixed = false;
             };
           ]
         [ Netlist.Net.make ~id:1 ~name:"a" [ pin 1 1 ] ]);
    Alcotest.fail "expected unknown net rejection"
  with Invalid_argument _ -> ()

(* --- builders --- *)

let test_build_channel_conventions () =
  let p =
    Netlist.Build.channel ~tracks:3 ~top:[| 1; 0; 2 |] ~bottom:[| 2; 1; 0 |] ()
  in
  Testkit.check_int "height = tracks+2" 5 p.Netlist.Problem.height;
  Testkit.check_int "width = columns" 3 p.Netlist.Problem.width;
  Testkit.check_int "nets" 2 (Netlist.Problem.net_count p);
  let g = Netlist.Problem.instantiate p in
  Testkit.check_true "top pin layer1"
    (Grid.owner g (Grid.node g ~layer:1 ~x:0 ~y:4) = Some 1);
  Testkit.check_true "unpinned pin row blocked"
    (Grid.is_obstacle g (Grid.node g ~layer:1 ~x:1 ~y:4));
  Testkit.check_true "layer0 blocked at pin"
    (Grid.is_obstacle g (Grid.node g ~layer:0 ~x:0 ~y:4))

let test_build_channel_rejects () =
  (try
     ignore (Netlist.Build.channel ~tracks:2 ~top:[| 1 |] ~bottom:[| 1; 2 |] ());
     Alcotest.fail "expected length mismatch rejection"
   with Invalid_argument _ -> ());
  try
    ignore (Netlist.Build.channel ~tracks:0 ~top:[| 1 |] ~bottom:[| 1 |] ());
    Alcotest.fail "expected empty channel rejection"
  with Invalid_argument _ -> ()

let test_build_switchbox_conventions () =
  let p =
    Netlist.Build.switchbox ~width:5 ~height:4
      ~top:[| 1; 0; 0; 0; 0 |]
      ~bottom:[| 0; 0; 1; 0; 0 |]
      ~left:[| 0; 2; 0; 0 |]
      ~right:[| 0; 0; 2; 0 |]
      ()
  in
  Testkit.check_int "nets" 2 (Netlist.Problem.net_count p);
  let g = Netlist.Problem.instantiate p in
  Testkit.check_true "top pin layer1"
    (Grid.owner g (Grid.node g ~layer:1 ~x:0 ~y:3) = Some 1);
  Testkit.check_true "left pin layer0"
    (Grid.owner g (Grid.node g ~layer:0 ~x:0 ~y:1) = Some 2);
  Testkit.check_true "right pin layer0"
    (Grid.owner g (Grid.node g ~layer:0 ~x:4 ~y:2) = Some 2)

let test_build_switchbox_corner_conflict () =
  try
    ignore
      (Netlist.Build.switchbox ~width:3 ~height:3
         ~top:[| 1; 0; 0 |]
         ~left:[| 0; 0; 2 |]
         ());
    Alcotest.fail "expected corner conflict rejection"
  with Invalid_argument _ -> ()

let test_build_compacts_ids () =
  let p =
    Netlist.Build.of_pins ~width:10 ~height:10
      [ (7, pin 0 0); (7, pin 1 1); (42, pin 2 2); (42, pin 3 3) ]
  in
  Testkit.check_int "two nets" 2 (Netlist.Problem.net_count p);
  Testkit.check_true "names keep original ids"
    (Netlist.Problem.find_net p "n7" <> None
    && Netlist.Problem.find_net p "n42" <> None)

(* --- parse --- *)

let test_parse_roundtrip () =
  let p =
    Netlist.Problem.make ~name:"rt" ~kind:Netlist.Problem.Switchbox ~width:9
      ~height:7
      ~obstructions:
        [
          {
            Netlist.Problem.obs_layer = Some 0;
            obs_rect = Geom.Rect.make 2 2 4 4;
          };
        ]
      ~prewires:
        [
          {
            Netlist.Problem.pre_net = 1;
            pre_cells = [ (1, 6, 5) ];
            pre_fixed = true;
          };
        ]
      [
        Netlist.Net.make ~id:1 ~name:"alpha" [ pin 0 0; pin ~layer:1 8 6 ];
        Netlist.Net.make ~id:2 ~name:"beta" [ pin 0 3; pin 8 3 ];
      ]
  in
  let text = Netlist.Parse.to_string p in
  let q = Netlist.Parse.of_string_exn text in
  Testkit.check_true "same text again" (Netlist.Parse.to_string q = text);
  Testkit.check_int "same nets" 2 (Netlist.Problem.net_count q);
  Testkit.check_true "same kind"
    (q.Netlist.Problem.kind = Netlist.Problem.Switchbox);
  Testkit.check_int "same pins" 4 (Netlist.Problem.total_pins q)

let test_parse_errors () =
  let expect_error ?line ?col text =
    match Netlist.Parse.of_string text with
    | Ok _ -> Alcotest.failf "expected parse error for %S" text
    | Error e ->
        Option.iter (fun l -> Testkit.check_int "error line" l e.Netlist.Parse.line) line;
        Option.iter (fun c -> Testkit.check_int "error column" c e.Netlist.Parse.col) col
  in
  expect_error "net a\n";
  expect_error ~line:2 ~col:1 "problem p region 4 4\npin 0 0\n";
  expect_error ~line:2 ~col:1 "problem p region 4 4\nbogus 1 2\n";
  expect_error ~line:2 "problem p region 4 4\nproblem q region 4 4\n";
  expect_error ~line:1 ~col:18 "problem p region x 4\n";
  expect_error ~line:2 "problem p region 4 4\ncell 0 1 1\n";
  expect_error ~line:3 ~col:5 "problem p region 4 4\nnet a\nnet a\n";
  (* The raising wrapper reports the same failures as exceptions. *)
  match Netlist.Parse.of_string_exn "problem p region x 4\n" with
  | _ -> Alcotest.fail "expected Parse.Error"
  | exception Netlist.Parse.Error (1, _) -> ()

(* An oversized grid is a located parse error, not an allocation
   failure: each dimension is blamed at its token as soon as the product
   of the dimensions known so far passes the cap, without overflow. *)
let test_parse_grid_cap () =
  let expect_cap ~line ~col text =
    match Netlist.Parse.of_string text with
    | Ok _ -> Alcotest.failf "expected a grid-size error for %S" text
    | Error e ->
        Testkit.check_int "error line" line e.Netlist.Parse.line;
        Testkit.check_int "error column" col e.Netlist.Parse.col;
        Testkit.check_true "names the cap"
          (Testkit.contains e.Netlist.Parse.msg
             (string_of_int Netlist.Parse.max_nodes))
  in
  expect_cap ~line:1 ~col:25 "problem p region 100000 100000\n";
  expect_cap ~line:2 ~col:8 "problem p region 10 10\nlayers 300000000\n";
  expect_cap ~line:1 ~col:18
    (Printf.sprintf "problem p region %d 10\n" max_int);
  expect_cap ~line:1 ~col:8 "layers 300000000\nproblem p region 10 10\n";
  expect_cap ~line:2 ~col:23 "layers 4\nproblem p region 2048 2048\n";
  expect_cap ~line:2 ~col:8 "problem p region 2048 1024\nlayers 3\n";
  (* Exactly at the cap is fine. *)
  match Netlist.Parse.of_string "problem p region 2048 1024\n" with
  | Ok p -> Testkit.check_int "width" 2048 p.Netlist.Problem.width
  | Error e -> Alcotest.fail (Netlist.Parse.error_to_string e)

let test_parse_comments_and_blanks () =
  let p =
    Netlist.Parse.of_string_exn
      "# a comment\n\nproblem p region 5 5\n\nnet a\npin 0 0\npin 1 1 1\n# end\n"
  in
  Testkit.check_int "one net" 1 (Netlist.Problem.net_count p);
  let n = Netlist.Problem.net p 1 in
  Testkit.check_true "default layer 0"
    (List.exists
       (fun (q : Netlist.Net.pin) -> q.Netlist.Net.layer = 0)
       n.Netlist.Net.pins)

let test_parse_error_source_names () =
  (* Every parse error names where its text came from: the file path for
     [load], the caller-supplied [src] for strings, "<string>" otherwise. *)
  let bad = "problem p region x 4\n" in
  (match Netlist.Parse.of_string bad with
  | Error e ->
      Testkit.check_true "default src" (e.Netlist.Parse.src = "<string>");
      Testkit.check_true "rendered with src"
        (String.length (Netlist.Parse.error_to_string e) > 9
        && String.sub (Netlist.Parse.error_to_string e) 0 9 = "<string>:")
  | Ok _ -> Alcotest.fail "expected parse error");
  (match Netlist.Parse.of_string ~src:"ticket.problem" bad with
  | Error e -> Testkit.check_true "explicit src" (e.Netlist.Parse.src = "ticket.problem")
  | Ok _ -> Alcotest.fail "expected parse error");
  let path = Filename.temp_file "netlist" ".problem" in
  let oc = open_out path in
  output_string oc bad;
  close_out oc;
  (match Netlist.Parse.load path with
  | Error e ->
      Testkit.check_true "load src is the path" (e.Netlist.Parse.src = path)
  | Ok _ -> Alcotest.fail "expected parse error");
  Sys.remove path;
  match Netlist.Parse.load path with
  | Error e ->
      Testkit.check_true "missing file src is the path"
        (e.Netlist.Parse.src = path);
      Testkit.check_int "no line for io errors" 0 e.Netlist.Parse.line
  | Ok _ -> Alcotest.fail "expected io error"

let test_parse_generated_problems () =
  List.iter
    (fun (_, p) ->
      let text = Netlist.Parse.to_string p in
      let q = Netlist.Parse.of_string_exn text in
      Testkit.check_true "roundtrip equal" (Netlist.Parse.to_string q = text))
    (Workload.Hard.all_channels () @ Workload.Hard.all_switchboxes ())

(* Every directive of the format, valid and malformed: all three problem
   kinds, layer stacks, classes, instances and their pins.  Duplicates and
   out-of-context lines (an ipin outside an inst block) come from drawing
   lines twice or out of order. *)
let fuzz_lines =
  [
    "problem p region 6 6"; "problem s switchbox 8 6"; "problem c channel 6 4";
    "problem"; "problem q blob 4 4"; "layers 3"; "layers 3 h v h";
    "layers 2 v"; "layers 1"; "layers 99999999"; "net a"; "net b"; "pin 1 2";
    "pin 1 2 1"; "pin 1 2 2"; "pin x"; "pin 99 99"; "obstruct * 0 0 2 2";
    "obstruct 9 1 1 1 1"; "prewire a fixed"; "prewire a loose"; "cell 0 1 1";
    "class a clock"; "class b power"; "class a bogus"; "class zz signal";
    "inst m1 2 2 free"; "inst m2 2 2 fixed 3 3"; "inst m3 2 2 loose";
    "inst m4 0 2 free"; "inst m5 -1 2 fixed 0 0"; "ipin a 0 0";
    "ipin b 2 1 1"; "ipin zz 0 0"; "ipin a 0 0 7"; "# note"; ""; "garbage";
  ]

(* Half the draws open with a valid header and net block, so some parses
   succeed.  A parse never raises; a parsed problem prints to text that
   re-parses and prints identically; an error names its source. *)
let prop_parse_never_crashes =
  Testkit.qcheck ~count:5000 ~print:(String.concat "\n")
    "parser never raises"
    QCheck2.Gen.(
      map2
        (fun header lines ->
          (if header then [ "problem p region 8 8"; "net a"; "pin 1 1" ]
           else [])
          @ lines)
        bool
        (list_size (int_range 0 12) (oneofl fuzz_lines)))
    (fun lines ->
      match Netlist.Parse.of_string ~src:"fuzz" (String.concat "\n" lines) with
      | exception _ -> false
      | Ok p -> (
          let text = Netlist.Parse.to_string p in
          match Netlist.Parse.of_string text with
          | Ok q -> String.equal (Netlist.Parse.to_string q) text
          | Error _ -> false)
      | Error e ->
          e.Netlist.Parse.src = "fuzz"
          && String.starts_with ~prefix:"fuzz: "
               (Netlist.Parse.error_to_string e))

let prop_roundtrip_random_problems =
  Testkit.qcheck ~count:40 "random generated problems round-trip"
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 0 2))
    (fun (seed, which) ->
      let prng = Util.Prng.create seed in
      let p =
        match which with
        | 0 -> Workload.Gen.channel prng ~columns:12 ~nets:5
        | 1 -> Workload.Gen.switchbox prng ~width:10 ~height:8 ~nets:5
        | _ -> Workload.Gen.region prng ~width:10 ~height:8 ~nets:4
      in
      let text = Netlist.Parse.to_string p in
      Netlist.Parse.to_string (Netlist.Parse.of_string_exn text) = text)

(* --- analysis --- *)

let test_channel_density () =
  let p =
    Netlist.Build.channel ~tracks:3
      ~top:[| 1; 2; 0; 3 |]
      ~bottom:[| 0; 1; 2; 0 |]
      ()
  in
  Testkit.check_int "density" 2 (Netlist.Analysis.channel_density p);
  let density = Netlist.Analysis.column_density p in
  Testkit.check_int "columns" 4 (Array.length density);
  Testkit.check_int "col1 densest" 2 density.(1)

let test_cuts () =
  let p =
    Netlist.Problem.make ~name:"c" ~width:6 ~height:4
      [
        Netlist.Net.make ~id:1 ~name:"a" [ pin 0 0; pin 5 0 ];
        Netlist.Net.make ~id:2 ~name:"b" [ pin 2 1; pin 3 1 ];
        Netlist.Net.make ~id:3 ~name:"c" [ pin 1 0; pin 1 3 ];
      ]
  in
  let v = Netlist.Analysis.vertical_cuts p in
  Testkit.check_int "cut 0 crosses net1" 1 v.(0);
  Testkit.check_int "cut 2 crosses nets 1+2" 2 v.(2);
  Testkit.check_int "max vertical" 2 (Netlist.Analysis.max_vertical_cut p);
  Testkit.check_int "max horizontal" 1 (Netlist.Analysis.max_horizontal_cut p);
  Testkit.check_int "track lower bound" 2
    (Netlist.Analysis.switchbox_track_lower_bound p);
  Testkit.check_int "wl lower bound" (5 + 1 + 3)
    (Netlist.Analysis.wirelength_lower_bound p)

let test_net_span () =
  let n = Netlist.Net.make ~id:1 ~name:"s" [ pin 4 0; pin 1 2; pin 7 1 ] in
  Testkit.check_true "span"
    (Netlist.Analysis.net_span n = Some (Geom.Interval.make 1 7));
  Testkit.check_true "no span"
    (Netlist.Analysis.net_span (Netlist.Net.make ~id:2 ~name:"e" []) = None)

let () =
  Alcotest.run "netlist"
    [
      ( "net",
        [
          Alcotest.test_case "make" `Quick test_net_make;
          Alcotest.test_case "rejects bad" `Quick test_net_rejects_bad;
          Alcotest.test_case "trivial/bbox" `Quick test_net_trivial_and_bbox;
        ] );
      ( "problem",
        [
          Alcotest.test_case "basics" `Quick test_problem_basics;
          Alcotest.test_case "validation" `Quick test_problem_validation;
          Alcotest.test_case "instantiate" `Quick test_problem_instantiate;
          Alcotest.test_case "prewires" `Quick test_problem_prewires;
          Alcotest.test_case "prewire validation" `Quick test_prewire_validation;
        ] );
      ( "build",
        [
          Alcotest.test_case "channel conventions" `Quick
            test_build_channel_conventions;
          Alcotest.test_case "channel rejects" `Quick test_build_channel_rejects;
          Alcotest.test_case "switchbox conventions" `Quick
            test_build_switchbox_conventions;
          Alcotest.test_case "corner conflict" `Quick
            test_build_switchbox_corner_conflict;
          Alcotest.test_case "id compaction" `Quick test_build_compacts_ids;
        ] );
      ( "parse",
        [
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "grid size cap" `Quick test_parse_grid_cap;
          Alcotest.test_case "error source names" `Quick
            test_parse_error_source_names;
          Alcotest.test_case "comments/blanks" `Quick
            test_parse_comments_and_blanks;
          Alcotest.test_case "suite roundtrips" `Quick
            test_parse_generated_problems;
          prop_parse_never_crashes;
          prop_roundtrip_random_problems;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "channel density" `Quick test_channel_density;
          Alcotest.test_case "cuts" `Quick test_cuts;
          Alcotest.test_case "net span" `Quick test_net_span;
        ] );
    ]
