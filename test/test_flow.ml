(* The mini-flow (DESIGN.md §13): annealing placement, global-route
   guides, guide-windowed detailed routing.

   Pinned here:
   - the placer's incremental objective is exact: any applied move keeps
     the running cost equal to a from-scratch recompute, and undo
     restores it to the byte;
   - the committed macros' placements and flow wirelengths, so that an
     annealer change that moves a placement fails here;
   - placement and class sections round-trip through the text format;
   - guides never change the answer: on every committed macro instance
     the flow's layout is byte-identical (Grid.equal) to the full-window
     route of the realized problem;
   - the global router's capacity model is self-consistent and the class
     audit agrees with the overflow count. *)

let macro_instances = [ "macro_48x40"; "macro_64x52"; "macro_128x104" ]

let gen_macro seed =
  Workload.Gen.macro ~macros:4 (Util.Prng.create seed) ~width:48 ~height:40
    ~nets:8

let placed_of seed =
  match Place.place ~seed:(seed lxor 0x9E37) (gen_macro seed) with
  | Ok (p, _) -> p
  | Error msg -> Alcotest.failf "placer failed on seed %d: %s" seed msg

(* --- placer: move/undo exactness --- *)

(* macro_128x104 as the flow places it: its nets span the most bins, so
   its moves shift the longest bin ranges. *)
let placed_128x104 =
  lazy
    (match Place.place ~seed:1 (Testkit.instance "macro_128x104") with
    | Ok (p, _) -> p
    | Error msg -> Alcotest.failf "placer failed on macro_128x104: %s" msg)

let undo_exact placed seed =
  let st = Place.Internal.init placed in
  let prng = Util.Prng.create (seed + 1) in
  let ok = ref (Place.Internal.cost st = Place.Internal.recompute_cost st) in
  for i = 1 to 40 do
    let before = Place.Internal.cost st in
    let applied = Place.Internal.random_move st prng ~range:8 in
    (* Applied or not, the incremental cost must match a recompute. *)
    if Place.Internal.cost st <> Place.Internal.recompute_cost st then
      ok := false;
    if applied && i mod 2 = 0 then begin
      (* Undo half the applied moves: exact restoration. *)
      Place.Internal.undo st;
      if Place.Internal.cost st <> before then ok := false
    end
  done;
  !ok

let prop_move_undo_exact =
  Testkit.qcheck ~count:60 "placer undo restores the objective exactly"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      undo_exact (placed_of seed) seed
      && undo_exact (Lazy.force placed_128x104) seed)

(* Moves, accepted moves and final cost of each committed macro's
   placement, and the wirelength its flow routes. *)
let test_committed_placements () =
  List.iter
    (fun (name, (moves, accepted, final_cost), wirelength) ->
      match Flow.run (Testkit.instance name) with
      | Error msg -> Alcotest.failf "%s: flow failed: %s" name msg
      | Ok f ->
          let p =
            match f.Flow.stats.Flow.place with
            | Some p -> p
            | None -> Alcotest.failf "%s: nothing placed" name
          in
          Alcotest.(check (triple int int int))
            (name ^ ": moves, accepted, final cost")
            (moves, accepted, final_cost)
            (p.Place.moves, p.Place.accepted, p.Place.final_cost);
          Alcotest.(check int)
            (name ^ ": flow wirelength")
            wirelength
            f.Flow.result.Router.Engine.stats.Router.Engine.total_wirelength)
    [
      ("macro_48x40", (1032, 222, 348), 404);
      ("macro_64x52", (2120, 346, 554), 979);
      ("macro_128x104", (4480, 891, 4367), 2961);
    ]

(* --- parse round-trip of placement + class sections --- *)

let prop_macro_roundtrip =
  Testkit.qcheck ~count:60 "macro problems round-trip through the format"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let p = gen_macro seed in
      let text = Netlist.Parse.to_string p in
      match Netlist.Parse.of_string text with
      | Error e -> QCheck2.Test.fail_report (Netlist.Parse.error_to_string e)
      | Ok p' -> String.equal text (Netlist.Parse.to_string p'))

let prop_placed_roundtrip =
  Testkit.qcheck ~count:30 "placed problems round-trip through the format"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let p = placed_of seed in
      let text = Netlist.Parse.to_string p in
      match Netlist.Parse.of_string text with
      | Error e -> QCheck2.Test.fail_report (Netlist.Parse.error_to_string e)
      | Ok p' ->
          Netlist.Problem.placed p'
          && String.equal text (Netlist.Parse.to_string p'))

(* --- placer determinism --- *)

let prop_place_deterministic =
  Testkit.qcheck ~count:20 "equal seeds give byte-equal placements"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let p = gen_macro seed in
      let txt q =
        match Place.place ~seed:7 q with
        | Ok (placed, _) -> Netlist.Parse.to_string placed
        | Error msg -> Alcotest.failf "placer failed: %s" msg
      in
      String.equal (txt p) (txt p))

(* --- groute: capacity model self-consistency --- *)

let check_groute_consistent name (gr : Groute.t) =
  let tiles = gr.Groute.tiles_x * gr.Groute.tiles_y in
  let overflow = ref 0 in
  for t = 0 to tiles - 1 do
    let by_class =
      Array.fold_left (fun a row -> a + row.(t)) 0 gr.Groute.class_usage
    in
    Alcotest.(check int)
      (Printf.sprintf "%s: tile %d class usage sums to total" name t)
      gr.Groute.usage.(t) by_class;
    if gr.Groute.usage.(t) > gr.Groute.capacity.(t) then incr overflow
  done;
  Alcotest.(check int)
    (Printf.sprintf "%s: overflow count matches usage" name)
    !overflow gr.Groute.overflow_tiles;
  (* The audit may reject share violations even without overflow, but an
     overflowing tile must never pass it. *)
  match Groute.audit gr with
  | Ok () ->
      Alcotest.(check int)
        (Printf.sprintf "%s: audit ok => no overflow" name)
        0 gr.Groute.overflow_tiles
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: audit error names a tile (%s)" name msg)
        true
        (Testkit.contains msg "tile")

(* The committed instances ship unplaced; pin the placement seed so the
   groute assertions see the same realization every run. *)
let realize_placed name =
  match Place.place ~seed:Router.Config.default.Router.Config.seed (Testkit.instance name) with
  | Ok (placed, _) -> Netlist.Problem.realize placed
  | Error msg -> Alcotest.failf "%s: placer failed: %s" name msg

let test_groute_instances () =
  List.iter
    (fun name -> check_groute_consistent name (Groute.run (realize_placed name)))
    macro_instances

let test_groute_audit_clean () =
  (* The two smaller committed instances have no overflow: the class
     capacity model must audit clean on them. *)
  List.iter
    (fun name ->
      match Groute.audit (Groute.run (realize_placed name)) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: audit failed: %s" name msg)
    [ "macro_48x40"; "macro_64x52" ]

(* --- flow: guided = full-window --- *)

(* The detailed-route config the flow forces, routed without guides: the
   reference every guided layout must equal. *)
let forced = Flow.detailed_config Router.Config.default

let check_flow_instance name =
  let problem = Testkit.instance name in
  let f =
    match Flow.run problem with
    | Ok f -> f
    | Error msg -> Alcotest.failf "%s: flow failed: %s" name msg
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: flow completes" name)
    true f.Flow.result.Router.Engine.completed;
  let violations = Drc.Check.check f.Flow.realized f.Flow.result.Router.Engine.grid in
  if violations <> [] then
    Alcotest.failf "%s: DRC violations:\n%s" name (Drc.Check.explain violations);
  (* Same forced detailed-route config, no guides: byte-identical. *)
  let full = Router.Engine.route ~config:forced f.Flow.realized in
  Alcotest.(check bool)
    (Printf.sprintf "%s: guided layout = full-window layout" name)
    true
    (Grid.equal f.Flow.result.Router.Engine.grid full.Router.Engine.grid)

let test_flow_small () = List.iter check_flow_instance [ "macro_48x40" ]

let test_flow_large () =
  List.iter check_flow_instance [ "macro_64x52"; "macro_128x104" ]

(* --- flow on unplaced generator output --- *)

let prop_flow_random_macro =
  Testkit.qcheck ~count:8 "flow routes random macro problems guided = full"
    QCheck2.Gen.(int_range 0 1_000)
    (fun seed ->
      match Flow.run (gen_macro seed) with
      | Error _ -> true (* an unplaceable random instance is not a bug *)
      | Ok f ->
          let full = Router.Engine.route ~config:forced f.Flow.realized in
          Grid.equal f.Flow.result.Router.Engine.grid full.Router.Engine.grid)

let () =
  Alcotest.run "flow"
    [
      ( "place",
        [
          prop_move_undo_exact;
          prop_place_deterministic;
          Alcotest.test_case "committed placements pinned" `Quick
            test_committed_placements;
        ] );
      ("format", [ prop_macro_roundtrip; prop_placed_roundtrip ]);
      ( "groute",
        [
          Alcotest.test_case "capacity model self-consistent" `Quick
            test_groute_instances;
          Alcotest.test_case "class audit clean on committed instances" `Quick
            test_groute_audit_clean;
        ] );
      ( "flow",
        [
          Alcotest.test_case "committed instance (small)" `Quick
            test_flow_small;
          Alcotest.test_case "committed instances (large)" `Slow
            test_flow_large;
          prop_flow_random_macro;
        ] );
    ]
