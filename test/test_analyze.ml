(* The pre-route routability predictor (lib/analyze) and the 2-layer
   pinning of the N-layer Surface generalization.

   Two families of guarantees:

   - {e equivalence}: a problem carrying an explicit [layers 2 h v]
     directive is the same problem as one carrying none — byte-identical
     printed text, byte-identical routed layouts and renders at every
     incremental setting, byte-identical snapshot bytes.  This pins
     the N-generalized grid to the historical 2-layer behaviour on all
     committed instances.

   - {e calibration}: the predictor's score ordering tracks actual
     routed overflow ordering on a generated congestion family, its
     verdict answers on the committed 1000+ net multi-layer chip
     instances, and its cost stays under 5% of a full detailed route's
     node expansions. *)

let prng seed = Util.Prng.create seed

(* Insert an explicit default-stack directive after the problem line —
   the parser must accept it and produce the very same problem. *)
let with_explicit_layers text =
  match String.index_opt text '\n' with
  | None -> text ^ "\nlayers 2 h v\n"
  | Some nl ->
      String.sub text 0 (nl + 1)
      ^ "layers 2 h v\n"
      ^ String.sub text (nl + 1) (String.length text - nl - 1)

let reparse ?(src = "test") text =
  match Netlist.Parse.of_string ~src text with
  | Ok p -> p
  | Error e -> Alcotest.fail (Netlist.Parse.error_to_string e)

(* --- equivalence: explicit [layers 2 h v] is the identity --- *)

let check_layers2_identity problem =
  let text = Netlist.Parse.to_string problem in
  Testkit.check_false "printer elides the default stack"
    (Testkit.contains text "layers");
  let explicit = reparse (with_explicit_layers text) in
  Testkit.check_true "explicit directive parses to the default stack"
    (Netlist.Problem.default_stack explicit);
  Alcotest.(check string)
    "re-printed text elides the directive" text
    (Netlist.Parse.to_string explicit);
  (* Same routed layout, same renders.  Routing reads no refine setting
     ([Config.incremental] steers refine only), so one route of each
     text is the whole comparison. *)
  let a = Router.Engine.route problem in
  let b = Router.Engine.route explicit in
  Testkit.check_true "layouts byte-equal"
    (Grid.equal a.Router.Engine.grid b.Router.Engine.grid);
  Alcotest.(check string)
    "ascii renders byte-equal"
    (Viz.Ascii.render a.Router.Engine.grid)
    (Viz.Ascii.render b.Router.Engine.grid)

let test_layers2_committed () =
  List.iter
    (fun name ->
      let path = Filename.concat "../instances" (name ^ ".problem") in
      check_layers2_identity (Netlist.Parse.load_exn path))
    [ "switchbox_12x10"; "switchbox_32x26"; "chip_96x64" ]

let prop_layers2_random =
  Testkit.qcheck ~count:20 "random instances: explicit layers 2 h v is identity"
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let problem =
        Workload.Gen.routable_switchbox (prng seed) ~width:14 ~height:12
      in
      check_layers2_identity problem;
      true)

(* Snapshot bytes: a 2-layer session opened from explicit-directive text
   snapshots to the very same bytes as one opened from plain text, and
   the bytes use the historical format (pair vias, no layers line). *)
let test_layers2_snapshot_bytes () =
  let problem =
    Workload.Gen.routable_switchbox (prng 42) ~width:14 ~height:12
  in
  let snap_of problem =
    let session = Router.Session.create problem in
    (match Router.Session.try_route session with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "route failed");
    let problem, vias, frozen = Router.Session.checkpoint session in
    let path = Filename.temp_file "analyze_snap" ".walsnap" in
    Service.Snapshot.write ~fsync:false ~gen:1 ~last_rid:1 ~vias ~frozen
      problem path;
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let bytes = really_input_string ic n in
    close_in ic;
    Sys.remove path;
    bytes
  in
  let plain = snap_of (reparse (Netlist.Parse.to_string problem)) in
  let explicit =
    snap_of (reparse (with_explicit_layers (Netlist.Parse.to_string problem)))
  in
  Alcotest.(check string) "snapshot bytes identical" plain explicit;
  Testkit.check_false "no layers directive in snapshot"
    (Testkit.contains plain "layers ");
  (* A via triple would print as [x,y,l]; pair vias print as [x,y].
     Inspect every innermost bracketed group (no nested '[') and count
     its commas. *)
  Testkit.check_false "no 3-element vias in a 2-layer snapshot"
    (let rec has_triple i =
       match String.index_from_opt plain i '[' with
       | None -> false
       | Some j -> (
           match String.index_from_opt plain (j + 1) ']' with
           | None -> false
           | Some k ->
               let inner = String.sub plain (j + 1) (k - j - 1) in
               let commas = ref 0 in
               String.iter (fun c -> if c = ',' then incr commas) inner;
               if (not (String.contains inner '[')) && !commas >= 2 then true
               else has_triple (j + 1))
     in
     has_triple 0)

(* --- calibration: score ordering tracks actual routed overflow --- *)

(* Spearman rank correlation with tie-averaged ranks (Pearson on the
   rank vectors), so near-duplicate overflow values do not inject rank
   noise. *)
let spearman xs ys =
  let rank arr =
    let n = Array.length arr in
    let idx = Array.init n Fun.id in
    Array.sort (fun a b -> compare arr.(a) arr.(b)) idx;
    let r = Array.make n 0.0 in
    let i = ref 0 in
    while !i < n do
      let j = ref !i in
      while !j + 1 < n && arr.(idx.(!j + 1)) = arr.(idx.(!i)) do incr j done;
      let avg = float_of_int (!i + !j) /. 2.0 in
      for k = !i to !j do
        r.(idx.(k)) <- avg
      done;
      i := !j + 1
    done;
    r
  in
  let rx = rank xs and ry = rank ys in
  let n = Array.length xs in
  let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int n in
  let mx = mean rx and my = mean ry in
  let num = ref 0.0 and dx = ref 0.0 and dy = ref 0.0 in
  Array.iteri
    (fun i x ->
      let a = x -. mx and b = ry.(i) -. my in
      num := !num +. (a *. b);
      dx := !dx +. (a *. a);
      dy := !dy +. (b *. b))
    rx;
  if !dx = 0.0 || !dy = 0.0 then 1.0 else !num /. sqrt (!dx *. !dy)

let actual_overflow (g : Groute.t) =
  let total = Array.fold_left ( + ) 0 g.Groute.capacity in
  let over = ref 0 in
  Array.iteri
    (fun i u ->
      if u > g.Groute.capacity.(i) then
        over := !over + (u - g.Groute.capacity.(i)))
    g.Groute.usage;
  if total = 0 then if !over > 0 then 1.0 else 0.0
  else min 1.0 (float_of_int !over /. float_of_int total)

let test_calibration_rank_correlation () =
  (* A congestion family: same region, rising net count.  The predictor
     never routes; the "actual" side is the global router's realized
     overflow after routing the tile graph. *)
  let family = [ 6; 12; 18; 24; 32; 40; 48 ] in
  let points =
    List.map
      (fun nets ->
        let problem =
          Workload.Gen.region (prng 7) ~width:28 ~height:20 ~nets
        in
        let a = Analyze.run problem in
        let actual = actual_overflow (Groute.run problem) in
        (1.0 -. a.Analyze.verdict.Analyze.score, actual))
      family
  in
  let xs = Array.of_list (List.map fst points)
  and ys = Array.of_list (List.map snd points) in
  let rho = spearman xs ys in
  if rho < 0.6 then
    Alcotest.failf
      "rank correlation %.3f < 0.6 (predicted %s vs actual %s)" rho
      (String.concat ","
         (List.map (fun (p, _) -> Printf.sprintf "%.3f" p) points))
      (String.concat ","
         (List.map (fun (_, a) -> Printf.sprintf "%.3f" a) points))

let test_calibration_committed () =
  (* All committed pre-placed instances (the macro ones need the flow's
     placer first; bench analyze covers those).  Actual overflow values
     here cluster near zero — routable instances by construction — so
     the rank assertion is deliberately coarse, plus one crisp ordering
     property: the predictor must put the two genuinely congested
     switchboxes on top. *)
  let names =
    [
      "switchbox_12x10"; "switchbox_32x26"; "switchbox_64x52";
      "switchbox_128x104"; "chip_96x64"; "chip_128x96"; "chip_320x224_l3";
      "chip_288x192_l4";
    ]
  in
  let points =
    List.map
      (fun name ->
        let problem =
          Netlist.Parse.load_exn
            (Filename.concat "../instances" (name ^ ".problem"))
        in
        let a = Analyze.run problem in
        ( name,
          a.Analyze.verdict.Analyze.predicted_overflow,
          actual_overflow (Groute.run problem) ))
      names
  in
  let rho =
    spearman
      (Array.of_list (List.map (fun (_, p, _) -> p) points))
      (Array.of_list (List.map (fun (_, _, a) -> a) points))
  in
  let show =
    String.concat "; "
      (List.map
         (fun (n, p, a) -> Printf.sprintf "%s pred %.3f actual %.3f" n p a)
         points)
  in
  if rho < 0.4 then
    Alcotest.failf "committed-instance rank correlation %.3f < 0.4 (%s)" rho
      show;
  let top k sel =
    List.filteri (fun i _ -> i < k)
      (List.sort
         (fun a b -> compare (sel b) (sel a))
         points)
    |> List.map (fun (n, _, _) -> n)
    |> List.sort compare
  in
  Alcotest.(check (list string))
    "two most congested instances predicted on top"
    (top 2 (fun (_, _, a) -> a))
    (top 2 (fun (_, p, _) -> p))

(* --- chip scale: verdict on the committed 1000+ net instances, and
   the <5% cost bound against a full detailed route --- *)

let test_chip_scale_verdict_and_cost () =
  let path = "../instances/chip_320x224_l3.problem" in
  let problem = Netlist.Parse.load_exn path in
  Testkit.check_true "1000+ nets"
    (Netlist.Problem.net_count problem >= 1000);
  Testkit.check_true "3+ layers" (problem.Netlist.Problem.layers >= 3);
  let a = Analyze.run problem in
  Testkit.check_true "score in (0,1]"
    (a.Analyze.verdict.Analyze.score > 0.0
    && a.Analyze.verdict.Analyze.score <= 1.0);
  Testkit.check_true "predictor considered every net"
    (a.Analyze.nets >= 1000);
  let config =
    {
      Router.Config.default with
      Router.Config.kernel = Maze.Search.Buckets;
      use_astar = true;
    }
  in
  let result = Testkit.route_clean ~config problem in
  let expanded = result.Router.Engine.stats.Router.Engine.expanded in
  Testkit.check_true
    (Printf.sprintf "analyze cost %d < 5%% of route expansions %d"
       a.Analyze.cost expanded)
    (a.Analyze.cost * 20 < expanded)

(* The flow triage gate: predicted-vs-actual on a placed flow, without
   perturbing the layout. *)
let test_flow_triage_gate () =
  let problem = Workload.Gen.macro (prng 3) ~width:48 ~height:40 ~nets:10 in
  let run triage = Flow.run ~seed:1 ~triage problem in
  match (run false, run true) with
  | Ok plain, Ok triaged ->
      Testkit.check_true "triage is off by default"
        (Flow.triage_report plain = None);
      (match Flow.triage_report triaged with
      | None -> Alcotest.fail "triage report missing"
      | Some r ->
          Testkit.check_true "score in (0,1]"
            (r.Flow.score > 0.0 && r.Flow.score <= 1.0);
          Testkit.check_true "overflow fractions in [0,1]"
            (r.Flow.predicted_overflow >= 0.0
            && r.Flow.predicted_overflow <= 1.0
            && r.Flow.actual_overflow >= 0.0
            && r.Flow.actual_overflow <= 1.0));
      Testkit.check_true "triage cannot change the layout"
        (Grid.equal plain.Flow.result.Router.Engine.grid
           triaged.Flow.result.Router.Engine.grid)
  | Error e, _ | _, Error e -> Alcotest.fail e

let () =
  Alcotest.run "analyze"
    [
      ( "layers2-equivalence",
        [
          Alcotest.test_case "committed instances" `Quick
            test_layers2_committed;
          prop_layers2_random;
          Alcotest.test_case "snapshot bytes" `Quick
            test_layers2_snapshot_bytes;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "rank correlation" `Quick
            test_calibration_rank_correlation;
          Alcotest.test_case "committed instances" `Quick
            test_calibration_committed;
          Alcotest.test_case "chip-scale verdict and cost" `Slow
            test_chip_scale_verdict_and_cost;
        ] );
      ( "triage",
        [
          Alcotest.test_case "flow triage gate" `Quick test_flow_triage_gate;
        ] );
    ]
