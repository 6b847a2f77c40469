(* Tests for the verifier: every violation class must be detected, clean
   layouts must pass, and the connectivity count must be exact. *)

let pin = Netlist.Net.pin

let two_net_problem () =
  Netlist.Problem.make ~name:"d" ~width:8 ~height:6
    [
      Netlist.Net.make ~id:1 ~name:"a" [ pin 0 0; pin 5 0 ];
      Netlist.Net.make ~id:2 ~name:"b" [ pin ~layer:1 2 2; pin ~layer:1 2 5 ];
    ]

let route_net_1 g =
  for x = 1 to 4 do
    Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x ~y:0)
  done

let route_net_2 g =
  for y = 3 to 4 do
    Grid.occupy g ~net:2 (Grid.node g ~layer:1 ~x:2 ~y)
  done

let test_clean_layout () =
  let p = two_net_problem () in
  let g = Netlist.Problem.instantiate p in
  route_net_1 g;
  route_net_2 g;
  Testkit.check_true "clean" (Drc.Check.is_clean p g);
  Testkit.check_true "explain empty" (Drc.Check.explain (Drc.Check.check p g) = "")

let test_detects_open_net () =
  let p = two_net_problem () in
  let g = Netlist.Problem.instantiate p in
  route_net_1 g;
  (* net 2 left unrouted: two components *)
  let violations = Drc.Check.check p g in
  Testkit.check_true "open net reported"
    (List.exists
       (function
         | Drc.Check.Net_disconnected { net = 2; components = 2 } -> true
         | Drc.Check.Net_disconnected _ | Drc.Check.Pin_not_owned _
         | Drc.Check.Via_mismatch _ | Drc.Check.Wire_on_obstruction _ ->
             false)
       violations)

let test_detects_floating_wire () =
  let p = two_net_problem () in
  let g = Netlist.Problem.instantiate p in
  route_net_1 g;
  route_net_2 g;
  (* A stray cell of net 1 far from its tree. *)
  Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x:7 ~y:5);
  let violations = Drc.Check.check p g in
  Testkit.check_true "floating wire reported"
    (List.exists
       (function
         | Drc.Check.Net_disconnected { net = 1; components = 2 } -> true
         | Drc.Check.Net_disconnected _ | Drc.Check.Pin_not_owned _
         | Drc.Check.Via_mismatch _ | Drc.Check.Wire_on_obstruction _ ->
             false)
       violations)

let test_stacked_without_via_disconnected () =
  (* Same net on both layers of a cell but no via: the layers are NOT
     connected there. *)
  let p =
    Netlist.Problem.make ~name:"v" ~width:4 ~height:4
      [ Netlist.Net.make ~id:1 ~name:"a" [ pin 0 0; pin ~layer:1 0 0 ] ]
  in
  let g = Netlist.Problem.instantiate p in
  let violations = Drc.Check.check p g in
  Testkit.check_true "stack without via disconnected"
    (List.exists
       (function
         | Drc.Check.Net_disconnected { net = 1; components = 2 } -> true
         | Drc.Check.Net_disconnected _ | Drc.Check.Pin_not_owned _
         | Drc.Check.Via_mismatch _ | Drc.Check.Wire_on_obstruction _ ->
             false)
       violations);
  Grid.set_via g ~x:0 ~y:0;
  Testkit.check_true "via connects" (Drc.Check.is_clean p g)

let test_detects_wire_on_obstruction () =
  (* Build the grid separately so the obstruction exists only in the problem
     description. *)
  let p =
    Netlist.Problem.make ~name:"o" ~width:6 ~height:4
      ~obstructions:
        [
          {
            Netlist.Problem.obs_layer = Some 0;
            obs_rect = Geom.Rect.make 3 1 3 1;
          };
        ]
      [ Netlist.Net.make ~id:1 ~name:"a" [ pin 0 1; pin 5 1 ] ]
  in
  let g = Grid.create ~width:6 ~height:4 () in
  for x = 0 to 5 do
    Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x ~y:1)
  done;
  let violations = Drc.Check.check p g in
  Testkit.check_true "obstruction violation"
    (List.exists
       (function
         | Drc.Check.Wire_on_obstruction { net = 1; layer = 0; x = 3; y = 1 } ->
             true
         | Drc.Check.Wire_on_obstruction _ | Drc.Check.Net_disconnected _
         | Drc.Check.Pin_not_owned _ | Drc.Check.Via_mismatch _ ->
             false)
       violations)

let test_detects_missing_pin () =
  let p = two_net_problem () in
  (* Fresh grid without pin occupancy. *)
  let g = Grid.create ~width:8 ~height:6 () in
  let violations = Drc.Check.check p g in
  let missing_pins =
    List.length
      (List.filter
         (function
           | Drc.Check.Pin_not_owned _ -> true
           | Drc.Check.Net_disconnected _ | Drc.Check.Via_mismatch _
           | Drc.Check.Wire_on_obstruction _ ->
               false)
         violations)
  in
  Testkit.check_int "all pins missing" 4 missing_pins

let test_via_mismatch_reported () =
  (* Hand-build a grid with an inconsistent via flag via a legal sequence:
     net 1 owns both layers, via set, then one layer is taken over after
     release. *)
  let p =
    Netlist.Problem.make ~name:"vm" ~width:4 ~height:4
      [
        Netlist.Net.make ~id:1 ~name:"a" [ pin 1 1 ];
        Netlist.Net.make ~id:2 ~name:"b" [ pin 2 2 ];
      ]
  in
  let g = Netlist.Problem.instantiate p in
  Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x:0 ~y:0);
  Grid.occupy g ~net:1 (Grid.node g ~layer:1 ~x:0 ~y:0);
  Grid.set_via g ~x:0 ~y:0;
  (* Simulate a buggy router: replace one layer without clearing the via.
     Grid.release clears it, so poke occupancy through a copy trick is not
     available — instead check that a via over free cells reports. *)
  Grid.release g (Grid.node g ~layer:0 ~x:0 ~y:0);
  (* release cleared the via; set up the mismatch differently *)
  Grid.occupy g ~net:2 (Grid.node g ~layer:0 ~x:0 ~y:0);
  Testkit.check_false "no via now" (Grid.has_via g ~x:0 ~y:0);
  (* The grid API cannot express a mismatched via, which is itself the
     guarantee; verify is_clean flags disconnection instead. *)
  Testkit.check_false "nets 1/2 have issues" (Drc.Check.is_clean p g)

let test_nets_filter () =
  let p = two_net_problem () in
  let g = Netlist.Problem.instantiate p in
  route_net_1 g;
  (* net 2 unrouted, but we only check net 1 *)
  Testkit.check_true "filtered clean" (Drc.Check.is_clean ~nets:[ 1 ] p g);
  Testkit.check_false "full check fails" (Drc.Check.is_clean p g)

let test_connected_components_counts () =
  let g = Grid.create ~width:6 ~height:4 () in
  Testkit.check_int "no cells" 0 (Drc.Check.connected_components g ~net:1);
  Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x:0 ~y:0);
  Testkit.check_int "one cell" 1 (Drc.Check.connected_components g ~net:1);
  Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x:1 ~y:0);
  Testkit.check_int "joined pair" 1 (Drc.Check.connected_components g ~net:1);
  Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x:3 ~y:3);
  Testkit.check_int "two components" 2 (Drc.Check.connected_components g ~net:1);
  (* Diagonal adjacency does not connect. *)
  Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x:2 ~y:1);
  Testkit.check_int "diagonal not connected" 3
    (Drc.Check.connected_components g ~net:1)

(* The per-net reference the one-pass checker must agree with: the
   checker as it was when it built one grid-sized union-find per net. *)
let reference_components g ~net =
  let uf = Util.Union_find.create (Grid.node_count g) in
  let w = Grid.width g and h = Grid.height g in
  for layer = 0 to Grid.layers g - 1 do
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        if Grid.occ_at g ~layer ~x ~y = net then begin
          let n = Grid.node g ~layer ~x ~y in
          if x + 1 < w && Grid.occ_at g ~layer ~x:(x + 1) ~y = net then
            Util.Union_find.union uf n (Grid.node g ~layer ~x:(x + 1) ~y);
          if y + 1 < h && Grid.occ_at g ~layer ~x ~y:(y + 1) = net then
            Util.Union_find.union uf n (Grid.node g ~layer ~x ~y:(y + 1))
        end
      done
    done
  done;
  Grid.iter_via_pairs g (fun ~layer ~x ~y ->
      if
        Grid.occ_at g ~layer ~x ~y = net
        && Grid.occ_at g ~layer:(layer + 1) ~x ~y = net
      then
        Util.Union_find.union uf
          (Grid.node g ~layer ~x ~y)
          (Grid.node g ~layer:(layer + 1) ~x ~y));
  Util.Union_find.count_components uf (fun n -> Grid.occ g n = net)

let reference_check ?nets problem g =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  List.iter
    (fun (net, (pin : Netlist.Net.pin)) ->
      if Grid.occ_at g ~layer:pin.layer ~x:pin.x ~y:pin.y <> net then
        add (Drc.Check.Pin_not_owned { net; pin }))
    (Netlist.Problem.pin_cells problem);
  List.iter
    (fun (o : Netlist.Problem.obstruction) ->
      Geom.Rect.iter o.obs_rect (fun x y ->
          if Grid.in_bounds g ~x ~y then
            List.iter
              (fun layer ->
                let v = Grid.occ_at g ~layer ~x ~y in
                if v > 0 then
                  add (Drc.Check.Wire_on_obstruction { net = v; layer; x; y }))
              (match o.obs_layer with
              | None -> List.init (Grid.layers g) Fun.id
              | Some l -> [ l ])))
    problem.Netlist.Problem.obstructions;
  Grid.iter_via_pairs g (fun ~layer ~x ~y ->
      let a = Grid.occ_at g ~layer ~x ~y
      and b = Grid.occ_at g ~layer:(layer + 1) ~x ~y in
      if a <= 0 || a <> b then add (Drc.Check.Via_mismatch { x; y }));
  List.iter
    (fun net ->
      if Netlist.Net.pin_count (Netlist.Problem.net problem net) > 0 then begin
        let components = reference_components g ~net in
        if components <> 1 then
          add (Drc.Check.Net_disconnected { net; components })
      end)
    (match nets with
    | Some ids -> ids
    | None -> List.init (Netlist.Problem.net_count problem) (fun i -> i + 1));
  List.rev !violations

(* The grid API cannot express a via between cells of two nets (placing
   one raises, and freeing either cell clears it), so random layouts
   cover the rest: split nets, stacks with and without vias, stacks of
   two nets, nets without pins or cells, unowned pins, and an owner id
   past the problem's nets. *)
let prop_one_pass_check_matches_reference =
  Testkit.qcheck ~count:300 "one-pass check = per-net union-find reference"
    QCheck2.Gen.(pair int (int_range 0 3))
    (fun (seed, filter) ->
      let p, g = Testkit.random_layout seed in
      let nets =
        (* every net, or every [filter]-th one *)
        if filter = 0 then None
        else
          Some
            (List.filter
               (fun id -> id mod filter = 0)
               (List.init (Netlist.Problem.net_count p) (fun i -> i + 1)))
      in
      let counts =
        Drc.Check.component_counts g ~nets:(Netlist.Problem.net_count p)
      in
      Drc.Check.check ?nets p g = reference_check ?nets p g
      && List.for_all
           (fun net -> counts.(net) = reference_components g ~net)
           (List.init (Netlist.Problem.net_count p) (fun i -> i + 1)))

let test_pp_violation_output () =
  let s =
    Format.asprintf "%a" Drc.Check.pp_violation
      (Drc.Check.Net_disconnected { net = 3; components = 2 })
  in
  Testkit.check_true "mentions net" (String.length s > 0);
  let s2 =
    Format.asprintf "%a" Drc.Check.pp_violation
      (Drc.Check.Via_mismatch { x = 1; y = 2 })
  in
  Testkit.check_true "mentions via" (String.length s2 > 0)

let () =
  Alcotest.run "drc"
    [
      ( "check",
        [
          Alcotest.test_case "clean layout" `Quick test_clean_layout;
          Alcotest.test_case "open net" `Quick test_detects_open_net;
          Alcotest.test_case "floating wire" `Quick test_detects_floating_wire;
          Alcotest.test_case "stack needs via" `Quick test_stacked_without_via_disconnected;
          Alcotest.test_case "wire on obstruction" `Quick test_detects_wire_on_obstruction;
          Alcotest.test_case "missing pins" `Quick test_detects_missing_pin;
          Alcotest.test_case "via invariants" `Quick test_via_mismatch_reported;
          Alcotest.test_case "nets filter" `Quick test_nets_filter;
          Alcotest.test_case "component counts" `Quick test_connected_components_counts;
          Alcotest.test_case "violation printing" `Quick test_pp_violation_output;
          prop_one_pass_check_matches_reference;
        ] );
    ]
