(* Tests for the routing grid: node packing, occupancy rules, vias,
   obstruction helpers, paths and segment extraction. *)

let mk () = Grid.create ~width:8 ~height:6 ()

let test_dimensions () =
  let g = mk () in
  Testkit.check_int "width" 8 (Grid.width g);
  Testkit.check_int "height" 6 (Grid.height g);
  Testkit.check_int "planar" 48 (Grid.planar_cells g);
  Testkit.check_int "nodes" 96 (Grid.node_count g)

let test_node_packing_roundtrip () =
  let g = mk () in
  for layer = 0 to 1 do
    for y = 0 to 5 do
      for x = 0 to 7 do
        let n = Grid.node g ~layer ~x ~y in
        Testkit.check_int "layer" layer (Grid.node_layer g n);
        Testkit.check_int "x" x (Grid.node_x g n);
        Testkit.check_int "y" y (Grid.node_y g n);
        Testkit.check_int "planar" ((y * 8) + x) (Grid.planar g n)
      done
    done
  done

let test_nodes_distinct () =
  let g = mk () in
  let seen = Hashtbl.create 128 in
  Grid.iter_nodes g (fun n ->
      Testkit.check_false "duplicate node" (Hashtbl.mem seen n);
      Hashtbl.replace seen n ());
  Testkit.check_int "all nodes" (Grid.node_count g) (Hashtbl.length seen)

let test_other_layer_node () =
  let g = mk () in
  let n = Grid.node g ~layer:0 ~x:3 ~y:2 in
  let m = Grid.node_above g n in
  Testkit.check_int "other layer" 1 (Grid.node_layer g m);
  Testkit.check_int "same x" 3 (Grid.node_x g m);
  Testkit.check_int "same planar" (Grid.planar g n) (Grid.planar g m);
  Testkit.check_int "involution" n (Grid.node_below g m)

let test_occupy_release () =
  let g = mk () in
  let n = Grid.node g ~layer:0 ~x:1 ~y:1 in
  Testkit.check_true "initially free" (Grid.is_free g n);
  Grid.occupy g ~net:3 n;
  Testkit.check_true "owned" (Grid.owner g n = Some 3);
  Grid.occupy g ~net:3 n;
  (* idempotent *)
  Grid.release g n;
  Testkit.check_true "released" (Grid.is_free g n);
  Grid.release g n (* releasing free is a no-op *)

let test_occupy_conflicts () =
  let g = mk () in
  let n = Grid.node g ~layer:0 ~x:1 ~y:1 in
  Grid.occupy g ~net:3 n;
  (try
     Grid.occupy g ~net:4 n;
     Alcotest.fail "expected conflict"
   with Invalid_argument _ -> ());
  let m = Grid.node g ~layer:1 ~x:2 ~y:2 in
  Grid.set_obstacle g ~layer:1 ~x:2 ~y:2;
  (try
     Grid.occupy g ~net:1 m;
     Alcotest.fail "expected obstacle rejection"
   with Invalid_argument _ -> ());
  try
    Grid.release g m;
    Alcotest.fail "expected obstacle release rejection"
  with Invalid_argument _ -> ()

let test_via_lifecycle () =
  let g = mk () in
  let n0 = Grid.node g ~layer:0 ~x:4 ~y:3 in
  let n1 = Grid.node g ~layer:1 ~x:4 ~y:3 in
  (try
     Grid.set_via g ~x:4 ~y:3;
     Alcotest.fail "via without ownership"
   with Invalid_argument _ -> ());
  Grid.occupy g ~net:2 n0;
  Grid.occupy g ~net:2 n1;
  Grid.set_via g ~x:4 ~y:3;
  Testkit.check_true "via set" (Grid.has_via g ~x:4 ~y:3);
  Testkit.check_true "via by node" (Grid.has_via_node g n0);
  Testkit.check_int "count" 1 (Grid.via_count g);
  Grid.set_via g ~x:4 ~y:3;
  Testkit.check_int "idempotent count" 1 (Grid.via_count g);
  Grid.release g n0;
  Testkit.check_false "release clears via" (Grid.has_via g ~x:4 ~y:3);
  Testkit.check_int "count zero" 0 (Grid.via_count g)

let test_via_mismatched_nets () =
  let g = mk () in
  Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x:0 ~y:0);
  Grid.occupy g ~net:2 (Grid.node g ~layer:1 ~x:0 ~y:0);
  try
    Grid.set_via g ~x:0 ~y:0;
    Alcotest.fail "expected mismatch rejection"
  with Invalid_argument _ -> ()

let test_block_outside () =
  let g = mk () in
  Grid.block_outside g (Geom.Rect.make 1 1 6 4);
  Testkit.check_true "outside blocked"
    (Grid.is_obstacle g (Grid.node g ~layer:0 ~x:0 ~y:0));
  Testkit.check_true "inside free"
    (Grid.is_free g (Grid.node g ~layer:1 ~x:3 ~y:3))

let test_block_rect_layer () =
  let g = mk () in
  Grid.block_rect g ~layer:1 (Geom.Rect.make 2 2 3 3);
  Testkit.check_true "layer1 blocked"
    (Grid.is_obstacle g (Grid.node g ~layer:1 ~x:2 ~y:2));
  Testkit.check_true "layer0 free"
    (Grid.is_free g (Grid.node g ~layer:0 ~x:2 ~y:2))

let test_set_obstacle_on_net_rejected () =
  let g = mk () in
  Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x:5 ~y:5);
  try
    Grid.set_obstacle g ~layer:0 ~x:5 ~y:5;
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

let test_copy_independent () =
  let g = mk () in
  let n = Grid.node g ~layer:0 ~x:2 ~y:2 in
  Grid.occupy g ~net:5 n;
  let h = Grid.copy g in
  Grid.release g n;
  Testkit.check_true "copy keeps ownership" (Grid.owner h n = Some 5);
  Grid.occupy h ~net:5 (Grid.node_above h n);
  Grid.set_via h ~x:2 ~y:2;
  Testkit.check_false "original via untouched" (Grid.has_via g ~x:2 ~y:2)

let test_counting () =
  let g = mk () in
  Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x:0 ~y:0);
  Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x:1 ~y:0);
  Grid.occupy g ~net:2 (Grid.node g ~layer:1 ~x:5 ~y:5);
  Testkit.check_int "count net 1" 2 (Grid.count_owned g ~net:1);
  Testkit.check_int "count net 2" 1 (Grid.count_owned g ~net:2);
  Testkit.check_int "occupied list" 2
    (List.length (Grid.occupied_nodes g ~net:1));
  Testkit.check_true "fill ratio" (abs_float (Grid.fill_ratio g -. (3.0 /. 96.0)) < 1e-9)

(* --- paths --- *)

let test_path_validity () =
  let g = mk () in
  let n ~layer ~x ~y = Grid.node g ~layer ~x ~y in
  let path =
    [
      n ~layer:0 ~x:0 ~y:0;
      n ~layer:0 ~x:1 ~y:0;
      n ~layer:1 ~x:1 ~y:0;
      n ~layer:1 ~x:1 ~y:1;
    ]
  in
  Testkit.check_true "valid path" (Grid.Path.is_valid g path);
  Testkit.check_int "wirelength" 2 (Grid.Path.wirelength g path);
  Testkit.check_int "vias" 1 (Grid.Path.via_steps g path);
  Testkit.check_true "empty valid" (Grid.Path.is_valid g []);
  Testkit.check_true "singleton valid" (Grid.Path.is_valid g [ 0 ]);
  let jump = [ n ~layer:0 ~x:0 ~y:0; n ~layer:0 ~x:2 ~y:0 ] in
  Testkit.check_false "jump invalid" (Grid.Path.is_valid g jump);
  let diag_via = [ n ~layer:0 ~x:0 ~y:0; n ~layer:1 ~x:1 ~y:0 ] in
  Testkit.check_false "diagonal via invalid" (Grid.Path.is_valid g diag_via)

let test_path_bends () =
  let g = mk () in
  let n ~x ~y = Grid.node g ~layer:0 ~x ~y in
  let straight = [ n ~x:0 ~y:0; n ~x:1 ~y:0; n ~x:2 ~y:0 ] in
  Testkit.check_int "straight" 0 (Grid.Path.bends g straight);
  let bent = [ n ~x:0 ~y:0; n ~x:1 ~y:0; n ~x:1 ~y:1; n ~x:2 ~y:1 ] in
  Testkit.check_int "two bends" 2 (Grid.Path.bends g bent)

let test_path_cost_and_endpoints () =
  let g = mk () in
  let n ~layer ~x ~y = Grid.node g ~layer ~x ~y in
  let path =
    [ n ~layer:0 ~x:0 ~y:0; n ~layer:0 ~x:1 ~y:0; n ~layer:1 ~x:1 ~y:0 ]
  in
  Testkit.check_int "cost" (1 + 5)
    (Grid.Path.cost ~wire_cost:1 ~via_cost:5 ~bend_cost:0 g path);
  (match Grid.Path.endpoints path with
  | Some (a, b) ->
      Testkit.check_int "first" (n ~layer:0 ~x:0 ~y:0) a;
      Testkit.check_int "last" (n ~layer:1 ~x:1 ~y:0) b
  | None -> Alcotest.fail "endpoints");
  Testkit.check_true "no endpoints" (Grid.Path.endpoints [] = None)

(* --- segments --- *)

let test_segments_straight_run () =
  let g = mk () in
  for x = 1 to 5 do
    Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x ~y:2)
  done;
  match Grid.Segment.of_net g ~net:1 with
  | [ s ] ->
      Testkit.check_true "horizontal" (s.Grid.Segment.axis = Grid.Segment.H);
      Testkit.check_int "row" 2 s.Grid.Segment.fixed;
      Testkit.check_int "length" 5 (Grid.Segment.length s);
      Testkit.check_int "cells" 5 (List.length (Grid.Segment.cells s))
  | segs -> Alcotest.failf "expected one segment, got %d" (List.length segs)

let test_segments_corner () =
  let g = mk () in
  (* L shape: (1,1)-(3,1) then (3,1)-(3,3) on layer 0 *)
  for x = 1 to 3 do
    Grid.occupy g ~net:2 (Grid.node g ~layer:0 ~x ~y:1)
  done;
  for y = 2 to 3 do
    Grid.occupy g ~net:2 (Grid.node g ~layer:0 ~x:3 ~y)
  done;
  let segs = Grid.Segment.of_net g ~net:2 in
  Testkit.check_int "two runs" 2 (List.length segs);
  let total_cells =
    List.fold_left (fun acc s -> acc + Grid.Segment.length s) 0 segs
  in
  (* corner cell (3,1) is in both runs *)
  Testkit.check_int "cells with shared corner" 6 total_cells

let test_segments_isolated_cell () =
  let g = mk () in
  Grid.occupy g ~net:3 (Grid.node g ~layer:1 ~x:4 ~y:4);
  match Grid.Segment.of_net g ~net:3 with
  | [ s ] ->
      Testkit.check_int "singleton length" 1 (Grid.Segment.length s);
      Testkit.check_int "layer" 1 s.Grid.Segment.layer
  | segs -> Alcotest.failf "expected singleton, got %d" (List.length segs)

let test_segments_cover_all_cells () =
  let g = mk () in
  (* plus shape *)
  List.iter
    (fun (x, y) -> Grid.occupy g ~net:4 (Grid.node g ~layer:0 ~x ~y))
    [ (3, 3); (2, 3); (4, 3); (3, 2); (3, 4) ];
  let segs = Grid.Segment.of_net g ~net:4 in
  let covered = Hashtbl.create 16 in
  List.iter
    (fun s ->
      List.iter (fun c -> Hashtbl.replace covered c ()) (Grid.Segment.cells s))
    segs;
  Testkit.check_int "all cells covered" 5 (Hashtbl.length covered)

let prop_random_ops_keep_invariants =
  Testkit.qcheck ~count:60 "random occupy/release sequences keep invariants"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let g = Grid.create ~width:6 ~height:5 () in
      let ok = ref true in
      for _ = 1 to 120 do
        let n = Util.Prng.int prng (Grid.node_count g) in
        match Util.Prng.int prng 4 with
        | 0 ->
            (* occupy with a random net if allowed *)
            let net = Util.Prng.int_in prng 1 3 in
            let v = Grid.occ g n in
            if v = Grid.free || v = net then Grid.occupy g ~net n
        | 1 -> if not (Grid.is_obstacle g n) then Grid.release g n
        | 2 ->
            (* place a via when legal *)
            let x = Grid.node_x g n and y = Grid.node_y g n in
            let a = Grid.occ_at g ~layer:0 ~x ~y
            and b = Grid.occ_at g ~layer:1 ~x ~y in
            if a > 0 && a = b then Grid.set_via g ~x ~y
        | _ ->
            let x = Grid.node_x g n and y = Grid.node_y g n in
            Grid.clear_via g ~x ~y
      done;
      (* invariant: every via joins two same-net cells; via_count matches *)
      let count = ref 0 in
      Grid.iter_planar g (fun ~x ~y ->
          if Grid.has_via g ~x ~y then begin
            incr count;
            let a = Grid.occ_at g ~layer:0 ~x ~y
            and b = Grid.occ_at g ~layer:1 ~x ~y in
            if a <= 0 || a <> b then ok := false
          end);
      (* counts per net are consistent with occupied_nodes *)
      for net = 1 to 3 do
        if Grid.count_owned g ~net
           <> List.length (Grid.occupied_nodes g ~net)
        then ok := false
      done;
      !ok && !count = Grid.via_count g)

(* --- freed stamps (the dirty journal) --- *)

(* Only freeing writes are stamped: releases and via clears. *)

let rect_at x y = Geom.Rect.make x y x y

let dirty g ~since ~layer r = Grid.dirtied_in_freeing g ~since ~layer r

let test_dirty_basic () =
  let g = mk () in
  let n = Grid.node g ~layer:0 ~x:2 ~y:2 in
  Grid.occupy g ~net:3 n;
  let m = Grid.mark g in
  Testkit.check_false "clean after mark"
    (dirty g ~since:m ~layer:0 (Geom.Rect.make 0 0 7 5));
  Grid.release g n;
  Testkit.check_true "release dirties its cell"
    (dirty g ~since:m ~layer:0 (rect_at 2 2));
  Testkit.check_true "and any overlapping rect"
    (dirty g ~since:m ~layer:0 (Geom.Rect.make 0 0 3 3));
  Testkit.check_false "other layer untouched"
    (dirty g ~since:m ~layer:1 (rect_at 2 2));
  Testkit.check_false "distant rect untouched"
    (dirty g ~since:m ~layer:0 (Geom.Rect.make 6 5 7 5));
  let m2 = Grid.mark g in
  Testkit.check_false "new mark is clean"
    (dirty g ~since:m2 ~layer:0 (rect_at 2 2))

let test_dirty_idempotent_writes_are_clean () =
  let g = mk () in
  Grid.occupy g ~net:3 (Grid.node g ~layer:0 ~x:1 ~y:1);
  let m = Grid.mark g in
  (* releasing a free cell and clearing an absent via are no-ops *)
  Grid.release g (Grid.node g ~layer:1 ~x:4 ~y:4);
  Grid.clear_via g ~x:1 ~y:1;
  Testkit.check_false "no-op writes leave the stamps alone"
    (dirty g ~since:m ~layer:0 (Geom.Rect.make 0 0 7 5)
    || dirty g ~since:m ~layer:1 (Geom.Rect.make 0 0 7 5))

let test_dirty_release_and_via () =
  let g = mk () in
  let n = Grid.node g ~layer:0 ~x:1 ~y:1 in
  Grid.occupy g ~net:3 n;
  let m = Grid.mark g in
  Grid.release g n;
  Testkit.check_true "release dirties"
    (dirty g ~since:m ~layer:0 (rect_at 1 1));
  Grid.occupy g ~net:5 (Grid.node g ~layer:0 ~x:4 ~y:3);
  Grid.occupy g ~net:5 (Grid.node g ~layer:1 ~x:4 ~y:3);
  Grid.set_via g ~x:4 ~y:3;
  let m = Grid.mark g in
  Grid.clear_via g ~x:4 ~y:3;
  Testkit.check_true "via clear dirties layer 0"
    (dirty g ~since:m ~layer:0 (rect_at 4 3));
  Testkit.check_true "via clear dirties layer 1"
    (dirty g ~since:m ~layer:1 (rect_at 4 3));
  (* releasing a via's upper cell clears the via, which dirties the
     layer below too *)
  Grid.set_via g ~x:4 ~y:3;
  let m = Grid.mark g in
  Grid.release g (Grid.node g ~layer:1 ~x:4 ~y:3);
  Testkit.check_true "released via cell dirties layer 0"
    (dirty g ~since:m ~layer:0 (rect_at 4 3))

let test_dirty_coalescing_is_conservative () =
  let g = mk () in
  for x = 0 to 7 do
    Grid.occupy g ~net:2 (Grid.node g ~layer:0 ~x ~y:2)
  done;
  let m = Grid.mark g in
  (* releasing a straight wire stamps every cell of it *)
  for x = 0 to 7 do
    Grid.release g (Grid.node g ~layer:0 ~x ~y:2)
  done;
  for x = 0 to 7 do
    Testkit.check_true "every cell of the wire is dirty"
      (dirty g ~since:m ~layer:0 (rect_at x 2))
  done

(* Many far-apart releases forget nothing and blame nothing: the cell
   between them that no release touched stays clean, however many
   releases land elsewhere, and each released cell stays dirty. *)
let test_dirty_far_releases_exact () =
  let g = Grid.create ~width:32 ~height:32 () in
  let m = Grid.mark g in
  for i = 0 to (2 * 512) + 15 do
    let x = if i land 1 = 0 then 0 else 31 in
    let y = (7 * i) mod 32 in
    let n = Grid.node g ~layer:0 ~x ~y in
    Grid.occupy g ~net:1 n;
    Grid.release g n
  done;
  Testkit.check_false "a cell no release touched is clean"
    (dirty g ~since:m ~layer:0 (rect_at 16 16));
  Testkit.check_false "so is the band between the two columns"
    (dirty g ~since:m ~layer:0 (Geom.Rect.make 1 0 30 31));
  Testkit.check_true "the first release is still seen"
    (dirty g ~since:m ~layer:0 (rect_at 0 0))

(* Blocking writes are never stamped: a thousand far-apart occupies, a
   via and an obstacle leave a region no release touched clean, and the
   one release stays visible. *)
let test_dirty_blocking_writes_not_journaled () =
  let g = Grid.create ~width:64 ~height:64 () in
  let m = Grid.mark g in
  for i = 0 to (2 * 512) + 15 do
    let k = i / 2 in
    let x = (if i land 1 = 0 then 0 else 40) + (k mod 20) in
    let y = 2 * (k / 20) in
    Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x ~y)
  done;
  Grid.occupy g ~net:2 (Grid.node g ~layer:0 ~x:60 ~y:60);
  Grid.occupy g ~net:2 (Grid.node g ~layer:1 ~x:60 ~y:60);
  Grid.set_via g ~x:60 ~y:60;
  Grid.set_obstacle g ~layer:1 ~x:62 ~y:62;
  Grid.release g (Grid.node g ~layer:0 ~x:0 ~y:0);
  let untouched = Geom.Rect.make 20 0 63 63 in
  Testkit.check_false "region without a release is clean (layer 0)"
    (dirty g ~since:m ~layer:0 untouched);
  Testkit.check_false "region without a release is clean (layer 1)"
    (dirty g ~since:m ~layer:1 untouched);
  Testkit.check_true "the release is still seen"
    (dirty g ~since:m ~layer:0 (rect_at 0 0))

(* The stamps answer exactly.  Random writes on a small stack of 2-4
   layers, marks taken at random points, and every query compared with
   a brute-force oracle: the log of each node that a release or a via
   clear actually freed, read from the grid before the write.  A query
   rectangle may stick out of the grid by one cell, as a dilated
   certificate does. *)
let prop_dirty_matches_freed_log =
  Testkit.qcheck ~count:200 ~print:string_of_int
    "freed stamps answer exactly as a freed-node log"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let layers = Util.Prng.int_in prng 2 4 in
      let w = Util.Prng.int_in prng 3 8 and h = Util.Prng.int_in prng 3 7 in
      let g = Grid.create ~layers ~width:w ~height:h () in
      let log = ref [] and logged = ref 0 in
      let note n =
        log := n :: !log;
        incr logged
      in
      let free_pair ~layer ~x ~y =
        if Grid.has_via_pair g ~layer ~x ~y then begin
          note (Grid.node g ~layer ~x ~y);
          note (Grid.node g ~layer:(layer + 1) ~x ~y)
        end
      in
      (* (mark, log length when it was taken) *)
      let marks = ref [ (Grid.mark g, 0) ] in
      let ok = ref true in
      for _ = 1 to 200 do
        let layer = Util.Prng.int prng layers in
        let x = Util.Prng.int prng w and y = Util.Prng.int prng h in
        let n = Grid.node g ~layer ~x ~y in
        match Util.Prng.int prng 7 with
        | 0 | 1 ->
            let net = Util.Prng.int_in prng 1 3 in
            let v = Grid.occ g n in
            if v = Grid.free || v = net then Grid.occupy g ~net n
        | 2 ->
            if not (Grid.is_obstacle g n) then begin
              if Grid.occ g n > 0 then begin
                note n;
                if layer + 1 < layers then free_pair ~layer ~x ~y;
                if layer > 0 then free_pair ~layer:(layer - 1) ~x ~y
              end;
              Grid.release g n
            end
        | 3 ->
            let pair = Util.Prng.int prng (layers - 1) in
            let a = Grid.occ_at g ~layer:pair ~x ~y
            and b = Grid.occ_at g ~layer:(pair + 1) ~x ~y in
            if a > 0 && a = b then Grid.set_via ~layer:pair g ~x ~y
        | 4 ->
            let pair = Util.Prng.int prng (layers - 1) in
            free_pair ~layer:pair ~x ~y;
            Grid.clear_via ~layer:pair g ~x ~y
        | 5 ->
            if Util.Prng.int prng 4 = 0 && Grid.occ g n <= 0 then
              Grid.set_obstacle g ~layer ~x ~y
            else marks := (Grid.mark g, !logged) :: !marks
        | _ ->
            let m, at =
              List.nth !marks (Util.Prng.int prng (List.length !marks))
            in
            let coord bound = Util.Prng.int_in prng (-1) bound in
            let r = Geom.Rect.make (coord w) (coord h) (coord w) (coord h) in
            let since_mark = List.filteri (fun i _ -> i < !logged - at) !log in
            let expected =
              List.exists
                (fun f ->
                  Grid.node_layer g f = layer
                  && Geom.Rect.mem r (Grid.node_x g f) (Grid.node_y g f))
                since_mark
            in
            if Grid.dirtied_in_freeing g ~since:m ~layer r <> expected then
              ok := false
      done;
      !ok)

(* A grid holds no boxed array of more than 256 words (Max_young_wosize):
   [Array.make] of such an array with a freshly allocated block forces a
   minor collection, one per layer of every grid, and on a sharded server
   each one pauses every domain. *)
let test_create_forces_no_minor_collection () =
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Grid.create ~width:16 ~height:12 ()))
  done;
  let collections = (Gc.quick_stat ()).Gc.minor_collections - before in
  Testkit.check_true
    (Printf.sprintf "%d minor collections for 1000 creates" collections)
    (collections < 100)

let () =
  Alcotest.run "grid"
    [
      ( "surface",
        [
          Alcotest.test_case "dimensions" `Quick test_dimensions;
          Alcotest.test_case "node packing" `Quick test_node_packing_roundtrip;
          Alcotest.test_case "nodes distinct" `Quick test_nodes_distinct;
          Alcotest.test_case "other layer" `Quick test_other_layer_node;
          Alcotest.test_case "occupy/release" `Quick test_occupy_release;
          Alcotest.test_case "occupy conflicts" `Quick test_occupy_conflicts;
          Alcotest.test_case "via lifecycle" `Quick test_via_lifecycle;
          Alcotest.test_case "via mismatch" `Quick test_via_mismatched_nets;
          Alcotest.test_case "block outside" `Quick test_block_outside;
          Alcotest.test_case "block rect layer" `Quick test_block_rect_layer;
          Alcotest.test_case "obstacle on net" `Quick test_set_obstacle_on_net_rejected;
          Alcotest.test_case "copy independent" `Quick test_copy_independent;
          Alcotest.test_case "counting" `Quick test_counting;
          prop_random_ops_keep_invariants;
        ] );
      ( "dirty journal",
        [
          Alcotest.test_case "mark and query" `Quick test_dirty_basic;
          Alcotest.test_case "no-op writes clean" `Quick
            test_dirty_idempotent_writes_are_clean;
          Alcotest.test_case "release and via" `Quick test_dirty_release_and_via;
          Alcotest.test_case "coalescing conservative" `Quick
            test_dirty_coalescing_is_conservative;
          Alcotest.test_case "far releases exact" `Quick
            test_dirty_far_releases_exact;
          Alcotest.test_case "blocking writes not journaled" `Quick
            test_dirty_blocking_writes_not_journaled;
          prop_dirty_matches_freed_log;
          Alcotest.test_case "create forces no minor collection" `Quick
            test_create_forces_no_minor_collection;
        ] );
      ( "path",
        [
          Alcotest.test_case "validity" `Quick test_path_validity;
          Alcotest.test_case "bends" `Quick test_path_bends;
          Alcotest.test_case "cost/endpoints" `Quick test_path_cost_and_endpoints;
        ] );
      ( "segment",
        [
          Alcotest.test_case "straight run" `Quick test_segments_straight_run;
          Alcotest.test_case "corner" `Quick test_segments_corner;
          Alcotest.test_case "isolated cell" `Quick test_segments_isolated_cell;
          Alcotest.test_case "cover all" `Quick test_segments_cover_all_cells;
        ] );
    ]
