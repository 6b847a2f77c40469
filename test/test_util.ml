(* Tests for the util library: PRNG, priority queue, union-find, vec,
   tables. *)

let test_prng_deterministic () =
  let a = Util.Prng.create 42 and b = Util.Prng.create 42 in
  for _ = 1 to 100 do
    Testkit.check_true "same stream" (Util.Prng.bits64 a = Util.Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Util.Prng.create 1 and b = Util.Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Util.Prng.bits64 a <> Util.Prng.bits64 b then differs := true
  done;
  Testkit.check_true "different seeds differ" !differs

let test_prng_copy_independent () =
  let a = Util.Prng.create 7 in
  let b = Util.Prng.copy a in
  Testkit.check_true "copy replays" (Util.Prng.bits64 a = Util.Prng.bits64 b)

let test_prng_split_independent () =
  let a = Util.Prng.create 7 in
  let c = Util.Prng.split a in
  Testkit.check_true "split stream differs"
    (Util.Prng.bits64 a <> Util.Prng.bits64 c)

let test_prng_int_bounds () =
  let g = Util.Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Util.Prng.int g 17 in
    Testkit.check_true "in range" (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Util.Prng.int_in g (-5) 5 in
    Testkit.check_true "int_in range" (v >= -5 && v <= 5)
  done

let test_prng_int_coverage () =
  let g = Util.Prng.create 5 in
  let seen = Array.make 6 false in
  for _ = 1 to 500 do
    seen.(Util.Prng.int g 6) <- true
  done;
  Array.iteri
    (fun i s -> Testkit.check_true (Printf.sprintf "value %d drawn" i) s)
    seen

let test_prng_chance_extremes () =
  let g = Util.Prng.create 11 in
  Testkit.check_false "p=0 never" (Util.Prng.chance g 0.0);
  Testkit.check_true "p=1 always" (Util.Prng.chance g 1.0)

let test_prng_float_bounds () =
  let g = Util.Prng.create 13 in
  for _ = 1 to 1000 do
    let v = Util.Prng.float g 2.5 in
    Testkit.check_true "float in [0,2.5)" (v >= 0.0 && v < 2.5)
  done

let test_shuffle_is_permutation () =
  let g = Util.Prng.create 17 in
  let original = Array.init 50 (fun i -> i) in
  let a = Array.copy original in
  Util.Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Testkit.check_true "same multiset" (sorted = original)

let test_shuffle_list_permutation () =
  let g = Util.Prng.create 19 in
  let l = List.init 30 (fun i -> i) in
  let s = Util.Prng.shuffle_list g l in
  Testkit.check_true "permutation" (List.sort Int.compare s = l)

let test_pick_member () =
  let g = Util.Prng.create 23 in
  let a = [| 3; 1; 4; 1; 5 |] in
  for _ = 1 to 50 do
    Testkit.check_true "pick from array" (Array.mem (Util.Prng.pick g a) a)
  done;
  Testkit.check_true "pick_list member"
    (List.mem (Util.Prng.pick_list g [ 9; 8; 7 ]) [ 9; 8; 7 ])

(* --- priority queue --- *)

(* A pop with the priority of the popped element, read just before it. *)
let pq_pop q =
  let p = Util.Pqueue.min_priority q in
  (p, Util.Pqueue.pop q)

let test_pqueue_basic () =
  let q = Util.Pqueue.create () in
  Testkit.check_true "fresh empty" (Util.Pqueue.is_empty q);
  Util.Pqueue.push q 5 50;
  Util.Pqueue.push q 1 10;
  Util.Pqueue.push q 3 30;
  Testkit.check_int "length" 3 (Util.Pqueue.length q);
  Testkit.check_int "min priority" 1 (Util.Pqueue.min_priority q);
  Testkit.check_true "pop 1" (pq_pop q = (1, 10));
  Testkit.check_true "pop 3" (pq_pop q = (3, 30));
  Testkit.check_true "pop 5" (pq_pop q = (5, 50));
  Testkit.check_true "drained" (Util.Pqueue.is_empty q)

let test_pqueue_empty_raises () =
  let q = Util.Pqueue.create () in
  Alcotest.check_raises "pop on empty"
    (Invalid_argument "Pqueue.pop: empty") (fun () ->
      ignore (Util.Pqueue.pop q));
  Alcotest.check_raises "min_priority on empty"
    (Invalid_argument "Pqueue.min_priority: empty") (fun () ->
      ignore (Util.Pqueue.min_priority q))

let test_pqueue_min_priority () =
  let q = Util.Pqueue.create () in
  List.iter (fun p -> Util.Pqueue.push q p (10 * p)) [ 4; 2; 7 ];
  Testkit.check_int "reads the minimum" 2 (Util.Pqueue.min_priority q);
  Testkit.check_int "without removing it" 2 (Util.Pqueue.min_priority q);
  Testkit.check_int "length kept" 3 (Util.Pqueue.length q);
  Testkit.check_int "pop returns its payload" 20 (Util.Pqueue.pop q);
  Testkit.check_int "then the next minimum" 4 (Util.Pqueue.min_priority q)

let test_pqueue_clear () =
  let q = Util.Pqueue.create () in
  Util.Pqueue.push q 1 1;
  Util.Pqueue.clear q;
  Testkit.check_true "cleared" (Util.Pqueue.is_empty q)

let test_pqueue_duplicates () =
  let q = Util.Pqueue.create () in
  List.iter (fun p -> Util.Pqueue.push q p p) [ 2; 2; 2; 1; 1 ];
  let pops = List.init 5 (fun _ -> fst (pq_pop q)) in
  Testkit.check_true "sorted with duplicates" (pops = [ 1; 1; 2; 2; 2 ])

let test_pqueue_growth () =
  let q = Util.Pqueue.create ~capacity:4 () in
  for i = 1000 downto 1 do
    Util.Pqueue.push q i i
  done;
  Testkit.check_int "grew" 1000 (Util.Pqueue.length q);
  let prev = ref min_int in
  for _ = 1 to 1000 do
    let p, _ = pq_pop q in
    Testkit.check_true "monotone" (p >= !prev);
    prev := p
  done

let prop_pqueue_heapsort =
  Testkit.qcheck "pqueue pops sorted"
    QCheck2.Gen.(list_size (int_range 0 200) (int_range (-1000) 1000))
    (fun priorities ->
      let q = Util.Pqueue.create () in
      List.iteri (fun i p -> Util.Pqueue.push q p i) priorities;
      let out =
        List.init (List.length priorities) (fun _ -> fst (pq_pop q))
      in
      out = List.sort Int.compare priorities)

(* --- parallel --- *)

let test_parallel_matches_sequential () =
  let xs = List.init 200 (fun i -> i) in
  let f x = (x * x) + 1 in
  let seq = Util.Parallel.map ~jobs:1 f xs in
  let par = Util.Parallel.map ~jobs:4 f xs in
  Testkit.check_true "jobs=1 is List.map" (seq = List.map f xs);
  Testkit.check_true "jobs=4 identical" (par = seq)

let test_parallel_order_preserved () =
  let xs = [ 9; 1; 8; 2; 7 ] in
  Testkit.check_true "order kept"
    (Util.Parallel.map ~jobs:3 (fun x -> x) xs = xs)

let test_parallel_edge_sizes () =
  Testkit.check_true "empty" (Util.Parallel.map ~jobs:4 succ [] = []);
  Testkit.check_true "singleton" (Util.Parallel.map ~jobs:4 succ [ 1 ] = [ 2 ]);
  (* more jobs than items *)
  Testkit.check_true "jobs > n"
    (Util.Parallel.map ~jobs:16 succ [ 1; 2 ] = [ 2; 3 ])

let test_parallel_exception_propagates () =
  Alcotest.check_raises "worker exception re-raised" (Failure "boom")
    (fun () ->
      ignore
        (Util.Parallel.map ~jobs:4
           (fun x -> if x = 7 then failwith "boom" else x)
           (List.init 20 (fun i -> i))))

let test_parallel_multiple_failures () =
  match
    Util.Parallel.map ~jobs:4
      (fun x -> if x mod 7 = 3 then failwith (string_of_int x) else x)
      (List.init 20 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected Multiple"
  | exception Util.Parallel.Multiple exns ->
      let msgs =
        List.map (function Failure m -> m | e -> Printexc.to_string e) exns
      in
      Testkit.check_true "every failure, in input order"
        (msgs = [ "3"; "10"; "17" ])

let test_parallel_jobs_clamped () =
  (* jobs <= 0 behaves as 1 instead of spawning nothing (or raising) *)
  Testkit.check_true "jobs=0" (Util.Parallel.map ~jobs:0 succ [ 1; 2 ] = [ 2; 3 ]);
  Testkit.check_true "jobs<0"
    (Util.Parallel.map ~jobs:(-3) succ [ 1; 2 ] = [ 2; 3 ])

let test_parallel_run () =
  let tasks = List.init 10 (fun i () -> i * 2) in
  Testkit.check_true "run collects results"
    (Util.Parallel.run ~jobs:4 tasks = List.init 10 (fun i -> i * 2))

(* --- union-find --- *)

let test_union_find_basic () =
  let uf = Util.Union_find.create 10 in
  Testkit.check_false "initially apart" (Util.Union_find.same uf 0 1);
  Util.Union_find.union uf 0 1;
  Util.Union_find.union uf 2 3;
  Testkit.check_true "joined" (Util.Union_find.same uf 0 1);
  Testkit.check_false "separate sets" (Util.Union_find.same uf 1 2);
  Util.Union_find.union uf 1 2;
  Testkit.check_true "transitively joined" (Util.Union_find.same uf 0 3)

let test_union_find_idempotent () =
  let uf = Util.Union_find.create 4 in
  Util.Union_find.union uf 0 1;
  Util.Union_find.union uf 0 1;
  Util.Union_find.union uf 1 0;
  Testkit.check_true "still joined" (Util.Union_find.same uf 0 1)

let test_union_find_components () =
  let uf = Util.Union_find.create 8 in
  Util.Union_find.union uf 0 1;
  Util.Union_find.union uf 2 3;
  Util.Union_find.union uf 3 4;
  Testkit.check_int "components" 2
    (Util.Union_find.count_components uf (fun i -> i <= 4));
  Testkit.check_int "all elements" 5
    (Util.Union_find.count_components uf (fun _ -> true))

let prop_union_find_equivalence =
  Testkit.qcheck "union-find matches naive closure"
    QCheck2.Gen.(
      list_size (int_range 0 40) (pair (int_range 0 14) (int_range 0 14)))
    (fun unions ->
      let uf = Util.Union_find.create 15 in
      List.iter (fun (a, b) -> Util.Union_find.union uf a b) unions;
      let repr = Array.init 15 (fun i -> i) in
      let rec naive_find i = if repr.(i) = i then i else naive_find repr.(i) in
      List.iter
        (fun (a, b) ->
          let ra = naive_find a and rb = naive_find b in
          if ra <> rb then repr.(ra) <- rb)
        unions;
      List.for_all
        (fun (a, b) ->
          Util.Union_find.same uf a b = (naive_find a = naive_find b))
        (List.concat_map
           (fun a -> List.map (fun b -> (a, b)) [ 0; 3; 7; 14 ])
           [ 0; 1; 5; 9; 14 ]))

(* --- vec --- *)

let test_vec_push_pop () =
  let v = Util.Vec.create () in
  Testkit.check_true "fresh empty" (Util.Vec.is_empty v);
  for i = 1 to 100 do
    Util.Vec.push v i
  done;
  Testkit.check_int "length" 100 (Util.Vec.length v);
  Testkit.check_int "get" 50 (Util.Vec.get v 49);
  Testkit.check_int "pop" 100 (Util.Vec.pop v);
  Testkit.check_int "length after pop" 99 (Util.Vec.length v)

let test_vec_bounds () =
  let v = Util.Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Util.Vec.get v 3));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Util.Vec.get v (-1)))

let test_vec_conversions () =
  let l = [ 5; 6; 7; 8 ] in
  let v = Util.Vec.of_list l in
  Testkit.check_true "roundtrip list" (Util.Vec.to_list v = l);
  Testkit.check_true "to_array" (Util.Vec.to_array v = [| 5; 6; 7; 8 |]);
  Testkit.check_true "mem" (Util.Vec.mem v 7);
  Testkit.check_false "not mem" (Util.Vec.mem v 9)

let test_vec_copy_independent () =
  let v = Util.Vec.of_list [ 1; 2 ] in
  let w = Util.Vec.copy v in
  Util.Vec.push v 3;
  Testkit.check_int "copy unchanged" 2 (Util.Vec.length w);
  Util.Vec.set w 0 99;
  Testkit.check_int "original unchanged" 1 (Util.Vec.get v 0)

let test_vec_iter_exists () =
  let v = Util.Vec.of_list [ 2; 4; 6 ] in
  let sum = ref 0 in
  Util.Vec.iter (fun x -> sum := !sum + x) v;
  Testkit.check_int "iter sum" 12 !sum;
  Testkit.check_true "exists" (Util.Vec.exists (fun x -> x > 5) v);
  Testkit.check_false "not exists" (Util.Vec.exists (fun x -> x > 6) v)

(* --- table --- *)

let test_table_render () =
  let t = Util.Table.create ~headers:[ "name"; "count" ] in
  Util.Table.add_row t [ "alpha"; "1" ];
  Util.Table.add_row t [ "bee"; "22" ];
  let s = Util.Table.render t in
  let lines = String.split_on_char '\n' s in
  (match lines with
  | header :: sep :: _ ->
      Testkit.check_true "header present" (String.length header >= 4);
      Testkit.check_true "separator dashes" (String.contains sep '-')
  | _ -> Alcotest.fail "table too short");
  Testkit.check_true "right aligned number"
    (List.exists
       (fun l -> String.length l > 6 && l.[String.length l - 1] = '1')
       lines)

let test_table_cells () =
  Testkit.check_true "int" (Util.Table.cell_int 42 = "42");
  Testkit.check_true "pct" (Util.Table.cell_pct 0.5 = "50.0%");
  Testkit.check_true "bool" (Util.Table.cell_bool true = "yes");
  Testkit.check_true "float decimals"
    (String.length (Util.Table.cell_float ~decimals:3 1.0) = 5)

let test_table_ragged_rows () =
  let t = Util.Table.create ~headers:[ "a" ] in
  Util.Table.add_row t [ "1"; "2"; "3" ];
  Util.Table.add_row t [];
  Util.Table.add_sep t;
  Testkit.check_true "renders ragged" (String.length (Util.Table.render t) > 0)

let test_table_column_extension () =
  let t = Util.Table.create ~headers:[ "a"; "b" ] in
  Util.Table.add_row t [ "1"; "2"; "3"; "4" ];
  let s = Util.Table.render t in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  (* all lines padded to the same full width *)
  match lines with
  | first :: rest ->
      List.iter
        (fun l ->
          Testkit.check_int "consistent width" (String.length first)
            (String.length l))
        rest
  | [] -> Alcotest.fail "empty table"

let test_prng_int_one () =
  let g = Util.Prng.create 1 in
  for _ = 1 to 20 do
    Testkit.check_int "bound 1 always 0" 0 (Util.Prng.int g 1)
  done

let test_prng_shuffle_empty_and_single () =
  let g = Util.Prng.create 1 in
  let empty = [||] in
  Util.Prng.shuffle g empty;
  Testkit.check_int "empty ok" 0 (Array.length empty);
  let single = [| 42 |] in
  Util.Prng.shuffle g single;
  Testkit.check_int "single untouched" 42 single.(0)

(* --- json --- *)

module J = Util.Json

let test_json_encode () =
  let v =
    J.Obj
      [
        ("s", J.String "a\"b\\c\nd");
        ("n", J.Int (-3));
        ("f", J.Float 1.5);
        ("b", J.Bool true);
        ("z", J.Null);
        ("l", J.List [ J.Int 1; J.Int 2 ]);
      ]
  in
  Testkit.check_true "compact one-line encoding"
    (J.to_string v
    = {|{"s":"a\"b\\c\nd","n":-3,"f":1.5,"b":true,"z":null,"l":[1,2]}|})

let test_json_parse () =
  let ok text expected =
    match J.of_string text with
    | Ok v -> Testkit.check_true text (v = expected)
    | Error msg -> Alcotest.failf "%s: %s" text msg
  in
  ok {| {"a": [1, 2.5, "x", null, false]} |}
    (J.Obj
       [ ("a", J.List [ J.Int 1; J.Float 2.5; J.String "x"; J.Null; J.Bool false ]) ]);
  ok {|"Aé"|} (J.String "A\xc3\xa9");
  ok "-0.5e2" (J.Float (-50.0));
  let bad text =
    match J.of_string text with
    | Ok _ -> Alcotest.failf "expected parse failure for %s" text
    | Error _ -> ()
  in
  bad "{";
  bad {|{"a":1,}|};
  bad "[1 2]";
  bad {|"unterminated|};
  bad "1 trailing";
  bad "nul"

let test_json_roundtrip () =
  let cases =
    [
      J.Null;
      J.Bool false;
      J.Int 0;
      J.Int max_int;
      J.Float 0.125;
      J.String "control \x01 and unicode \xe2\x9c\x93 and quote \"";
      J.List [];
      J.Obj [];
      J.Obj [ ("nested", J.List [ J.Obj [ ("k", J.Null) ]; J.Int 7 ]) ];
    ]
  in
  List.iter
    (fun v ->
      match J.of_string (J.to_string v) with
      | Ok v' -> Testkit.check_true (J.to_string v) (v = v')
      | Error msg -> Alcotest.failf "%s: %s" (J.to_string v) msg)
    cases

let test_json_accessors () =
  let v = J.of_string_exn {|{"i":3,"f":2.0,"s":"x","b":true,"l":[1]}|} in
  Testkit.check_true "member" (J.member "i" v = Some (J.Int 3));
  Testkit.check_true "missing member" (J.member "nope" v = None);
  Testkit.check_true "to_int" (Option.bind (J.member "i" v) J.to_int_opt = Some 3);
  Testkit.check_true "int widens to float"
    (Option.bind (J.member "i" v) J.to_float_opt = Some 3.0);
  Testkit.check_true "integral float narrows"
    (Option.bind (J.member "f" v) J.to_int_opt = Some 2);
  Testkit.check_true "to_string"
    (Option.bind (J.member "s" v) J.to_string_opt = Some "x");
  Testkit.check_true "to_bool"
    (Option.bind (J.member "b" v) J.to_bool_opt = Some true);
  Testkit.check_true "to_list"
    (Option.bind (J.member "l" v) J.to_list_opt = Some [ J.Int 1 ]);
  Testkit.check_true "wrong type" (Option.bind (J.member "s" v) J.to_int_opt = None)

let json_gen =
  (* Structure-bounded generator: depth-2 values over a small alphabet. *)
  QCheck2.Gen.(
    let scalar =
      oneof
        [
          return J.Null;
          map (fun b -> J.Bool b) bool;
          map (fun n -> J.Int n) int;
          (* Dyadic rationals only: the encoder prints %.12g, which does
             not round-trip arbitrary doubles. *)
          map
            (fun n -> J.Float (float_of_int n /. 64.0))
            (int_range (-1_000_000) 1_000_000);
          map (fun s -> J.String s) (string_size ~gen:printable (int_range 0 12));
        ]
    in
    let node self =
      oneof
        [
          scalar;
          map (fun l -> J.List l) (list_size (int_range 0 4) self);
          map
            (fun kvs ->
              (* Duplicate keys make [member] ambiguous — keep first wins
                 out of scope of the round-trip property. *)
              let seen = Hashtbl.create 4 in
              J.Obj
                (List.filter
                   (fun (k, _) ->
                     if Hashtbl.mem seen k then false
                     else (Hashtbl.add seen k (); true))
                   kvs))
            (list_size (int_range 0 4)
               (pair (string_size ~gen:printable (int_range 0 6)) self));
        ]
    in
    node (node scalar))

let prop_json_roundtrip =
  Testkit.qcheck ~count:200 "parse (encode v) = v" json_gen (fun v ->
      match J.of_string (J.to_string v) with
      | Ok v' -> v = v'
      | Error _ -> false)

(* Hardening: the decoder now reads adversarial bytes back from disk
   (WAL records, snapshots), so hostile shape must fail cleanly — an
   [Error], never a stack overflow or a silently wrong value. *)

let test_json_depth_bound () =
  let nested n = String.make n '[' ^ String.make n ']' in
  (match J.of_string (nested J.max_depth) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "depth %d must parse: %s" J.max_depth msg);
  (match J.of_string (nested (J.max_depth + 1)) with
  | Ok _ -> Alcotest.fail "past the depth bound must be rejected"
  | Error _ -> ());
  (* Way past the bound: must error out, not blow the stack.  An
     unbounded recursive-descent parser dies here. *)
  match J.of_string (String.make 1_000_000 '[') with
  | Ok _ -> Alcotest.fail "million-deep nesting must be rejected"
  | Error _ -> ()

let test_json_duplicate_keys () =
  (match J.of_string {|{"a":1,"a":2}|} with
  | Ok _ -> Alcotest.fail "duplicate key must be rejected"
  | Error msg ->
      Testkit.check_true "error names the key"
        (Testkit.contains msg "\"a\""));
  (* Duplicates nested below the top level are caught too. *)
  (match J.of_string {|{"x":[{"k":null,"k":0}]}|} with
  | Ok _ -> Alcotest.fail "nested duplicate key must be rejected"
  | Error _ -> ());
  match J.of_string {|{"a":1,"b":{"a":2}}|} with
  | Ok _ -> () (* same key in different objects is fine *)
  | Error msg -> Alcotest.failf "distinct objects may share keys: %s" msg

(* Fuzz: feed the parser mutated encodings and raw garbage; whatever
   happens, it must return, not raise. *)
let prop_json_parse_total =
  Testkit.qcheck ~count:300 "of_string never raises"
    QCheck2.Gen.(
      pair json_gen (pair (int_range 0 1_000_000) (string_size (int_range 0 40))))
    (fun (v, (cut, garbage)) ->
      let text = J.to_string v in
      let mutated =
        let cut = cut mod (String.length text + 1) in
        String.sub text 0 cut ^ garbage
      in
      List.for_all
        (fun input ->
          match J.of_string input with Ok _ | Error _ -> true)
        [ mutated; garbage; text ^ garbage ])

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy independent" `Quick test_prng_copy_independent;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int coverage" `Quick test_prng_int_coverage;
          Alcotest.test_case "chance extremes" `Quick test_prng_chance_extremes;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "shuffle_list permutation" `Quick test_shuffle_list_permutation;
          Alcotest.test_case "pick membership" `Quick test_pick_member;
          Alcotest.test_case "int bound one" `Quick test_prng_int_one;
          Alcotest.test_case "shuffle edge sizes" `Quick test_prng_shuffle_empty_and_single;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "basic order" `Quick test_pqueue_basic;
          Alcotest.test_case "empty raises" `Quick test_pqueue_empty_raises;
          Alcotest.test_case "min_priority" `Quick test_pqueue_min_priority;
          Alcotest.test_case "clear" `Quick test_pqueue_clear;
          Alcotest.test_case "duplicates" `Quick test_pqueue_duplicates;
          Alcotest.test_case "growth and order" `Quick test_pqueue_growth;
          prop_pqueue_heapsort;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "matches sequential" `Quick test_parallel_matches_sequential;
          Alcotest.test_case "order preserved" `Quick test_parallel_order_preserved;
          Alcotest.test_case "edge sizes" `Quick test_parallel_edge_sizes;
          Alcotest.test_case "exception propagates" `Quick test_parallel_exception_propagates;
          Alcotest.test_case "multiple failures aggregated" `Quick test_parallel_multiple_failures;
          Alcotest.test_case "jobs clamped" `Quick test_parallel_jobs_clamped;
          Alcotest.test_case "run" `Quick test_parallel_run;
        ] );
      ( "union_find",
        [
          Alcotest.test_case "basic" `Quick test_union_find_basic;
          Alcotest.test_case "idempotent" `Quick test_union_find_idempotent;
          Alcotest.test_case "components" `Quick test_union_find_components;
          prop_union_find_equivalence;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/pop" `Quick test_vec_push_pop;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "conversions" `Quick test_vec_conversions;
          Alcotest.test_case "copy independent" `Quick test_vec_copy_independent;
          Alcotest.test_case "iter/exists" `Quick test_vec_iter_exists;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "cells" `Quick test_table_cells;
          Alcotest.test_case "ragged rows" `Quick test_table_ragged_rows;
          Alcotest.test_case "column extension" `Quick test_table_column_extension;
        ] );
      ( "json",
        [
          Alcotest.test_case "encode" `Quick test_json_encode;
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "depth bound" `Quick test_json_depth_bound;
          Alcotest.test_case "duplicate keys" `Quick test_json_duplicate_keys;
          prop_json_roundtrip;
          prop_json_parse_total;
        ] );
    ]
