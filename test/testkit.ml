(* Shared helpers for the test suite. *)

let qcheck ?(count = 100) ?print name gen prop =
  (* Fixed randomness: property tests are part of the deterministic suite
     (set QCHECK_SEED to explore other seeds). *)
  let rand =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> Random.State.make [| int_of_string s |]
    | None -> Random.State.make [| 0x5EED |]
  in
  QCheck_alcotest.to_alcotest ~rand
    (QCheck2.Test.make ~count ?print ~name gen prop)

(* Route a problem and fail the test unless the result is complete and
   DRC-clean; returns the result for further assertions. *)
let route_clean ?config problem =
  let result = Router.Engine.route ?config problem in
  Alcotest.(check bool)
    (Printf.sprintf "%s completes" problem.Netlist.Problem.name)
    true result.Router.Engine.completed;
  let violations = Drc.Check.check problem result.Router.Engine.grid in
  if violations <> [] then
    Alcotest.failf "%s: DRC violations:\n%s" problem.Netlist.Problem.name
      (Drc.Check.explain violations);
  result

(* DRC restricted to the routed nets of a possibly incomplete result. *)
let drc_routed problem (result : Router.Engine.t) =
  let failed = result.Router.Engine.stats.Router.Engine.failed_nets in
  let routed =
    List.filter
      (fun id -> not (List.mem id failed))
      (List.init (Netlist.Problem.net_count problem) (fun i -> i + 1))
  in
  Drc.Check.check ~nets:routed problem result.Router.Engine.grid

(* Substring test for error-message assertions. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_true name b = Alcotest.(check bool) name true b

let check_false name b = Alcotest.(check bool) name false b

(* A committed instance; cwd is test/ under [dune runtest], the project
   root under [dune exec]. *)
let instance name =
  let file = name ^ ".problem" in
  match
    List.find_opt Sys.file_exists
      [ Filename.concat "../instances" file; Filename.concat "instances" file ]
  with
  | Some path -> Netlist.Parse.load_exn path
  | None -> Alcotest.failf "instance %s not found" file

(* A random layout for the whole-grid bookkeeping properties, built from
   one seed: nets own scattered cells (so most nets are split into
   pieces), about half of the same-net stacks carry a via, one owner id
   lies past the problem's nets, and some cells are obstacles.  Pins sit
   mostly on their net's own cells and otherwise anywhere (a foreign, free
   or blocked cell is an unowned pin); a net may get no pins, and a net
   may own no cells. *)
let random_layout seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let width = 2 + int 8 and height = 2 + int 6 and layers = 2 + int 2 in
  let nets = 1 + int 5 and density = 1 + int 9 in
  let g = Grid.create ~layers ~width ~height () in
  for n = 0 to Grid.node_count g - 1 do
    let r = int 12 in
    if r < density then Grid.occupy g ~net:(1 + int (nets + 1)) n
    else if r = 11 then
      Grid.set_obstacle g ~layer:(Grid.node_layer g n) ~x:(Grid.node_x g n)
        ~y:(Grid.node_y g n)
  done;
  for layer = 0 to layers - 2 do
    Grid.iter_planar g (fun ~x ~y ->
        let a = Grid.occ_at g ~layer ~x ~y in
        if a > 0 && a = Grid.occ_at g ~layer:(layer + 1) ~x ~y && int 2 = 0
        then Grid.set_via ~layer g ~x ~y)
  done;
  let taken = Hashtbl.create 16 in
  let net_of id =
    let owned = Array.of_list (Grid.occupied_nodes g ~net:id) in
    let pick () =
      if Array.length owned > 0 && int 5 > 0 then owned.(int (Array.length owned))
      else int (Grid.node_count g)
    in
    let pins = ref [] in
    for _ = 1 to int 4 do
      let n = pick () in
      if not (Hashtbl.mem taken n) then begin
        Hashtbl.add taken n ();
        pins :=
          Netlist.Net.pin ~layer:(Grid.node_layer g n) (Grid.node_x g n)
            (Grid.node_y g n)
          :: !pins
      end
    done;
    Netlist.Net.make ~id ~name:(Printf.sprintf "n%d" id) !pins
  in
  let problem =
    Netlist.Problem.make ~layers ~name:"random" ~width ~height
      (List.init nets (fun i -> net_of (i + 1)))
  in
  (problem, g)
