type net_stats = { net_id : int; cells : int; wirelength : int; vias : int }

type status = Complete | Degraded of Budget.reason | Infeasible

let status_name = function
  | Complete -> "complete"
  | Degraded _ -> "degraded"
  | Infeasible -> "infeasible"

let pp_status fmt = function
  | Complete -> Format.pp_print_string fmt "complete"
  | Degraded r -> Format.fprintf fmt "degraded: %a" Budget.pp_reason r
  | Infeasible -> Format.pp_print_string fmt "infeasible"

type effort = {
  total_expanded : int;
  maze_expanded : int;
  weak_expanded : int;
  strong_expanded : int;
  per_net_expanded : int array;
  failed_expanded : int;
  flood_expanded : int;
  reused : int;
  reused_expanded : int;
}

let no_effort ~nets =
  {
    total_expanded = 0;
    maze_expanded = 0;
    weak_expanded = 0;
    strong_expanded = 0;
    per_net_expanded = Array.make (max 0 nets) 0;
    failed_expanded = 0;
    flood_expanded = 0;
    reused = 0;
    reused_expanded = 0;
  }

let pp_effort fmt e =
  Format.fprintf fmt
    "expanded=%d (maze=%d weak=%d strong=%d) failed=%d flood=%d reused=%d/%d"
    e.total_expanded e.maze_expanded e.weak_expanded e.strong_expanded
    e.failed_expanded e.flood_expanded e.reused e.reused_expanded

type guide_stats = { guided : int; hits : int; fallbacks : int }

let no_guide = { guided = 0; hits = 0; fallbacks = 0 }

let pp_guide fmt g =
  Format.fprintf fmt "guides: nets=%d hits=%d fallbacks=%d" g.guided g.hits
    g.fallbacks

let measure_net g ~net =
  let w = Grid.width g and h = Grid.height g in
  let cells = ref 0 and wirelength = ref 0 and vias = ref 0 in
  for layer = 0 to Grid.layers g - 1 do
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        if Grid.occ_at g ~layer ~x ~y = net then begin
          incr cells;
          if x + 1 < w && Grid.occ_at g ~layer ~x:(x + 1) ~y = net then
            incr wirelength;
          if y + 1 < h && Grid.occ_at g ~layer ~x ~y:(y + 1) = net then
            incr wirelength
        end
      done
    done
  done;
  Grid.iter_via_pairs g (fun ~layer ~x ~y ->
      if Grid.occ_at g ~layer ~x ~y = net then incr vias);
  { net_id = net; cells = !cells; wirelength = !wirelength; vias = !vias }

(* [measure_net] for every net at once: one pass over the grid fills
   per-net tallies.  A via is charged to the owner of its lower cell, as
   [measure_net] does. *)
let measure problem g =
  let nets = Netlist.Problem.net_count problem in
  let cells = Array.make (nets + 1) 0
  and wirelength = Array.make (nets + 1) 0
  and vias = Array.make (nets + 1) 0 in
  let w = Grid.width g and h = Grid.height g in
  for layer = 0 to Grid.layers g - 1 do
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        let n = Grid.node g ~layer ~x ~y in
        let v = Grid.occ g n in
        if v >= 1 && v <= nets then begin
          cells.(v) <- cells.(v) + 1;
          if x + 1 < w && Grid.occ g (n + 1) = v then
            wirelength.(v) <- wirelength.(v) + 1;
          if y + 1 < h && Grid.occ g (n + w) = v then
            wirelength.(v) <- wirelength.(v) + 1;
          if Grid.via_above g n then vias.(v) <- vias.(v) + 1
        end
      done
    done
  done;
  List.init nets (fun i ->
      let net = i + 1 in
      {
        net_id = net;
        cells = cells.(net);
        wirelength = wirelength.(net);
        vias = vias.(net);
      })

let total_wirelength g problem =
  List.fold_left (fun acc s -> acc + s.wirelength) 0 (measure problem g)

let total_vias = Grid.via_count
