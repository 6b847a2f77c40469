let net_span (n : Net.t) =
  match n.Net.pins with
  | [] -> None
  | p :: rest ->
      let lo, hi =
        List.fold_left
          (fun (lo, hi) (q : Net.pin) -> (min lo q.Net.x, max hi q.Net.x))
          (p.Net.x, p.Net.x) rest
      in
      Some (Geom.Interval.make lo hi)

let column_density (p : Problem.t) =
  let density = Array.make p.Problem.width 0 in
  Array.iter
    (fun n ->
      if not (Net.is_trivial n) then
        match net_span n with
        | None -> ()
        | Some span ->
            for x = span.Geom.Interval.lo to span.Geom.Interval.hi do
              density.(x) <- density.(x) + 1
            done)
    p.Problem.nets;
  density

let channel_density p = Array.fold_left max 0 (column_density p)

let cuts_along (p : Problem.t) ~count ~coord =
  (* cuts.(i) separates coordinate i from i+1. *)
  let cuts = Array.make (max 0 (count - 1)) 0 in
  Array.iter
    (fun (n : Net.t) ->
      match n.Net.pins with
      | [] | [ _ ] -> ()
      | pins ->
          let cs = List.map coord pins in
          let lo = List.fold_left min (List.hd cs) cs
          and hi = List.fold_left max (List.hd cs) cs in
          for i = lo to hi - 1 do
            cuts.(i) <- cuts.(i) + 1
          done)
    p.Problem.nets;
  cuts

let vertical_cuts p =
  cuts_along p ~count:p.Problem.width ~coord:(fun (pin : Net.pin) -> pin.Net.x)

let horizontal_cuts p =
  cuts_along p ~count:p.Problem.height ~coord:(fun (pin : Net.pin) -> pin.Net.y)

let max_vertical_cut p = Array.fold_left max 0 (vertical_cuts p)

let max_horizontal_cut p = Array.fold_left max 0 (horizontal_cuts p)

let switchbox_track_lower_bound p =
  max (max_vertical_cut p) (max_horizontal_cut p)

let wirelength_lower_bound (p : Problem.t) =
  Array.fold_left (fun acc n -> acc + Net.half_perimeter n) 0 p.Problem.nets

let demand_map (p : Problem.t) =
  let w = p.Problem.width and h = p.Problem.height in
  let demand = Array.make (w * h) 0.0 in
  Array.iter
    (fun (n : Net.t) ->
      if not (Net.is_trivial n) then
        match Net.bounding_box n with
        | None -> ()
        | Some box ->
            (* Half-perimeter wirelength spread over the box area: expected
               track usage per cell. *)
            let wl = float_of_int (max 1 (Geom.Rect.half_perimeter box)) in
            let area = float_of_int (Geom.Rect.area box) in
            Geom.Rect.iter box (fun x y ->
                demand.((y * w) + x) <- demand.((y * w) + x) +. (wl /. area)))
    p.Problem.nets;
  List.iter
    (fun (o : Problem.obstruction) ->
      if o.Problem.obs_layer = None then
        Geom.Rect.iter o.Problem.obs_rect (fun x y ->
            if x >= 0 && x < w && y >= 0 && y < h then
              demand.((y * w) + x) <- infinity))
    p.Problem.obstructions;
  demand

let demand_at (p : Problem.t) demand ~x ~y = demand.((y * p.Problem.width) + x)

let overflow_estimate p =
  let demand = demand_map p in
  let cells = Array.length demand in
  let over =
    Array.fold_left
      (fun acc d -> if d > 2.0 && d <> infinity then acc + 1 else acc)
      0 demand
  in
  if cells = 0 then 0.0 else float_of_int over /. float_of_int cells
