type stats = {
  place : Place.stats option;
  groute : Groute.t;
  route : Router.Engine.stats;
  triage : Analyze.t option;
  place_ns : int64;
  groute_ns : int64;
  route_ns : int64;
}

type t = {
  placed : Netlist.Problem.t;
  realized : Netlist.Problem.t;
  result : Router.Engine.t;
  stats : stats;
}

let timed f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (r, Int64.sub (Monotonic_clock.now ()) t0)

(* Guides require the bucket kernel and no widen-retry windowing, and
   certify through the A* lower bound (with h = 0 an escape is almost
   never provably worse, so guides would never hit); everything else of
   the caller's config applies unchanged. *)
let detailed_config config =
  {
    config with
    Router.Config.kernel = Maze.Search.Buckets;
    window_margin = None;
    use_astar = true;
  }

let run ?(config = Router.Config.default) ?budget ?seed ?tile
    ?(triage = false) problem =
  let seed = match seed with Some s -> s | None -> config.Router.Config.seed in
  let placed_r, place_ns =
    timed @@ fun () ->
    if Netlist.Problem.has_insts problem then
      match Place.place ~seed ?budget problem with
      | Ok (p, st) -> Ok (p, Some st)
      | Error e -> Error e
    else Ok (problem, None)
  in
  match placed_r with
  | Error e -> Error e
  | Ok (placed, place_stats) ->
      let realized = Netlist.Problem.realize placed in
      (* The triage gate is read-only and runs before any routing: it
         cannot affect the layout, only the report. *)
      let pre = if triage then Some (Analyze.run ?tile realized) else None in
      let gr, groute_ns = timed @@ fun () -> Groute.run ?tile realized in
      let config = detailed_config config in
      let result, route_ns =
        timed @@ fun () ->
        Router.Engine.route ~config ?budget ~guides:gr.Groute.guides realized
      in
      Ok
        {
          placed;
          realized;
          result;
          stats =
            {
              place = place_stats;
              groute = gr;
              route = result.Router.Engine.stats;
              triage = pre;
              place_ns;
              groute_ns;
              route_ns;
            };
        }

type triage_report = {
  score : float;
  predicted_overflow : float;
  actual_overflow : float;
  agree : bool;
}

let actual_overflow (g : Groute.t) =
  let total = Array.fold_left ( + ) 0 g.Groute.capacity in
  let over = ref 0 in
  Array.iteri
    (fun i u ->
      if u > g.Groute.capacity.(i) then
        over := !over + (u - g.Groute.capacity.(i)))
    g.Groute.usage;
  if total = 0 then if !over > 0 then 1.0 else 0.0
  else Float.min 1.0 (float_of_int !over /. float_of_int total)

let triage_report t =
  Option.map
    (fun (a : Analyze.t) ->
      let actual = actual_overflow t.stats.groute in
      let predicted = a.Analyze.verdict.Analyze.predicted_overflow in
      {
        score = a.Analyze.verdict.Analyze.score;
        predicted_overflow = predicted;
        actual_overflow = actual;
        (* "Congested" means meaningfully over supply on either side —
           a 0.3% predicted overflow against a 0.0% realized one is an
           agreement on routability, not a miss. *)
        agree = predicted > 0.01 = (actual > 0.01);
      })
    t.stats.triage

let guide_hit_rate t =
  let g = t.stats.route.Router.Engine.guide in
  let total = g.Router.Outcome.hits + g.Router.Outcome.fallbacks in
  if total = 0 then 1.0
  else float_of_int g.Router.Outcome.hits /. float_of_int total
