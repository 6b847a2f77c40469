let per_net_table problem (result : Engine.t) =
  let failed = result.Engine.stats.Engine.failed_nets in
  let effort = result.Engine.stats.Engine.effort in
  let table =
    Util.Table.create
      ~headers:
        [ "net"; "pins"; "cells"; "wirelength"; "vias"; "expanded"; "status" ]
  in
  List.iter
    (fun (m : Outcome.net_stats) ->
      let net = Netlist.Problem.net problem m.Outcome.net_id in
      let status =
        if List.mem m.Outcome.net_id failed then "FAILED"
        else if Netlist.Net.is_trivial net then "trivial"
        else "routed"
      in
      let expanded =
        let i = m.Outcome.net_id - 1 in
        if i >= 0 && i < Array.length effort.Outcome.per_net_expanded then
          effort.Outcome.per_net_expanded.(i)
        else 0
      in
      Util.Table.add_row table
        [
          net.Netlist.Net.name;
          Util.Table.cell_int (Netlist.Net.pin_count net);
          Util.Table.cell_int m.Outcome.cells;
          Util.Table.cell_int m.Outcome.wirelength;
          Util.Table.cell_int m.Outcome.vias;
          Util.Table.cell_int expanded;
          status;
        ])
    (Outcome.measure problem result.Engine.grid);
  table

let summary problem (result : Engine.t) =
  let s = result.Engine.stats in
  let lower = Netlist.Analysis.wirelength_lower_bound problem in
  let overhead =
    if lower = 0 then "-"
    else
      Printf.sprintf "%.1f%%"
        (100.0
        *. (float_of_int s.Engine.total_wirelength /. float_of_int lower -. 1.0))
  in
  (* The status line appears only on non-complete runs, so reports of
     complete (and pre-budget-era) runs render byte-identically. *)
  let status_line =
    match result.Engine.status with
    | Outcome.Complete -> []
    | st -> [ Format.asprintf "status:               %a" Outcome.pp_status st ]
  in
  (* Guide telemetry appears only on guided runs (flow pipeline), so
     plain routes render byte-identically. *)
  let guide_line =
    let g = s.Engine.guide in
    if g = Outcome.no_guide then []
    else
      [
        Printf.sprintf "guide hits:           %d / %d (%d nets guided)"
          g.Outcome.hits
          (g.Outcome.hits + g.Outcome.fallbacks)
          g.Outcome.guided;
      ]
  in
  (* Per-class quality split, only when some net is not plain signal. *)
  let class_lines =
    let nets = Array.to_list problem.Netlist.Problem.nets in
    if List.for_all (fun (n : Netlist.Net.t) -> n.Netlist.Net.cls = Netlist.Net.Signal) nets
    then []
    else
      let measures = Outcome.measure problem result.Engine.grid in
      List.filter_map
        (fun cls ->
          let of_cls =
            List.filter (fun (n : Netlist.Net.t) -> n.Netlist.Net.cls = cls) nets
          in
          if of_cls = [] then None
          else
            let ids = List.map (fun (n : Netlist.Net.t) -> n.Netlist.Net.id) of_cls in
            let routed =
              List.length
                (List.filter
                   (fun id -> not (List.mem id s.Engine.failed_nets))
                   ids)
            in
            let wl, vias =
              List.fold_left
                (fun (wl, v) (m : Outcome.net_stats) ->
                  if List.mem m.Outcome.net_id ids then
                    (wl + m.Outcome.wirelength, v + m.Outcome.vias)
                  else (wl, v))
                (0, 0) measures
            in
            Some
              (Printf.sprintf "class %-7s       %d/%d routed, wl %d, vias %d"
                 (Netlist.Net.cls_to_string cls ^ ":")
                 routed (List.length ids) wl vias))
        [ Netlist.Net.Signal; Netlist.Net.Clock; Netlist.Net.Power ]
  in
  String.concat "\n"
    (Printf.sprintf "completed:            %b" result.Engine.completed
     :: status_line
    @ [
      Printf.sprintf "nets routed:          %d / %d" s.Engine.routed_nets
        (Netlist.Problem.net_count problem);
      Printf.sprintf "total wirelength:     %d (lower bound %d, +%s)"
        s.Engine.total_wirelength lower overhead;
      Printf.sprintf "total vias:           %d" s.Engine.total_vias;
      Printf.sprintf "rip-ups / shoves:     %d / %d" s.Engine.rips
        s.Engine.shoves;
      Printf.sprintf "searches / expanded:  %d / %d" s.Engine.searches
        s.Engine.expanded;
      Printf.sprintf "expanded by phase:    maze %d / shove %d / ripup %d"
        s.Engine.effort.Outcome.maze_expanded
        s.Engine.effort.Outcome.weak_expanded
        s.Engine.effort.Outcome.strong_expanded;
      Printf.sprintf "failed / flood work:  %d / %d"
        s.Engine.effort.Outcome.failed_expanded
        s.Engine.effort.Outcome.flood_expanded;
      Printf.sprintf "reused ripup plans:   %d (%d expanded)"
        s.Engine.effort.Outcome.reused
        s.Engine.effort.Outcome.reused_expanded;
      Printf.sprintf "restart attempts:     %d" s.Engine.attempts;
      ]
    @ guide_line @ class_lines)

let render problem result =
  Util.Table.render (per_net_table problem result) ^ "\n" ^ summary problem result
