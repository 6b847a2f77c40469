type stats = {
  insts : int;
  free_insts : int;
  moves : int;
  accepted : int;
  sweeps : int;
  initial_cost : int;
  final_cost : int;
  degraded : bool;
}

(* --- incremental objective state ------------------------------------- *)

module Internal = struct
  type undo_net = { un_net : int; un_bbox : Geom.Rect.t option; un_hpwl : int }

  type undo_rec = {
    u_insts : (int * int * int) list;  (** inst, old x, old y *)
    u_nets : undo_net list;
    u_cost : int;
  }

  type state = {
    problem : Netlist.Problem.t;
    names : string array;
    fw : int array;  (** footprint widths *)
    fh : int array;
    fixed : bool array;
    xs : int array;  (** current anchors (lower-left origins) *)
    ys : int array;
    ipins : (int * int * int) array array;
        (** per inst: (net index, dx, dy) *)
    (* Static legality: anchors where the footprint and every pin avoid
       the region boundary, obstructions, pre-wiring and fixed problem
       pins.  [legal.(i)] is indexed ((y - lo_y) * span_x + (x - lo_x));
       an empty table means the instance has no legal anchor at all. *)
    legal : bool array array;
    lo_x : int array;
    hi_x : int array;
    lo_y : int array;
    hi_y : int array;
    net_fixed : (int * int) array array;  (** per net: fixed pin coords *)
    net_insts : (int * int * int) array array;
        (** per net: (inst, dx, dy) *)
    inst_nets : int array array;  (** per inst: nets it pins, dedup *)
    bbox : Geom.Rect.t option array;
    hpwl : int array;
    bin : int;
    bins_x : int;
    bins_y : int;
    cap : int;
    cw : int;
    spacing : int;  (** min free cells kept between any two footprints *)
    cover : int array;
    mutable cost : int;
    mutable last : undo_rec option;
  }

  let pen st c = if c > st.cap then (c - st.cap) * (c - st.cap) else 0

  let bin_range st lo hi =
    (lo / st.bin, hi / st.bin)

  (* Add [d] to the coverage of bin [i], returning its penalty delta. *)
  let bump st i d =
    let c = st.cover.(i) in
    st.cover.(i) <- c + d;
    pen st (c + d) - pen st c

  (* Add [d] to the coverage of every bin in [bx0..bx1] x [by0..by1] that
     lies outside the bins [sx0..sx1] x [sy0..sy1], returning the
     congestion-cost delta. *)
  let adjust_bins st ~bx0 ~by0 ~bx1 ~by1 ~sx0 ~sy0 ~sx1 ~sy1 d =
    let delta = ref 0 in
    for by = by0 to by1 do
      let row = by * st.bins_x in
      if by < sy0 || by > sy1 then
        for bx = bx0 to bx1 do
          delta := !delta + bump st (row + bx) d
        done
      else begin
        for bx = bx0 to if bx1 < sx0 then bx1 else sx0 - 1 do
          delta := !delta + bump st (row + bx) d
        done;
        for bx = if bx0 > sx1 then bx0 else sx1 + 1 to bx1 do
          delta := !delta + bump st (row + bx) d
        done
      end
    done;
    st.cw * !delta

  (* Move a net's coverage from bounding box [old] to [nb].  Only the
     bins the two bin ranges do not share change: equal ranges, the
     common case for chip-spanning nets, cost nothing.  Every bin's
     penalty depends on its own count alone, so the delta and the final
     counts equal removing [old] whole and then adding [nb] whole. *)
  let move_cover st old nb =
    let bins = function
      | Some (r : Geom.Rect.t) ->
          (r.x0 / st.bin, r.y0 / st.bin, r.x1 / st.bin, r.y1 / st.bin)
      | None -> (max_int, max_int, min_int, min_int)
    in
    let ox0, oy0, ox1, oy1 = bins old and nx0, ny0, nx1, ny1 = bins nb in
    adjust_bins st ~bx0:ox0 ~by0:oy0 ~bx1:ox1 ~by1:oy1 ~sx0:nx0 ~sy0:ny0
      ~sx1:nx1 ~sy1:ny1 (-1)
    + adjust_bins st ~bx0:nx0 ~by0:ny0 ~bx1:nx1 ~by1:ny1 ~sx0:ox0 ~sy0:oy0
        ~sx1:ox1 ~sy1:oy1 1

  let net_geometry st n =
    let x0 = ref max_int and y0 = ref max_int in
    let x1 = ref min_int and y1 = ref min_int in
    let add x y =
      if x < !x0 then x0 := x;
      if x > !x1 then x1 := x;
      if y < !y0 then y0 := y;
      if y > !y1 then y1 := y
    in
    Array.iter (fun (x, y) -> add x y) st.net_fixed.(n);
    Array.iter
      (fun (i, dx, dy) -> add (st.xs.(i) + dx) (st.ys.(i) + dy))
      st.net_insts.(n);
    if !x1 < !x0 then None
    else Some (Geom.Rect.make !x0 !y0 !x1 !y1)

  (* Re-derive one net's bbox from current locations and fold the cover
     and hpwl deltas into [cost]. *)
  let update_net st n =
    let nb = net_geometry st n in
    if nb <> st.bbox.(n) then begin
      st.cost <- st.cost + move_cover st st.bbox.(n) nb;
      let h = match nb with Some r -> Geom.Rect.half_perimeter r | None -> 0 in
      st.cost <- st.cost + h - st.hpwl.(n);
      st.bbox.(n) <- nb;
      st.hpwl.(n) <- h
    end

  let cost st = st.cost

  let recompute_cost st =
    let total = ref 0 in
    let cover = Array.make (Array.length st.cover) 0 in
    Array.iteri
      (fun n _ ->
        match net_geometry st n with
        | None -> ()
        | Some r ->
            total := !total + Geom.Rect.half_perimeter r;
            let bx0, bx1 = bin_range st r.Geom.Rect.x0 r.Geom.Rect.x1 in
            let by0, by1 = bin_range st r.Geom.Rect.y0 r.Geom.Rect.y1 in
            for by = by0 to by1 do
              for bx = bx0 to bx1 do
                let i = (by * st.bins_x) + bx in
                cover.(i) <- cover.(i) + 1
              done
            done)
      st.bbox;
    Array.iter (fun c -> total := !total + (st.cw * pen st c)) cover;
    !total

  (* --- static legality tables --------------------------------------- *)

  let build_tables problem (insts : Netlist.Problem.inst array) ipins =
    let w = problem.Netlist.Problem.width
    and h = problem.Netlist.Problem.height in
    (* Planar cells a footprint may not cover: obstructions (any layer,
       since footprints block both), problem pins, pre-wiring. *)
    let blocked = Array.make (w * h) false in
    let mark x y = if x >= 0 && x < w && y >= 0 && y < h then
        blocked.((y * w) + x) <- true in
    List.iter
      (fun (o : Netlist.Problem.obstruction) ->
        Geom.Rect.iter o.Netlist.Problem.obs_rect mark)
      problem.Netlist.Problem.obstructions;
    List.iter (fun (_, (p : Netlist.Net.pin)) -> mark p.Netlist.Net.x p.Netlist.Net.y)
      (Netlist.Problem.pin_cells problem);
    List.iter
      (fun (pw : Netlist.Problem.prewire) ->
        List.iter (fun (_, x, y) -> mark x y) pw.Netlist.Problem.pre_cells)
      problem.Netlist.Problem.prewires;
    (* Prefix sums for O(1) footprint-emptiness tests. *)
    let psum = Array.make ((w + 1) * (h + 1)) 0 in
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        psum.(((y + 1) * (w + 1)) + x + 1) <-
          psum.((y * (w + 1)) + x + 1)
          + psum.(((y + 1) * (w + 1)) + x)
          - psum.((y * (w + 1)) + x)
          + if blocked.((y * w) + x) then 1 else 0
      done
    done;
    let rect_clear x0 y0 x1 y1 =
      psum.(((y1 + 1) * (w + 1)) + x1 + 1)
      - psum.((y0 * (w + 1)) + x1 + 1)
      - psum.(((y1 + 1) * (w + 1)) + x0)
      + psum.((y0 * (w + 1)) + x0)
      = 0
    in
    let pin_ok x y = x >= 0 && x < w && y >= 0 && y < h
                     && not blocked.((y * w) + x) in
    let n = Array.length insts in
    let legal = Array.make n [||] in
    let lo_x = Array.make n 0 and hi_x = Array.make n (-1) in
    let lo_y = Array.make n 0 and hi_y = Array.make n (-1) in
    Array.iteri
      (fun i (inst : Netlist.Problem.inst) ->
        let iw = inst.Netlist.Problem.inst_w
        and ih = inst.Netlist.Problem.inst_h in
        (* Anchor bounds keeping footprint and every pin in the region. *)
        let lx = ref 0 and hx = ref (w - iw) in
        let ly = ref 0 and hy = ref (h - ih) in
        Array.iter
          (fun (_, dx, dy) ->
            if dx < 0 then lx := max !lx (-dx)
            else if dx >= iw then hx := min !hx (w - 1 - dx);
            if dy < 0 then ly := max !ly (-dy)
            else if dy >= ih then hy := min !hy (h - 1 - dy))
          ipins.(i);
        if !hx >= !lx && !hy >= !ly then begin
          lo_x.(i) <- !lx;
          hi_x.(i) <- !hx;
          lo_y.(i) <- !ly;
          hi_y.(i) <- !hy;
          let span = !hx - !lx + 1 in
          let t = Array.make (span * (!hy - !ly + 1)) false in
          for y = !ly to !hy do
            for x = !lx to !hx do
              let ok =
                rect_clear x y (x + iw - 1) (y + ih - 1)
                && Array.for_all
                     (fun (_, dx, dy) -> pin_ok (x + dx) (y + dy))
                     ipins.(i)
              in
              t.(((y - !ly) * span) + (x - !lx)) <- ok
            done
          done;
          legal.(i) <- t
        end)
      insts;
    (legal, lo_x, hi_x, lo_y, hi_y)

  let statically_legal st i x y =
    x >= st.lo_x.(i) && x <= st.hi_x.(i) && y >= st.lo_y.(i)
    && y <= st.hi_y.(i)
    && st.legal.(i).(((y - st.lo_y.(i)) * (st.hi_x.(i) - st.lo_x.(i) + 1))
                     + (x - st.lo_x.(i)))

  (* Conflict test of inst [i] at (x, y) against every other placed
     instance: footprints closer than [spacing] free cells (routing
     alleys must survive), a pin landing on a footprint (either
     direction), or coincident pin cells.  Pin conflicts ignore the
     layer, which is conservative but never admits a placement that
     [realize] would reject. *)
  let conflict_free st ?(skip = -1) i x y =
    let n = Array.length st.xs in
    let x1 = x + st.fw.(i) - 1 and y1 = y + st.fh.(i) - 1 in
    let s = st.spacing in
    let pins_i = st.ipins.(i) in
    let ok = ref true in
    let j = ref 0 in
    while !ok && !j < n do
      let jj = !j in
      if jj <> i && jj <> skip && st.xs.(jj) >= 0 then begin
        let jx0 = st.xs.(jj) and jy0 = st.ys.(jj) in
        let jx1 = jx0 + st.fw.(jj) - 1 and jy1 = jy0 + st.fh.(jj) - 1 in
        if x - s <= jx1 && jx0 <= x1 + s && y - s <= jy1 && jy0 <= y1 + s then
          ok := false
        else begin
          let k = ref 0 in
          while !ok && !k < Array.length pins_i do
            let _, dx, dy = pins_i.(!k) in
            let px = x + dx and py = y + dy in
            if jx0 <= px && px <= jx1 && jy0 <= py && py <= jy1 then
              ok := false;
            incr k
          done;
          let pins_j = st.ipins.(jj) in
          let k = ref 0 in
          while !ok && !k < Array.length pins_j do
            let _, dx, dy = pins_j.(!k) in
            let px = jx0 + dx and py = jy0 + dy in
            if x <= px && px <= x1 && y <= py && py <= y1 then ok := false
            else begin
              let m = ref 0 in
              while !ok && !m < Array.length pins_i do
                let _, idx, idy = pins_i.(!m) in
                if x + idx = px && y + idy = py then ok := false;
                incr m
              done
            end;
            incr k
          done
        end
      end;
      incr j
    done;
    !ok

  (* --- construction -------------------------------------------------- *)

  let make_state ?(bin = 8) ?(bin_capacity = 6) ?(congestion_weight = 4)
      ?(spacing = 3) problem =
    let insts = Array.of_list problem.Netlist.Problem.insts in
    let nets = Array.length problem.Netlist.Problem.nets in
    let ipins =
      Array.map
        (fun (inst : Netlist.Problem.inst) ->
          Array.of_list
            (List.map
               (fun (p : Netlist.Problem.ipin) ->
                 (p.Netlist.Problem.ip_net - 1, p.Netlist.Problem.ip_dx,
                  p.Netlist.Problem.ip_dy))
               inst.Netlist.Problem.inst_pins))
        insts
    in
    let legal, lo_x, hi_x, lo_y, hi_y = build_tables problem insts ipins in
    let net_fixed =
      Array.init nets (fun i ->
          Array.of_list
            (List.map
               (fun (p : Netlist.Net.pin) -> (p.Netlist.Net.x, p.Netlist.Net.y))
               (problem.Netlist.Problem.nets.(i)).Netlist.Net.pins))
    in
    let net_insts = Array.make nets [] in
    Array.iteri
      (fun i pins ->
        Array.iter
          (fun (nn, dx, dy) -> net_insts.(nn) <- (i, dx, dy) :: net_insts.(nn))
          pins)
      ipins;
    let net_insts = Array.map (fun l -> Array.of_list (List.rev l)) net_insts in
    let inst_nets =
      Array.map
        (fun pins ->
          let seen = Hashtbl.create 8 in
          let acc = ref [] in
          Array.iter
            (fun (nn, _, _) ->
              if not (Hashtbl.mem seen nn) then begin
                Hashtbl.add seen nn ();
                acc := nn :: !acc
              end)
            pins;
          Array.of_list (List.rev !acc))
        ipins
    in
    let w = problem.Netlist.Problem.width
    and h = problem.Netlist.Problem.height in
    let bins_x = ((w + bin - 1) / bin) and bins_y = ((h + bin - 1) / bin) in
    {
      problem;
      names = Array.map (fun i -> i.Netlist.Problem.inst_name) insts;
      fw = Array.map (fun i -> i.Netlist.Problem.inst_w) insts;
      fh = Array.map (fun i -> i.Netlist.Problem.inst_h) insts;
      fixed = Array.map (fun i -> i.Netlist.Problem.inst_fixed) insts;
      xs =
        Array.map
          (fun i ->
            match i.Netlist.Problem.inst_loc with Some (x, _) -> x | None -> -1)
          insts;
      ys =
        Array.map
          (fun i ->
            match i.Netlist.Problem.inst_loc with Some (_, y) -> y | None -> -1)
          insts;
      ipins;
      legal;
      lo_x;
      hi_x;
      lo_y;
      hi_y;
      net_fixed;
      net_insts;
      inst_nets;
      bbox = Array.make nets None;
      hpwl = Array.make nets 0;
      bin;
      bins_x;
      bins_y;
      cap = bin_capacity;
      cw = congestion_weight;
      spacing;
      cover = Array.make (max 1 (bins_x * bins_y)) 0;
      cost = 0;
      last = None;
    }

  (* Fold every net into the cost structures; every inst must be placed. *)
  let seed_cost st =
    st.cost <- 0;
    Array.fill st.cover 0 (Array.length st.cover) 0;
    Array.iteri
      (fun n _ ->
        st.bbox.(n) <- None;
        st.hpwl.(n) <- 0;
        update_net st n)
      st.bbox

  let init ?bin ?bin_capacity ?congestion_weight ?spacing problem =
    if not (Netlist.Problem.placed problem) then
      invalid_arg "Place.Internal.init: problem has unplaced instances";
    let st = make_state ?bin ?bin_capacity ?congestion_weight ?spacing problem in
    seed_cost st;
    st

  (* --- moves --------------------------------------------------------- *)

  let nets_of st is =
    let seen = Hashtbl.create 8 in
    let acc = ref [] in
    List.iter
      (fun i ->
        Array.iter
          (fun n ->
            if not (Hashtbl.mem seen n) then begin
              Hashtbl.add seen n ();
              acc := n :: !acc
            end)
          st.inst_nets.(i))
      is;
    List.rev !acc

  let apply st moved_insts set =
    let u_insts = List.map (fun i -> (i, st.xs.(i), st.ys.(i))) moved_insts in
    let touched = nets_of st moved_insts in
    let u_nets =
      List.map
        (fun n -> { un_net = n; un_bbox = st.bbox.(n); un_hpwl = st.hpwl.(n) })
        touched
    in
    let u_cost = st.cost in
    set ();
    List.iter (fun n -> update_net st n) touched;
    st.last <- Some { u_insts; u_nets; u_cost }

  let undo st =
    match st.last with
    | None -> ()
    | Some u ->
        List.iter (fun (i, x, y) ->
            st.xs.(i) <- x;
            st.ys.(i) <- y)
          u.u_insts;
        List.iter
          (fun un ->
            ignore (move_cover st st.bbox.(un.un_net) un.un_bbox);
            st.bbox.(un.un_net) <- un.un_bbox;
            st.hpwl.(un.un_net) <- un.un_hpwl)
          u.u_nets;
        st.cost <- u.u_cost;
        st.last <- None

  let free_indices st =
    let acc = ref [] in
    Array.iteri (fun i f -> if not f then acc := i :: !acc) st.fixed;
    Array.of_list (List.rev !acc)

  let try_displace st rng ~range i =
    let tries = ref 10 and applied = ref false in
    while (not !applied) && !tries > 0 do
      decr tries;
      let nx =
        min st.hi_x.(i)
          (max st.lo_x.(i) (st.xs.(i) + Util.Prng.int_in rng (-range) range))
      and ny =
        min st.hi_y.(i)
          (max st.lo_y.(i) (st.ys.(i) + Util.Prng.int_in rng (-range) range))
      in
      if (nx, ny) <> (st.xs.(i), st.ys.(i))
         && statically_legal st i nx ny
         && conflict_free st i nx ny
      then begin
        apply st [ i ] (fun () ->
            st.xs.(i) <- nx;
            st.ys.(i) <- ny);
        applied := true
      end
    done;
    !applied

  let try_swap st rng i =
    let mates = ref [] in
    Array.iteri
      (fun j f ->
        if (not f) && j <> i && st.fw.(j) = st.fw.(i) && st.fh.(j) = st.fh.(i)
        then mates := j :: !mates)
      st.fixed;
    match List.rev !mates with
    | [] -> false
    | ms ->
        let j = Util.Prng.pick_list rng ms in
        let xi = st.xs.(i) and yi = st.ys.(i) in
        let xj = st.xs.(j) and yj = st.ys.(j) in
        (* Equal footprints, but pin offsets differ: both ends must be
           statically legal and conflict-free at the other's anchor. *)
        if statically_legal st i xj yj && statically_legal st j xi yi
           && conflict_free st ~skip:j i xj yj
           && conflict_free st ~skip:i j xi yi
           && (let clash = ref false in
               Array.iter
                 (fun (_, dx, dy) ->
                   Array.iter
                     (fun (_, ex, ey) ->
                       if xj + dx = xi + ex && yj + dy = yi + ey then
                         clash := true)
                     st.ipins.(j);
                   if Geom.Rect.mem
                        (Geom.Rect.make xi yi
                           (xi + st.fw.(j) - 1) (yi + st.fh.(j) - 1))
                        (xj + dx) (yj + dy)
                   then clash := true)
                 st.ipins.(i);
               Array.iter
                 (fun (_, dx, dy) ->
                   if Geom.Rect.mem
                        (Geom.Rect.make xj yj
                           (xj + st.fw.(i) - 1) (yj + st.fh.(i) - 1))
                        (xi + dx) (yi + dy)
                   then clash := true)
                 st.ipins.(j);
               not !clash)
        then begin
          apply st [ i; j ] (fun () ->
              st.xs.(i) <- xj;
              st.ys.(i) <- yj;
              st.xs.(j) <- xi;
              st.ys.(j) <- yi);
          true
        end
        else false

  let random_move st rng ~range =
    let free = free_indices st in
    if Array.length free = 0 then false
    else
      let i = Util.Prng.pick rng free in
      if Array.length free > 1 && Util.Prng.int rng 4 = 0 then
        try_swap st rng i
      else try_displace st rng ~range i
end

(* --- the annealer ----------------------------------------------------- *)

open Internal

(* Greedy seeding: earliest legal, conflict-free anchor in row-major
   order.  Deterministic and independent of the PRNG. *)
let seed_placement st =
  let err = ref None in
  Array.iteri
    (fun i x ->
      if !err = None && x < 0 then begin
        let found = ref false in
        let y = ref st.lo_y.(i) in
        while (not !found) && !y <= st.hi_y.(i) do
          let x = ref st.lo_x.(i) in
          while (not !found) && !x <= st.hi_x.(i) do
            if statically_legal st i !x !y && conflict_free st i !x !y
            then begin
              st.xs.(i) <- !x;
              st.ys.(i) <- !y;
              found := true
            end;
            incr x
          done;
          incr y
        done;
        if not !found then
          err := Some (Printf.sprintf
                         "place: no legal location for instance %s"
                         st.names.(i))
      end)
    st.xs;
  match !err with None -> Ok () | Some e -> Error e

let place ?(seed = 1) ?budget ?bin ?bin_capacity ?congestion_weight ?spacing
    ?(sweeps = 128) problem =
  if not (Netlist.Problem.has_insts problem) then
    Ok
      ( problem,
        { insts = 0; free_insts = 0; moves = 0; accepted = 0; sweeps = 0;
          initial_cost = 0; final_cost = 0; degraded = false } )
  else begin
    let st = make_state ?bin ?bin_capacity ?congestion_weight ?spacing problem in
    match seed_placement st with
    | Error e -> Error e
    | Ok () ->
        seed_cost st;
        let rng = Util.Prng.create seed in
        let free = free_indices st in
        let nfree = Array.length free in
        let initial_cost = cost st in
        let moves = ref 0 and accepted = ref 0 and done_sweeps = ref 0 in
        let degraded = ref false in
        let best = ref (Array.copy st.xs, Array.copy st.ys) in
        let best_cost = ref initial_cost in
        if nfree > 0 then begin
          let budget_tripped () =
            match budget with
            | None -> false
            | Some b -> Router.Budget.check b <> None
          in
          let span =
            max problem.Netlist.Problem.width problem.Netlist.Problem.height
          in
          let t0 = Float.max 1.0 (float_of_int initial_cost /. 10.0) in
          let t = ref t0 in
          let s = ref 0 in
          while !s < sweeps && !t >= 0.5 && not !degraded do
            if budget_tripped () then degraded := true
            else begin
              let range =
                max 2 (int_of_float (float_of_int span *. !t /. t0))
              in
              for _ = 1 to 8 * nfree do
                let before = cost st in
                incr moves;
                if random_move st rng ~range then begin
                  let d = cost st - before in
                  if d <= 0
                     || Util.Prng.chance rng (exp (-.float_of_int d /. !t))
                  then begin
                    incr accepted;
                    if cost st < !best_cost then begin
                      best_cost := cost st;
                      best := (Array.copy st.xs, Array.copy st.ys)
                    end
                  end
                  else undo st
                end
              done;
              t := !t *. 0.9;
              incr done_sweeps;
              incr s
            end
          done
        end;
        let bx, by = !best in
        Array.blit bx 0 st.xs 0 (Array.length bx);
        Array.blit by 0 st.ys 0 (Array.length by);
        seed_cost st;
        let locs =
          Array.to_list
            (Array.mapi
               (fun i name -> (name, (st.xs.(i), st.ys.(i))))
               st.names)
        in
        let free_locs =
          List.filteri (fun i _ -> not st.fixed.(i)) locs
        in
        (* Unplaced fixed instances are impossible (validate requires a
           location), so [with_placement] only needs the free ones. *)
        let placed_problem = Netlist.Problem.with_placement problem free_locs in
        Ok
          ( placed_problem,
            {
              insts = Array.length st.names;
              free_insts = nfree;
              moves = !moves;
              accepted = !accepted;
              sweeps = !done_sweeps;
              initial_cost;
              final_cost = cost st;
              degraded = !degraded;
            } )
  end
