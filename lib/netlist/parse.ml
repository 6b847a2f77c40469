type error = { src : string; line : int; col : int; msg : string }

let error_to_string e =
  if e.line = 0 then Printf.sprintf "%s: %s" e.src e.msg
  else Printf.sprintf "%s: line %d, column %d: %s" e.src e.line e.col e.msg

exception Error of int * string

(* Internal control flow of the parser; converted to [error] at the API
   boundary so the result-returning entry points never leak it.  The
   source name is not known at the failure site — the entry point stamps
   it on before handing the error out. *)
exception Fail of error

let fail line col fmt =
  Printf.ksprintf (fun msg -> raise (Fail { src = ""; line; col; msg })) fmt

type header = {
  hname : string;
  hkind : Problem.kind;
  hwidth : int;
  hheight : int;
}

(* An instance under construction; pins are (net name, dx, dy, layer),
   reversed like every other accumulating list here. *)
type pinst = {
  pi_name : string;
  pi_w : int;
  pi_h : int;
  pi_fixed : bool;
  pi_loc : (int * int) option;
  pi_pins : (string * int * int * int) list;
}

type state = {
  mutable header : header option;
  mutable stack : (int * bool array) option;  (* layers, per-layer h-pref *)
  mutable obstructions : Problem.obstruction list;
  mutable nets : (string * Net.pin list) list; (* reversed; pins reversed *)
  net_ids : (string, int) Hashtbl.t;  (* net name -> 1-based id *)
  mutable classes : string list;  (* class lines' net names, reversed *)
  class_of : (string, Net.cls) Hashtbl.t;
  mutable prewires : (string * bool * (int * int * int) list) list;
  mutable insts : pinst list;
  mutable context : [ `Top | `Net | `Prewire | `Inst ];
}

(* A token and the 1-based column it starts at. *)
type tok = { col : int; text : string }

let kind_of_string line (t : tok) =
  match t.text with
  | "switchbox" -> Problem.Switchbox
  | "channel" -> Problem.Channel
  | "region" -> Problem.Region
  | s -> fail line t.col "unknown problem kind %S" s

let string_of_kind = function
  | Problem.Switchbox -> "switchbox"
  | Problem.Channel -> "channel"
  | Problem.Region -> "region"

let int_of line (t : tok) =
  match int_of_string_opt t.text with
  | Some v -> v
  | None -> fail line t.col "expected an integer, got %S" t.text

let max_nodes = 1 lsl 22

(* The grid of a problem must stay within [max_nodes] nodes.  Each
   dimension is checked as soon as it is read, against the product of
   the ones already known (2 layers until a [layers] line says
   otherwise), so no product can overflow and nothing is allocated for an
   oversized count.  Non-positive dimensions are left to
   [Problem.make]. *)
let check_nodes line (t : tok) ~known n =
  if n > 0 && n > max_nodes / known then
    fail line t.col "grid exceeds %d nodes (width x height x layers)" max_nodes

let tokens line_text =
  let n = String.length line_text in
  let rec scan i acc =
    if i >= n then List.rev acc
    else if line_text.[i] = ' ' || line_text.[i] = '\t' then scan (i + 1) acc
    else begin
      let j = ref i in
      while
        !j < n && line_text.[!j] <> ' ' && line_text.[!j] <> '\t'
      do
        incr j
      done;
      scan !j
        ({ col = i + 1; text = String.sub line_text i (!j - i) } :: acc)
    end
  in
  scan 0 []

let handle st lineno line_text =
  match tokens line_text with
  | [] -> ()
  | word :: _ when word.text.[0] = '#' -> ()
  | [ { text = "problem"; col }; name; kind; w; h ] ->
      if st.header <> None then fail lineno col "duplicate problem line";
      let header =
        {
          hname = name.text;
          hkind = kind_of_string lineno kind;
          hwidth = int_of lineno w;
          hheight = int_of lineno h;
        }
      in
      let layers =
        match st.stack with Some (n, _) -> n | None -> Grid.default_layers
      in
      check_nodes lineno w ~known:layers header.hwidth;
      check_nodes lineno h ~known:(layers * max 1 header.hwidth) header.hheight;
      st.header <- Some header
  | { text = "layers"; col } :: count :: dirs ->
      if st.stack <> None then fail lineno col "duplicate layers line";
      let n = int_of lineno count in
      if n < 2 then fail lineno count.col "layers must be >= 2, got %d" n;
      let planar =
        match st.header with
        | Some h when h.hwidth > 0 && h.hheight > 0 -> h.hwidth * h.hheight
        | _ -> 1
      in
      check_nodes lineno count ~known:planar n;
      let prefs =
        match dirs with
        | [] -> Grid.default_dirs n
        | _ ->
            if List.length dirs <> n then
              fail lineno col "layers %d expects %d direction tokens (h|v)" n n;
            Array.of_list
              (List.map
                 (fun (t : tok) ->
                   match t.text with
                   | "h" -> true
                   | "v" -> false
                   | s -> fail lineno t.col "expected h|v, got %S" s)
                 dirs)
      in
      st.stack <- Some (n, prefs)
  | [ { text = "obstruct"; _ }; layer; x0; y0; x1; y1 ] ->
      let obs_layer =
        if layer.text = "*" then None else Some (int_of lineno layer)
      in
      st.obstructions <-
        {
          Problem.obs_layer;
          obs_rect =
            Geom.Rect.make (int_of lineno x0) (int_of lineno y0)
              (int_of lineno x1) (int_of lineno y1);
        }
        :: st.obstructions
  | [ { text = "net"; _ }; name ] ->
      if Hashtbl.mem st.net_ids name.text then
        fail lineno name.col "duplicate net %S" name.text;
      Hashtbl.replace st.net_ids name.text (Hashtbl.length st.net_ids + 1);
      st.nets <- (name.text, []) :: st.nets;
      st.context <- `Net
  | { text = "pin"; col } :: rest -> begin
      let pin =
        match rest with
        | [ x; y ] -> Net.pin (int_of lineno x) (int_of lineno y)
        | [ x; y; layer ] ->
            Net.pin ~layer:(int_of lineno layer) (int_of lineno x)
              (int_of lineno y)
        | _ -> fail lineno col "pin expects: pin <x> <y> [layer]"
      in
      match (st.context, st.nets) with
      | `Net, (name, pins) :: rest_nets ->
          st.nets <- (name, pin :: pins) :: rest_nets
      | (`Top | `Prewire | `Inst), _ | `Net, [] ->
          fail lineno col "pin outside of a net block"
    end
  | [ { text = "prewire"; _ }; net_name; fixity ] ->
      let fixed =
        match fixity.text with
        | "fixed" -> true
        | "loose" -> false
        | s -> fail lineno fixity.col "expected fixed|loose, got %S" s
      in
      st.prewires <- (net_name.text, fixed, []) :: st.prewires;
      st.context <- `Prewire
  | [ { text = "cell"; col }; layer; x; y ] -> begin
      let cell = (int_of lineno layer, int_of lineno x, int_of lineno y) in
      match (st.context, st.prewires) with
      | `Prewire, (name, fixed, cells) :: rest ->
          st.prewires <- (name, fixed, cell :: cells) :: rest
      | (`Top | `Net | `Inst), _ | `Prewire, [] ->
          fail lineno col "cell outside of a prewire block"
    end
  | [ { text = "class"; _ }; name; cls ] -> begin
      match Net.cls_of_string cls.text with
      | None -> fail lineno cls.col "expected signal|clock|power, got %S" cls.text
      | Some c ->
          if Hashtbl.mem st.class_of name.text then
            fail lineno name.col "duplicate class for net %S" name.text;
          Hashtbl.replace st.class_of name.text c;
          st.classes <- name.text :: st.classes
    end
  | { text = "inst"; col } :: name :: w :: h :: fixity :: rest ->
      let fixed =
        match fixity.text with
        | "fixed" -> true
        | "free" -> false
        | s -> fail lineno fixity.col "expected fixed|free, got %S" s
      in
      let loc =
        match rest with
        | [] -> None
        | [ x; y ] -> Some (int_of lineno x, int_of lineno y)
        | _ -> fail lineno col "inst expects: inst <name> <w> <h> <fixed|free> [<x> <y>]"
      in
      if List.exists (fun i -> i.pi_name = name.text) st.insts then
        fail lineno name.col "duplicate instance %S" name.text;
      st.insts <-
        {
          pi_name = name.text;
          pi_w = int_of lineno w;
          pi_h = int_of lineno h;
          pi_fixed = fixed;
          pi_loc = loc;
          pi_pins = [];
        }
        :: st.insts;
      st.context <- `Inst
  | { text = "ipin"; col } :: rest -> begin
      let pin =
        match rest with
        | [ net; dx; dy ] ->
            (net.text, int_of lineno dx, int_of lineno dy, 0)
        | [ net; dx; dy; layer ] ->
            (net.text, int_of lineno dx, int_of lineno dy, int_of lineno layer)
        | _ -> fail lineno col "ipin expects: ipin <net> <dx> <dy> [layer]"
      in
      match (st.context, st.insts) with
      | `Inst, i :: rest_insts ->
          st.insts <- { i with pi_pins = pin :: i.pi_pins } :: rest_insts
      | (`Top | `Net | `Prewire), _ | `Inst, [] ->
          fail lineno col "ipin outside of an inst block"
    end
  | word :: _ -> fail lineno word.col "unknown directive %S" word.text

let of_string ?(src = "<string>") text =
  let st =
    {
      header = None;
      stack = None;
      obstructions = [];
      nets = [];
      net_ids = Hashtbl.create 64;
      classes = [];
      class_of = Hashtbl.create 16;
      prewires = [];
      insts = [];
      context = `Top;
    }
  in
  try
    List.iteri
      (fun i line_text -> handle st (i + 1) line_text)
      (String.split_on_char '\n' text);
    match st.header with
    | None ->
        Result.Error { src; line = 0; col = 0; msg = "missing problem line" }
    | Some h ->
        List.iter
          (fun name ->
            if not (Hashtbl.mem st.net_ids name) then
              fail 0 0 "class references unknown net %S" name)
          st.classes;
        let nets =
          List.mapi
            (fun i (name, pins) ->
              let cls =
                Option.value ~default:Net.Signal
                  (Hashtbl.find_opt st.class_of name)
              in
              Net.make ~cls ~id:(i + 1) ~name (List.rev pins))
            (List.rev st.nets)
        in
        let id_of_name ~what name =
          match Hashtbl.find_opt st.net_ids name with
          | Some id -> id
          | None -> fail 0 0 "%s references unknown net %S" what name
        in
        let prewires =
          List.rev_map
            (fun (name, fixed, cells) ->
              {
                Problem.pre_net = id_of_name ~what:"prewire" name;
                pre_cells = List.rev cells;
                pre_fixed = fixed;
              })
            st.prewires
        in
        let insts =
          List.rev_map
            (fun pi ->
              {
                Problem.inst_name = pi.pi_name;
                inst_w = pi.pi_w;
                inst_h = pi.pi_h;
                inst_fixed = pi.pi_fixed;
                inst_loc = pi.pi_loc;
                inst_pins =
                  List.rev_map
                    (fun (net, dx, dy, layer) ->
                      {
                        Problem.ip_net = id_of_name ~what:"ipin" net;
                        ip_dx = dx;
                        ip_dy = dy;
                        ip_layer = layer;
                      })
                    pi.pi_pins;
              })
            st.insts
        in
        let layers, layer_dirs =
          match st.stack with
          | None -> (Grid.default_layers, None)
          | Some (n, prefs) -> (n, Some prefs)
        in
        Ok
          (Problem.make ~kind:h.hkind ~layers ?layer_dirs
             ~obstructions:(List.rev st.obstructions)
             ~prewires ~insts ~name:h.hname ~width:h.hwidth ~height:h.hheight
             nets)
  with
  | Fail e -> Result.Error { e with src }
  (* Semantic validation (Net.make / Problem.make) has no line to point
     at: report the message alone. *)
  | Invalid_argument msg -> Result.Error { src; line = 0; col = 0; msg }

let of_string_exn ?src text =
  match of_string ?src text with
  | Ok p -> p
  | Result.Error e -> raise (Error (e.line, error_to_string e))

let to_string (p : Problem.t) =
  let buf = Buffer.create 1024 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "problem %s %s %d %d\n" p.Problem.name
    (string_of_kind p.Problem.kind)
    p.Problem.width p.Problem.height;
  (* The default 2-layer h/v stack is not emitted, keeping pre-existing
     problem files byte-identical (same convention as class lines). *)
  if not (Problem.default_stack p) then begin
    addf "layers %d" p.Problem.layers;
    Array.iter (fun h -> addf " %s" (if h then "h" else "v")) p.Problem.layer_dirs;
    addf "\n"
  end;
  List.iter
    (fun (o : Problem.obstruction) ->
      let r = o.Problem.obs_rect in
      addf "obstruct %s %d %d %d %d\n"
        (match o.Problem.obs_layer with None -> "*" | Some l -> string_of_int l)
        r.Geom.Rect.x0 r.Geom.Rect.y0 r.Geom.Rect.x1 r.Geom.Rect.y1)
    p.Problem.obstructions;
  Array.iter
    (fun (n : Net.t) ->
      addf "net %s\n" n.Net.name;
      List.iter
        (fun (pin : Net.pin) ->
          addf "pin %d %d %d\n" pin.Net.x pin.Net.y pin.Net.layer)
        n.Net.pins)
    p.Problem.nets;
  (* Class lines follow the net blocks; [Signal] is the default and is
     not emitted, keeping pre-existing problem files byte-identical. *)
  Array.iter
    (fun (n : Net.t) ->
      if n.Net.cls <> Net.Signal then
        addf "class %s %s\n" n.Net.name (Net.cls_to_string n.Net.cls))
    p.Problem.nets;
  List.iter
    (fun (pw : Problem.prewire) ->
      let net_name = (Problem.net p pw.Problem.pre_net).Net.name in
      addf "prewire %s %s\n" net_name
        (if pw.Problem.pre_fixed then "fixed" else "loose");
      List.iter
        (fun (layer, x, y) -> addf "cell %d %d %d\n" layer x y)
        pw.Problem.pre_cells)
    p.Problem.prewires;
  List.iter
    (fun (inst : Problem.inst) ->
      addf "inst %s %d %d %s%s\n" inst.Problem.inst_name inst.Problem.inst_w
        inst.Problem.inst_h
        (if inst.Problem.inst_fixed then "fixed" else "free")
        (match inst.Problem.inst_loc with
        | None -> ""
        | Some (x, y) -> Printf.sprintf " %d %d" x y);
      List.iter
        (fun (ip : Problem.ipin) ->
          addf "ipin %s %d %d %d\n"
            (Problem.net p ip.Problem.ip_net).Net.name
            ip.Problem.ip_dx ip.Problem.ip_dy ip.Problem.ip_layer)
        inst.Problem.inst_pins)
    p.Problem.insts;
  Buffer.contents buf

let load path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> of_string ~src:path text
  | exception Sys_error msg ->
      Result.Error { src = path; line = 0; col = 0; msg }

let load_exn path =
  match load path with
  | Ok p -> p
  | Result.Error e -> raise (Error (e.line, error_to_string e))

let save path p =
  let oc = open_out path in
  output_string oc (to_string p);
  close_out oc
