(* In-memory spans and per-pass counters for the traced run.

   A span records one call into a layer: its name, start and end on the
   monotonic clock, the span that contains it, the job or request it
   belongs to, and the minor/major words the call allocated.  Spans stay
   in memory and are written once, at exit.  With tracing off [run] is a
   plain call, so the untraced run and the traced run execute the same
   code. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  job : string;
  t0 : int;
  t1 : int;
  minor_words : float;
  major_words : float;
}

let enabled = ref false
let spans : t list ref = ref []
let next_id = ref 0
let open_ids = ref [ 0 ]
let job = ref ""
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let fresh_id () =
  incr next_id;
  !next_id

let run name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () and parent = List.hd !open_ids in
    open_ids := id :: !open_ids;
    (* [Gc.counters] is exact for this domain; [Gc.quick_stat] only
       moves at minor collections. *)
    let minor0, _, major0 = Gc.counters () in
    let t0 = now_ns () in
    let close () =
      let t1 = now_ns () in
      let minor1, _, major1 = Gc.counters () in
      open_ids := List.tl !open_ids;
      spans :=
        {
          id;
          parent;
          name;
          job = !job;
          t0;
          t1;
          minor_words = minor1 -. minor0;
          major_words = major1 -. major0;
        }
        :: !spans
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

(* A root span whose ends were taken elsewhere: the service's submit and
   reply timestamps, recorded by the load generator and the workers. *)
let add ~name ~job ~t0 ~t1 =
  if !enabled then
    spans :=
      {
        id = fresh_id ();
        parent = 0;
        name;
        job;
        t0;
        t1;
        minor_words = 0.0;
        major_words = 0.0;
      }
      :: !spans

let count name v =
  if !enabled then
    Hashtbl.replace counters name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))

(* Hand back everything recorded since the last [take] and start over:
   one call per pass. *)
let take () =
  let s = List.rev !spans and c = Hashtbl.copy counters in
  spans := [];
  Hashtbl.reset counters;
  (s, c)

let dur s = s.t1 - s.t0

(* Self time: a span's duration minus that of its direct children.  The
   children of one span never overlap (calls are sequential), so this is
   the part of the interval no child covers. *)
let self_ns spans =
  let child_ns = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_ns s.parent
          (dur s + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
    spans;
  fun s -> dur s - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id)

(* Cost of recording one span, measured on this host: the traced run's
   overhead is this times the spans it recorded. *)
let cost_ns () =
  let saved = (!enabled, !spans, !next_id) in
  enabled := true;
  let n = 20_000 in
  let t0 = now_ns () in
  for _ = 1 to n do
    run "calibrate" ignore
  done;
  let per = float_of_int (now_ns () - t0) /. float_of_int n in
  let e, s, id = saved in
  enabled := e;
  spans := s;
  next_id := id;
  per

let to_json s =
  Util.Json.Obj
    [
      ("id", Util.Json.Int s.id);
      ("parent", Util.Json.Int s.parent);
      ("name", Util.Json.String s.name);
      ("job", Util.Json.String s.job);
      ("t0_ns", Util.Json.Int s.t0);
      ("t1_ns", Util.Json.Int s.t1);
      ("minor_words", Util.Json.Float s.minor_words);
      ("major_words", Util.Json.Float s.major_words);
    ]

let write_jsonl path spans =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          output_string oc (Util.Json.to_string (to_json s));
          output_char oc '\n')
        spans)
