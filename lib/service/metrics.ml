module J = Util.Json

(* Log-linear microsecond buckets.  Bucket 0 holds sub-microsecond
   samples; each octave [2^o, 2^(o+1)) µs for o < [octaves] is split into
   [per_octave] equal buckets, each 1/8 of the octave wide; the last
   bucket absorbs everything from 2^30 µs (~17.9 minutes) up. *)
let per_octave = 8
let octaves = 30
let buckets = 2 + (octaves * per_octave)

let bucket_of_latency s =
  let us = s *. 1e6 in
  if not (us >= 1.0) then 0
  else
    (* us = m * 2^e with m in [0.5, 1): octave e - 1, offset 2m - 1. *)
    let m, e = Float.frexp us in
    if e > octaves then buckets - 1
    else
      1 + ((e - 1) * per_octave)
      + int_of_float (((2.0 *. m) -. 1.0) *. float_of_int per_octave)

(* Upper bound of bucket [i], in milliseconds. *)
let bucket_upper_ms i =
  if i = 0 then 0.001
  else if i = buckets - 1 then Float.infinity
  else
    let octave = (i - 1) / per_octave and k = (i - 1) mod per_octave in
    Float.ldexp (1.0 +. (float_of_int (k + 1) /. float_of_int per_octave)) octave
    /. 1000.0

type kind_stats = {
  mutable count : int;
  mutable errors : int;
  mutable sum_s : float;
  mutable max_s : float;
  hist : int array;
}

type t = {
  kinds : (string, kind_stats) Hashtbl.t;
  mutable total : int;
  mutable total_errors : int;
  mutable sheds : int;
  mutable budget_trips : int;
  mutable faults : int;
  mutable evictions : int;
  mutable max_queue_depth : int;
  (* Incremental-cache effectiveness across every refine request served:
     net-visits skipped (certificate or cost floor) and certificates
     invalidated by writes. *)
  mutable refine_skips : int;
  mutable refine_stale : int;
  (* Guided-search effectiveness across every flow request served. *)
  mutable flow_guided : int;
  mutable flow_hits : int;
  mutable flow_fallbacks : int;
}

let blank_kind () =
  { count = 0; errors = 0; sum_s = 0.0; max_s = 0.0;
    hist = Array.make buckets 0 }

let create ?(kinds = []) () =
  let table = Hashtbl.create 16 in
  List.iter (fun kind -> Hashtbl.replace table kind (blank_kind ())) kinds;
  {
    kinds = table;
    total = 0;
    total_errors = 0;
    sheds = 0;
    budget_trips = 0;
    faults = 0;
    evictions = 0;
    max_queue_depth = 0;
    refine_skips = 0;
    refine_stale = 0;
    flow_guided = 0;
    flow_hits = 0;
    flow_fallbacks = 0;
  }

let kind_stats t kind =
  match Hashtbl.find_opt t.kinds kind with
  | Some ks -> ks
  | None ->
      let ks = blank_kind () in
      Hashtbl.replace t.kinds kind ks;
      ks

let record t ~kind ~ok ~latency_s =
  let ks = kind_stats t kind in
  ks.count <- ks.count + 1;
  if not ok then ks.errors <- ks.errors + 1;
  ks.sum_s <- ks.sum_s +. latency_s;
  if latency_s > ks.max_s then ks.max_s <- latency_s;
  let b = bucket_of_latency latency_s in
  ks.hist.(b) <- ks.hist.(b) + 1;
  t.total <- t.total + 1;
  if not ok then t.total_errors <- t.total_errors + 1

let shed t = t.sheds <- t.sheds + 1

let budget_trip t = t.budget_trips <- t.budget_trips + 1

let fault t = t.faults <- t.faults + 1

let evicted t n = t.evictions <- t.evictions + n

let refine_cache t ~skips ~stale =
  t.refine_skips <- t.refine_skips + skips;
  t.refine_stale <- t.refine_stale + stale

let flow_guides t ~guided ~hits ~fallbacks =
  t.flow_guided <- t.flow_guided + guided;
  t.flow_hits <- t.flow_hits + hits;
  t.flow_fallbacks <- t.flow_fallbacks + fallbacks

let note_queue_depth t d =
  if d > t.max_queue_depth then t.max_queue_depth <- d

let shed_count t = t.sheds

let requests t = t.total

(* Upper bound of the bucket holding the q-quantile sample, clamped to
   the largest sample seen. *)
let quantile_ms ks q =
  if ks.count = 0 then 0.0
  else begin
    let target =
      max 1 (int_of_float (Float.round (q *. float_of_int ks.count)))
    in
    let rec find i seen =
      let seen = seen + ks.hist.(i) in
      if seen >= target || i = buckets - 1 then i else find (i + 1) seen
    in
    Float.min (bucket_upper_ms (find 0 0)) (ks.max_s *. 1000.0)
  end

(* Pre-seeded kinds that never saw a request are invisible in snapshots
   and renders, so seeding the table (for lock-free sharing) does not
   change any output. *)
let sorted_kinds t =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold
       (fun k v acc -> if v.count > 0 then (k, v) :: acc else acc)
       t.kinds [])

(* Fold the per-domain stores of a sharded server into one fresh store.
   Reads are plain field loads with no locking: every counter is written
   by exactly one domain (see the .mli ownership contract), so a merge
   racing live execution sees each field at some recent value — fine for
   telemetry, and exact once the writers have quiesced (shutdown). *)
let merge parts =
  let m = create () in
  List.iter
    (fun p ->
      m.total <- m.total + p.total;
      m.total_errors <- m.total_errors + p.total_errors;
      m.sheds <- m.sheds + p.sheds;
      m.budget_trips <- m.budget_trips + p.budget_trips;
      m.faults <- m.faults + p.faults;
      m.evictions <- m.evictions + p.evictions;
      if p.max_queue_depth > m.max_queue_depth then
        m.max_queue_depth <- p.max_queue_depth;
      m.refine_skips <- m.refine_skips + p.refine_skips;
      m.refine_stale <- m.refine_stale + p.refine_stale;
      m.flow_guided <- m.flow_guided + p.flow_guided;
      m.flow_hits <- m.flow_hits + p.flow_hits;
      m.flow_fallbacks <- m.flow_fallbacks + p.flow_fallbacks;
      Hashtbl.iter
        (fun kind ks ->
          if ks.count > 0 then begin
            let acc = kind_stats m kind in
            acc.count <- acc.count + ks.count;
            acc.errors <- acc.errors + ks.errors;
            acc.sum_s <- acc.sum_s +. ks.sum_s;
            if ks.max_s > acc.max_s then acc.max_s <- ks.max_s;
            Array.iteri
              (fun i n -> acc.hist.(i) <- acc.hist.(i) + n)
              ks.hist
          end)
        p.kinds)
    parts;
  m

let snapshot ?(queue_depth = 0) ?(sessions = 0) t =
  let kind_row (name, ks) =
    ( name,
      J.Obj
        [
          ("count", J.Int ks.count);
          ("errors", J.Int ks.errors);
          ("p50_ms", J.Float (quantile_ms ks 0.50));
          ("p95_ms", J.Float (quantile_ms ks 0.95));
          ("p99_ms", J.Float (quantile_ms ks 0.99));
          ("max_ms", J.Float (ks.max_s *. 1000.0));
        ] )
  in
  J.Obj
    [
      ("requests", J.Int t.total);
      ("errors", J.Int t.total_errors);
      ("shed", J.Int t.sheds);
      ("budget_trips", J.Int t.budget_trips);
      ("faults", J.Int t.faults);
      ("evictions", J.Int t.evictions);
      ("sessions", J.Int sessions);
      ("queue_depth", J.Int queue_depth);
      ("max_queue_depth", J.Int t.max_queue_depth);
      ( "refine_cache",
        J.Obj
          [
            ("skips", J.Int t.refine_skips);
            ("stale", J.Int t.refine_stale);
          ] );
      ( "flow_guides",
        J.Obj
          [
            ("guided", J.Int t.flow_guided);
            ("hits", J.Int t.flow_hits);
            ("fallbacks", J.Int t.flow_fallbacks);
          ] );
      ("by_kind", J.Obj (List.map kind_row (sorted_kinds t)));
    ]

let render ?(queue_depth = 0) ?(sessions = 0) t =
  let buf = Buffer.create 512 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "service metrics:\n";
  addf
    "  requests %d  errors %d  shed %d  budget-trips %d  faults %d  \
     evictions %d\n"
    t.total t.total_errors t.sheds t.budget_trips t.faults t.evictions;
  addf "  sessions %d  queue-depth %d (max %d)\n" sessions queue_depth
    t.max_queue_depth;
  if t.refine_skips + t.refine_stale > 0 then
    addf "  refine-cache skips %d  stale %d\n" t.refine_skips t.refine_stale;
  if t.flow_guided + t.flow_hits + t.flow_fallbacks > 0 then
    addf "  flow-guides guided %d  hits %d  fallbacks %d\n" t.flow_guided
      t.flow_hits t.flow_fallbacks;
  List.iter
    (fun (name, ks) ->
      addf "  %-12s count %-6d errors %-4d p50 %.3fms  p95 %.3fms  p99 %.3fms  max %.3fms\n"
        name ks.count ks.errors (quantile_ms ks 0.50) (quantile_ms ks 0.95)
        (quantile_ms ks 0.99) (ks.max_s *. 1000.0))
    (sorted_kinds t);
  Buffer.contents buf
