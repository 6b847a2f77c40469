(* Invariants: every stored priority lies in [base, hi], and
   [hi - base < Array.length buckets] (a power of two).  The bucket of
   priority [p] is [p land mask], so consecutive priorities occupy
   consecutive circular slots and the slot of an in-range priority is
   unique.  [base] is a lower bound for the minimum; [min_priority] and
   [pop] advance it to the first non-empty bucket. *)

type t = {
  mutable buckets : Vec.t array;
  mutable mask : int;  (* Array.length buckets - 1 *)
  mutable base : int;
  mutable hi : int;
  mutable size : int;
}

let rec pow2_above n k = if k > n then k else pow2_above n (2 * k)

let create ?(span = 16) () =
  let n = pow2_above (max 1 span) 2 in
  {
    buckets = Array.init n (fun _ -> Vec.create ~capacity:4 ());
    mask = n - 1;
    base = 0;
    hi = 0;
    size = 0;
  }

let length q = q.size

let is_empty q = q.size = 0

let clear q =
  Array.iter Vec.clear q.buckets;
  q.base <- 0;
  q.hi <- 0;
  q.size <- 0

(* Re-anchor the window to [lo, hi] (which must hold every stored priority),
   growing the bucket array so the span fits.  Elements are moved bucket by
   bucket: before the grow each in-range priority owns a unique old slot, so
   the vectors can be transplanted wholesale. *)
let rebucket q ~lo ~hi =
  let n = pow2_above (hi - lo + 1) (2 * (q.mask + 1)) in
  let fresh = Array.init n (fun _ -> Vec.create ~capacity:4 ()) in
  let mask = n - 1 in
  for p = q.base to q.hi do
    let old = q.buckets.(p land q.mask) in
    if not (Vec.is_empty old) then fresh.(p land mask) <- old
  done;
  q.buckets <- fresh;
  q.mask <- mask;
  q.base <- lo;
  q.hi <- hi

let push q priority payload =
  if q.size = 0 then begin
    q.base <- priority;
    q.hi <- priority
  end
  else begin
    let lo = min q.base priority and hi = max q.hi priority in
    if hi - lo > q.mask then rebucket q ~lo ~hi
    else begin
      q.base <- lo;
      q.hi <- hi
    end
  end;
  Vec.push q.buckets.(priority land q.mask) payload;
  q.size <- q.size + 1

let rec advance q =
  if Vec.is_empty q.buckets.(q.base land q.mask) then begin
    q.base <- q.base + 1;
    advance q
  end

let min_priority q =
  if q.size = 0 then invalid_arg "Bucketq.min_priority: empty";
  advance q;
  q.base

let pop q =
  if q.size = 0 then invalid_arg "Bucketq.pop: empty";
  advance q;
  q.size <- q.size - 1;
  Vec.pop q.buckets.(q.base land q.mask)
