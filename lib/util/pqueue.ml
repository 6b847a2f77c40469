type t = {
  mutable prio : int array;
  mutable data : int array;
  mutable size : int;
}

let create ?(capacity = 256) () =
  let capacity = max 16 capacity in
  { prio = Array.make capacity 0; data = Array.make capacity 0; size = 0 }

let length q = q.size

let is_empty q = q.size = 0

let clear q = q.size <- 0

let grow q =
  let n = Array.length q.prio in
  let prio = Array.make (2 * n) 0 and data = Array.make (2 * n) 0 in
  Array.blit q.prio 0 prio 0 n;
  Array.blit q.data 0 data 0 n;
  q.prio <- prio;
  q.data <- data

let push q priority payload =
  if q.size = Array.length q.prio then grow q;
  (* Sift the new element up from the last slot. *)
  let i = ref q.size in
  q.size <- q.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if q.prio.(parent) > priority then begin
      q.prio.(!i) <- q.prio.(parent);
      q.data.(!i) <- q.data.(parent);
      i := parent
    end
    else continue := false
  done;
  q.prio.(!i) <- priority;
  q.data.(!i) <- payload

let min_priority q =
  if q.size = 0 then invalid_arg "Pqueue.min_priority: empty";
  q.prio.(0)

let pop q =
  if q.size = 0 then invalid_arg "Pqueue.pop: empty";
  let top = q.data.(0) in
  q.size <- q.size - 1;
  if q.size > 0 then begin
    (* Move the last element to the root and sift it down. *)
    let priority = q.prio.(q.size) and payload = q.data.(q.size) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest =
        if l < q.size && q.prio.(l) < priority then l else !i
      in
      let smallest =
        if r < q.size
           && q.prio.(r) < (if smallest = !i then priority else q.prio.(smallest))
        then r
        else smallest
      in
      if smallest = !i then continue := false
      else begin
        q.prio.(!i) <- q.prio.(smallest);
        q.data.(!i) <- q.data.(smallest);
        i := smallest
      end
    done;
    q.prio.(!i) <- priority;
    q.data.(!i) <- payload
  end;
  top
