(* Named, unit-carrying numbers, exact quantiles, and the two output
   forms: one "workload metric value unit" line per metric, and the
   final one-line JSON result. *)

type t = { name : string; value : float; unit : string; note : string }

let v ?(note = "") name unit value = { name; value; unit; note }

(* One workload run: [reported] goes into the JSON result line (the
   end-to-end metrics untraced, the per-layer ones traced); [printed]
   are further lines for people, outside the JSON. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  reported : t list;
  printed : t list;
}

(* Nearest-rank quantile of a sorted array: the smallest sample with at
   least [q] of the samples at or below it.  Always a real sample. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs = quantile (sorted xs) 0.5

(* The highest of p99.9 / p99 / p95 / p90 that has at least ten samples
   beyond it, with its label — so p99 needs 1000 samples.  Falls back to
   the maximum on tiny sample sets (smoke runs). *)
let tail sorted =
  let n = float_of_int (Array.length sorted) in
  match
    List.find_opt
      (fun (q, _) -> n *. (1.0 -. q) >= 10.0)
      [ (0.999, "p99.9"); (0.99, "p99"); (0.95, "p95"); (0.90, "p90") ]
  with
  | Some (q, label) -> (label, quantile sorted q)
  | None -> ("max", quantile sorted 1.0)

let print workload m =
  Printf.printf "%s %s %.12g %s%s\n" workload m.name m.value m.unit
    (if m.note = "" then "" else "  " ^ m.note)

let result_json ~correct ~attempted ~failed metrics =
  let open Util.Json in
  Obj
    [
      ("correct", Bool correct);
      ("attempted", Int attempted);
      ("failed", Int failed);
      ( "metrics",
        Obj
          (List.map
             (fun m ->
               (m.name, Obj [ ("value", Float m.value); ("unit", String m.unit) ]))
             metrics) );
    ]

(* [VmHWM]: the peak resident set of this process, in MB. *)
let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
