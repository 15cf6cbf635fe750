(* Timing and summary statistics. *)

(* Monotonic nanoseconds; the clock read neither allocates nor boxes. *)
let now_ns () = Int64.to_float (Monotonic_clock.now ())

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (Python's
   [statistics.quantiles] "inclusive" method). *)
let quantile a q =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((x -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = quantile a 0.5

let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (max 1 (Array.length a))

(* The machine's speed drifts between states over seconds, so a
   percentile of one pooled sample jumps with the share of time spent in
   each state.  Taking the percentile per [group] consecutive samples and
   averaging over the groups follows that share smoothly instead. *)
let group = 1000

let group_quantiles a q =
  let n = Array.length a in
  if n < 2 * group then [| quantile a q |]
  else Array.init (n / group) (fun i -> quantile (Array.sub a (i * group) group) q)

let grouped_quantile a q = mean (group_quantiles a q)

(* The highest of p99/p95/p90/p50 that has at least ten samples beyond
   it in each group, with its name. *)
let tail_label n =
  let per_group = min n group in
  List.find_opt
    (fun (_, q) -> float_of_int per_group *. (1.0 -. q) >= 10.0)
    [ ("p99", 0.99); ("p95", 0.95); ("p90", 0.90); ("p50", 0.5) ]
  |> Option.fold ~none:"none" ~some:fst
