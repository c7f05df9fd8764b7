(* Order statistics for the benchmark's reports.

   A percentile is reported only when the sample supports it: at least
   [min_beyond] samples must lie strictly above the reported rank, so a
   p99 needs 1000 samples and a median 20.  Below that the caller gets
   [None] and the run reports the metric as unsupported rather than a
   number read off a handful of points. *)

let min_beyond = 10

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank index of percentile [p] (0 < p < 1) in a sorted sample
   of [n]: the smallest index whose cumulative share reaches [p]. *)
let rank ~n p = max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1)

let beyond ~n p = n - (rank ~n p + 1)

let min_samples p =
  let n = ref 1 in
  while beyond ~n:!n p < min_beyond do
    incr n
  done;
  !n

let percentile_sorted a p =
  let n = Array.length a in
  if p <= 0. || p >= 1. then invalid_arg "Stats.percentile: p must lie in (0, 1)";
  if n = 0 || beyond ~n p < min_beyond then None else Some a.(rank ~n p)

let percentile xs p = percentile_sorted (sorted xs) p

(* The plain median, used to summarise repeated measurements (set-up
   times, per-pass rates) where the sample-count rule does not apply:
   those are few, independent repeats, not a latency distribution. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0. xs /. float_of_int n
