(* Summary statistics for the benchmark's samples.

   Percentiles interpolate linearly between closest ranks: for n sorted
   samples the p-th percentile sits at rank p/100 * (n - 1).  This is the
   "inclusive" method of Python's [statistics.quantiles] and numpy's
   default, so a reader can recompute every reported figure from the raw
   samples with stock tools.  With fewer than 100 samples the p99 is an
   interpolation between the two largest, which is why the README names the
   sample counts behind each tail figure. *)

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let percentile xs p =
  if xs = [] then invalid_arg "Stats.percentile: no samples";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p outside [0, 100]";
  let a = sorted_array xs in
  let n = Array.length a in
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float rank in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((rank -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.

let mean xs =
  if xs = [] then invalid_arg "Stats.mean: no samples";
  List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Geometric mean: the right average for per-kernel run times of kernels
   whose sizes differ by orders of magnitude, since every kernel then moves
   the mean by its relative change, not its absolute one. *)
let geomean xs =
  if xs = [] then invalid_arg "Stats.geomean: no samples";
  if List.exists (fun x -> not (x > 0.)) xs then
    invalid_arg "Stats.geomean: samples must be positive";
  exp (mean (List.map log xs))

let sum xs = List.fold_left ( +. ) 0. xs
