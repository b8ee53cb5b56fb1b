(* Order statistics, ratios and the metric record the benchmark prints.

   Percentiles use the nearest-rank definition on a sorted sample and
   carry their sample count, so a reader can tell a p99 over 200
   samples (two beyond it) from one over 100k.  Percentile levels are
   held in per-mille so the rank arithmetic stays in integers: a float
   0.95 * 200 must not decide whether ten samples lie beyond a rank. *)

type quantile = { permille : int; value : float; n : int }

let rank ~permille n = ((permille * n) + 999) / 1000

let beyond ~permille n = n - rank ~permille n

let sorted_of_list samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

let quantile_of_sorted sorted ~permille =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.quantile: empty sample";
  if permille < 0 || permille > 1000 then invalid_arg "Stats.quantile: level outside [0, 1000]";
  let r = max 1 (rank ~permille n) in
  { permille; value = sorted.(r - 1); n }

(* Candidate tail levels, highest first. *)
let tail_levels = [ 999; 990; 950; 900; 750; 500 ]

(* The highest candidate level with at least ten samples strictly
   beyond its rank; [None] when even the median lacks them. *)
let highest_supported n = List.find_opt (fun permille -> beyond ~permille n >= 10) tail_levels

let level_name permille =
  if permille mod 10 = 0 then Printf.sprintf "p%d" (permille / 10)
  else Printf.sprintf "p%d.%d" (permille / 10) (permille mod 10)

let median = function
  | [] -> invalid_arg "Stats.median: empty"
  | xs ->
    let a = sorted_of_list xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [num / den] with an explicit base; an empty base reads as 0 so a
   workload that never exercises a layer reports 0, not NaN (JSON has
   no NaN). *)
let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let fratio num den = if den = 0.0 then 0.0 else num /. den

(* One printed metric. *)
type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

(* Metric names: a letter or digit first, then at most 63 of letters,
   digits, '_', '.', '-'. *)
let valid_name s =
  let ok_char c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s

let valid_unit s =
  let ok_char c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 16 && String.for_all ok_char s
