(* Order statistics and the per-op layer ledger used by every workload.

   Percentiles interpolate linearly between order statistics (the same
   rule as Python's [statistics.quantiles(method="inclusive")]), so a
   metric computed here can be re-derived from the recorded samples. *)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* [quantile xs q], q in [0, 1]; raises on an empty sample. *)
let quantile (xs : float list) (q : float) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: empty sample";
  let pos = Float.max 0.0 (Float.min 1.0 q) *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* Geometric mean of positive values; raises on an empty sample or a
   non-positive value (a zero-time op would make the mean meaningless). *)
let geomean (xs : float list) : float =
  if xs = [] then invalid_arg "Stats.geomean: empty sample";
  let logs =
    List.map
      (fun x ->
        if not (x > 0.0) then invalid_arg "Stats.geomean: non-positive value";
        log x)
      xs
  in
  exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs))

let sum xs = List.fold_left ( +. ) 0.0 xs

(* Samples strictly above [v]. *)
let count_above (xs : float list) (v : float) : int =
  List.length (List.filter (fun x -> x > v) xs)

(* A tail percentile is reported only when at least [min_above] samples
   lie beyond it; with fewer, it is a statement about a handful of
   requests and moves from run to run. *)
let tail_percentile ?(min_above = 10) (xs : float list) (q : float) :
    (float, string) result =
  let v = quantile xs q in
  let above = count_above xs v in
  if above >= min_above then Ok v
  else
    Error
      (Printf.sprintf "p%g has %d samples above it (need %d; %d samples)"
         (q *. 100.0) above min_above (List.length xs))

(* Metric and workload names: what BENCHMARK.json allows. *)
let valid_name (s : string) : bool =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n > 0 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s

(* One op's time split: layer self times plus the residual that no
   layer claims.  [unattributed] may be negative when the traced
   decomposition ran faster than the untraced op. *)
type ledger = {
  op_s : float;  (** untraced op time *)
  layers : (string * float) list;  (** layer self times, in layer order *)
  unattributed_s : float;
}

let ledger ~(op_s : float) (layers : (string * float) list) : ledger =
  { op_s; layers; unattributed_s = op_s -. sum (List.map snd layers) }

(* Per-op medians over repeated traced rounds, then the identity again:
   the residual is recomputed from the medians so that, per op,
   layers + unattributed = median op time exactly (up to rounding). *)
let median_ledger (rounds : ledger list) : ledger =
  match rounds with
  | [] -> invalid_arg "Stats.median_ledger: no rounds"
  | first :: _ ->
      let layer name =
        median (List.map (fun l -> List.assoc name l.layers) rounds)
      in
      ledger
        ~op_s:(median (List.map (fun l -> l.op_s) rounds))
        (List.map (fun (name, _) -> (name, layer name)) first.layers)
