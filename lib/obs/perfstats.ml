(* Robust trial statistics and regression verdicts for the bench
   harness's --compare gate (bench/main.ml).

   A measurement series is a list of wall-clock samples in seconds, with
   [nan] encoding a timed-out trial.  Summaries are median-based: the
   median absolute deviation (MAD) is the noise estimator, scaled by
   1.4826 so it is comparable to a standard deviation under Gaussian
   noise.  Comparisons classify a (baseline, current) pair of summaries
   into a [verdict]; a series only counts as a regression when the
   current median exceeds the baseline median by BOTH the noise floor
   (absolute) and the relative threshold (ratio), so single-trial jitter
   on one side cannot trip the gate. *)

type t = {
  n : int;  (* finite samples *)
  timeouts : int;  (* nan samples *)
  median : float;
  min : float;
  max : float;
  mean : float;
  mad : float;  (* raw median absolute deviation (unscaled) *)
}

let empty =
  {
    n = 0;
    timeouts = 0;
    median = Float.nan;
    min = Float.nan;
    max = Float.nan;
    mean = Float.nan;
    mad = Float.nan;
  }

(* Median of a non-empty sorted array: midpoint convention (the mean of
   the two central elements for even lengths), so two-trial series don't
   systematically report their slower trial. *)
let median_sorted (a : float array) : float =
  let n = Array.length a in
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let median_of (xs : float list) : float =
  match xs with
  | [] -> Float.nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      median_sorted a

let of_samples (samples : float list) : t =
  let finite, timeouts =
    List.partition (fun s -> not (Float.is_nan s)) samples
  in
  let timeouts = List.length timeouts in
  match finite with
  | [] -> { empty with timeouts }
  | _ ->
      let a = Array.of_list finite in
      Array.sort compare a;
      let n = Array.length a in
      let med = median_sorted a in
      let deviations = Array.map (fun x -> Float.abs (x -. med)) a in
      Array.sort compare deviations;
      {
        n;
        timeouts;
        median = med;
        min = a.(0);
        max = a.(n - 1);
        mean = Array.fold_left ( +. ) 0.0 a /. float_of_int n;
        mad = median_sorted deviations;
      }

(* Spread between fastest and slowest finite trial. *)
let spread (s : t) : float =
  if s.n = 0 then Float.nan else s.max -. s.min

(* Absolute noise floor of one series: k sigma-equivalents of MAD,
   bounded below by a relative fraction of the median (few-trial series
   often have MAD = 0) and an absolute floor (timer granularity). *)
let noise_floor ?(k = 3.0) ?(rel_floor = 0.10) ?(abs_floor = 5e-4) (s : t) :
    float =
  if s.n = 0 then abs_floor
  else
    Float.max abs_floor
      (Float.max (k *. 1.4826 *. s.mad) (rel_floor *. Float.abs s.median))

type verdict =
  | Regression
  | Improvement
  | Within_noise
  | New_series  (* present now, absent from the baseline *)
  | Missing_series  (* present in the baseline, absent now *)

let verdict_to_string = function
  | Regression -> "regression"
  | Improvement -> "improvement"
  | Within_noise -> "within-noise"
  | New_series -> "new-series"
  | Missing_series -> "missing-series"

(* Classify current vs baseline.  [rel_threshold] is the median ratio a
   regression (or improvement) must exceed on top of the noise floor.
   Timeouts are ranked worse than any finite time: a series that newly
   times out regresses, one that stops timing out improves. *)
let compare_stats ?(rel_threshold = 1.5) ?(k = 3.0) ?(rel_floor = 0.10)
    ?(abs_floor = 5e-4) ~(baseline : t) ~(current : t) () : verdict =
  match (baseline.n, current.n) with
  | 0, 0 -> Within_noise
  | 0, _ -> Improvement  (* was all-timeout, now finishes *)
  | _, 0 -> Regression  (* finished before, times out now *)
  | _ ->
      let floor =
        Float.max
          (noise_floor ~k ~rel_floor ~abs_floor baseline)
          (noise_floor ~k ~rel_floor ~abs_floor current)
      in
      if
        current.median -. baseline.median > floor
        && current.median > rel_threshold *. baseline.median
      then Regression
      else if
        baseline.median -. current.median > floor
        && baseline.median > rel_threshold *. current.median
      then Improvement
      else Within_noise

type comparison = {
  c_key : string;
  c_baseline : t option;
  c_current : t option;
  c_verdict : verdict;
}

(* Join two keyed summary lists (keys are opaque strings, e.g.
   "section/series/label") and classify every key present on either
   side.  Output preserves current-run order, then baseline-only keys. *)
let compare_keyed ?rel_threshold ?k ?rel_floor ?abs_floor
    (baseline : (string * t) list) (current : (string * t) list) :
    comparison list =
  let btbl = Hashtbl.create 64 in
  List.iter (fun (key, s) -> Hashtbl.replace btbl key s) baseline;
  let seen = Hashtbl.create 64 in
  let of_current =
    List.map
      (fun (key, cur) ->
        Hashtbl.replace seen key ();
        match Hashtbl.find_opt btbl key with
        | None ->
            { c_key = key; c_baseline = None; c_current = Some cur;
              c_verdict = New_series }
        | Some base ->
            {
              c_key = key;
              c_baseline = Some base;
              c_current = Some cur;
              c_verdict =
                compare_stats ?rel_threshold ?k ?rel_floor ?abs_floor
                  ~baseline:base ~current:cur ();
            })
      current
  in
  let missing =
    List.filter_map
      (fun (key, base) ->
        if Hashtbl.mem seen key then None
        else
          Some
            { c_key = key; c_baseline = Some base; c_current = None;
              c_verdict = Missing_series })
      baseline
  in
  of_current @ missing

let count_verdict (cs : comparison list) (v : verdict) : int =
  List.length (List.filter (fun c -> c.c_verdict = v) cs)
