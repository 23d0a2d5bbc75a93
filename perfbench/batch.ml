(* The shared runner: a fixed sequence of distinct ops, run round-robin
   (every round runs each op once, in the same order, so host drift
   spreads over all ops) until the run's time is spent.  Every op's output
   is checked.  A separate traced run gives the per-layer ledger, in raw
   (not host-normalized) seconds. *)

let now = Unix.gettimeofday

(* One traced execution of an op. *)
type traced = {
  op_s : float;  (** the untraced op, timed in the same round *)
  traced_s : float;  (** the traced decomposition's own time *)
  layers : (string * float) list;  (** ledger layers, by metric name *)
  extra : (string * float) list;  (** per-layer metrics outside the ledger *)
  counts : (string * int) list;  (** counter deltas over the traced op *)
  check : string option;  (** the untraced op's output check *)
}

type op = {
  name : string;
  prepare : unit -> unit;  (** builds what the output check compares with *)
  run : unit -> (unit -> string option, string) result;
      (** the untraced op; [Ok check] checks its output, untimed *)
  trace : Spans.t -> op:string -> traced;
}

type timed = {
  samples : (string * float list) list;  (** per op, host-normalized *)
  rounds : float list;  (** round times, host-normalized *)
  raw_rounds : float list;
  factors : float list;  (** per op run, see [Host] *)
  peaks : float list;  (** peak RSS of each round, MB *)
  attempted : int;
  failed : int;  (** failed runs plus wrong outputs *)
}

(* Rounds continue while the next one is expected to end within
   [seconds] (judged by the previous round); at least one runs.  Each
   starts on a compacted heap, so no round inherits another's garbage. *)
let until_spent ~(seconds : float) (round : int -> unit) : unit =
  let t_start = now () in
  let rec go i last =
    if i = 0 || now () -. t_start +. last <= seconds then begin
      Gc.compact ();
      let r0 = now () in
      round i;
      go (i + 1) (now () -. r0)
    end
  in
  go 0 0.0

(* Round-robin rounds.  Host probes run before the first op and after
   every op; an op's time is scaled by the probes on either side of it.
   A round's time is the sum of its ops' times.  Each output is checked
   right after its op, outside the timed interval, and then dropped. *)
let run_timed ~(seconds : float) (ops : op list) : timed =
  let samples = Hashtbl.create 8 in
  let attempted = ref 0 and failed = ref 0 in
  let rounds = ref [] and factors = ref [] and peaks = ref [] in
  until_spent ~seconds (fun _ ->
      Report.reset_peak_rss ();
      let total = ref 0.0 and raw_total = ref 0.0 in
      let before = ref (Host.probe ()) in
      List.iter
        (fun op ->
          incr attempted;
          let t0 = now () in
          let result = op.run () in
          let dt = now () -. t0 in
          let after = Host.probe () in
          let factor = Host.nominal /. ((!before +. after) /. 2.0) in
          before := after;
          match result with
          | Ok check -> (
              factors := factor :: !factors;
              total := !total +. (dt *. factor);
              raw_total := !raw_total +. dt;
              Hashtbl.replace samples op.name
                ((dt *. factor) :: Option.value ~default:[] (Hashtbl.find_opt samples op.name));
              match check () with
              | None -> ()
              | Some msg ->
                  incr failed;
                  Printf.eprintf "op %s: wrong output: %s\n%!" op.name msg)
          | Error msg ->
              incr failed;
              Printf.eprintf "op %s failed: %s\n%!" op.name msg)
        ops;
      peaks := Report.peak_rss_mb () :: !peaks;
      rounds := (!total, !raw_total) :: !rounds);
  {
    samples =
      List.map
        (fun op -> (op.name, Option.value ~default:[] (Hashtbl.find_opt samples op.name)))
        ops;
    rounds = List.map fst !rounds;
    raw_rounds = List.map snd !rounds;
    factors = !factors;
    peaks = !peaks;
    attempted = !attempted;
    failed = !failed;
  }

let report_host (factors : float list) =
  Report.info "host factor: n=%d median=%.3f min=%.3f max=%.3f" (List.length factors)
    (Stats.median factors) (Stats.quantile factors 0.0) (Stats.quantile factors 1.0)

(* End-to-end metrics of a batch workload.  No percentile is pooled over
   different ops: the latency percentiles are per-op percentiles, combined
   by geometric mean across ops like [op_geomean_s]. *)
let end_to_end (t : timed) : (string * float) list =
  let per_op q = Stats.geomean (List.map (fun (_, xs) -> Stats.quantile xs q) t.samples) in
  List.iter
    (fun (name, xs) ->
      Report.info "op %s: n=%d median=%.6f s p90=%.6f s" name (List.length xs)
        (Stats.median xs) (Stats.quantile xs 0.9))
    t.samples;
  report_host t.factors;
  Report.info "rounds: n=%d median=%.6f s (raw %.6f s)" (List.length t.rounds)
    (Stats.median t.rounds) (Stats.median t.raw_rounds);
  Report.info "peak_rss_mb: median=%.1f MB max=%.1f MB (n=%d rounds)"
    (Stats.median t.peaks) (Stats.quantile t.peaks 1.0) (List.length t.peaks);
  [
    ("wall_s", Stats.median t.rounds);
    ("op_geomean_s", per_op 0.5);
    ("latency_p50_s", per_op 0.5);
    ("latency_p90_s", per_op 0.9);
  ]

(* Traced rounds, as many as fit in [seconds] (at least one). *)
let run_traced ~(seconds : float) (spans : Spans.t) (ops : op list) :
    (string * traced list) list =
  let acc = Hashtbl.create 8 in
  until_spent ~seconds (fun r ->
      List.iter
        (fun op ->
          let tr = op.trace spans ~op:(Printf.sprintf "%s#%d" op.name r) in
          Hashtbl.replace acc op.name
            (tr :: Option.value ~default:[] (Hashtbl.find_opt acc op.name)))
        ops);
  List.map (fun op -> (op.name, List.rev (Hashtbl.find acc op.name))) ops

let ledger_layers =
  List.map fst
    (List.filter (fun (_, unit) -> unit = "s") Report.per_layer)
  |> List.filter (fun n ->
         not
           (List.mem n
              [ "parallel.overhead_s"; "serve.pipeline_s"; "driver.unattributed_s" ]))

(* Per-layer metrics from traced rounds of each distinct op.  Times and
   counts: the sum over ops of each op's median (seconds or counts per
   pass over the ops); ratios: pooled over all traced rounds, base
   printed. *)
let per_layer (per_op : (string * traced list) list) : (string * float) list
    =
  let per_pass f =
    Stats.sum (List.map (fun (_, trs) -> Stats.median (List.map f trs)) per_op)
  in
  let layer name (tr : traced) =
    Option.value ~default:0.0 (List.assoc_opt name tr.layers)
  in
  let extra name (tr : traced) =
    Option.value ~default:0.0 (List.assoc_opt name tr.extra)
  in
  let count name (tr : traced) =
    float_of_int (Option.value ~default:0 (List.assoc_opt name tr.counts))
  in
  let pooled name =
    Stats.sum (List.concat_map (fun (_, trs) -> List.map (count name) trs) per_op)
  in
  let ratio ~what hits misses =
    let h = pooled hits and m = pooled misses in
    Report.info "%s: %.0f hits / %.0f lookups" what h (h +. m);
    if h +. m > 0.0 then h /. (h +. m) else 0.0
  in
  let ledgers =
    List.map
      (fun (name, trs) ->
        let l =
          Stats.median_ledger
            (List.map
               (fun tr ->
                 Stats.ledger ~op_s:tr.op_s
                   (List.map (fun n -> (n, layer n tr)) ledger_layers))
               trs)
        in
        Report.info "ledger %s (n=%d): op=%.6f s = %s + unattributed %.6f s"
          name (List.length trs) l.Stats.op_s
          (String.concat " + "
             (List.filter_map
                (fun (n, v) ->
                  if v = 0.0 then None else Some (Printf.sprintf "%s %.6f" n v))
                l.Stats.layers))
          l.Stats.unattributed_s;
        l)
      per_op
  in
  List.map (fun n -> (n, per_pass (layer n))) ledger_layers
  @ [
      ( "driver.unattributed_s",
        Stats.sum (List.map (fun l -> l.Stats.unattributed_s) ledgers) );
      ("parallel.overhead_s", per_pass (extra "parallel.overhead_s"));
      ("serve.pipeline_s", per_pass (extra "serve.pipeline_s"));
      ("fixpoint.iterations", per_pass (extra "fixpoint.iterations"));
      ("fixpoint.replans", per_pass (extra "fixpoint.replans"));
      ( "stats.estimator_calls",
        per_pass (fun tr ->
            count "estimator.calls.chain" tr +. count "estimator.calls.uniform" tr)
      );
      ("optimizer.search_nodes", per_pass (count "optimizer.search_nodes"));
      ("compile.kernels", per_pass (count "kernel_cache.misses"));
      ("engine.kernels_run", per_pass (count "exec.kernels_run"));
      ("parallel.tasks", per_pass (count "pool.tasks_run"));
      ("engine.cse_hit_ratio", ratio ~what:"cse" "cse.hits" "cse.misses");
      ( "engine.kernel_cache_hit_ratio",
        ratio ~what:"kernel cache" "kernel_cache.hits" "kernel_cache.misses" );
      ( "trace.overhead_ratio",
        per_pass (fun tr -> tr.traced_s) /. per_pass (fun tr -> tr.op_s) );
    ]
