(* Metric names and units, and the result line every run ends with. *)

let workloads = [ "ml_joins"; "fixpoint"; "serve_mixed" ]

(* Measured with tracing off.  Peak RSS is printed but is not a metric:
   the OCaml heap grows in steps, and fixpoint's per-round peak took two
   values 8 MB apart across seeds (a 26% quartile spread over ten runs). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("op_geomean_s", "s");
    ("latency_p50_s", "s");
    ("latency_p90_s", "s");
  ]

(* Measured in the separate traced run.  Times are seconds per pass over
   the workload's distinct ops (sum over ops of each op's median); counts
   likewise; ratios are pooled over the whole traced run. *)
let per_layer =
  [
    ("lang.parse_s", "s");
    ("stats.build_s", "s");
    ("stats.refresh_s", "s");
    ("stats.estimator_calls", "count");
    ("logical.opt_s", "s");
    ("optimizer.search_nodes", "count");
    ("physical.opt_s", "s");
    ("compile.kernels", "count");
    ("compile.s", "s");
    ("engine.execute_s", "s");
    ("engine.kernels_run", "count");
    ("engine.cse_hit_ratio", "ratio");
    ("engine.kernel_cache_hit_ratio", "ratio");
    ("parallel.overhead_s", "s");
    ("parallel.tasks", "count");
    ("fixpoint.iterations", "count");
    ("fixpoint.replans", "count");
    ("fixpoint.runner_self_s", "s");
    ("serve.overhead_s", "s");
    ("serve.pipeline_s", "s");
    ("driver.unattributed_s", "s");
    ("trace.overhead_ratio", "ratio");
  ]

let info fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

(* Start a new peak-RSS interval: the kernel resets VmHWM to the current
   RSS, so the peak read later covers only the timed phase. *)
let reset_peak_rss ?(pid = "self") () : unit =
  let oc = open_out ("/proc/" ^ pid ^ "/clear_refs") in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb ?(pid = "self") () : float =
  let ic = open_in ("/proc/" ^ pid ^ "/status") in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> failwith "VmHWM not found"
      in
      go ())

(* The final line: [metrics] must name exactly the metrics of [spec]. *)
let result_line ~(spec : (string * string) list) ~(correct : bool)
    ~(attempted : int) ~(failed : int) (metrics : (string * float) list) :
    string =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name metrics) then
        failwith ("metric not measured: " ^ name))
    spec;
  let field (name, unit) =
    let v = List.assoc name metrics in
    if not (Float.is_finite v) then failwith ("metric not finite: " ^ name);
    Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map field spec))
