(* Benchmark harness and performance-regression gate: regenerates every
   evaluation artifact of the paper (Figures 6-10) as printed tables with
   the same series, plus the ablations called out in DESIGN.md and
   bechamel micro-benchmarks of the tensor substrate.

     dune exec bench/main.exe                      # everything
     dune exec bench/main.exe -- fig7              # one section
     dune exec bench/main.exe -- quick             # reduced sizes
     dune exec bench/main.exe -- --trials 5 fig6   # more trials per cell
     dune exec bench/main.exe -- quick --json --compare bench/baselines/quick.json

   Sizes are scaled down from the paper's server-scale datasets (see
   DESIGN.md); shapes — who wins, by roughly what factor, where crossovers
   fall — are the object of comparison, not absolute numbers.

   Regression harness (DESIGN.md "Profiler & regression harness"): every
   cell records its full trial sample list; --json emits a schema-v2
   document with environment capture and per-series robust statistics
   (median / min / MAD via Perfstats); --compare BASELINE.json classifies
   each series against a previous run's JSON (regression / improvement /
   within-noise / new-series / missing-series) and exits non-zero when
   anything regresses beyond both the MAD noise floor and the relative
   threshold.  --compare-files A B diffs two saved runs without measuring
   anything. *)

module T = Galley_tensor.Tensor
module Ir = Galley_plan.Ir
module Op = Galley_plan.Op
module W = Galley_workloads
module LQ = Galley_plan.Logical_query
module Prng = Galley_tensor.Prng
module Rel = Galley_relational.Rel_engine
module D = Galley.Driver
module P = Galley_obs.Perfstats
module J = Galley_obs.Json

let quick = ref false
let json_mode = ref false

(* --trials N: samples per cell; unset, full runs take 3 and quick 1. *)
let trials_opt : int option ref = ref None
let trials () =
  match !trials_opt with Some n -> n | None -> if !quick then 1 else 3

(* --compare BASELINE.json verdict knobs (see Perfstats.compare_stats). *)
let compare_baseline : string option ref = ref None
let compare_files : (string * string) option ref = ref None
let cmp_threshold = ref 1.5
let cmp_k = ref 3.0
let cmp_rel_floor = ref 0.10
let cmp_abs_floor = ref 5e-4

(* --domains N pins the engine's domain-pool size for every section (the
   scaling section ignores it and sweeps its own counts).  Unset, configs
   keep their default: GALLEY_DOMAINS or 1. *)
let domains_override : int option ref = ref None

let with_domains (c : D.config) : D.config =
  match !domains_override with
  | Some d -> { c with D.domains = d }
  | None -> c

let effective_domains () =
  match !domains_override with Some d -> d | None -> D.default_domains

(* In --json mode the human-readable tables move to stderr and stdout
   carries a single JSON document of every recorded series measurement
   (timeouts become null), so CI and plotting scripts can consume runs
   without scraping the tables. *)
let p fmt = Printf.fprintf (if !json_mode then stderr else stdout) fmt

(* (section, series, label, samples); a nan sample encodes a timeout. *)
let json_rows : (string * string * string * float list) list ref = ref []

let record ~section ~series label (samples : float list) =
  json_rows := (section, series, label, samples) :: !json_rows

let record1 ~section ~series label (seconds : float) =
  record ~section ~series label [ seconds ]

(* Kernel-cache hit/miss deltas per section, snapshotted around each
   section by the driver: the cold-vs-warm compile traffic behind the
   Fig. 9 repeat-user discussion. *)
let cache_rows : (string * int * int) list ref = ref []

let cache_counter name =
  Option.value ~default:0 (Galley_obs.Metrics.counter_value name)

let esc = Galley_obs.Metrics.json_escape

let command_output (cmd : string) : string =
  try
    let ic = Unix.open_process_in cmd in
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    String.trim line
  with _ -> ""

let fnum (v : float) : string =
  if Float.is_nan v then "null" else Printf.sprintf "%.6f" v

let emit_json () =
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\n  \"schema\": 2,\n";
  Buffer.add_string b
    (Printf.sprintf "  \"quick\": %b,\n  \"trials\": %d,\n" !quick (trials ()));
  Buffer.add_string b
    (Printf.sprintf
       "  \"env\": {\"git_sha\": \"%s\", \"ocaml\": \"%s\", \"domains\": %d, \
        \"backend\": \"%s\", \"cpus\": %d, \"hostname\": \"%s\"},\n"
       (esc (command_output "git rev-parse HEAD 2>/dev/null"))
       (esc Sys.ocaml_version) (effective_domains ()) "staged"
       (Domain.recommended_domain_count ())
       (esc (try Unix.gethostname () with _ -> "")));
  Buffer.add_string b "  \"rows\": [\n";
  List.iteri
    (fun i (section, series, label, samples) ->
      if i > 0 then Buffer.add_string b ",\n";
      let s = P.of_samples samples in
      Buffer.add_string b
        (Printf.sprintf
           "    {\"section\": \"%s\", \"series\": \"%s\", \"label\": \"%s\", \
            \"seconds\": %s, \"trials\": [%s], \"min\": %s, \"mad\": %s, \
            \"timeouts\": %d}"
           (esc section) (esc series) (esc label) (fnum s.P.median)
           (String.concat ", " (List.map fnum samples))
           (fnum s.P.min) (fnum s.P.mad) s.P.timeouts))
    (List.rev !json_rows);
  Buffer.add_string b "\n  ],\n  \"kernel_cache\": [\n";
  List.iteri
    (fun i (section, hits, misses) ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"section\": \"%s\", \"hits\": %d, \"misses\": %d}"
           (esc section) hits misses))
    (List.rev !cache_rows);
  Buffer.add_string b "\n  ]\n}\n";
  print_string (Buffer.contents b)

(* Run [f] once per trial, returning the last result and every wall-time
   sample; display sites summarize with the median, JSON keeps the list. *)
let time_trials (f : unit -> 'a) : 'a * float list =
  let result = ref None in
  let samples = ref [] in
  for _ = 1 to trials () do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    samples := dt :: !samples;
    result := Some r
  done;
  (Option.get !result, List.rev !samples)

let time_once (f : unit -> 'a) : 'a * float =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let header title = p "\n=== %s ===\n%!" title
let median (xs : float list) : float = (P.of_samples xs).P.median

let mean (xs : float list) : float =
  match List.filter (fun x -> not (Float.is_nan x)) xs with
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let fmt_time (t : float) : string =
  if Float.is_nan t then "t/o"
  else if t < 1e-3 then Printf.sprintf "%.0fus" (t *. 1e6)
  else if t < 1.0 then Printf.sprintf "%.1fms" (t *. 1e3)
  else Printf.sprintf "%.2fs" t

(* ------------------------------------------------------------------ *)
(* Figure 6: ML algorithms over joins.                                  *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  header "Figure 6: ML algorithms over joins (runtime; lower is better)";
  let scale =
    if !quick then
      { W.Tpch.n_lineitems = 800; n_suppliers = 40; n_parts = 100;
        n_orders = 200; n_customers = 60 }
    else
      { W.Tpch.n_lineitems = 40000; n_suppliers = 400; n_parts = 1000;
        n_orders = 3000; n_customers = 600 }
  in
  let star = W.Tpch.star_instance ~scale ~seed:1001 () in
  let params = W.Ml.parameter_inputs ~seed:1002 ~d:star.W.Tpch.d ~hidden:16 in
  let inputs = star.W.Tpch.inputs @ params in
  p "star join: %d lineitems x %d features\n" star.W.Tpch.n
    star.W.Tpch.d;
  p "%-12s %12s %14s %14s %10s\n" "algorithm" "galley"
    "hand(dense)" "hand(sparse)" "speedup";
  let run_star alg =
    let prog = W.Ml.program_of alg ~x:star.W.Tpch.x_def ~pts:[ "i" ] in
    let _, galley_s =
      time_trials (fun () ->
          D.run ~config:(with_domains D.default_config) ~inputs prog)
    in
    let plan, out = W.Ml.baseline_plan alg ~x:star.W.Tpch.x_def ~pts:[ "i" ] in
    let baseline ~dense =
      let config =
        { D.default_config with
          physical = W.Ml.baseline_physical_config ~pts:1 ~dense }
      in
      snd
        (time_trials (fun () ->
             D.run_logical_plan ~config ~inputs ~outputs:[ out ] plan))
    in
    let dense_s = baseline ~dense:true in
    let sparse_s = baseline ~dense:false in
    let name = W.Ml.algorithm_name alg in
    record ~section:"fig6" ~series:"galley" name galley_s;
    record ~section:"fig6" ~series:"hand-dense" name dense_s;
    record ~section:"fig6" ~series:"hand-sparse" name sparse_s;
    let galley_t = median galley_s
    and dense_t = median dense_s
    and sparse_t = median sparse_s in
    p "%-12s %12s %14s %14s %9.1fx\n%!" name
      (fmt_time galley_t) (fmt_time dense_t) (fmt_time sparse_t)
      (Float.min dense_t sparse_t /. galley_t)
  in
  List.iter run_star [ W.Ml.Linreg; W.Ml.Logreg; W.Ml.Nn ];
  (* Covariance uses X twice; all systems slow down quadratically in row
     density, so it runs at a reduced scale. *)
  let cov_scale =
    if !quick then
      { W.Tpch.n_lineitems = 400; n_suppliers = 30; n_parts = 60;
        n_orders = 100; n_customers = 40 }
    else
      { W.Tpch.n_lineitems = 6000; n_suppliers = 150; n_parts = 400;
        n_orders = 900; n_customers = 250 }
  in
  let cov_star = W.Tpch.star_instance ~scale:cov_scale ~seed:1001 () in
  let cov_params = W.Ml.parameter_inputs ~seed:1002 ~d:cov_star.W.Tpch.d ~hidden:16 in
  let cov_inputs = cov_star.W.Tpch.inputs @ cov_params in
  p "(covariance at reduced scale: %d lineitems)\n" cov_star.W.Tpch.n;
  (let alg = W.Ml.Covariance in
   let prog = W.Ml.program_of alg ~x:cov_star.W.Tpch.x_def ~pts:[ "i" ] in
   let _, galley_s =
     time_trials (fun () ->
         D.run ~config:(with_domains D.default_config) ~inputs:cov_inputs prog)
   in
   let plan, out = W.Ml.baseline_plan alg ~x:cov_star.W.Tpch.x_def ~pts:[ "i" ] in
   let baseline ~dense =
     let config =
       { D.default_config with
         physical = W.Ml.baseline_physical_config ~pts:1 ~dense }
     in
     snd
       (time_trials (fun () ->
            D.run_logical_plan ~config ~inputs:cov_inputs ~outputs:[ out ] plan))
   in
   let dense_s = baseline ~dense:true in
   let sparse_s = baseline ~dense:false in
   let name = W.Ml.algorithm_name alg in
   record ~section:"fig6" ~series:"galley" name galley_s;
   record ~section:"fig6" ~series:"hand-dense" name dense_s;
   record ~section:"fig6" ~series:"hand-sparse" name sparse_s;
   let galley_t = median galley_s
   and dense_t = median dense_s
   and sparse_t = median sparse_s in
   p "%-12s %12s %14s %14s %9.1fx\n%!" name
     (fmt_time galley_t) (fmt_time dense_t) (fmt_time sparse_t)
     (Float.min dense_t sparse_t /. galley_t));
  (* Self join: the dense baseline is omitted, as in the paper (a dense
     X[i1,i2,j] runs out of memory). *)
  let sj_scale =
    if !quick then
      { W.Tpch.n_lineitems = 300; n_suppliers = 20; n_parts = 60;
        n_orders = 1; n_customers = 1 }
    else
      { W.Tpch.n_lineitems = 1500; n_suppliers = 80; n_parts = 300;
        n_orders = 1; n_customers = 1 }
  in
  let sj = W.Tpch.self_join_instance ~scale:sj_scale ~seed:1003 () in
  let params = W.Ml.parameter_inputs ~seed:1004 ~d:sj.W.Tpch.sj_d ~hidden:16 in
  let inputs = sj.W.Tpch.sj_inputs @ params in
  p
    "\nself join: %d lineitems x %d features (dense omitted: OOM in paper)\n"
    sj.W.Tpch.sj_n sj.W.Tpch.sj_d;
  p "%-12s %12s %14s %10s\n" "algorithm" "galley" "hand(sparse)"
    "speedup";
  List.iter
    (fun alg ->
      let prog = W.Ml.program_of alg ~x:sj.W.Tpch.sj_x_def ~pts:[ "i1"; "i2" ] in
      let _, galley_s =
        time_trials (fun () ->
            D.run ~config:(with_domains D.default_config) ~inputs prog)
      in
      let plan, out =
        W.Ml.baseline_plan alg ~x:sj.W.Tpch.sj_x_def ~pts:[ "i1"; "i2" ]
      in
      let config =
        { D.default_config with
          physical = W.Ml.baseline_physical_config ~pts:2 ~dense:false }
      in
      let _, sparse_s =
        time_trials (fun () ->
            D.run_logical_plan ~config ~inputs ~outputs:[ out ] plan)
      in
      let name = W.Ml.algorithm_name alg ^ " (self join)" in
      record ~section:"fig6" ~series:"galley" name galley_s;
      record ~section:"fig6" ~series:"hand-sparse" name sparse_s;
      let galley_t = median galley_s and sparse_t = median sparse_s in
      p "%-12s %12s %14s %9.1fx\n%!" (W.Ml.algorithm_name alg)
        (fmt_time galley_t) (fmt_time sparse_t) (sparse_t /. galley_t))
    [ W.Ml.Linreg; W.Ml.Logreg ]

(* ------------------------------------------------------------------ *)
(* Figures 7-9: subgraph counting.                                      *)
(* ------------------------------------------------------------------ *)

type sg_measurement = {
  sg_exec : float; (* nan = timeout *)
  sg_opt : float;
  sg_compile : float;
  sg_compile_warm : float;
}

let sg_timeout = 6.0

(* Galley on one query: execution vs optimization vs compilation, with a
   warm second run sharing the kernel cache (Finch caches kernels, so warm
   compilation cost is what repeat users see: Fig. 9's discussion). *)
let measure_galley config (g : W.Graphs.t) (pat : W.Subgraph.pattern) :
    sg_measurement =
  let prog = W.Subgraph.count_program pat in
  let inputs = W.Subgraph.bindings g pat in
  let config = { (with_domains config) with D.timeout = Some sg_timeout } in
  let res = D.run ~config ~inputs prog in
  if res.D.timed_out then
    { sg_exec = nan; sg_opt = nan; sg_compile = nan; sg_compile_warm = nan }
  else begin
    let t = res.D.timings in
    let session = D.Session.create ~config () in
    List.iter (fun (n, tens) -> D.Session.bind session n tens) inputs;
    let _ =
      D.Session.run_logical_plan session ~outputs:[ "count" ] res.D.logical_plan
    in
    let r2 =
      D.Session.run_logical_plan session ~outputs:[ "count" ] res.D.logical_plan
    in
    {
      sg_exec = t.D.execute_seconds;
      sg_opt = t.D.logical_seconds +. t.D.physical_seconds;
      sg_compile = t.D.compile_seconds;
      sg_compile_warm = r2.D.timings.D.compile_seconds;
    }
  end

(* The relational baseline planning the whole conjunctive query itself. *)
let measure_duckdb (g : W.Graphs.t) (pat : W.Subgraph.pattern) : sg_measurement =
  let adj = W.Graphs.adjacency g in
  let db = Rel.create_db () in
  Rel.register_tensor db "M" adj;
  List.iter
    (fun l ->
      if l < g.W.Graphs.n_labels then
        Rel.register_tensor db
          (Printf.sprintf "L%d" l)
          (W.Graphs.label_vector g l))
    (List.sort_uniq compare (List.map snd pat.W.Subgraph.plabels));
  let atoms =
    List.map
      (fun (u, v) ->
        { Rel.rel = "M"; vars = [ W.Subgraph.var u; W.Subgraph.var v ] })
      pat.W.Subgraph.pedges
    @ List.map
        (fun (v, l) ->
          { Rel.rel = Printf.sprintf "L%d" l; vars = [ W.Subgraph.var v ] })
        pat.W.Subgraph.plabels
  in
  try
    let deadline = Unix.gettimeofday () +. sg_timeout in
    let r = Rel.sum_product ~deadline db ~atoms ~out_vars:[] () in
    {
      sg_exec = r.Rel.exec_seconds;
      sg_opt = r.Rel.plan_seconds;
      sg_compile = 0.0;
      sg_compile_warm = 0.0;
    }
  with Rel.Timeout ->
    { sg_exec = nan; sg_opt = nan; sg_compile = 0.0; sg_compile_warm = 0.0 }

(* Galley's logical optimizer with the relational engine as executor. *)
let measure_galley_duckdb (g : W.Graphs.t) (pat : W.Subgraph.pattern) :
    sg_measurement =
  let prog = W.Subgraph.count_program pat in
  let inputs = W.Subgraph.bindings g pat in
  let schema = Galley_plan.Schema.create () in
  List.iter (fun (n, t) -> Galley_plan.Schema.declare_tensor schema n t) inputs;
  let ctx = Galley_stats.Ctx.create schema in
  List.iter (fun (n, t) -> ctx.Galley_stats.Ctx.register_input n t) inputs;
  let t0 = Unix.gettimeofday () in
  let plan =
    Galley_logical.Optimizer.optimize_program
      Galley_logical.Optimizer.default_config ctx prog
  in
  let t1 = Unix.gettimeofday () in
  let db = Rel.create_db () in
  List.iter (fun (n, t) -> Rel.register_tensor db n t) inputs;
  try
    let deadline = Unix.gettimeofday () +. sg_timeout in
    let results =
      Rel.run_logical_plan ~deadline db ~dim_of:(fun _ -> g.W.Graphs.n) plan
    in
    let exec =
      List.fold_left
        (fun acc r -> acc +. r.Rel.plan_seconds +. r.Rel.exec_seconds)
        0.0 results
    in
    { sg_exec = exec; sg_opt = t1 -. t0; sg_compile = 0.0; sg_compile_warm = 0.0 }
  with Rel.Timeout ->
    { sg_exec = nan; sg_opt = t1 -. t0; sg_compile = 0.0; sg_compile_warm = 0.0 }

let sg_methods :
    (string * (W.Graphs.t -> W.Subgraph.pattern -> sg_measurement)) list =
  [
    ("duckdb", measure_duckdb);
    ("galley+duckdb", measure_galley_duckdb);
    ("galley(greedy)", measure_galley D.greedy_config);
    ("galley(exact)", measure_galley D.default_config);
  ]

let subgraph_measurements = ref None

let get_subgraph_measurements () =
  match !subgraph_measurements with
  | Some m -> m
  | None ->
      let scale = if !quick then 0.08 else 0.1 in
      let graphs = W.Graphs.benchmark_suite ~scale in
      let m =
        List.map
          (fun g ->
            Galley_obs.Log.info "[subgraph] measuring %s..." g.W.Graphs.name;
            let queries = W.Subgraph.suite_for g in
            ( g.W.Graphs.name,
              List.map
                (fun (mname, f) -> (mname, List.map (fun p -> f g p) queries))
                sg_methods ))
          graphs
      in
      subgraph_measurements := Some m;
      m

let fig7 () =
  header "Figure 7: subgraph counting execution time (median; t/o count)";
  p "%-14s %18s %18s %18s %18s\n" "workload" "duckdb"
    "galley+duckdb" "galley(greedy)" "galley(exact)";
  List.iter
    (fun (gname, per_method) ->
      p "%-14s" gname;
      List.iter
        (fun (mname, ms) ->
          (* The per-query measurements of one workload's suite are the
             row's samples: the median matches the displayed cell, and
             nan entries carry the timeout count into the JSON. *)
          let execs = List.map (fun m -> m.sg_exec) ms in
          let finished = List.filter (fun t -> not (Float.is_nan t)) execs in
          let timeouts = List.length execs - List.length finished in
          record ~section:"fig7" ~series:mname gname execs;
          let cell =
            Printf.sprintf "%s (%d t/o)" (fmt_time (median finished)) timeouts
          in
          p " %18s" cell)
        per_method;
      p "\n%!")
    (get_subgraph_measurements ())

let fig8 () =
  header "Figure 8: subgraph counting optimization time (mean)";
  p "%-14s %18s %18s %18s %18s\n" "workload" "duckdb"
    "galley+duckdb" "galley(greedy)" "galley(exact)";
  List.iter
    (fun (gname, per_method) ->
      p "%-14s" gname;
      List.iter
        (fun (mname, ms) ->
          let opts = List.map (fun m -> m.sg_opt) ms in
          record ~section:"fig8" ~series:mname gname opts;
          p " %18s" (fmt_time (mean opts)))
        per_method;
      p "\n%!")
    (get_subgraph_measurements ())

let fig9 () =
  header "Figure 9: subgraph counting compilation time (mean; kernel cache)";
  p "%-14s %16s %16s\n" "workload" "galley cold" "galley warm";
  List.iter
    (fun (gname, per_method) ->
      let ms = List.assoc "galley(exact)" per_method in
      let pick f = List.map f ms in
      let cold_s = pick (fun m -> m.sg_compile) in
      let warm_s = pick (fun m -> m.sg_compile_warm) in
      record ~section:"fig9" ~series:"cold" gname cold_s;
      record ~section:"fig9" ~series:"warm" gname warm_s;
      p "%-14s %16s %16s\n%!" gname (fmt_time (mean cold_s))
        (fmt_time (mean warm_s)))
    (get_subgraph_measurements ())

(* ------------------------------------------------------------------ *)
(* Figure 10: BFS.                                                      *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  header "Figure 10: BFS total runtime (incl. Galley's optimization time)";
  let scale = if !quick then 0.1 else 0.5 in
  let graphs = W.Graphs.bfs_suite ~scale in
  p "%-12s %10s %10s %10s %8s\n" "graph" "galley" "sparse" "dense"
    "best";
  List.iter
    (fun g ->
      let adjacency = W.Graphs.adjacency g in
      let run v =
        List.init (trials ()) (fun _ ->
            (W.Bfs.run ~config_base:(with_domains D.default_config) v
               ~adjacency ~source:0)
              .W.Bfs.seconds)
      in
      let galley_s = run W.Bfs.Adaptive in
      let sparse_s = run W.Bfs.All_sparse in
      let dense_s = run W.Bfs.All_dense in
      record ~section:"fig10" ~series:"galley" g.W.Graphs.name galley_s;
      record ~section:"fig10" ~series:"sparse" g.W.Graphs.name sparse_s;
      record ~section:"fig10" ~series:"dense" g.W.Graphs.name dense_s;
      let galley_t = median galley_s
      and sparse_t = median sparse_s
      and dense_t = median dense_s in
      let best =
        if galley_t <= sparse_t && galley_t <= dense_t then "galley"
        else if sparse_t <= dense_t then "sparse"
        else "dense"
      in
      p "%-12s %10s %10s %10s %8s\n%!" g.W.Graphs.name
        (fmt_time galley_t) (fmt_time sparse_t) (fmt_time dense_t) best)
    graphs

(* ------------------------------------------------------------------ *)
(* Kernel layer: microkernels, bitset merges, morsel scheduling.        *)
(* ------------------------------------------------------------------ *)

(* Execution time of single-kernel programs shaped so the staged
   backend's fast paths engage (DESIGN.md §14): dense microkernels,
   word-level bitset merges, and the morsel scheduler on a skewed SpMV.
   The series keep the names [v2] and [morsel@N] so runs compare
   against older baselines. *)
let kernels_v2 () =
  header "Kernel layer: microkernels, bitset merges, morsel scheduling";
  let config = { D.default_config with D.domains = 1 } in
  let run_q inputs (q : LQ.t) () =
    let prog = { Ir.queries = [ LQ.to_query q ]; outputs = [ q.LQ.name ] } in
    (D.run ~config ~inputs prog).D.timings.D.execute_seconds
  in
  let row label f =
    let samples = List.init (trials ()) (fun _ -> f ()) in
    record ~section:"kernels_v2" ~series:"v2" label samples;
    p "%-26s %12s\n%!" label (fmt_time (median samples))
  in
  p "%-26s %12s\n" "kernel" "time";
  let prng = Prng.create 4242 in
  let dense dims =
    T.random ~prng ~dims
      ~formats:(Array.map (fun _ -> T.Dense) dims)
      ~density:0.95 ()
  in
  let bytemap ~density dims =
    T.random ~prng ~dims
      ~formats:(Array.map (fun _ -> T.Bytemap) dims)
      ~density ()
  in
  (* Dense-dominated rows: the innermost level is Dense everywhere,
     so the microkernel replaces per-element dispatch with unboxed
     float-array loops. *)
  let n = if !quick then 100_000 else 1_000_000 in
  let v = dense [| n |] and w = dense [| n |] in
  let dot =
    LQ.make ~output_idxs:[] ~name:"out" ~agg_op:Op.Add ~agg_idxs:[ "j" ]
      ~body:(Ir.mul [ Ir.input "v" [ "j" ]; Ir.input "w" [ "j" ] ])
      ()
  in
  row
    (Printf.sprintf "dot dense n=%d" n)
    (run_q [ ("v", v); ("w", w) ] dot);
  let axpy =
    LQ.make ~output_idxs:[ "j" ] ~name:"out" ~agg_op:Op.Ident ~agg_idxs:[]
      ~body:
        (Ir.add
           [
             Ir.mul [ Ir.lit 2.5; Ir.input "v" [ "j" ] ];
             Ir.input "w" [ "j" ];
           ])
      ()
  in
  row
    (Printf.sprintf "axpy dense n=%d" n)
    (run_q [ ("v", v); ("w", w) ] axpy);
  let rows = if !quick then 400 else 1500 in
  let cols = if !quick then 128 else 512 in
  let a = dense [| rows; cols |] and x = dense [| cols |] in
  let matvec =
    LQ.make ~output_idxs:[ "i" ] ~name:"out" ~agg_op:Op.Add
      ~agg_idxs:[ "j" ]
      ~body:(Ir.mul [ Ir.input "A" [ "i"; "j" ]; Ir.input "x" [ "j" ] ])
      ()
  in
  row
    (Printf.sprintf "matvec dense %dx%d" rows cols)
    (run_q [ ("A", a); ("x", x) ] matvec);
  (* SpMM with a dense right operand: the GCN building block — the
     sparse adjacency drives the outer levels, the feature loop at
     the innermost level stays dense and micro-eligible. *)
  let gn = if !quick then 300 else 1000 in
  let gf = if !quick then 16 else 32 in
  let adj =
    T.random ~prng ~dims:[| gn; gn |]
      ~formats:[| T.Dense; T.Sparse_list |]
      ~density:0.01 ()
  in
  let h = dense [| gn; gf |] in
  let spmm =
    LQ.make ~output_idxs:[ "i"; "f" ] ~name:"out" ~agg_op:Op.Add
      ~agg_idxs:[ "j" ]
      ~body:(Ir.mul [ Ir.input "A" [ "i"; "j" ]; Ir.input "H" [ "j"; "f" ] ])
      ()
  in
  row
    (Printf.sprintf "spmm gcn %dx%d d=%d" gn gn gf)
    (run_q [ ("A", adj); ("H", h) ] spmm);
  (* Bytemap-merge rows: all-bytemap loop levels, dense enough that
     the word-merge heuristic engages (density x dim >> words). *)
  let bn = if !quick then 100_000 else 400_000 in
  let bx = bytemap ~density:0.3 [| bn |]
  and by = bytemap ~density:0.3 [| bn |]
  and bz = bytemap ~density:0.3 [| bn |] in
  let band =
    LQ.make ~output_idxs:[] ~name:"out" ~agg_op:Op.Add ~agg_idxs:[ "i" ]
      ~body:
        (Ir.mul
           [
             Ir.input "x" [ "i" ]; Ir.input "y" [ "i" ]; Ir.input "z" [ "i" ];
           ])
      ()
  in
  row
    (Printf.sprintf "bytemap and3 n=%d" bn)
    (run_q [ ("x", bx); ("y", by); ("z", bz) ] band);
  let bor =
    LQ.make ~output_idxs:[ "i" ] ~name:"out" ~agg_op:Op.Ident ~agg_idxs:[]
      ~body:(Ir.add [ Ir.input "x" [ "i" ]; Ir.input "y" [ "i" ] ])
      ()
  in
  row
    (Printf.sprintf "bytemap or2 n=%d" bn)
    (run_q [ ("x", bx); ("y", by) ] bor);
  let mn = if !quick then 200 else 600 in
  let mm = if !quick then 300 else 800 in
  let ma = bytemap ~density:0.3 [| mn; mm |]
  and mb = bytemap ~density:0.3 [| mn; mm |] in
  let had =
    LQ.make ~output_idxs:[ "i" ] ~name:"out" ~agg_op:Op.Add
      ~agg_idxs:[ "j" ]
      ~body:(Ir.mul [ Ir.input "A" [ "i"; "j" ]; Ir.input "B" [ "i"; "j" ] ])
      ()
  in
  row
    (Printf.sprintf "bytemap hadamard %dx%d" mn mm)
    (run_q [ ("A", ma); ("B", mb) ] had);
  (* The morsel scheduler across domain counts, on a skewed SpMV: row i
     carries ~1/(i+1) of the head row's entries, so morsels must
     rebalance.  On a host with fewer cores than lanes, every lane
     shares a core and the rows measure dispatch overhead. *)
  p "\nmorsel scheduling (skewed SpMV, execution time)\n";
  p "%-26s %12s\n" "config" "morsel";
  let sn = if !quick then 800 else 2500 in
  let entries = ref [] in
  for i = 0 to sn - 1 do
    let k = max 2 (sn / (8 * (i + 1))) in
    for _ = 1 to k do
      entries := ([| i; Prng.int prng sn |], Prng.float prng) :: !entries
    done
  done;
  let sa =
    T.of_coo ~dims:[| sn; sn |]
      ~formats:[| T.Dense; T.Sparse_list |]
      (Array.of_list !entries)
  in
  let sx = dense [| sn |] in
  let label = Printf.sprintf "spmv skewed n=%d" sn in
  let prog = { Ir.queries = [ LQ.to_query matvec ]; outputs = [ "out" ] } in
  List.iter
    (fun d ->
      let config = { D.default_config with D.domains = d } in
      let samples =
        List.init (trials ()) (fun _ ->
            (D.run ~config ~inputs:[ ("A", sa); ("x", sx) ] prog)
              .D.timings.D.execute_seconds)
      in
      record ~section:"kernels_v2" ~series:(Printf.sprintf "morsel@%d" d) label
        samples;
      p "%-26s %12s\n%!"
        (Printf.sprintf "%s domains=%d" label d)
        (fmt_time (median samples)))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Scaling: the parallel runtime at domains ∈ {1, 2, 4}.                *)
(* ------------------------------------------------------------------ *)

(* Wall time per figure workload as the engine's domain-pool size grows;
   outputs are bit-identical across the sweep (the parallel runtime
   replays morsel logs in serial accumulation order), so the rows isolate
   runtime cost alone.  speedup@N = T(domains=1) / T(domains=N).  On a
   single-core machine every lane shares the core and the sweep reports
   ~1.0x — the speedup column is meaningful only where the hardware has
   cores to offer. *)
let scaling () =
  header "Scaling: wall time at domains in {1,2,4} (speedup vs domains=1)";
  let counts = [ 1; 2; 4 ] in
  p "%-26s %12s %12s %12s %9s %9s\n" "workload" "domains=1" "domains=2"
    "domains=4" "x @2" "x @4";
  let row label f =
    let ts =
      List.map
        (fun d ->
          let config = { D.default_config with D.domains = d } in
          (* One sample per trial round: fresh end-to-end runs, so GC
             noise does not masquerade as (anti-)scaling. *)
          let samples =
            List.init (trials ()) (fun _ -> f config)
          in
          record ~section:"scaling"
            ~series:(Printf.sprintf "domains=%d" d)
            label samples;
          median samples)
        counts
    in
    match ts with
    | [ t1; t2; t4 ] ->
        record1 ~section:"scaling" ~series:"speedup@2" label (t1 /. t2);
        record1 ~section:"scaling" ~series:"speedup@4" label (t1 /. t4);
        p "%-26s %12s %12s %12s %8.2fx %8.2fx\n%!" label (fmt_time t1)
          (fmt_time t2) (fmt_time t4) (t1 /. t2) (t1 /. t4)
    | _ -> ()
  in
  (* Fig. 6 shape: ML over the star join, execution phase only. *)
  let scale =
    if !quick then
      { W.Tpch.n_lineitems = 800; n_suppliers = 40; n_parts = 100;
        n_orders = 200; n_customers = 60 }
    else
      { W.Tpch.n_lineitems = 20000; n_suppliers = 300; n_parts = 800;
        n_orders = 2000; n_customers = 400 }
  in
  let star = W.Tpch.star_instance ~scale ~seed:1001 () in
  let params = W.Ml.parameter_inputs ~seed:1002 ~d:star.W.Tpch.d ~hidden:16 in
  let inputs = star.W.Tpch.inputs @ params in
  List.iter
    (fun alg ->
      let prog = W.Ml.program_of alg ~x:star.W.Tpch.x_def ~pts:[ "i" ] in
      row
        ("fig6 " ^ W.Ml.algorithm_name alg)
        (fun config ->
          let r = D.run ~config ~inputs prog in
          r.D.timings.D.execute_seconds))
    [ W.Ml.Linreg; W.Ml.Logreg ];
  (* Fig. 7 shape: subgraph counting, execution phase only. *)
  let g =
    List.hd (W.Graphs.benchmark_suite ~scale:(if !quick then 0.08 else 0.1))
  in
  List.iter
    (fun pat ->
      let prog = W.Subgraph.count_program pat in
      let sg_inputs = W.Subgraph.bindings g pat in
      row
        ("fig7 " ^ pat.W.Subgraph.pname)
        (fun config ->
          let config = { config with D.timeout = Some sg_timeout } in
          let r = D.run ~config ~inputs:sg_inputs prog in
          if r.D.timed_out then nan else r.D.timings.D.execute_seconds))
    (W.Subgraph.suite_for g);
  (* Fig. 10 shape: a whole BFS session (kernel time dominates). *)
  let bg = List.hd (W.Graphs.bfs_suite ~scale:(if !quick then 0.1 else 0.4)) in
  let adjacency = W.Graphs.adjacency bg in
  row
    ("fig10 bfs " ^ bg.W.Graphs.name)
    (fun config ->
      (W.Bfs.run ~config_base:config W.Bfs.Adaptive ~adjacency ~source:0)
        .W.Bfs.seconds)

(* ------------------------------------------------------------------ *)
(* Ablations.                                                           *)
(* ------------------------------------------------------------------ *)

let ablations () =
  header "Ablation: sparsity estimator (uniform vs chain bound)";
  let scale = if !quick then 0.1 else 0.15 in
  let g = List.hd (W.Graphs.benchmark_suite ~scale) in
  p "graph %s: %d vertices %d edges\n" g.W.Graphs.name g.W.Graphs.n
    (W.Graphs.edge_count g);
  p "%-12s %14s %14s\n" "pattern" "uniform" "chain";
  List.iter
    (fun pat ->
      let prog = W.Subgraph.count_program pat in
      let inputs = W.Subgraph.bindings g pat in
      let run kind =
        let config =
          { D.default_config with estimator = kind; timeout = Some sg_timeout }
        in
        let r = D.run ~config ~inputs prog in
        if r.D.timed_out then nan else r.D.timings.D.total_seconds
      in
      p "%-12s %14s %14s\n%!" pat.W.Subgraph.pname
        (fmt_time (run Galley_stats.Ctx.Uniform_kind))
        (fmt_time (run Galley_stats.Ctx.Chain_kind)))
    (W.Subgraph.suite_for g);

  header "Ablation: JIT physical optimization";
  let scale =
    if !quick then
      { W.Tpch.n_lineitems = 600; n_suppliers = 30; n_parts = 80;
        n_orders = 150; n_customers = 50 }
    else
      { W.Tpch.n_lineitems = 4000; n_suppliers = 100; n_parts = 250;
        n_orders = 600; n_customers = 150 }
  in
  let star = W.Tpch.star_instance ~scale ~seed:2001 () in
  let params = W.Ml.parameter_inputs ~seed:2002 ~d:star.W.Tpch.d ~hidden:16 in
  let inputs = star.W.Tpch.inputs @ params in
  p "%-12s %12s %12s\n" "algorithm" "jit" "no-jit";
  List.iter
    (fun alg ->
      let prog = W.Ml.program_of alg ~x:star.W.Tpch.x_def ~pts:[ "i" ] in
      let t ~jit =
        snd
          (time_once (fun () ->
               D.run ~config:{ D.default_config with jit } ~inputs prog))
      in
      p "%-12s %12s %12s\n%!" (W.Ml.algorithm_name alg)
        (fmt_time (t ~jit:true))
        (fmt_time (t ~jit:false)))
    W.Ml.all_algorithms;

  header "Ablation: common sub-expression elimination";
  let prog = W.Ml.program_of W.Ml.Covariance ~x:star.W.Tpch.x_def ~pts:[ "i" ] in
  let run ~cse =
    let r = D.run ~config:{ D.default_config with cse } ~inputs prog in
    ( r.D.timings.D.total_seconds,
      r.D.timings.D.cse_hits,
      r.D.timings.D.kernel_count )
  in
  let t_on, hits, kernels_on = run ~cse:true in
  let t_off, _, kernels_off = run ~cse:false in
  p "covariance with CSE:    %s (%d kernel runs, %d cache hits)\n"
    (fmt_time t_on) kernels_on hits;
  p "covariance without CSE: %s (%d kernel runs)\n%!"
    (fmt_time t_off) kernels_off;

  header "Ablation: greedy vs exact elimination order";
  let g =
    List.nth (W.Graphs.benchmark_suite ~scale:(if !quick then 0.1 else 0.15)) 1
  in
  p "graph %s\n" g.W.Graphs.name;
  p "%-12s %14s %14s\n" "pattern" "greedy" "exact";
  List.iter
    (fun pat ->
      let prog = W.Subgraph.count_program pat in
      let inputs = W.Subgraph.bindings g pat in
      let run config =
        let r =
          D.run ~config:{ config with D.timeout = Some sg_timeout } ~inputs prog
        in
        if r.D.timed_out then nan else r.D.timings.D.total_seconds
      in
      p "%-12s %14s %14s\n%!" pat.W.Subgraph.pname
        (fmt_time (run D.greedy_config))
        (fmt_time (run D.default_config)))
    (W.Subgraph.suite_for g)

(* ------------------------------------------------------------------ *)
(* Degradation ladder: per-tier plan counts and cost of degrading.      *)
(* ------------------------------------------------------------------ *)

let tiers () =
  header "Degradation ladder: plans served per optimizer tier";
  (* Naive-tier plans are deliberately unoptimized (that is the point of
     the comparison), so the instance stays small enough for them. *)
  let scale =
    if !quick then
      { W.Tpch.n_lineitems = 60; n_suppliers = 8; n_parts = 12;
        n_orders = 15; n_customers = 10 }
    else
      { W.Tpch.n_lineitems = 150; n_suppliers = 12; n_parts = 25;
        n_orders = 40; n_customers = 20 }
  in
  let star =
    W.Tpch.star_instance ~scale ~layout:W.Tpch.tiny_layout ~seed:2101 ()
  in
  let params = W.Ml.parameter_inputs ~seed:2102 ~d:star.W.Tpch.d ~hidden:16 in
  let inputs = star.W.Tpch.inputs @ params in
  let fmt_counts (tiers : (string * Galley_plan.Tier.t) list) =
    let e, g, n = Galley_plan.Tier.counts tiers in
    Printf.sprintf "e=%d g=%d n=%d" e g n
  in
  p "%-12s %-22s %-22s %10s %10s\n" "algorithm"
    "default (log/phys)" "0s deadline (log/phys)" "default" "degraded";
  List.iter
    (fun alg ->
      let prog = W.Ml.program_of alg ~x:star.W.Tpch.x_def ~pts:[ "i" ] in
      let run config = time_once (fun () -> D.run ~config ~inputs prog) in
      let r_def, t_def = run D.default_config in
      let r_deg, t_deg =
        run { D.default_config with optimizer_timeout = Some 0.0 }
      in
      p "%-12s %-22s %-22s %10s %10s\n%!"
        (W.Ml.algorithm_name alg)
        (fmt_counts r_def.D.logical_tiers ^ " / "
        ^ fmt_counts r_def.D.physical_tiers)
        (fmt_counts r_deg.D.logical_tiers ^ " / "
        ^ fmt_counts r_deg.D.physical_tiers)
        (fmt_time t_def) (fmt_time t_deg))
    W.Ml.all_algorithms

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the tensor substrate.                   *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "Micro-benchmarks: per-format iteration / lookup / construction";
  let open Bechamel in
  let prng = Galley_tensor.Prng.create 3001 in
  let n = if !quick then 20_000 else 100_000 in
  let mk fmt = T.random ~prng ~dims:[| n |] ~formats:[| fmt |] ~density:0.02 () in
  let tensors =
    List.map
      (fun f -> (T.format_to_string f, mk f))
      [ T.Dense; T.Sparse_list; T.Bytemap; T.Hash ]
  in
  let iteration_tests =
    List.map
      (fun (name, t) ->
        Test.make ~name
          (Staged.stage (fun () ->
               let acc = ref 0.0 in
               T.iter_nonfill t (fun _ v -> acc := !acc +. v);
               !acc)))
      tensors
  in
  let lookup_tests =
    List.map
      (fun (name, t) ->
        let coords = Array.init 512 (fun k -> [| k * (n / 512) |]) in
        Test.make ~name
          (Staged.stage (fun () ->
               let acc = ref 0.0 in
               Array.iter (fun c -> acc := !acc +. T.get t c) coords;
               !acc)))
      tensors
  in
  let build_tests =
    List.map
      (fun fmt ->
        let name = T.format_to_string fmt in
        Test.make ~name
          (Staged.stage (fun () ->
               let b =
                 Galley_tensor.Builder.create ~dims:[| n |] ~formats:[| fmt |]
                   ~identity:0.0 ()
               in
               for k = 0 to 999 do
                 Galley_tensor.Builder.accum b
                   [| k * (n / 1000) |]
                   1.0 ~combine:( +. )
               done;
               Galley_tensor.Builder.freeze b
                 ~finalize:(fun v _ -> v)
                 ~fill:0.0)))
      [ T.Dense; T.Sparse_list; T.Bytemap; T.Hash ]
  in
  let test =
    Test.make_grouped ~name:"tensor"
      [
        Test.make_grouped ~name:"iterate" iteration_tests;
        Test.make_grouped ~name:"lookup" lookup_tests;
        Test.make_grouped ~name:"build" build_tests;
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ instance ] test in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name res acc -> (name, res) :: acc) results [] in
  List.iter
    (fun (name, res) ->
      match Analyze.OLS.estimates res with
      | Some [ est ] -> p "%-34s %14.1f ns/run\n" name est
      | _ -> p "%-34s (no estimate)\n" name)
    (List.sort compare rows);
  p "%!"

(* ------------------------------------------------------------------ *)
(* Observability: per-phase timings, estimator q-error, and the         *)
(* zero-cost-when-off contract for tracing (DESIGN.md §9).              *)
(* ------------------------------------------------------------------ *)

let observability () =
  header
    "Observability: phase timings, estimator q-error, tracing overhead \
     (off-path must stay < 5%)";
  Galley_obs.Metrics.set_detailed true;
  let scale =
    if !quick then
      { W.Tpch.n_lineitems = 800; n_suppliers = 40; n_parts = 100;
        n_orders = 200; n_customers = 60 }
    else
      { W.Tpch.n_lineitems = 8000; n_suppliers = 200; n_parts = 500;
        n_orders = 1000; n_customers = 300 }
  in
  let star = W.Tpch.star_instance ~scale ~seed:1001 () in
  let params = W.Ml.parameter_inputs ~seed:1002 ~d:star.W.Tpch.d ~hidden:16 in
  let inputs = star.W.Tpch.inputs @ params in
  (* Per-figure phase timings + q-error summary, from audited runs. *)
  p "%-14s %10s %10s %10s %10s %12s %12s\n" "workload" "logical" "physical"
    "compile" "execute" "qerr(unif)" "qerr(chain)";
  List.iter
    (fun alg ->
      let config =
        with_domains { D.default_config with D.audit = true }
      in
      let prog = W.Ml.program_of alg ~x:star.W.Tpch.x_def ~pts:[ "i" ] in
      let r = D.run ~config ~inputs prog in
      let t = r.D.timings in
      let name = "fig6 " ^ W.Ml.algorithm_name alg in
      record1 ~section:"observability" ~series:"phase-logical" name
        t.D.logical_seconds;
      record1 ~section:"observability" ~series:"phase-physical" name
        t.D.physical_seconds;
      record1 ~section:"observability" ~series:"phase-compile" name
        t.D.compile_seconds;
      record1 ~section:"observability" ~series:"phase-execute" name
        t.D.execute_seconds;
      let qerr est =
        match r.D.audit with
        | None -> nan
        | Some a -> (
            match
              List.find_opt
                (fun (s : Galley_obs.Audit.summary) -> s.s_estimator = est)
                (Galley_obs.Audit.summaries a)
            with
            | Some s -> s.Galley_obs.Audit.s_mean_q
            | None -> nan)
      in
      let qu = qerr "uniform" and qc = qerr "chain" in
      record1 ~section:"observability" ~series:"qerr-uniform" name qu;
      record1 ~section:"observability" ~series:"qerr-chain" name qc;
      p "%-14s %10s %10s %10s %10s %12.2f %12.2f\n%!" name
        (fmt_time t.D.logical_seconds)
        (fmt_time t.D.physical_seconds)
        (fmt_time t.D.compile_seconds)
        (fmt_time t.D.execute_seconds)
        qu qc)
    [ W.Ml.Linreg; W.Ml.Logreg; W.Ml.Nn ];
  (* Zero-cost-when-off: with tracing disabled, a span site is one atomic
     read.  Measure fig6 linreg cold (off), traced (on), and off again;
     the off-after-on time must stay within 5% of the first off time.
     Best-of-N absorbs scheduler noise; one retry absorbs the rest. *)
  let prog = W.Ml.program_of W.Ml.Linreg ~x:star.W.Tpch.x_def ~pts:[ "i" ] in
  let run_once () =
    ignore (D.run ~config:(with_domains D.default_config) ~inputs prog)
  in
  let best_of n =
    let best = ref infinity in
    for _ = 1 to n do
      let t0 = Unix.gettimeofday () in
      run_once ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let measure () =
    Galley_obs.Trace.disable ();
    let off1 = best_of 5 in
    Galley_obs.Trace.enable ();
    let on = best_of 3 in
    Galley_obs.Trace.disable ();
    Galley_obs.Trace.reset ();
    let off2 = best_of 5 in
    (off1, on, off2)
  in
  let rec check attempt =
    let off1, on, off2 = measure () in
    let ratio = off2 /. off1 in
    if ratio < 1.05 || attempt >= 3 then (off1, on, off2, ratio)
    else check (attempt + 1)
  in
  let off1, on, off2, ratio = check 1 in
  record1 ~section:"observability" ~series:"trace-off" "fig6 linreg" off1;
  record1 ~section:"observability" ~series:"trace-on" "fig6 linreg" on;
  record1 ~section:"observability" ~series:"trace-off-after" "fig6 linreg" off2;
  p "tracing overhead: off=%s on=%s off-after=%s (off-after/off = %.3f)\n"
    (fmt_time off1) (fmt_time on) (fmt_time off2) ratio;
  if ratio < 1.05 then p "tracing disabled-overhead check: PASS (< 5%%)\n%!"
  else begin
    p "tracing disabled-overhead check: FAIL (>= 5%%)\n%!";
    exit 1
  end;
  (* Recorder + sampler on-path overhead: serve leaves the flight
     recorder and tail sampler enabled for every request, so the full
     bracket — begin_request (trace on), the run, end_request (drain +
     retention decision), flight note — must stay within 5% of a bare
     run.  Same best-of-N + retry discipline as the tracing check. *)
  let fl = Galley_obs.Flight.create ~capacity:256 () in
  let sm = Galley_obs.Sampler.create () in
  let best_of_rec n =
    let best = ref infinity in
    for _ = 1 to n do
      Galley_obs.Sampler.begin_request sm;
      let t0 = Unix.gettimeofday () in
      run_once ();
      let dt = Unix.gettimeofday () -. t0 in
      ignore
        (Galley_obs.Sampler.end_request sm ~id:"bench"
           ~duration_us:(int_of_float (dt *. 1e6))
           ~triggers:[]);
      ignore
        (Galley_obs.Flight.note fl
           (Galley_obs.Flight.empty_record ~id:"bench" ~op:"query"));
      if dt < !best then best := dt
    done;
    !best
  in
  let measure_rec () =
    Galley_obs.Trace.disable ();
    Galley_obs.Trace.reset ();
    let bare = best_of 5 in
    let bracketed = best_of_rec 5 in
    Galley_obs.Trace.disable ();
    Galley_obs.Trace.reset ();
    (bare, bracketed)
  in
  let rec check_rec attempt =
    let bare, bracketed = measure_rec () in
    let ratio = bracketed /. bare in
    if ratio < 1.05 || attempt >= 3 then (bare, bracketed, ratio)
    else check_rec (attempt + 1)
  in
  let bare, bracketed, rec_ratio = check_rec 1 in
  record1 ~section:"observability" ~series:"recorder-off" "fig6 linreg" bare;
  record1 ~section:"observability" ~series:"recorder-on" "fig6 linreg"
    bracketed;
  p "recorder+sampler overhead: bare=%s bracketed=%s (ratio = %.3f)\n"
    (fmt_time bare) (fmt_time bracketed) rec_ratio;
  if rec_ratio < 1.05 then
    p "recorder on-path overhead check: PASS (< 5%%)\n%!"
  else begin
    p "recorder on-path overhead check: FAIL (>= 5%%)\n%!";
    exit 1
  end;
  (* Provenance recorder off-path overhead: the search recorder hooks in
     both optimizer rungs compile down to one atomic load when disabled,
     so a run with provenance off must stay within 5% of a run taken
     before the recorder was ever touched.  Same best-of-N + retry
     discipline as the tracing check. *)
  let measure_prov () =
    Galley_plan.Provenance.disable ();
    Galley_plan.Provenance.reset ();
    let off = best_of 5 in
    Galley_plan.Provenance.enable ();
    let on = best_of 3 in
    ignore (Galley_plan.Provenance.drain ());
    Galley_plan.Provenance.disable ();
    Galley_plan.Provenance.reset ();
    let off_after = best_of 5 in
    (off, on, off_after)
  in
  let rec check_prov attempt =
    let off, on, off_after = measure_prov () in
    let ratio = off_after /. off in
    if ratio < 1.05 || attempt >= 3 then (off, on, off_after, ratio)
    else check_prov (attempt + 1)
  in
  let poff, pon, poff2, prov_ratio = check_prov 1 in
  record1 ~section:"observability" ~series:"provenance-off" "fig6 linreg" poff;
  record1 ~section:"observability" ~series:"provenance-on" "fig6 linreg" pon;
  record1 ~section:"observability" ~series:"provenance-off-after"
    "fig6 linreg" poff2;
  p "provenance overhead: off=%s on=%s off-after=%s (off-after/off = %.3f)\n"
    (fmt_time poff) (fmt_time pon) (fmt_time poff2) prov_ratio;
  if prov_ratio < 1.05 then
    p "provenance disabled-overhead check: PASS (< 5%%)\n%!"
  else begin
    p "provenance disabled-overhead check: FAIL (>= 5%%)\n%!";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Serving: daemon latency and throughput under concurrent clients.     *)
(* ------------------------------------------------------------------ *)

(* An in-process `galley serve` daemon on a temp socket, driven over the
   real wire protocol: cold-vs-warm request latency (the Fig. 9
   amortization as seen by a serving client) and multi-client
   throughput with client-side p50/p99 tail latency. *)
let serving () =
  header "Serving: galley serve latency and throughput";
  let module S = Galley_serve.Server in
  let module C = Galley_serve.Client in
  let module Proto = Galley_serve.Protocol in
  let sock = Filename.temp_file "galley_bench" ".sock" in
  Sys.remove sock;
  let cfg =
    {
      (S.default_config ~socket_path:sock) with
      S.driver = with_domains D.default_config;
    }
  in
  let server = S.create cfg in
  S.start server;
  Fun.protect
    ~finally:(fun () ->
      S.request_drain server;
      S.wait server;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      let dim = if !quick then 80 else 200 in
      let spec_e = Printf.sprintf "%dx%d:0.02:501" dim dim in
      let spec_x = Printf.sprintf "%d:0.5:502" dim in
      let src = "y[i] = sum[j](E[i,j] * x[j])" in
      let rpc line =
        match C.rpc ~retries:10 ~socket:sock line with
        | Ok resp -> resp
        | Error e -> failwith ("serving bench rpc: " ^ e)
      in
      ignore (rpc (Proto.encode_bind_random ~name:"E" spec_e));
      ignore (rpc (Proto.encode_bind_random ~name:"x" spec_x));
      let timed_query () =
        let t0 = Unix.gettimeofday () in
        ignore (rpc (Proto.encode_query ~values:false src));
        Unix.gettimeofday () -. t0
      in
      (* Cold: first request pays optimization + kernel compilation;
         warm requests replay from the resident CSE cache. *)
      let cold = timed_query () in
      let warm = List.init (if !quick then 5 else 20) (fun _ -> timed_query ()) in
      record1 ~section:"serving" ~series:"latency" "cold" cold;
      record ~section:"serving" ~series:"latency" "warm" warm;
      p "%-24s %10s\n" "cold request" (fmt_time cold);
      p "%-24s %10s (x%.1f amortization)\n" "warm request (median)"
        (fmt_time (median warm))
        (if median warm > 0.0 then cold /. median warm else 0.0);
      (* Throughput: 4 persistent clients issuing warm queries. *)
      let clients = 4 in
      let per_client = if !quick then 8 else 25 in
      let latencies = Array.make (clients * per_client) 0.0 in
      let worker c =
        match C.connect ~retries:10 sock with
        | Error e -> failwith ("serving bench connect: " ^ e)
        | Ok conn ->
            Fun.protect
              ~finally:(fun () -> C.close conn)
              (fun () ->
                for q = 0 to per_client - 1 do
                  let t0 = Unix.gettimeofday () in
                  (match
                     C.request conn (Proto.encode_query ~values:false src)
                   with
                  | Ok _ -> ()
                  | Error e -> failwith ("serving bench request: " ^ e));
                  latencies.((c * per_client) + q) <-
                    Unix.gettimeofday () -. t0
                done)
      in
      let t0 = Unix.gettimeofday () in
      let threads = List.init clients (fun c -> Thread.create worker c) in
      List.iter Thread.join threads;
      let wall = Unix.gettimeofday () -. t0 in
      let total = clients * per_client in
      Array.sort compare latencies;
      let pct q =
        latencies.(min (total - 1) (int_of_float (q *. float_of_int total)))
      in
      record1 ~section:"serving" ~series:"throughput"
        (Printf.sprintf "%dx%d-wall" clients per_client)
        wall;
      record1 ~section:"serving" ~series:"tail" "p50" (pct 0.50);
      record1 ~section:"serving" ~series:"tail" "p99" (pct 0.99);
      p "%-24s %10.0f req/s (%d clients, %d requests, %s wall)\n" "throughput"
        (float_of_int total /. wall)
        clients total (fmt_time wall);
      p "%-24s %10s p99=%s\n%!" "client latency p50" (fmt_time (pct 0.50))
        (fmt_time (pct 0.99)))

(* ------------------------------------------------------------------ *)
(* Fixpoint iteration (DESIGN.md §13).                                  *)
(* ------------------------------------------------------------------ *)

(* Until-convergence workloads through the [iterate] construct: each
   iteration re-enters the full optimizer against refreshed statistics,
   so the table separates the cold first iteration (optimization +
   kernel compilation) from the warm steady state (cache replay), and
   reports how often the plan switched as the loop-carried tensors
   densified — the Fig. 10 format-adaptivity argument generalized to
   whole iterative programs. *)
let fixpoint () =
  header "Fixpoint: until-convergence workloads (iterate)";
  let module I = W.Iterative in
  let module Fix = Galley_fixpoint.Fixpoint in
  let config = with_domains D.default_config in
  let pr_g =
    if !quick then W.Graphs.erdos_renyi ~seed:41 ~n:200 ~m:800 ()
    else W.Graphs.erdos_renyi ~seed:41 ~n:1000 ~m:6000 ()
  in
  (* seed 43: source 0 is connected at both scales (seed 42 leaves it
     isolated at n=150, which converges — correctly — in one iteration
     and measures nothing). *)
  let bf_g =
    W.Graphs.symmetrize
      (if !quick then W.Graphs.power_law ~seed:43 ~n:150 ~m:500 ()
       else W.Graphs.power_law ~seed:43 ~n:600 ~m:2400 ())
  in
  let rc_g =
    W.Graphs.symmetrize
      (if !quick then W.Graphs.power_law ~seed:44 ~n:800 ~m:2400 ()
       else W.Graphs.power_law ~seed:44 ~n:4000 ~m:12000 ())
  in
  let cases =
    [
      ("pagerank", I.pagerank_source (), I.pagerank_inputs pr_g);
      ("bellman-ford", I.bellman_source (), I.bellman_inputs bf_g ~source:0);
      ("reachability", I.reach_source (), I.reach_inputs rc_g ~source:0);
    ]
  in
  p "%-14s %6s %8s %14s %11s %11s %10s\n" "workload" "iters" "replans"
    "switch-iters" "first-iter" "steady-it" "total";
  List.iter
    (fun (name, src, inputs) ->
      let t0 = Unix.gettimeofday () in
      match Fix.run_source_checked ~config ~inputs src with
      | Error e -> failwith ("fixpoint bench: " ^ Galley.Errors.to_string e)
      | Ok (_, reports) ->
          let total = Unix.gettimeofday () -. t0 in
          let rep = List.hd reports in
          let iter_s = List.map (fun it -> it.Fix.it_seconds) rep.Fix.fr_iters in
          let first = List.hd iter_s in
          let steady = match iter_s with _ :: (_ :: _ as tl) -> tl | _ -> iter_s in
          record1 ~section:"fixpoint" ~series:"total" name total;
          record1 ~section:"fixpoint" ~series:"first-iter" name first;
          record ~section:"fixpoint" ~series:"steady-iter" name steady;
          (* Not latencies, but the regression gate tracks them the same
             way: a plan-stability change is as real a regression as a
             slowdown. *)
          record1 ~section:"fixpoint" ~series:"iterations" name
            (float_of_int rep.Fix.fr_iterations);
          record1 ~section:"fixpoint" ~series:"replans" name
            (float_of_int rep.Fix.fr_replans);
          p "%-14s %6d %8d %14s %11s %11s %10s\n%!" name rep.Fix.fr_iterations
            rep.Fix.fr_replans
            ("["
            ^ String.concat ","
                (List.map string_of_int rep.Fix.fr_switch_iters)
            ^ "]")
            (fmt_time first)
            (fmt_time (median steady))
            (fmt_time total))
    cases

(* ------------------------------------------------------------------ *)
(* Baseline comparison (--compare / --compare-files).                   *)
(* ------------------------------------------------------------------ *)

(* Keyed per-series statistics from a saved --json document: "seconds"
   alone (schema 1) or the full "trials" sample list (schema 2).  The
   key is section/series/label. *)
let stats_of_json (doc : J.t) : (string * P.t) list =
  let rows =
    Option.value ~default:[]
      (Option.bind (J.member "rows" doc) J.to_list)
  in
  List.filter_map
    (fun row ->
      let str key = Option.bind (J.member key row) J.to_string in
      match (str "section", str "series", str "label") with
      | Some section, Some series, Some label ->
          let samples =
            match Option.bind (J.member "trials" row) J.to_list with
            | Some (_ :: _ as l) ->
                List.map
                  (fun v -> Option.value ~default:nan (J.to_float v))
                  l
            | _ -> (
                match J.member "seconds" row with
                | Some (J.Num f) -> [ f ]
                | _ -> [ nan ] (* null seconds = recorded timeout *))
          in
          Some (section ^ "/" ^ series ^ "/" ^ label, P.of_samples samples)
      | _ -> None)
    rows

let stats_of_rows (rows : (string * string * string * float list) list) :
    (string * P.t) list =
  List.rev_map
    (fun (section, series, label, samples) ->
      (section ^ "/" ^ series ^ "/" ^ label, P.of_samples samples))
    rows

(* Classify current vs baseline series and print the report (to stderr in
   --json mode, like the tables).  Returns the number of regressions. *)
let run_comparison ~(label : string) (baseline : (string * P.t) list)
    (current : (string * P.t) list) : int =
  let cs =
    P.compare_keyed ~rel_threshold:!cmp_threshold ~k:!cmp_k
      ~rel_floor:!cmp_rel_floor ~abs_floor:!cmp_abs_floor baseline current
  in
  header (Printf.sprintf "Baseline comparison vs %s" label);
  p
    "thresholds: ratio > %.2fx AND delta > noise floor (k=%g, \
     rel_floor=%g, abs_floor=%gs)\n"
    !cmp_threshold !cmp_k !cmp_rel_floor !cmp_abs_floor;
  let interesting =
    List.filter (fun c -> c.P.c_verdict <> P.Within_noise) cs
  in
  List.iter
    (fun c ->
      let side = function
        | None -> "-"
        | Some (s : P.t) ->
            if s.P.n = 0 then Printf.sprintf "t/o x%d" s.P.timeouts
            else fmt_time s.P.median
      in
      let ratio =
        match (c.P.c_baseline, c.P.c_current) with
        | Some b, Some cur when b.P.n > 0 && cur.P.n > 0 ->
            Printf.sprintf " (%.2fx)" (cur.P.median /. b.P.median)
        | _ -> ""
      in
      p "%-14s %-46s %10s -> %10s%s\n"
        (P.verdict_to_string c.P.c_verdict)
        c.P.c_key
        (side c.P.c_baseline)
        (side c.P.c_current)
        ratio)
    interesting;
  let n_of v = P.count_verdict cs v in
  let regressions = n_of P.Regression in
  p
    "verdicts: %d regressed, %d improved, %d within-noise, %d new, %d \
     missing\n%!"
    regressions (n_of P.Improvement) (n_of P.Within_noise) (n_of P.New_series)
    (n_of P.Missing_series);
  if regressions > 0 then
    p "REGRESSION GATE: FAIL (%d series beyond the noise floor)\n%!"
      regressions
  else p "regression gate: PASS\n%!";
  regressions

let load_stats (path : string) : (string * P.t) list =
  match J.parse_file path with
  | Ok doc -> stats_of_json doc
  | Error msg ->
      Printf.eprintf "bench: cannot read baseline %s: %s\n" path msg;
      exit 2

(* ------------------------------------------------------------------ *)
(* Driver.                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  (* The bench historically printed its progress diagnostics; keep that
     unless the user asked for a different level via GALLEY_LOG. *)
  if Sys.getenv_opt "GALLEY_LOG" = None then
    Galley_obs.Log.set_level Galley_obs.Log.Info;
  let args = Array.to_list Sys.argv |> List.tl in
  (* Value-taking flags (--flag V or --flag=V) are peeled off first. *)
  let set_float r v =
    match float_of_string_opt v with
    | Some f -> r := f
    | None -> Printf.eprintf "bad numeric flag value %s\n" v
  in
  let take flag v =
    match flag with
    | "--domains" -> (
        match int_of_string_opt v with
        | Some d when d >= 1 -> domains_override := Some d
        | _ -> Printf.eprintf "bad --domains value %s\n" v)
    | "--trials" -> (
        match int_of_string_opt v with
        | Some n when n >= 1 -> trials_opt := Some n
        | _ -> Printf.eprintf "bad --trials value %s\n" v)
    | "--compare" -> compare_baseline := Some v
    | "--threshold" -> set_float cmp_threshold v
    | "--noise-k" -> set_float cmp_k v
    | "--rel-floor" -> set_float cmp_rel_floor v
    | "--abs-floor" -> set_float cmp_abs_floor v
    | _ -> assert false
  in
  let value_flags =
    [ "--domains"; "--trials"; "--compare"; "--threshold"; "--noise-k";
      "--rel-floor"; "--abs-floor" ]
  in
  let rec strip = function
    | [] -> []
    | "--compare-files" :: a :: b :: rest ->
        compare_files := Some (a, b);
        strip rest
    | a :: v :: rest when List.mem a value_flags ->
        take a v;
        strip rest
    | [ a ] when List.mem a value_flags || a = "--compare-files" ->
        Printf.eprintf "%s needs a value\n" a;
        []
    | a :: rest -> (
        match String.index_opt a '=' with
        | Some i
          when List.mem (String.sub a 0 i) value_flags ->
            take (String.sub a 0 i)
              (String.sub a (i + 1) (String.length a - i - 1));
            strip rest
        | _ -> a :: strip rest)
  in
  let args =
    List.filter
      (fun a ->
        if a = "quick" || a = "--quick" then begin
          quick := true;
          false
        end
        else if a = "json" || a = "--json" then begin
          json_mode := true;
          false
        end
        else true)
      (strip args)
  in
  (* Pure diff of two saved runs: no measurement, no sections. *)
  (match !compare_files with
  | Some (base_path, cur_path) ->
      let regressions =
        run_comparison
          ~label:(base_path ^ " -> " ^ cur_path)
          (load_stats base_path) (load_stats cur_path)
      in
      exit (if regressions > 0 then 1 else 0)
  | None -> ());
  let sections =
    match args with
    | [] ->
        [
          "fig6"; "fig7"; "fig8"; "fig9"; "fig10"; "kernels_v2";
          "scaling"; "ablations"; "observability"; "serving"; "fixpoint";
          "micro";
        ]
    | some -> some
  in
  List.iter
    (fun s ->
      (* Kernel-cache traffic per section: the hit/miss delta separates
         cold compiles from warm cache reuse (Fig. 9 discussion). *)
      let h0 = cache_counter "kernel_cache.hits"
      and m0 = cache_counter "kernel_cache.misses" in
      (match s with
      | "fig6" -> fig6 ()
      | "fig7" -> fig7 ()
      | "fig8" -> fig8 ()
      | "fig9" -> fig9 ()
      | "fig10" -> fig10 ()
      | "kernels_v2" -> kernels_v2 ()
      | "scaling" -> scaling ()
      | "ablations" -> ablations ()
      | "tiers" -> tiers ()
      | "observability" -> observability ()
      | "serving" -> serving ()
      | "fixpoint" -> fixpoint ()
      | "micro" -> micro ()
      | other -> Printf.eprintf "unknown section %s\n" other);
      let hits = cache_counter "kernel_cache.hits" - h0
      and misses = cache_counter "kernel_cache.misses" - m0 in
      if hits + misses > 0 then begin
        cache_rows := (s, hits, misses) :: !cache_rows;
        p "[%s] kernel cache: %d cold compiles, %d warm hits\n%!" s misses
          hits
      end)
    sections;
  if !json_mode then emit_json ();
  match !compare_baseline with
  | None -> ()
  | Some path ->
      let regressions =
        run_comparison ~label:path (load_stats path)
          (stats_of_rows !json_rows)
      in
      if regressions > 0 then exit 1
