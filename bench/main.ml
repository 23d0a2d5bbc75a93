(* Benchmark harness and performance-regression gate: regenerates every
   evaluation artifact of the paper (Figures 6-10) as printed tables with
   the same series, plus the ablations called out in DESIGN.md, the
   kernel-shape rows of the staged backend (kernels_v2) and the <5%
   disabled-path gates of the observability layer.  Whole-workload
   timing split by layer (ML joins, fixpoint, serving) is perfbench's job.

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
   anything.  An unknown section or a missing or malformed flag value
   exits 2 before anything is measured. *)

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
       (esc Sys.ocaml_version) D.default_domains "staged"
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

(* A star-join instance with the ML parameter tensors bound next to it. *)
let star_join ~scale ~seed =
  let star = W.Tpch.star_instance ~scale ~seed () in
  let params =
    W.Ml.parameter_inputs ~seed:(seed + 1) ~d:star.W.Tpch.d ~hidden:16
  in
  (star, star.W.Tpch.inputs @ params)

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
  let star, inputs = star_join ~scale ~seed:1001 in
  p "star join: %d lineitems x %d features\n" star.W.Tpch.n
    star.W.Tpch.d;
  p "%-12s %12s %14s %14s %10s\n" "algorithm" "galley"
    "hand(dense)" "hand(sparse)" "speedup";
  let run_star (star, inputs) alg =
    let prog = W.Ml.program_of alg ~x:star.W.Tpch.x_def ~pts:[ "i" ] in
    let _, galley_s =
      time_trials (fun () -> D.run ~config:D.default_config ~inputs prog)
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
  List.iter (run_star (star, inputs)) [ W.Ml.Linreg; W.Ml.Logreg; W.Ml.Nn ];
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
  let cov = star_join ~scale:cov_scale ~seed:1001 in
  p "(covariance at reduced scale: %d lineitems)\n" (fst cov).W.Tpch.n;
  run_star cov W.Ml.Covariance;
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
            D.run ~config:D.default_config ~inputs prog)
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
  let config = { config with D.timeout = Some sg_timeout } in
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
            (W.Bfs.run ~config_base:D.default_config v
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
  let star, inputs = star_join ~scale ~seed:2001 in
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
(* Observability: the <5% overhead contracts (DESIGN.md §9).            *)
(* ------------------------------------------------------------------ *)

let observability () =
  header "Observability: tracing, recorder and provenance overhead (< 5%)";
  let scale =
    if !quick then
      { W.Tpch.n_lineitems = 800; n_suppliers = 40; n_parts = 100;
        n_orders = 200; n_customers = 60 }
    else
      { W.Tpch.n_lineitems = 8000; n_suppliers = 200; n_parts = 500;
        n_orders = 1000; n_customers = 300 }
  in
  let star, inputs = star_join ~scale ~seed:1001 in
  let prog = W.Ml.program_of W.Ml.Linreg ~x:star.W.Tpch.x_def ~pts:[ "i" ] in
  let run_once () = ignore (D.run ~config:D.default_config ~inputs prog) in
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
  (* Each gate's [measure] returns its fig6-linreg rows and the gated
     ratio.  Best-of-N absorbs scheduler noise; up to two retries absorb
     the rest, and a ratio still >= 1.05 fails the run. *)
  let gate check measure =
    let rec attempt n =
      let rows, ratio = measure () in
      if ratio < 1.05 || n >= 3 then (rows, ratio) else attempt (n + 1)
    in
    let rows, ratio = attempt 1 in
    List.iter
      (fun (series, s) ->
        record1 ~section:"observability" ~series "fig6 linreg" s)
      rows;
    p "%s: %s (ratio = %.4f)\n" check
      (String.concat " "
         (List.map (fun (series, s) -> series ^ "=" ^ fmt_time s) rows))
      ratio;
    if ratio < 1.05 then p "%s check: PASS (< 5%%)\n%!" check
    else begin
      p "%s check: FAIL (>= 5%%)\n%!" check;
      exit 1
    end
  in
  (* Every gate below times its own code path directly, around the site
     count of one traced run of the same program, so it does not ride on
     a whole run's run-to-run spread: gated = off + sites × site cost. *)
  Galley_obs.Trace.reset ();
  Galley_obs.Trace.enable ();
  run_once ();
  Galley_obs.Trace.disable ();
  let load = Galley_obs.Trace.drain () in
  let sites = List.length load in
  p "span load: %d spans of one traced run\n" sites;
  (* Median cost of one call of [site], over 21 batches of 100k. *)
  let per_call site =
    let n = 100_000 in
    median
      (List.init 21 (fun _ ->
           let t0 = Unix.gettimeofday () in
           for _ = 1 to n do
             site ()
           done;
           (Unix.gettimeofday () -. t0) /. float_of_int n))
  in
  (* Zero-cost-when-off: with tracing disabled, a span site is one atomic
     read around its body.  trace-off-after = trace-off + the disabled
     cost of every span site one traced run crosses; trace-on is a whole
     traced run, for reference. *)
  gate "tracing disabled-overhead" (fun () ->
      Galley_obs.Trace.disable ();
      let off = best_of 5 in
      Galley_obs.Trace.enable ();
      let on = best_of 3 in
      Galley_obs.Trace.disable ();
      Galley_obs.Trace.reset ();
      let site =
        per_call (fun () ->
            Galley_obs.Trace.span ~cat:"bench" ~name:"site"
              ~attrs:(fun () -> [ ("k", "v") ])
              (fun () -> ignore (Sys.opaque_identity 0)))
      in
      let off_after = off +. (float_of_int sites *. site) in
      ( [ ("trace-off", off); ("trace-on", on);
          ("trace-off-after", off_after) ],
        off_after /. off ));
  (* Recorder + sampler on-path cost: serve brackets every request with
     begin_request (trace on), end_request (drain + retention decision)
     and a flight note.  The bracket is timed around the span load
     replayed with its attrs: recorder-on = recorder-off + bracket. *)
  let fl = Galley_obs.Flight.create ~capacity:256 () in
  let sm = Galley_obs.Sampler.create () in
  let bracket ~duration_us =
    let t0 = Unix.gettimeofday () in
    Galley_obs.Sampler.begin_request sm;
    List.iter
      (fun (ev : Galley_obs.Trace.event) ->
        Galley_obs.Trace.span ~cat:ev.ev_cat ~name:ev.ev_name
          ~attrs:(fun () -> ev.ev_args)
          ignore)
      load;
    ignore
      (Galley_obs.Sampler.end_request sm ~id:"bench" ~duration_us
         ~triggers:[]);
    ignore
      (Galley_obs.Flight.note fl
         (Galley_obs.Flight.empty_record ~id:"bench" ~op:"query"));
    Unix.gettimeofday () -. t0
  in
  gate "recorder on-path overhead" (fun () ->
      let off = best_of 5 in
      let duration_us = int_of_float (off *. 1e6) in
      let br = median (List.init 21 (fun _ -> bracket ~duration_us)) in
      ( [ ("recorder-off", off); ("recorder-on", off +. br) ],
        (off +. br) /. off ));
  (* Provenance recorder off-path overhead: the search recorder's hooks
     in both optimizers are one atomic load when disabled.
     provenance-off-after = provenance-off + that hook's cost for every
     event one provenance-on run records; provenance-on is a whole
     recorded run, for reference. *)
  gate "provenance disabled-overhead" (fun () ->
      Galley_plan.Provenance.disable ();
      Galley_plan.Provenance.reset ();
      let off = best_of 5 in
      Galley_plan.Provenance.enable ();
      let on = best_of 3 in
      Galley_plan.Provenance.reset ();
      run_once ();
      let hooks = List.length (Galley_plan.Provenance.drain ()) in
      Galley_plan.Provenance.disable ();
      Galley_plan.Provenance.reset ();
      let hook =
        per_call (fun () ->
            if Galley_plan.Provenance.enabled () then
              Galley_plan.Provenance.prune ~phase:"bench" ~query:"q"
                ~tier:"exact" ~reason:"bench" ())
      in
      let off_after = off +. (float_of_int hooks *. hook) in
      ( [ ("provenance-off", off); ("provenance-on", on);
          ("provenance-off-after", off_after) ],
        off_after /. off ))

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

let sections =
  [
    ("fig6", fig6); ("fig7", fig7); ("fig8", fig8); ("fig9", fig9);
    ("fig10", fig10); ("kernels_v2", kernels_v2); ("ablations", ablations);
    ("observability", observability);
  ]

(* A bad command line exits 2 before anything is measured. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "bench: %s\n%!" msg;
      exit 2)
    fmt

let () =
  (* The bench historically printed its progress diagnostics; keep that
     unless the user asked for a different level via GALLEY_LOG. *)
  if Sys.getenv_opt "GALLEY_LOG" = None then
    Galley_obs.Log.set_level Galley_obs.Log.Info;
  let args = Array.to_list Sys.argv |> List.tl in
  (* Value-taking flags (--flag V or --flag=V) are peeled off first. *)
  let set_float flag r v =
    match float_of_string_opt v with
    | Some f -> r := f
    | None -> usage_error "bad %s value %S" flag v
  in
  let take flag v =
    match flag with
    | "--trials" -> (
        match int_of_string_opt v with
        | Some n when n >= 1 -> trials_opt := Some n
        | _ -> usage_error "bad --trials value %S" v)
    | "--compare" -> compare_baseline := Some v
    | "--threshold" -> set_float flag cmp_threshold v
    | "--noise-k" -> set_float flag cmp_k v
    | "--rel-floor" -> set_float flag cmp_rel_floor v
    | "--abs-floor" -> set_float flag cmp_abs_floor v
    | _ -> assert false
  in
  let value_flags =
    [ "--trials"; "--compare"; "--threshold"; "--noise-k"; "--rel-floor";
      "--abs-floor" ]
  in
  let rec strip = function
    | [] -> []
    | "--compare-files" :: a :: b :: rest ->
        compare_files := Some (a, b);
        strip rest
    | "--compare-files" :: _ -> usage_error "--compare-files needs two files"
    | a :: v :: rest when List.mem a value_flags ->
        take a v;
        strip rest
    | [ a ] when List.mem a value_flags -> usage_error "%s needs a value" a
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
  let to_run =
    match args with
    | [] -> sections
    | names ->
        List.map
          (fun s ->
            match List.assoc_opt s sections with
            | Some f -> (s, f)
            | None when String.starts_with ~prefix:"-" s ->
                usage_error "unknown flag %s" s
            | None ->
                usage_error "unknown section %s (sections: %s)" s
                  (String.concat " " (List.map fst sections)))
          names
  in
  let baseline =
    Option.map (fun path -> (path, load_stats path)) !compare_baseline
  in
  List.iter
    (fun (s, run) ->
      (* Kernel-cache traffic per section: the hit/miss delta separates
         cold compiles from warm cache reuse (Fig. 9 discussion). *)
      let h0 = cache_counter "kernel_cache.hits"
      and m0 = cache_counter "kernel_cache.misses" in
      run ();
      let hits = cache_counter "kernel_cache.hits" - h0
      and misses = cache_counter "kernel_cache.misses" - m0 in
      if hits + misses > 0 then begin
        cache_rows := (s, hits, misses) :: !cache_rows;
        p "[%s] kernel cache: %d cold compiles, %d warm hits\n%!" s misses
          hits
      end)
    to_run;
  if !json_mode then emit_json ();
  match baseline with
  | None -> ()
  | Some (path, base) ->
      let regressions =
        run_comparison ~label:path base (stats_of_rows !json_rows)
      in
      if regressions > 0 then exit 1
