(* The repository benchmark.

     bench.exe --workload ml_joins|fixpoint|serve_mixed --seed N
               --seconds S --trace 0|1 [--galley PATH] [--out DIR]

   With --trace 0 it measures the end-to-end metrics with tracing off;
   with --trace 1 it runs the traced decomposition and reports the
   per-layer metrics (spans are written to DIR when the run ends).  The
   last line of standard output is the JSON result; lines before it
   (prefixed "# ") record sizes, sample counts and the ledger. *)

open Perfbench

let setup_reps = 3

(* Set up [setup_reps] times and keep the last; set-up time is the median
   of the host-normalized times.  A full compaction afterwards keeps
   set-up garbage out of the timed phase. *)
let timed_setup (f : unit -> 'a) (discard : 'a -> unit) : 'a * float =
  let rec go k acc =
    let t0 = Unix.gettimeofday () in
    let v, factor = Host.around f in
    let dt = Unix.gettimeofday () -. t0 in
    if k = setup_reps then (v, (dt, factor) :: acc)
    else begin
      discard v;
      go (k + 1) ((dt, factor) :: acc)
    end
  in
  let v, times = go 1 [] in
  Gc.compact ();
  let raw = List.map fst times in
  let normalized = List.map (fun (dt, f) -> dt *. f) times in
  Report.info "setup: n=%d median=%.6f s (raw %.6f s)" setup_reps
    (Stats.median normalized) (Stats.median raw);
  (v, Stats.median normalized)

let finish ~trace ~correct ~attempted ~failed metrics =
  Report.info "error_rate: %d / %d = %g" failed attempted
    (float_of_int failed /. float_of_int (max 1 attempted));
  print_endline
    (Report.result_line
       ~spec:(if trace then Report.per_layer else Report.end_to_end)
       ~correct ~attempted ~failed metrics)

let batch ~trace ~seconds ~out ~name ~(setup : unit -> 'c * Batch.op list)
    ~(describe : 'c -> unit) =
  let (cases, ops), setup_s = timed_setup setup ignore in
  describe cases;
  List.iter (fun (op : Batch.op) -> op.Batch.prepare ()) ops;
  Gc.compact ();
  if not trace then begin
    let t = Batch.run_timed ~seconds ops in
    finish ~trace ~correct:(t.Batch.failed = 0) ~attempted:t.Batch.attempted
      ~failed:t.Batch.failed
      (("setup_s", setup_s) :: Batch.end_to_end t)
  end
  else begin
    let spans = Spans.create () in
    let per_op = Batch.run_traced ~seconds spans ops in
    Spans.write_jsonl spans (Filename.concat out (name ^ ".spans.jsonl"));
    let trs = List.concat_map snd per_op in
    let failed =
      List.length (List.filter (fun tr -> tr.Batch.check <> None) trs)
    in
    List.iter
      (fun tr -> Option.iter (Printf.eprintf "wrong output: %s\n%!") tr.Batch.check)
      trs;
    finish ~trace ~correct:(failed = 0) ~attempted:(List.length trs) ~failed
      (Batch.per_layer per_op)
  end

(* Every batch op once on a small instance: code paths and lazy state
   warmed, untimed. *)
let warm_up (ops : Batch.op list) =
  List.iter
    (fun (op : Batch.op) ->
      match op.Batch.run () with
      | Ok _ -> ()
      | Error msg -> failwith ("warm-up failed: " ^ msg))
    ops

let ml_joins ~config ~seed =
  let cases = Ml_joins.cases ~seed () in
  warm_up
    (Ml_joins.ops ~config
       (Ml_joins.cases
          ~scale:
            {
              Ml_joins.star = Ml_joins.star_scale 200;
              cov = Ml_joins.star_scale 100;
              self_join = Ml_joins.self_join_scale 100;
            }
          ~seed ()));
  (cases, Ml_joins.ops ~config cases)

let fixpoint ~config ~seed =
  let cases = Fixpoint_wl.cases ~seed () in
  warm_up
    (Fixpoint_wl.ops ~config
       (Fixpoint_wl.cases
          ~scale:
            {
              Fixpoint_wl.pagerank_n = 100;
              reach_n = 100;
              gcn_n = 100;
              gcn_features = 4;
              bellman_n = 60;
            }
          ~seed ()));
  (cases, Fixpoint_wl.ops ~config cases)

let serve_mixed ~config ~trace ~seconds ~out ~seed ~galley =
  let module S = Serve_mixed in
  let socket = Filename.concat out (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let (inst, d), setup_s =
    timed_setup
      (fun () ->
        let inst = S.make ~seed () in
        (inst, S.setup ~galley ~socket inst))
      (fun (_, d) -> S.stop d)
  in
  Report.info "resident: A B C %dx%d density %g; x %d density %g"
    inst.S.scale.S.n inst.S.scale.S.n inst.S.scale.S.density inst.S.scale.S.n
    inst.S.scale.S.x_density;
  Report.info "round: %d requests; shares %s" (List.length inst.S.pat)
    (String.concat " "
       (List.map (fun (c, f) -> Printf.sprintf "%s=%.3f" c f) (S.shares inst.S.pat)));
  Report.info "client: one closed-loop connection";
  if not trace then begin
    let st = S.run_stream ~seconds d inst in
    S.stop d;
    let attempted, failed = S.check_all inst st.S.samples in
    finish ~trace ~correct:(failed = 0) ~attempted ~failed
      (("setup_s", setup_s) :: S.end_to_end st)
  end
  else begin
    let st = S.run_stream ~seconds:(seconds /. 3.0) d inst in
    S.stop d;
    let attempted, failed = S.check_all inst st.S.samples in
    let spans = Spans.create () in
    let per_class = S.replay ~config spans inst st.S.samples in
    Spans.write_jsonl spans (Filename.concat out "serve_mixed.spans.jsonl");
    finish ~trace ~correct:(failed = 0) ~attempted ~failed
      (Batch.per_layer per_class)
  end

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 in
  let trace = ref (-1) and galley = ref "" and out = ref ".perfbench-out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME ml_joins | fixpoint | serve_mixed");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--galley", Arg.Set_string galley, "PATH galley executable (serve_mixed)");
      ("--out", Arg.Set_string out, "DIR where spans and the socket go");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if
    (not (List.mem !workload Report.workloads))
    || !seed < 0 || !seconds <= 0.0
    || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline "bench: need --workload, --seed >= 0, --seconds > 0, --trace 0|1";
    exit 2
  end;
  (try Unix.mkdir !out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let config = Galley.Driver.default_config in
  let trace = !trace = 1 and seconds = !seconds and seed = !seed and out = !out in
  Report.info "workload=%s seed=%d seconds=%g trace=%b domains=%d" !workload
    seed seconds trace config.Galley.Driver.domains;
  match !workload with
  | "ml_joins" ->
      batch ~trace ~seconds ~out ~name:"ml_joins"
        ~setup:(fun () -> ml_joins ~config ~seed)
        ~describe:Ml_joins.describe
  | "fixpoint" ->
      batch ~trace ~seconds ~out ~name:"fixpoint"
        ~setup:(fun () -> fixpoint ~config ~seed)
        ~describe:Fixpoint_wl.describe
  | _ ->
      if !galley = "" then begin
        prerr_endline "bench: serve_mixed needs --galley PATH";
        exit 2
      end;
      serve_mixed ~config ~trace ~seconds ~out ~seed ~galley:!galley
