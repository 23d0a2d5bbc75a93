(* Tests for the benchmark's own code: order statistics, the tail rule,
   the layer ledger, span self times, seed determinism of every workload's
   inputs, and the metric and workload names in BENCHMARK.json. *)

open Perfbench
module T = Galley_tensor.Tensor
module Json = Galley_obs.Json

let feq ?(eps = 1e-12) a b = Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.abs b)
let check_float ?eps msg want got =
  Alcotest.(check bool) (Printf.sprintf "%s: %g vs %g" msg got want) true (feq ?eps got want)
let range n = List.init n (fun i -> float_of_int (i + 1))

(* Linear interpolation, as Python's statistics.quantiles(method="inclusive"). *)
let test_quantile () =
  check_float "q25 of 1..10" 3.25 (Stats.quantile (range 10) 0.25);
  check_float "q75 of 1..10" 7.75 (Stats.quantile (range 10) 0.75);
  check_float "q90 of 1..10" 9.1 (Stats.quantile (range 10) 0.9);
  check_float "median, odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  check_float "median, even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  check_float "single sample" 7.0 (Stats.quantile [ 7.0 ] 0.9);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.quantile: empty sample")
    (fun () -> ignore (Stats.quantile [] 0.5))

let test_geomean () =
  check_float "geomean" 4.0 (Stats.geomean [ 1.0; 4.0; 16.0 ]);
  check_float "one value" 0.25 (Stats.geomean [ 0.25 ]);
  Alcotest.check_raises "zero" (Invalid_argument "Stats.geomean: non-positive value")
    (fun () -> ignore (Stats.geomean [ 1.0; 0.0 ]));
  Alcotest.check_raises "empty" (Invalid_argument "Stats.geomean: empty sample")
    (fun () -> ignore (Stats.geomean []))

(* p90 is reported only with at least ten samples above it. *)
let test_tail_rule () =
  (match Stats.tail_percentile (range 100) 0.9 with
  | Ok v ->
      check_float "p90 of 1..100" 90.1 v;
      Alcotest.(check int) "samples above" 10 (Stats.count_above (range 100) v)
  | Error e -> Alcotest.fail e);
  (match Stats.tail_percentile (range 99) 0.9 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("99 samples: " ^ e));
  (match Stats.tail_percentile (range 50) 0.9 with
  | Ok v -> Alcotest.failf "50 samples accepted (p90 %g)" v
  | Error _ -> ());
  match Stats.tail_percentile ~min_above:5 (range 50) 0.9 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("min_above 5: " ^ e)

let layers_sum (l : Stats.ledger) = Stats.sum (List.map snd l.Stats.layers)

(* Layer self times plus the unattributed residual equal the op time,
   per round and for the per-op medians. *)
let test_ledger_identity () =
  let l = Stats.ledger ~op_s:1.0 [ ("a", 0.25); ("b", 0.5) ] in
  check_float "residual" 0.25 l.Stats.unattributed_s;
  let neg = Stats.ledger ~op_s:0.5 [ ("a", 0.75) ] in
  check_float "negative residual" (-0.25) neg.Stats.unattributed_s;
  let rounds =
    List.map
      (fun (op, a, b) -> Stats.ledger ~op_s:op [ ("a", a); ("b", b) ])
      [ (1.0, 0.2, 0.3); (1.4, 0.1, 0.9); (0.9, 0.3, 0.2); (1.1, 0.25, 0.5) ]
  in
  let m = Stats.median_ledger rounds in
  check_float "median op" 1.05 m.Stats.op_s;
  check_float "median a" 0.225 (List.assoc "a" m.Stats.layers);
  check_float "identity" m.Stats.op_s (layers_sum m +. m.Stats.unattributed_s)

(* The workload-level ledger: per-layer times plus driver.unattributed_s
   equal the sum over ops of each op's median time. *)
let test_per_layer_identity () =
  let tr op_s layers =
    { Batch.op_s; traced_s = op_s *. 1.1; layers; extra = []; counts = []; check = None }
  in
  let per_op =
    [
      ( "x",
        [
          tr 1.0 [ ("stats.build_s", 0.4); ("engine.execute_s", 0.3) ];
          tr 1.2 [ ("stats.build_s", 0.5); ("engine.execute_s", 0.2) ];
          tr 0.8 [ ("stats.build_s", 0.3); ("engine.execute_s", 0.4) ];
        ] );
      ("y", [ tr 0.2 [ ("logical.opt_s", 0.05); ("serve.overhead_s", 0.1) ] ]);
    ]
  in
  let m = Batch.per_layer per_op in
  let layers = Stats.sum (List.map (fun n -> List.assoc n m) Batch.ledger_layers) in
  check_float "ledger" 1.2 (layers +. List.assoc "driver.unattributed_s" m);
  check_float "overhead ratio" 1.1 (List.assoc "trace.overhead_ratio" m);
  Alcotest.(check (list string))
    "every per-layer metric"
    (List.sort compare (List.map fst Report.per_layer))
    (List.sort compare (List.map fst m))

(* Self times partition the root span. *)
let test_self_times () =
  let r = Spans.create () in
  Spans.span r ~op:"o" "op" (fun () ->
      Spans.span r ~op:"o" "a" (fun () ->
          Spans.span r ~op:"o" "b" (fun () -> Unix.sleepf 0.002));
      Spans.span r ~op:"o" "b" (fun () -> Unix.sleepf 0.001));
  Spans.span r ~op:"other" "op" (fun () -> ());
  let s = Spans.of_op r "o" in
  Alcotest.(check int) "spans of op" 4 (List.length s);
  let total = Stats.sum (List.map snd (Spans.self_times s)) in
  check_float ~eps:1e-9 "partition" (Spans.root_time s "op") total;
  Alcotest.(check bool) "b nested and sequential" true (Spans.self_time s "b" >= 0.003)

let tensors_equal (a : T.t) (b : T.t) =
  T.dims a = T.dims b && T.fill a = T.fill b && T.to_coo a = T.to_coo b

let inputs_equal a b =
  List.length a = List.length b
  && List.for_all2 (fun (n, x) (m, y) -> n = m && tensors_equal x y) a b

let ml_scale =
  { Ml_joins.star = Ml_joins.star_scale 60; cov = Ml_joins.star_scale 40;
    self_join = Ml_joins.self_join_scale 40 }

let fix_scale =
  { Fixpoint_wl.pagerank_n = 40; reach_n = 40; gcn_n = 40; gcn_features = 4;
    bellman_n = 40 }

let serve_scale = { Serve_mixed.n = 50; density = 0.05; x_density = 0.5 }

(* Same seed, same inputs and requests; another seed, different ones. *)
let test_seed_determinism () =
  let ml seed = Ml_joins.cases ~scale:ml_scale ~seed () in
  let ml_inputs seed = List.map (fun c -> (c.Ml_joins.src, c.Ml_joins.inputs)) (ml seed) in
  let same_ml a b = List.for_all2 (fun (s, x) (t, y) -> s = t && inputs_equal x y) a b in
  Alcotest.(check bool) "ml_joins same seed" true (same_ml (ml_inputs 3) (ml_inputs 3));
  Alcotest.(check bool) "ml_joins other seed" false (same_ml (ml_inputs 3) (ml_inputs 4));
  let fx seed =
    List.map (fun c -> c.Fixpoint_wl.inputs) (Fixpoint_wl.cases ~scale:fix_scale ~seed ())
  in
  Alcotest.(check bool) "fixpoint same seed" true (List.for_all2 inputs_equal (fx 3) (fx 3));
  Alcotest.(check bool) "fixpoint other seed" false (List.for_all2 inputs_equal (fx 3) (fx 4));
  let stream seed =
    let i = Serve_mixed.make ~scale:serve_scale ~seed () in
    let reqs = Serve_mixed.next_round i @ Serve_mixed.next_round i in
    (List.map (fun r -> r.Serve_mixed.line) reqs, Serve_mixed.shares i.Serve_mixed.pat)
  in
  let lines3, shares3 = stream 3 and lines4, shares4 = stream 4 in
  Alcotest.(check (list string)) "serve_mixed same seed" lines3 (fst (stream 3));
  Alcotest.(check bool) "serve_mixed other seed" false (lines3 = lines4);
  Alcotest.(check (list (pair string (float 1e-12)))) "class shares fixed" shares3 shares4;
  let spec seed = Serve_mixed.matrix_spec serve_scale ~seed 0 in
  Alcotest.(check bool) "resident specs differ" false (spec 3 = spec 4)

(* Every dependent query in the stream follows a write of x since that
   template last ran, so it cannot hit CSE. *)
let test_dependent_misses_cse () =
  let i = Serve_mixed.make ~scale:serve_scale ~seed:7 () in
  let reqs = Serve_mixed.next_round i @ Serve_mixed.next_round i in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (r : Serve_mixed.req) ->
      match (r.Serve_mixed.cls, r.Serve_mixed.src) with
      | Serve_mixed.Dependent, Some src ->
          let key = (src, r.Serve_mixed.x_version) in
          Alcotest.(check bool) ("fresh: " ^ src) false (Hashtbl.mem seen key);
          Hashtbl.replace seen key ()
      | _ -> ())
    reqs

let names_of json key =
  match Option.bind (Json.member key json) Json.to_list with
  | Some l ->
      List.map
        (fun m -> Option.get (Option.bind (Json.member "name" m) Json.to_string))
        l
  | None -> Alcotest.failf "BENCHMARK.json: no %s" key

(* The names the benchmark reports are the ones BENCHMARK.json declares,
   and all are well formed. *)
let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) ("valid " ^ n) true (Stats.valid_name n))
    (Report.workloads @ List.map fst Report.end_to_end @ List.map fst Report.per_layer);
  List.iter
    (fun n -> Alcotest.(check bool) ("invalid " ^ n) false (Stats.valid_name n))
    [ ""; "a b"; ".x"; "_x"; "x/y"; String.make 65 'a' ];
  match Json.parse_file "../../BENCHMARK.json" with
  | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e)
  | Ok json ->
      let check key want =
        Alcotest.(check (list string)) key want (names_of json key)
      in
      check "workloads" Report.workloads;
      check "end_to_end" (List.map fst Report.end_to_end);
      check "per_layer" (List.map fst Report.per_layer)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "identity" `Quick test_ledger_identity;
          Alcotest.test_case "per-layer identity" `Quick test_per_layer_identity;
          Alcotest.test_case "self times" `Quick test_self_times;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "seed determinism" `Quick test_seed_determinism;
          Alcotest.test_case "dependent misses CSE" `Quick test_dependent_misses_cse;
          Alcotest.test_case "names" `Quick test_names;
        ] );
    ]
