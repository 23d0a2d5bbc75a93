(* Fixpoint subsystem tests: iterate parsing and validation, the
   error taxonomy for divergence (iteration cap, wall-clock deadline),
   bit-for-bit equivalence of [iterate] against hand-unrolled
   straight-line references across backends and domain counts, and the
   repeated-application audit for non-(+,x) aggregates (Min/Max/Or/And)
   through the logical elimination rules. *)

module T = Galley_tensor.Tensor
module Prng = Galley_tensor.Prng
module Ir = Galley_plan.Ir
module Op = Galley_plan.Op
module Canonical = Galley_plan.Canonical
module D = Galley.Driver
module E = Galley.Errors
module Reference = Galley.Reference
module Exec = Galley_engine.Exec
module Fix = Galley_fixpoint.Fixpoint
module I = Galley_workloads.Iterative
module G = Galley_workloads.Graphs
module Bfs = Galley_workloads.Bfs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* Bit-for-bit equality of the dense images (and of fills/dims). *)
let bits_equal (a : T.t) (b : T.t) : bool =
  T.dims a = T.dims b
  && Int64.bits_of_float (T.fill a) = Int64.bits_of_float (T.fill b)
  &&
  let fa = T.to_flat_dense a and fb = T.to_flat_dense b in
  Array.for_all2
    (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
    fa fb

(* The backend x domains matrix of satellite 3. *)
let equivalence_configs : (string * D.config) list =
  [
    ("staged-1", D.default_config);
    ("staged-4", { D.default_config with domains = 4 });
    ("interp-1", { D.default_config with kernel_backend = Exec.Interp });
    ( "interp-4",
      { D.default_config with kernel_backend = Exec.Interp; domains = 4 } );
  ]

(* ------------------------------------------------------------------ *)
(* Parsing                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_iterate () =
  (match Fix.parse_checked (I.pagerank_source ()) with
  | Error e -> Alcotest.failf "pagerank_source: %s" (E.to_string e)
  | Ok p -> (
      check_bool "one output" true (p.Ir.xoutputs = [ "R" ]);
      match p.Ir.stmts with
      | [ Ir.Fix_stmt f ] ->
          check_bool "fix name" true (f.Ir.fix_name = "R");
          check_bool "has cap" true (f.Ir.fix_max_iters = Some 100);
          check_bool "has cond" true (f.Ir.fix_cond <> None)
      | _ -> Alcotest.fail "expected a single Fix_stmt"));
  match Fix.parse_checked (I.bellman_source ()) with
  | Error e -> Alcotest.failf "bellman_source: %s" (E.to_string e)
  | Ok _ -> ()

let expect_parse_error label src =
  match Fix.parse_checked src with
  | Error (E.Parse_error _) -> ()
  | Error e ->
      Alcotest.failf "%s: wrong taxonomy class: %s" label (E.to_string e)
  | Ok _ -> Alcotest.failf "%s: parsed but should not" label

let test_parse_rejects () =
  expect_parse_error "no count or cond" "X = iterate { X := X + 1 }";
  expect_parse_error "zero count" "X = iterate 0 { X := X + 1 }";
  expect_parse_error "negative cap" "X = iterate max 0 until X < 1.0 { X := X + 1 }";
  expect_parse_error "no carried update" "X = iterate 3 { Y = X + 1 }";
  expect_parse_error "result not carried" "X = iterate 3 { Y := X + 1 }";
  expect_parse_error "assign-update at top level" "X := X + 1";
  (* The straight-line driver refuses iterate programs with a pointer
     to the fixpoint driver, instead of a generic syntax error. *)
  match D.parse_checked "X = iterate 3 { X := X + 1 }" with
  | Error (E.Parse_error { message; _ }) ->
      check_bool "mentions fixpoint driver" true
        (let lower = String.lowercase_ascii message in
         let has needle =
           let nl = String.length needle and ll = String.length lower in
           let rec go i = i + nl <= ll && (String.sub lower i nl = needle || go (i + 1)) in
           go 0
         in
         has "fixpoint")
  | Error e -> Alcotest.failf "wrong class: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "straight-line driver accepted iterate"

(* Straight-line programs still parse through the fixpoint entry point
   and run identically (the daemon routes everything through it). *)
let test_straightline_passthrough () =
  let prng = Prng.create 5 in
  let a = T.random ~prng ~dims:[| 8; 6 |] ~formats:[| T.Dense; T.Sparse_list |] ~density:0.5 () in
  let src = "t[i] = sumof[j](A[i,j])" in
  match Fix.run_source_checked ~inputs:[ ("A", a) ] src with
  | Error e -> Alcotest.failf "passthrough: %s" (E.to_string e)
  | Ok (res, reports) ->
      check_int "no fixpoint reports" 0 (List.length reports);
      let prog = Galley_lang.Parser.parse_program src in
      let expected = List.assoc "t" (Reference.eval_program [ ("A", a) ] prog) in
      check_bool "values" true (T.equal_approx ~eps:1e-9 (D.output_of res "t") expected)

(* ------------------------------------------------------------------ *)
(* Runtime validation (taxonomy: Plan_invalid)                          *)
(* ------------------------------------------------------------------ *)

let expect_plan_invalid label ~inputs src =
  match Fix.run_source_checked ~inputs src with
  | Error (E.Plan_invalid _) -> ()
  | Error e ->
      Alcotest.failf "%s: wrong taxonomy class: %s" label (E.to_string e)
  | Ok _ -> Alcotest.failf "%s: ran but should not" label

let test_runtime_validation () =
  let x = T.scalar 0.0 in
  let v = T.of_fun ~dims:[| 4 |] ~formats:[| T.Dense |] (fun _ -> 1.0) in
  expect_plan_invalid "carried unbound" ~inputs:[]
    "X = iterate 2 { X := X + 1 }";
  expect_plan_invalid "duplicate update" ~inputs:[ ("X", x) ]
    "X = iterate 2 { X := X + 1\nX := X * 2 }";
  expect_plan_invalid "= and := clash" ~inputs:[ ("X", x); ("Z", x) ]
    "X = iterate 2 { X := X + 1\nZ = X\nZ := Z + 1 }";
  expect_plan_invalid "non-scalar until" ~inputs:[ ("X", v) ]
    "X = iterate max 5 until X[i] - X'[i] { X[i] := X[i] * 0.5 }"

(* An unbound tensor is found by the logical optimizer: the fixpoint
   entry points classify it like [Driver.run_source_checked], in the
   logical phase and naming the query that reads it. *)
let test_unbound_tensor_phase () =
  let a = T.of_fun ~dims:[| 4; 4 |] ~formats:[| T.Dense; T.Dense |] (fun _ -> 1.0) in
  let src = "Y[i] = sum[j](A[i,j] * B[j])" in
  match Fix.run_source_checked ~inputs:[ ("A", a) ] src with
  | Error (E.Plan_invalid { context; _ }) ->
      Alcotest.(check string)
        "phase" "logical" (E.phase_to_string context.E.phase);
      Alcotest.(check (option string)) "query" (Some "Y") context.E.query
  | Error e -> Alcotest.failf "wrong taxonomy class: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "ran with B unbound"

(* ------------------------------------------------------------------ *)
(* Divergence taxonomy                                                  *)
(* ------------------------------------------------------------------ *)

let test_max_iters_hit () =
  match
    Fix.run_source_checked ~inputs:[ ("X", T.scalar 0.0) ]
      "X = iterate max 3 until X < 0.0 { X := X + 1 }"
  with
  | Error (E.Fixpoint_diverged { iterations; _ }) ->
      check_int "gave up after the cap" 3 iterations
  | Error e -> Alcotest.failf "wrong taxonomy class: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "should have diverged"

let test_deadline_hit () =
  (* A convergence condition that can never hold, under a wall-clock
     budget far too small for the iteration cap: the loop must stop
     with the divergence error, not run the full million iterations. *)
  let config = { D.default_config with timeout = Some 1e-4 } in
  match
    Fix.run_source_checked ~config ~inputs:[ ("X", T.scalar 0.0) ]
      "X = iterate max 1000000 until X < 0.0 { X := X + 1 }"
  with
  | Error (E.Fixpoint_diverged { iterations; _ }) ->
      check_bool "stopped well before the cap" true (iterations < 1000000)
  | Error e -> Alcotest.failf "wrong taxonomy class: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "should have hit the deadline"

let test_fixed_count_completes () =
  match
    Fix.run_source_checked ~inputs:[ ("X", T.scalar 0.0) ]
      "X = iterate 3 { X := X + 1 }"
  with
  | Error e -> Alcotest.failf "fixed count: %s" (E.to_string e)
  | Ok (res, [ r ]) ->
      check_int "iterations" 3 r.Fix.fr_iterations;
      check_bool "fixed count converges by definition" true r.Fix.fr_converged;
      check_float "value" 3.0 (T.scalar_value (D.output_of res "X"))
  | Ok _ -> Alcotest.fail "expected exactly one report"

(* ------------------------------------------------------------------ *)
(* Bit-for-bit equivalence vs hand-unrolled references (satellite 3)    *)
(* ------------------------------------------------------------------ *)

let check_unrolled_equal label ~config ~inputs ~carried ~body_src (res, rep) =
  let unrolled =
    I.unrolled_run ~config ~inputs ~carried ~body_src
      ~iters:rep.Fix.fr_iterations ()
  in
  List.iter
    (fun x ->
      check_bool
        (Printf.sprintf "%s: %s bit-identical after %d iters" label x
           rep.Fix.fr_iterations)
        true
        (bits_equal (D.output_of res x) (List.assoc x unrolled)))
    carried

let fixpoint_vs_unrolled ~label ~src ~inputs ~carried ~body_src =
  List.iter
    (fun (cname, config) ->
      match Fix.run_source_checked ~config ~inputs src with
      | Error e -> Alcotest.failf "%s/%s: %s" label cname (E.to_string e)
      | Ok (_, []) -> Alcotest.failf "%s/%s: no report" label cname
      | Ok (res, rep :: _) ->
          check_unrolled_equal
            (label ^ "/" ^ cname)
            ~config ~inputs ~carried ~body_src (res, rep))
    equivalence_configs

let prop_pagerank_matches_unrolled =
  QCheck.Test.make ~name:"fixpoint pagerank == hand-unrolled, bit for bit"
    ~count:6
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let g = G.erdos_renyi ~seed ~n:60 ~m:240 () in
      let inputs = I.pagerank_inputs g in
      fixpoint_vs_unrolled ~label:"pagerank"
        ~src:(I.pagerank_source ~eps:1e-6 ~max_iters:60 ())
        ~inputs ~carried:[ "R" ] ~body_src:I.pagerank_body;
      true)

let prop_bellman_matches_unrolled =
  QCheck.Test.make ~name:"fixpoint bellman-ford == hand-unrolled, bit for bit"
    ~count:6
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let g = G.symmetrize (G.power_law ~seed ~n:50 ~m:160 ()) in
      let inputs = I.bellman_inputs ~seed g ~source:0 in
      fixpoint_vs_unrolled ~label:"bellman"
        ~src:(I.bellman_source ~max_iters:60 ())
        ~inputs ~carried:[ "D" ] ~body_src:I.bellman_body;
      true)

(* Fixed-count, multi-statement body with an iteration-local
   intermediate (Z): the GCN forward pass. *)
let test_gcn_matches_unrolled () =
  let g = G.erdos_renyi ~seed:19 ~n:80 ~m:480 () in
  let inputs = I.gcn_inputs ~seed:23 g ~features:8 in
  fixpoint_vs_unrolled ~label:"gcn"
    ~src:(I.gcn_source ~layers:3 ())
    ~inputs ~carried:[ "H" ] ~body_src:I.gcn_body

(* Reachability over the boolean semiring: converged visited-set size
   must equal the brute-force BFS count. *)
let test_reach_matches_bfs () =
  let g = G.symmetrize (G.power_law ~seed:31 ~n:400 ~m:1200 ()) in
  let inputs = I.reach_inputs g ~source:0 in
  match Fix.run_source_checked ~inputs (I.reach_source ()) with
  | Error e -> Alcotest.failf "reach: %s" (E.to_string e)
  | Ok (res, [ r ]) ->
      check_bool "converged" true r.Fix.fr_converged;
      let visited = I.checksum (D.output_of res "V") in
      let expected =
        float_of_int
          (Bfs.reference_visited ~adjacency:(List.assoc "A" inputs) ~source:0)
      in
      check_float "visited count == BFS" expected visited
  | Ok _ -> Alcotest.fail "expected exactly one report"

(* ------------------------------------------------------------------ *)
(* Repeated-application audit (satellite 1)                             *)
(* ------------------------------------------------------------------ *)

let lit n = Ir.Literal n
let x = Ir.Input ("x", [])

let test_repeat_expr () =
  let eq = Alcotest.(check bool) in
  eq "Add -> x * n" true
    (Ir.repeat_expr Op.Add x 3 = Some (Ir.Map (Op.Mul, [ x; lit 3.0 ])));
  eq "Mul -> x ^ n" true
    (Ir.repeat_expr Op.Mul x 3 = Some (Ir.Map (Op.Pow, [ x; lit 3.0 ])));
  eq "Max idempotent" true (Ir.repeat_expr Op.Max x 5 = Some x);
  eq "Min idempotent" true (Ir.repeat_expr Op.Min x 5 = Some x);
  (* Or/And are idempotent only up to truthiness: repeating must
     normalize to 0/1, not return the raw child. *)
  eq "Or -> x != 0" true
    (Ir.repeat_expr Op.Or x 4 = Some (Ir.Map (Op.Neq, [ x; lit 0.0 ])));
  eq "And -> x != 0" true
    (Ir.repeat_expr Op.And x 4 = Some (Ir.Map (Op.Neq, [ x; lit 0.0 ])));
  eq "no form for Sub" true (Ir.repeat_expr Op.Sub x 2 = None);
  eq "n = 0 has no form" true (Ir.repeat_expr Op.Add x 0 = None)

(* [Canonical.simplify]'s absent-index wrapping must use the
   repeated-application form, not drop the aggregate (the pre-fix Or
   behavior returned the unnormalized child). *)
let test_simplify_absent_index () =
  let dims = Ir.Idx_map.singleton "i" 4 in
  let agg op = Ir.Agg (op, [ "i" ], x) in
  check_bool "sum over absent i -> x * 4" true
    (Canonical.simplify dims (agg Op.Add) = Ir.Map (Op.Mul, [ x; lit 4.0 ]));
  check_bool "max over absent i -> x" true
    (Canonical.simplify dims (agg Op.Max) = x);
  check_bool "or over absent i -> x != 0" true
    (Canonical.simplify dims (agg Op.Or) = Ir.Map (Op.Neq, [ x; lit 0.0 ]))

(* End-to-end: Agg(op, [i,j], Map(op, [A[i,j]; B[j]])) puts the B term
   through elimination's repeated-application path (i is absent from it
   and its dimension is known from A).  Non-boolean values in B make
   the old silently-wrong rewrites for Or/And observable. *)
let elim_configs : (string * D.config) list =
  [
    ("default", D.default_config);
    ("greedy", D.greedy_config);
    ( "no-distribute",
      {
        D.default_config with
        logical =
          {
            Galley_logical.Optimizer.default_config with
            try_distribute = false;
          };
      } );
  ]

let check_elim_regression op_name op =
  let prng = Prng.create 77 in
  let a =
    T.random ~prng ~dims:[| 6; 5 |] ~formats:[| T.Dense; T.Sparse_list |]
      ~density:0.7 ~value_lo:0.5 ~value_hi:2.5 ()
  in
  let b =
    T.random ~prng ~dims:[| 5 |] ~formats:[| T.Dense |] ~density:0.8
      ~value_lo:0.5 ~value_hi:2.5 ()
  in
  let inputs = [ ("A", a); ("B", b) ] in
  let expr =
    Ir.Agg
      ( op,
        [ "i"; "j" ],
        Ir.Map (op, [ Ir.Input ("A", [ "i"; "j" ]); Ir.Input ("B", [ "j" ]) ])
      )
  in
  let prog =
    { Ir.queries = [ { Ir.name = "t"; expr; out_order = None } ]; outputs = [ "t" ] }
  in
  let expected = List.assoc "t" (Reference.eval_program inputs prog) in
  List.iter
    (fun (cname, config) ->
      let res = D.run ~config ~inputs prog in
      let got = D.output_of res "t" in
      check_bool
        (Printf.sprintf "agg %s of map %s matches reference under %s" op_name
           op_name cname)
        true
        (T.equal_approx ~eps:1e-6 got expected))
    elim_configs

let test_elimination_semirings () =
  List.iter
    (fun (name, op) -> check_elim_regression name op)
    [
      ("Add", Op.Add);
      ("Max", Op.Max);
      ("Min", Op.Min);
      ("Or", Op.Or);
      ("And", Op.And);
    ]

(* ------------------------------------------------------------------ *)
(* Surface-syntax regressions: abs, binary min/max (satellite 6)        *)
(* ------------------------------------------------------------------ *)

let check_source_vs_reference label ~inputs src out =
  let prog = Galley_lang.Parser.parse_program src in
  let expected = List.assoc out (Reference.eval_program inputs prog) in
  let res = D.run ~inputs prog in
  check_bool label true
    (T.equal_approx ~eps:1e-9 (D.output_of res out) expected)

let test_scalar_funcs () =
  let prng = Prng.create 99 in
  let a =
    T.random ~prng ~dims:[| 12 |] ~formats:[| T.Dense |] ~density:0.7
      ~value_lo:(-2.0) ~value_hi:2.0 ()
  in
  let b =
    T.random ~prng ~dims:[| 12 |] ~formats:[| T.Sparse_list |] ~density:0.6
      ~value_lo:(-1.5) ~value_hi:1.5 ()
  in
  let inputs = [ ("A", a); ("B", b) ] in
  check_source_vs_reference "abs elementwise" ~inputs "t[i] = abs(A[i])" "t";
  check_source_vs_reference "abs residual" ~inputs
    "t = sumof[i](abs(A[i] - B[i]))" "t";
  check_source_vs_reference "binary min" ~inputs "t[i] = min(A[i], B[i])" "t";
  check_source_vs_reference "binary max under maxof" ~inputs
    "t = maxof[i](max(A[i], B[i]))" "t"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fixpoint"
    [
      ( "parse",
        [
          Alcotest.test_case "iterate sources parse" `Quick test_parse_iterate;
          Alcotest.test_case "malformed iterate rejected" `Quick
            test_parse_rejects;
          Alcotest.test_case "straight-line passthrough" `Quick
            test_straightline_passthrough;
        ] );
      ( "validation",
        [
          Alcotest.test_case "runtime validation" `Quick
            test_runtime_validation;
          Alcotest.test_case "unbound tensor is a logical error" `Quick
            test_unbound_tensor_phase;
        ] );
      ( "divergence",
        [
          Alcotest.test_case "iteration cap" `Quick test_max_iters_hit;
          Alcotest.test_case "wall-clock deadline" `Quick test_deadline_hit;
          Alcotest.test_case "fixed count completes" `Quick
            test_fixed_count_completes;
        ] );
      ( "equivalence",
        Alcotest.test_case "gcn fixed-count" `Quick test_gcn_matches_unrolled
        :: Alcotest.test_case "reach == bfs" `Quick test_reach_matches_bfs
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_pagerank_matches_unrolled; prop_bellman_matches_unrolled ]
      );
      ( "semirings",
        [
          Alcotest.test_case "repeat_expr forms" `Quick test_repeat_expr;
          Alcotest.test_case "absent-index simplify" `Quick
            test_simplify_absent_index;
          Alcotest.test_case "elimination across semirings" `Quick
            test_elimination_semirings;
        ] );
      ( "scalar-funcs",
        [ Alcotest.test_case "abs and binary min/max" `Quick test_scalar_funcs ]
      );
    ]
