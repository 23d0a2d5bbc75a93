(* End-to-end differential tests: the full pipeline (logical optimizer →
   physical optimizer → engine) against the brute-force reference evaluator,
   across configurations (greedy/exact, uniform/chain, JIT on/off, CSE
   on/off), multi-query programs, sessions, the paper's running examples,
   and a large randomized program property. *)

module T = Galley_tensor.Tensor
module Prng = Galley_tensor.Prng
module Ir = Galley_plan.Ir
module Op = Galley_plan.Op
module D = Galley.Driver

let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))

let sparse ~prng ~dims ~density =
  T.random ~prng ~dims
    ~formats:
      (Array.init (Array.length dims) (fun k ->
           if k = 0 then T.Dense else T.Sparse_list))
    ~density ()

let all_configs : (string * D.config) list =
  [
    ("default", D.default_config);
    ("greedy", D.greedy_config);
    ( "uniform",
      { D.default_config with estimator = Galley_stats.Ctx.Uniform_kind } );
    ("no-jit", { D.default_config with jit = false });
    ("no-cse", { D.default_config with cse = false });
    ( "no-distribute",
      {
        D.default_config with
        logical =
          {
            Galley_logical.Optimizer.default_config with
            try_distribute = false;
          };
      } );
    ( "greedy-loops",
      {
        D.default_config with
        physical = { Galley_physical.Optimizer.default_config with exact = false };
      } );
  ]

let check_program ?(eps = 1e-6) name inputs (program : Ir.program) =
  let reference = Galley.Reference.eval_program inputs program in
  List.iter
    (fun (cfg_name, config) ->
      let res = D.run ~config ~inputs program in
      List.iter
        (fun out ->
          let got = D.output_of res out in
          let want = List.assoc out reference in
          if not (T.equal_approx ~eps got want) then
            Alcotest.failf "%s [%s] output %s:\ngot  %s\nwant %s" name cfg_name
              out (T.to_string got) (T.to_string want))
        program.Ir.outputs)
    all_configs

(* -------------------------------------------------------------- *)
(* The paper's running examples.                                    *)
(* -------------------------------------------------------------- *)

let test_logistic_regression () =
  let prng = Prng.create 1 in
  let x = sparse ~prng ~dims:[| 12; 8 |] ~density:0.3 in
  let theta = sparse ~prng ~dims:[| 8 |] ~density:0.9 in
  let q =
    Ir.query ~out_order:[ "i" ] "P"
      Ir.(
        map Op.Sigmoid
          [ sum [ "j" ] (mul [ input "X" [ "i"; "j" ]; input "theta" [ "j" ] ]) ])
  in
  check_program "logreg" [ ("X", x); ("theta", theta) ]
    { Ir.queries = [ q ]; outputs = [ "P" ] }

let test_triangle_counting () =
  let prng = Prng.create 2 in
  let e = sparse ~prng ~dims:[| 14; 14 |] ~density:0.2 in
  let q =
    Ir.query "t"
      Ir.(
        sum [ "i"; "j"; "k" ]
          (mul
             [
               input "E" [ "i"; "j" ]; input "E" [ "j"; "k" ];
               input "E" [ "i"; "k" ];
             ]))
  in
  check_program "triangles" [ ("E", e) ] { Ir.queries = [ q ]; outputs = [ "t" ] }

let test_example2_composite_features () =
  (* Y_i = σ(Σ_jpc S_ipc (P_pj + C_cj) θ_j) *)
  let prng = Prng.create 3 in
  let s =
    T.random ~prng ~dims:[| 10; 5; 5 |]
      ~formats:[| T.Dense; T.Sparse_list; T.Sparse_list |]
      ~density:0.06 ()
  in
  let p = sparse ~prng ~dims:[| 5; 4 |] ~density:0.5 in
  let c = sparse ~prng ~dims:[| 5; 4 |] ~density:0.5 in
  let theta = sparse ~prng ~dims:[| 4 |] ~density:1.0 in
  let q =
    Ir.query ~out_order:[ "i" ] "Y"
      Ir.(
        map Op.Sigmoid
          [
            sum [ "j"; "p"; "c" ]
              (mul
                 [
                   input "S" [ "i"; "p"; "c" ];
                   add [ input "P" [ "p"; "j" ]; input "C" [ "c"; "j" ] ];
                   input "theta" [ "j" ];
                 ]);
          ])
  in
  check_program "example2"
    [ ("S", s); ("P", p); ("C", c); ("theta", theta) ]
    { Ir.queries = [ q ]; outputs = [ "Y" ] }

let test_example3_residuals () =
  let prng = Prng.create 4 in
  let x = sparse ~prng ~dims:[| 8; 8 |] ~density:0.2 in
  let u = sparse ~prng ~dims:[| 8 |] ~density:1.0 in
  let v = sparse ~prng ~dims:[| 8 |] ~density:1.0 in
  let q =
    Ir.query "sse"
      Ir.(
        sum [ "i"; "j" ]
          (map Op.Square
             [
               map Op.Sub
                 [ input "X" [ "i"; "j" ]; mul [ input "U" [ "i" ]; input "V" [ "j" ] ] ];
             ]))
  in
  check_program "example3" [ ("X", x); ("U", u); ("V", v) ]
    { Ir.queries = [ q ]; outputs = [ "sse" ] }

let test_sddmm_variant () =
  (* Σ_j A_ik (B_ij + C_jk): the paper's non-FAQ example *)
  let prng = Prng.create 5 in
  let a = sparse ~prng ~dims:[| 7; 6 |] ~density:0.3 in
  let b = sparse ~prng ~dims:[| 7; 5 |] ~density:0.3 in
  let c = sparse ~prng ~dims:[| 5; 6 |] ~density:0.3 in
  let q =
    Ir.query ~out_order:[ "i"; "k" ] "R"
      Ir.(
        sum [ "j" ]
          (mul
             [
               input "A" [ "i"; "k" ];
               add [ input "B" [ "i"; "j" ]; input "C" [ "j"; "k" ] ];
             ]))
  in
  check_program "sddmm" [ ("A", a); ("B", b); ("C", c) ]
    { Ir.queries = [ q ]; outputs = [ "R" ] }

let test_laundering_pipeline () =
  (* Multi-output program with comparison and max-aggregate (paper 3.1). *)
  let prng = Prng.create 6 in
  let x = sparse ~prng ~dims:[| 10; 6 |] ~density:0.4 in
  let theta = sparse ~prng ~dims:[| 6 |] ~density:1.0 in
  let e = sparse ~prng ~dims:[| 10; 10 |] ~density:0.2 in
  let l =
    Ir.query ~out_order:[ "i" ] "L"
      (Ir.Map
         ( Op.Gt,
           [
             Ir.(
               map Op.Sigmoid
                 [ sum [ "j" ] (mul [ input "X" [ "i"; "j" ]; input "theta" [ "j" ] ]) ]);
             Ir.lit 0.5;
           ] ))
  in
  let v =
    Ir.query ~out_order:[ "i" ] "V"
      Ir.(
        mul
          [
            alias "L" [ "i" ];
            Ir.Agg
              ( Op.Max,
                [ "j"; "k" ],
                mul
                  [
                    input "E" [ "i"; "j" ]; input "E" [ "j"; "k" ];
                    input "E" [ "i"; "k" ];
                  ] );
          ])
  in
  check_program "laundering"
    [ ("X", x); ("theta", theta); ("E", e) ]
    { Ir.queries = [ l; v ]; outputs = [ "L"; "V" ] }

let test_nested_blocking_aggregate () =
  (* Σ_i √(Σ_j A_ij): aggregate placement restriction *)
  let prng = Prng.create 7 in
  let a = sparse ~prng ~dims:[| 9; 7 |] ~density:0.5 in
  let q =
    Ir.query "r"
      Ir.(sum [ "i" ] (map Op.Sqrt [ sum [ "j" ] (input "A" [ "i"; "j" ]) ]))
  in
  check_program "nested sqrt" [ ("A", a) ] { Ir.queries = [ q ]; outputs = [ "r" ] }

let test_max_of_sums () =
  (* max_i Σ_j A_ij: non-commuting aggregates *)
  let prng = Prng.create 8 in
  let a = sparse ~prng ~dims:[| 9; 7 |] ~density:0.5 in
  let q =
    Ir.query "r"
      (Ir.Agg (Op.Max, [ "i" ], Ir.(sum [ "j" ] (input "A" [ "i"; "j" ]))))
  in
  check_program "max of sums" [ ("A", a) ] { Ir.queries = [ q ]; outputs = [ "r" ] }

let test_internal_aggregate () =
  (* Σ_j A_j · √(Σ_k B_jk): internal aggregates (paper Sec. 1) *)
  let prng = Prng.create 9 in
  let a = sparse ~prng ~dims:[| 8 |] ~density:0.6 in
  let b = sparse ~prng ~dims:[| 8; 6 |] ~density:0.4 in
  let q =
    Ir.query "r"
      Ir.(
        sum [ "j" ]
          (mul
             [
               input "A" [ "j" ];
               map Op.Sqrt [ sum [ "k" ] (input "B" [ "j"; "k" ]) ];
             ]))
  in
  check_program "internal agg" [ ("A", a); ("B", b) ]
    { Ir.queries = [ q ]; outputs = [ "r" ] }

let test_disjunctive_aggregate () =
  (* Σ_i (A_i + B_i) over different sparsity *)
  let prng = Prng.create 10 in
  let a = sparse ~prng ~dims:[| 20 |] ~density:0.2 in
  let b = sparse ~prng ~dims:[| 20 |] ~density:0.2 in
  let q = Ir.query "r" Ir.(sum [ "i" ] (add [ input "A" [ "i" ]; input "B" [ "i" ] ])) in
  check_program "disjunctive" [ ("A", a); ("B", b) ]
    { Ir.queries = [ q ]; outputs = [ "r" ] }

let test_matrix_chain () =
  let prng = Prng.create 11 in
  let a = sparse ~prng ~dims:[| 6; 7 |] ~density:0.4 in
  let b = sparse ~prng ~dims:[| 7; 5 |] ~density:0.4 in
  let c = sparse ~prng ~dims:[| 5; 8 |] ~density:0.4 in
  let d = sparse ~prng ~dims:[| 8; 6 |] ~density:0.4 in
  let q =
    Ir.query ~out_order:[ "i"; "m" ] "E"
      Ir.(
        sum [ "j"; "k"; "l" ]
          (mul
             [
               input "A" [ "i"; "j" ]; input "B" [ "j"; "k" ];
               input "C" [ "k"; "l" ]; input "D" [ "l"; "m" ];
             ]))
  in
  check_program "matrix chain" [ ("A", a); ("B", b); ("C", c); ("D", d) ]
    { Ir.queries = [ q ]; outputs = [ "E" ] }

let test_or_aggregate_reachability () =
  (* one-step reachability: R_i = or_j E_ij F_j *)
  let prng = Prng.create 12 in
  let e = sparse ~prng ~dims:[| 12; 12 |] ~density:0.15 in
  let f = sparse ~prng ~dims:[| 12 |] ~density:0.3 in
  let q =
    Ir.query ~out_order:[ "i" ] "R"
      (Ir.Agg
         (Op.Or, [ "j" ], Ir.(mul [ input "E" [ "i"; "j" ]; input "F" [ "j" ] ])))
  in
  check_program "or-aggregate" [ ("E", e); ("F", f) ]
    { Ir.queries = [ q ]; outputs = [ "R" ] }

(* -------------------------------------------------------------- *)
(* Timeout and session behaviour.                                   *)
(* -------------------------------------------------------------- *)

let test_timeout_reported () =
  (* A dense triple product cannot be factored into vector sums, so any
     plan does Ω(n³) work. *)
  let n = 150 in
  let dense = T.of_fun ~dims:[| n; n |] ~formats:[| T.Dense; T.Dense |] (fun _ -> 1.0) in
  let q =
    Ir.query "slow"
      Ir.(
        sum [ "i"; "j"; "k" ]
          (mul
             [
               input "A" [ "i"; "j" ]; input "B" [ "j"; "k" ];
               input "C" [ "i"; "k" ];
             ]))
  in
  let config = { D.default_config with timeout = Some 0.02 } in
  let res =
    D.run ~config
      ~inputs:[ ("A", dense); ("B", dense); ("C", dense) ]
      { Ir.queries = [ q ]; outputs = [ "slow" ] }
  in
  check_bool "timed out" true res.D.timed_out

let test_session_rebinding () =
  let prng = Prng.create 13 in
  let a1 = sparse ~prng ~dims:[| 10 |] ~density:0.5 in
  let a2 = sparse ~prng ~dims:[| 10 |] ~density:0.5 in
  let plan =
    [
      Galley_plan.Logical_query.make ~output_idxs:[] ~name:"s" ~agg_op:Op.Add
        ~agg_idxs:[ "i" ] ~body:(Ir.input "a" [ "i" ]) ();
    ]
  in
  let session = D.Session.create () in
  let total t = Array.fold_left ( +. ) 0.0 (T.to_flat_dense t) in
  D.Session.bind session "a" a1;
  let r1 = D.Session.run_logical_plan session ~outputs:[ "s" ] plan in
  check_float "first" (total a1) (T.get (D.output_of r1 "s") [||]);
  D.Session.bind session "a" a2;
  let r2 = D.Session.run_logical_plan session ~outputs:[ "s" ] plan in
  check_float "rebound" (total a2) (T.get (D.output_of r2 "s") [||])

let test_timings_populated () =
  let prng = Prng.create 14 in
  let a = sparse ~prng ~dims:[| 10; 10 |] ~density:0.4 in
  let q = Ir.query ~out_order:[ "i" ] "r" Ir.(sum [ "j" ] (input "A" [ "i"; "j" ])) in
  let res = D.run_query ~inputs:[ ("A", a) ] q in
  let t = res.D.timings in
  check_bool "kernel ran" true (t.D.kernel_count >= 1);
  check_bool "compiled" true (t.D.compile_count >= 1);
  check_bool "total >= parts" true
    (t.D.total_seconds +. 1e-9
     >= t.D.compile_seconds +. t.D.execute_seconds)

(* -------------------------------------------------------------- *)
(* Value facts: a fill annihilates only what its facts allow.        *)
(* -------------------------------------------------------------- *)

(* Run [expr] as query "C" through the pipeline at both backends and
   compare every cell with the reference under [Float.equal] (NaN equals
   NaN); return the pipeline's result. *)
let check_special ?(out_order = [ "i"; "j" ]) name inputs expr =
  let program =
    { Ir.queries = [ Ir.query ~out_order "C" expr ]; outputs = [ "C" ] }
  in
  let want = List.assoc "C" (Galley.Reference.eval_program inputs program) in
  List.iter
    (fun backend ->
      let config = { D.default_config with kernel_backend = backend } in
      let got = D.output_of (D.run ~config ~inputs program) "C" in
      if
        not
          (Array.for_all2 Float.equal (T.to_flat_dense got)
             (T.to_flat_dense want))
      then
        Alcotest.failf "%s:\ngot  %s\nwant %s" name (T.to_string got)
          (T.to_string want))
    [ Galley_engine.Exec.Staged; Galley_engine.Exec.Interp ];
  want

let mat ?(fill = 0.0) entries =
  T.of_coo ~fill ~dims:[| 3; 3 |] ~formats:[| T.Dense; T.Sparse_list |]
    (Array.of_list entries)

(* A stores +inf where B stores nothing (fill 0): 0 does not annihilate
   * against inf, so C[0,0] is NaN, not 0. *)
let test_mul_zero_fill_inf () =
  let a = mat [ ([| 0; 0 |], infinity); ([| 1; 1 |], 2.0) ] in
  let b = mat [ ([| 1; 1 |], 3.0); ([| 2; 2 |], 1.0) ] in
  let c =
    check_special "A*B" [ ("A", a); ("B", b) ]
      Ir.(mul [ input "A" [ "i"; "j" ]; input "B" [ "i"; "j" ] ])
  in
  check_bool "C[0,0] is NaN" true (Float.is_nan (T.get c [| 0; 0 |]));
  check_float "C[1,1]" 6.0 (T.get c [| 1; 1 |])

(* min with a -inf fill against a stored NaN, and max with a +inf fill
   against one: the NaN wins where A sits at its fill. *)
let test_min_max_fill_nan () =
  let b = mat [ ([| 0; 1 |], Float.nan); ([| 2; 0 |], 4.0) ] in
  List.iter
    (fun (op, fill) ->
      let a = mat ~fill [ ([| 2; 0 |], 1.0); ([| 1; 2 |], 5.0) ] in
      let c =
        check_special (Op.to_string op) [ ("A", a); ("B", b) ]
          (Ir.Map (op, [ Ir.input "A" [ "i"; "j" ]; Ir.input "B" [ "i"; "j" ] ]))
      in
      check_bool (Op.to_string op ^ " NaN at (0,1)") true
        (Float.is_nan (T.get c [| 0; 1 |])))
    [ (Op.Min, neg_infinity); (Op.Max, infinity) ]

(* A term outside an aggregate is not distributed into it across an
   infinity: out[i] = min_j (u[i] + W[i,j]) with u[1] = -inf, and row 1 of
   W holding one finite value beside its +inf fill, meets -inf + inf = NaN,
   where -inf + min_j W[1,j] is -inf; out[i] = sum_j (u[i] * W[i,j]) with
   u[1] = +inf meets inf * 0 = NaN at W's 0 fill, where inf * sum_j W[1,j]
   is inf. *)
let test_no_distribution_across_inf () =
  let vec entries =
    T.of_coo ~dims:[| 3 |] ~formats:[| T.Dense |] (Array.of_list entries)
  in
  let w =
    mat ~fill:infinity
      [ ([| 0; 1 |], 2.0); ([| 1; 0 |], 2.0); ([| 2; 0 |], 1.0); ([| 2; 2 |], 3.0) ]
  in
  let u = vec [ ([| 0 |], 1.0); ([| 1 |], neg_infinity); ([| 2 |], 4.0) ] in
  let c =
    check_special ~out_order:[ "i" ] "min-plus" [ ("u", u); ("W", w) ]
      Ir.(
        Agg
          ( Op.Min,
            [ "j" ],
            add [ input "u" [ "i" ]; input "W" [ "i"; "j" ] ] ))
  in
  check_bool "min-plus out[1] is NaN" true (Float.is_nan (T.get c [| 1 |]));
  let w = mat [ ([| 0; 1 |], 2.0); ([| 1; 2 |], 5.0); ([| 2; 0 |], 1.0) ] in
  let u = vec [ ([| 0 |], 1.0); ([| 1 |], infinity); ([| 2 |], 4.0) ] in
  let c =
    check_special ~out_order:[ "i" ] "sum-product" [ ("u", u); ("W", w) ]
      Ir.(sum [ "j" ] (mul [ input "u" [ "i" ]; input "W" [ "i"; "j" ] ]))
  in
  check_bool "sum-product out[1] is NaN" true (Float.is_nan (T.get c [| 1 |]));
  check_float "sum-product out[0]" 2.0 (T.get c [| 0 |])

(* -------------------------------------------------------------- *)
(* Randomized whole-pipeline property.                              *)
(* -------------------------------------------------------------- *)

let prop_random_programs =
  QCheck.Test.make ~name:"random programs match reference" ~count:60
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let prng = Prng.create seed in
      let n1 = 3 + Prng.int prng 3
      and n2 = 3 + Prng.int prng 3
      and n3 = 3 + Prng.int prng 3 in
      let a = sparse ~prng ~dims:[| n1; n2 |] ~density:0.4 in
      let b = sparse ~prng ~dims:[| n2; n3 |] ~density:0.4 in
      let u = sparse ~prng ~dims:[| n1 |] ~density:0.6 in
      let w = sparse ~prng ~dims:[| n3 |] ~density:0.6 in
      let inputs = [ ("A", a); ("B", b); ("u", u); ("w", w) ] in
      let leaf () =
        match Prng.int prng 5 with
        | 0 -> Ir.input "A" [ "i"; "j" ]
        | 1 -> Ir.input "B" [ "j"; "k" ]
        | 2 -> Ir.input "u" [ "i" ]
        | 3 -> Ir.input "w" [ "k" ]
        | _ -> Ir.lit (Prng.float_range prng (-1.0) 1.5)
      in
      let rec gen depth =
        if depth = 0 || Prng.int prng 3 = 0 then leaf ()
        else
          match Prng.int prng 6 with
          | 0 -> Ir.add [ gen (depth - 1); gen (depth - 1) ]
          | 1 -> Ir.mul [ gen (depth - 1); gen (depth - 1) ]
          | 2 -> Ir.Map (Op.Max, [ gen (depth - 1); gen (depth - 1) ])
          | 3 -> Ir.map Op.Sigmoid [ gen (depth - 1) ]
          | 4 ->
              (* nested aggregate inside the expression *)
              let body = gen (depth - 1) in
              let free = Ir.Idx_set.elements (Ir.free_indices body) in
              if free = [] then body
              else
                Ir.sum [ List.nth free (Prng.int prng (List.length free)) ] body
          | _ -> Ir.Map (Op.Sub, [ gen (depth - 1); gen (depth - 1) ])
      in
      let body = gen 3 in
      let free = Ir.Idx_set.elements (Ir.free_indices body) in
      let aggd = List.filter (fun _ -> Prng.bool prng) free in
      let expr = if aggd = [] then body else Ir.sum aggd body in
      let program =
        { Ir.queries = [ Ir.query "out" expr ]; outputs = [ "out" ] }
      in
      let want = List.assoc "out" (Galley.Reference.eval_program inputs program) in
      List.for_all
        (fun (_, config) ->
          let res = D.run ~config ~inputs program in
          T.equal_approx ~eps:1e-5 (D.output_of res "out") want)
        [ List.nth all_configs 0; List.nth all_configs 1; List.nth all_configs 2 ])

let () =
  Alcotest.run "e2e"
    [
      ( "paper examples",
        [
          Alcotest.test_case "logistic regression" `Quick test_logistic_regression;
          Alcotest.test_case "triangle counting" `Quick test_triangle_counting;
          Alcotest.test_case "example 2" `Quick test_example2_composite_features;
          Alcotest.test_case "example 3" `Quick test_example3_residuals;
          Alcotest.test_case "sddmm variant" `Quick test_sddmm_variant;
          Alcotest.test_case "laundering pipeline" `Quick test_laundering_pipeline;
        ] );
      ( "aggregate structure",
        [
          Alcotest.test_case "nested blocking" `Quick test_nested_blocking_aggregate;
          Alcotest.test_case "max of sums" `Quick test_max_of_sums;
          Alcotest.test_case "internal aggregate" `Quick test_internal_aggregate;
          Alcotest.test_case "disjunctive" `Quick test_disjunctive_aggregate;
          Alcotest.test_case "matrix chain" `Quick test_matrix_chain;
          Alcotest.test_case "or aggregate" `Quick test_or_aggregate_reachability;
        ] );
      ( "runtime behaviour",
        [
          Alcotest.test_case "timeout" `Quick test_timeout_reported;
          Alcotest.test_case "session rebinding" `Quick test_session_rebinding;
          Alcotest.test_case "timings" `Quick test_timings_populated;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_random_programs ] );
      ( "value facts",
        [
          Alcotest.test_case "0 fill against stored inf" `Quick
            test_mul_zero_fill_inf;
          Alcotest.test_case "no distribution across inf" `Quick
            test_no_distribution_across_inf;
          Alcotest.test_case "min/max fill vs stored NaN" `Quick
            test_min_max_fill_nan;
        ] );
    ]
