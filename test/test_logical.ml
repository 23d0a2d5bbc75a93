(* Tests for the logical optimizer: minimal sub-query extraction rules
   (distributive / commutative-identical / blocking traversals), restricted
   elimination orders, variable elimination on the paper's examples
   (matrix chains, Example 2's pushdown), greedy vs branch-and-bound, and
   pointwise distributivity. *)

module T = Galley_tensor.Tensor
module Prng = Galley_tensor.Prng
module Ir = Galley_plan.Ir
module Op = Galley_plan.Op
module Schema = Galley_plan.Schema
module LQ = Galley_plan.Logical_query
module Intern = Galley_plan.Intern
module Opt = Galley_logical.Optimizer
module Ctx = Galley_stats.Ctx

(* The extraction rules read on plain expressions: the input is interned
   and the result read back. *)
module Elim = struct
  module E = Galley_logical.Elimination

  type extraction = { queries : LQ.t list; rewritten : Ir.expr }

  let eliminate ~dims ~facts ~fresh e v =
    let ext = E.eliminate ~dims ~facts ~fresh (Intern.of_expr e) v in
    {
      queries = List.map fst ext.E.queries;
      rewritten = ext.E.rewritten.Intern.expr;
    }

  let available_indices e = E.available_indices (Intern.of_expr e)
end

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let dims_of (l : (string * int) list) : int Ir.Idx_map.t =
  List.fold_left (fun acc (i, n) -> Ir.Idx_map.add i n acc) Ir.Idx_map.empty l

(* Facts of moderate finite values (products stay finite): no
   distributive rewrite is refused. *)
let finite (_ : Ir.expr) =
  { Galley_tensor.Facts.lo = -1e6; hi = 1e6; nan = false }

let fresh_gen () =
  let c = ref 0 in
  fun () ->
    incr c;
    Printf.sprintf "#q%d" !c

(* -------------------------------------------------------------- *)
(* Minimal sub-query extraction.                                    *)
(* -------------------------------------------------------------- *)

let test_msq_distributive_factoring () =
  (* Σ_j A[i,j] * B[j] * C[i]: C factors out, MSQ = Σ_j A*B *)
  let e =
    Ir.(
      sum [ "j" ]
        (mul [ input "A" [ "i"; "j" ]; input "B" [ "j" ]; input "C" [ "i" ] ]))
  in
  let dims = dims_of [ ("i", 4); ("j", 5) ] in
  let ext = Elim.eliminate ~dims ~facts:finite ~fresh:(fresh_gen ()) e "j" in
  check_int "one query" 1 (List.length ext.Elim.queries);
  let q = List.hd ext.Elim.queries in
  (* the MSQ only mentions A and B *)
  let names = List.map fst (Ir.referenced_names q.LQ.body) in
  check_bool "A in" true (List.mem "A" names);
  check_bool "B in" true (List.mem "B" names);
  check_bool "C factored out" false (List.mem "C" names);
  (* the rewritten expression still mentions C and the alias *)
  let rew_names = List.map fst (Ir.referenced_names ext.Elim.rewritten) in
  check_bool "C kept" true (List.mem "C" rew_names);
  check_bool "no aggregate left" false (Ir.contains_agg ext.Elim.rewritten)

let test_msq_commutative_identical () =
  (* Σ_i (A[i] + B[i]) = Σ_i A[i] + Σ_i B[i]: two sub-queries *)
  let e = Ir.(sum [ "i" ] (add [ input "A" [ "i" ]; input "B" [ "i" ] ])) in
  let dims = dims_of [ ("i", 6) ] in
  let ext = Elim.eliminate ~dims ~facts:finite ~fresh:(fresh_gen ()) e "i" in
  check_int "two queries" 2 (List.length ext.Elim.queries);
  match ext.Elim.rewritten with
  | Ir.Map (Op.Add, [ Ir.Alias _; Ir.Alias _ ]) -> ()
  | e' -> Alcotest.failf "unexpected rewrite: %s" (Ir.expr_to_string e')

let test_msq_repeated_application () =
  (* Σ_i (A[i] + B[j]): the child without i becomes n_i * B[j] *)
  let e = Ir.(sum [ "i" ] (add [ input "A" [ "i" ]; input "B" [ "j" ] ])) in
  let dims = dims_of [ ("i", 7); ("j", 3) ] in
  let ext = Elim.eliminate ~dims ~facts:finite ~fresh:(fresh_gen ()) e "i" in
  check_int "one query (A only)" 1 (List.length ext.Elim.queries);
  let rec has_scale = function
    | Ir.Map (Op.Mul, args) ->
        List.mem (Ir.Literal 7.0) args
        || List.exists has_scale args
    | Ir.Map (_, args) -> List.exists has_scale args
    | _ -> false
  in
  check_bool "scaled by n_i" true (has_scale ext.Elim.rewritten)

let test_msq_idempotent_no_scale () =
  (* max_i (A[i] max B[j]): idempotent aggregate leaves B alone *)
  let e =
    Ir.Agg
      (Op.Max, [ "i" ], Ir.Map (Op.Max, [ Ir.input "A" [ "i" ]; Ir.input "B" [ "j" ] ]))
  in
  let dims = dims_of [ ("i", 7); ("j", 3) ] in
  let ext = Elim.eliminate ~dims ~facts:finite ~fresh:(fresh_gen ()) e "i" in
  let rec has_literal = function
    | Ir.Literal _ -> true
    | Ir.Map (_, args) -> List.exists has_literal args
    | Ir.Agg (_, _, b) -> has_literal b
    | _ -> false
  in
  check_bool "no scaling literal" false (has_literal ext.Elim.rewritten)

let test_msq_blocking () =
  (* Σ_j sqrt(A[i,j] * B[j]): sqrt blocks, MSQ wraps the whole subtree *)
  let e =
    Ir.(
      sum [ "j" ]
        (map Op.Sqrt [ mul [ input "A" [ "i"; "j" ]; input "B" [ "j" ] ] ]))
  in
  let dims = dims_of [ ("i", 4); ("j", 5) ] in
  let ext = Elim.eliminate ~dims ~facts:finite ~fresh:(fresh_gen ()) e "j" in
  check_int "one query" 1 (List.length ext.Elim.queries);
  let q = List.hd ext.Elim.queries in
  (match q.LQ.body with
  | Ir.Map (Op.Sqrt, _) -> ()
  | b -> Alcotest.failf "expected sqrt at MSQ root, got %s" (Ir.expr_to_string b));
  match ext.Elim.rewritten with
  | Ir.Alias _ -> ()
  | e' -> Alcotest.failf "expected bare alias, got %s" (Ir.expr_to_string e')

let test_msq_multiple_containing_children () =
  (* Σ_j A[i,j] * B[j,k]: both children contain j, MSQ wraps their product *)
  let e =
    Ir.(sum [ "j" ] (mul [ input "A" [ "i"; "j" ]; input "B" [ "j"; "k" ] ]))
  in
  let dims = dims_of [ ("i", 3); ("j", 4); ("k", 5) ] in
  let ext = Elim.eliminate ~dims ~facts:finite ~fresh:(fresh_gen ()) e "j" in
  check_int "one query" 1 (List.length ext.Elim.queries);
  let q = List.hd ext.Elim.queries in
  Alcotest.(check (list string)) "outputs i,k" [ "i"; "k" ] q.LQ.output_idxs

let test_multi_index_agg_partial () =
  (* Σ_{j,k}: eliminating j keeps the Agg over k in the rewrite *)
  let e =
    Ir.(
      sum [ "j"; "k" ]
        (mul [ input "A" [ "i"; "j" ]; input "B" [ "j"; "k" ] ]))
  in
  let dims = dims_of [ ("i", 3); ("j", 4); ("k", 5) ] in
  let ext = Elim.eliminate ~dims ~facts:finite ~fresh:(fresh_gen ()) e "j" in
  check_bool "k still aggregated" true
    (Ir.Idx_set.mem "k" (Ir.aggregated_indices ext.Elim.rewritten))

(* -------------------------------------------------------------- *)
(* Restricted orders.                                               *)
(* -------------------------------------------------------------- *)

let test_inner_first_restriction () =
  (* max_i Σ_j A[i,j]: j must be eliminated first *)
  let e = Ir.Agg (Op.Max, [ "i" ], Ir.(sum [ "j" ] (input "A" [ "i"; "j" ]))) in
  Alcotest.(check (list string)) "only j available" [ "j" ]
    (Elim.available_indices e);
  let dims = dims_of [ ("i", 3); ("j", 4) ] in
  check_bool "eliminating i rejected" true
    (try
       ignore (Elim.eliminate ~dims ~facts:finite ~fresh:(fresh_gen ()) e "i");
       false
     with Invalid_argument _ -> true);
  (* after eliminating j, i becomes available *)
  let ext = Elim.eliminate ~dims ~facts:finite ~fresh:(fresh_gen ()) e "j" in
  Alcotest.(check (list string)) "now i" [ "i" ]
    (Elim.available_indices ext.Elim.rewritten)

let test_blocked_inner_aggregate () =
  (* Σ_i sqrt(Σ_j A[i,j]): inner j first (aggregate placement) *)
  let e =
    Ir.(sum [ "i" ] (map Op.Sqrt [ sum [ "j" ] (input "A" [ "i"; "j" ]) ]))
  in
  Alcotest.(check (list string)) "j first" [ "j" ] (Elim.available_indices e)

(* -------------------------------------------------------------- *)
(* End-to-end logical optimization.                                 *)
(* -------------------------------------------------------------- *)

let make_ctx (inputs : (string * T.t) list) : Ctx.t =
  let schema = Schema.create () in
  List.iter (fun (n, t) -> Schema.declare_tensor schema n t) inputs;
  let ctx = Ctx.create schema in
  List.iter (fun (n, t) -> ctx.Ctx.register_input n t) inputs;
  ctx

let sparse ~prng ~dims ~density =
  T.random ~prng ~dims
    ~formats:(Array.init (Array.length dims) (fun k -> if k = 0 then T.Dense else T.Sparse_list))
    ~density ()

(* Matrix chain: E = Σ_jkl A_ij B_jk C_kl D_lm.  Every elimination order is
   a different association; the optimizer must produce one query per
   eliminated index (no disjunctions here). *)
let test_matrix_chain_plan_shape () =
  let prng = Prng.create 31 in
  let a = sparse ~prng ~dims:[| 6; 6 |] ~density:0.4 in
  let b = sparse ~prng ~dims:[| 6; 6 |] ~density:0.4 in
  let c = sparse ~prng ~dims:[| 6; 6 |] ~density:0.4 in
  let d = sparse ~prng ~dims:[| 6; 6 |] ~density:0.4 in
  let ctx = make_ctx [ ("A", a); ("B", b); ("C", c); ("D", d) ] in
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
  let plan =
    Opt.optimize_program Opt.default_config ctx
      { Ir.queries = [ q ]; outputs = [ "E" ] }
  in
  (* three eliminations + possibly a final copy *)
  check_bool "3 or 4 queries" true
    (List.length plan = 3 || List.length plan = 4);
  (* last query carries the requested name and order *)
  let last = List.nth plan (List.length plan - 1) in
  Alcotest.(check string) "named E" "E" last.LQ.name;
  Alcotest.(check (list string)) "order" [ "i"; "m" ] last.LQ.output_idxs;
  (* every query is a valid logical query *)
  List.iter LQ.validate plan

let test_bnb_no_worse_than_greedy () =
  let prng = Prng.create 33 in
  let a = sparse ~prng ~dims:[| 8; 8 |] ~density:0.5 in
  let b = sparse ~prng ~dims:[| 8; 8 |] ~density:0.1 in
  let c = sparse ~prng ~dims:[| 8; 8 |] ~density:0.3 in
  let mk () = make_ctx [ ("A", a); ("B", b); ("C", c) ] in
  let expr =
    Ir.(
      sum [ "i"; "j"; "k"; "l" ]
        (mul [ input "A" [ "i"; "j" ]; input "B" [ "j"; "k" ]; input "C" [ "k"; "l" ] ]))
  in
  let counter = ref 0 in
  let fresh () = incr counter; Printf.sprintf "#g%d" !counter in
  let binder = Galley_plan.Canonical.binder_namer () in
  let greedy =
    Opt.optimize_expr { Opt.default_config with search = Opt.Greedy } (mk ())
      ~fresh ~binder ~name:"out" ~out_order:None expr
  in
  let bnb =
    Opt.optimize_expr { Opt.default_config with search = Opt.Branch_and_bound }
      (mk ()) ~fresh ~binder ~name:"out" ~out_order:None expr
  in
  check_bool "bnb <= greedy cost" true (bnb.Opt.cost <= greedy.Opt.cost +. 1e-6)

let test_example2_pushdown () =
  (* Y_i = Σ_jpc S_ipc (P_pj + C_cj) θ_j: the optimizer should push θ into
     the feature definitions, producing vector intermediates — i.e. no
     logical query materializes anything indexed by both p and c. *)
  let prng = Prng.create 35 in
  let s3 =
    T.random ~prng ~dims:[| 60; 25; 25 |]
      ~formats:[| T.Dense; T.Sparse_list; T.Sparse_list |]
      ~density:0.004 ()
  in
  let p = sparse ~prng ~dims:[| 25; 12 |] ~density:0.6 in
  let c = sparse ~prng ~dims:[| 25; 12 |] ~density:0.6 in
  let theta = sparse ~prng ~dims:[| 12 |] ~density:1.0 in
  let ctx = make_ctx [ ("S", s3); ("P", p); ("C", c); ("theta", theta) ] in
  let q =
    Ir.query ~out_order:[ "i" ] "Y"
      Ir.(
        sum [ "j"; "p"; "c" ]
          (mul
             [
               input "S" [ "i"; "p"; "c" ];
               add [ input "P" [ "p"; "j" ]; input "C" [ "c"; "j" ] ];
               input "theta" [ "j" ];
             ]))
  in
  let plan =
    Opt.optimize_program Opt.default_config ctx
      { Ir.queries = [ q ]; outputs = [ "Y" ] }
  in
  List.iter
    (fun (lq : LQ.t) ->
      let out = Ir.Idx_set.of_list lq.LQ.output_idxs in
      check_bool
        ("no p*c intermediate in " ^ lq.LQ.name)
        false
        (Ir.Idx_set.mem "p" out && Ir.Idx_set.mem "c" out))
    plan

let test_distribution_example3 () =
  (* Σ_ij (X - U·V)²: with sparse X and dense U,V the distributed form is
     chosen and the plan avoids materializing the dense U·V matrix. *)
  let prng = Prng.create 37 in
  let x = sparse ~prng ~dims:[| 30; 30 |] ~density:0.02 in
  let u = sparse ~prng ~dims:[| 30 |] ~density:1.0 in
  let v = sparse ~prng ~dims:[| 30 |] ~density:1.0 in
  let ctx = make_ctx [ ("X", x); ("U", u); ("V", v) ] in
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
  let plan =
    Opt.optimize_program Opt.default_config ctx
      { Ir.queries = [ q ]; outputs = [ "sse" ] }
  in
  (* distributed plans contain several queries; sanity: all valid and the
     final one is named sse with no output indices *)
  List.iter LQ.validate plan;
  let last = List.nth plan (List.length plan - 1) in
  Alcotest.(check string) "named" "sse" last.LQ.name;
  Alcotest.(check (list string)) "scalar" [] last.LQ.output_idxs

let test_pure_map_program () =
  let prng = Prng.create 39 in
  let a = sparse ~prng ~dims:[| 10 |] ~density:0.5 in
  let ctx = make_ctx [ ("A", a) ] in
  let q = Ir.query "B" Ir.(map Op.Sigmoid [ input "A" [ "i" ] ]) in
  let plan =
    Opt.optimize_program Opt.default_config ctx
      { Ir.queries = [ q ]; outputs = [ "B" ] }
  in
  check_int "single query" 1 (List.length plan);
  let lq = List.hd plan in
  check_bool "no-op aggregate" true (lq.LQ.agg_op = Op.Ident)

let test_multi_query_program_aliases () =
  let prng = Prng.create 41 in
  let a = sparse ~prng ~dims:[| 8; 8 |] ~density:0.4 in
  let ctx = make_ctx [ ("A", a) ] in
  let q1 = Ir.query ~out_order:[ "i" ] "rowsum" Ir.(sum [ "j" ] (input "A" [ "i"; "j" ])) in
  let q2 = Ir.query "total" Ir.(sum [ "i" ] (alias "rowsum" [ "i" ])) in
  let plan =
    Opt.optimize_program Opt.default_config ctx
      { Ir.queries = [ q1; q2 ]; outputs = [ "total" ] }
  in
  check_bool "rowsum present" true
    (List.exists (fun (lq : LQ.t) -> lq.LQ.name = "rowsum") plan);
  check_bool "total present" true
    (List.exists (fun (lq : LQ.t) -> lq.LQ.name = "total") plan)

(* Property: logical optimization always yields a valid plan whose final
   query has the requested name, for random sum-product expressions. *)
let prop_plan_validity =
  QCheck.Test.make ~name:"logical plans are valid" ~count:60
    (QCheck.int_range 0 100_000)
    (fun seed ->
      let prng = Prng.create seed in
      let n = 4 + Prng.int prng 3 in
      let a = sparse ~prng ~dims:[| n; n |] ~density:0.4 in
      let b = sparse ~prng ~dims:[| n; n |] ~density:0.4 in
      let v = sparse ~prng ~dims:[| n |] ~density:0.6 in
      let ctx = make_ctx [ ("A", a); ("B", b); ("v", v) ] in
      let pool = [ "i"; "j"; "k" ] in
      let rec gen depth =
        if depth = 0 || Prng.int prng 3 = 0 then
          match Prng.int prng 3 with
          | 0 ->
              let i = List.nth pool (Prng.int prng 3) in
              let j = List.nth pool (Prng.int prng 3) in
              if i = j then Ir.input "v" [ i ] else Ir.input "A" [ i; j ]
          | 1 ->
              let i = List.nth pool (Prng.int prng 3) in
              let j = List.nth pool (Prng.int prng 3) in
              if i = j then Ir.input "v" [ i ] else Ir.input "B" [ i; j ]
          | _ -> Ir.input "v" [ List.nth pool (Prng.int prng 3) ]
        else
          match Prng.int prng 3 with
          | 0 -> Ir.add [ gen (depth - 1); gen (depth - 1) ]
          | 1 -> Ir.mul [ gen (depth - 1); gen (depth - 1) ]
          | _ -> Ir.map Op.Sigmoid [ gen (depth - 1) ]
      in
      let body = gen 3 in
      let free = Ir.Idx_set.elements (Ir.free_indices body) in
      let expr = if free = [] then body else Ir.sum free body in
      let q = Ir.query "out" expr in
      let plan =
        Opt.optimize_program Opt.default_config ctx
          { Ir.queries = [ q ]; outputs = [ "out" ] }
      in
      List.iter LQ.validate plan;
      (List.nth plan (List.length plan - 1)).LQ.name = "out")

(* -------------------------------------------------------------- *)
(* Interned search: allocation and bounded tables.                  *)
(* -------------------------------------------------------------- *)

(* The covariance search at the ml_joins benchmark's scale and seed: the
   exact search prices ~25k candidate queries, nearly all to show that the
   distributed variant loses.  Interning keeps its bookkeeping down; before
   it the search allocated 53.4M minor words. *)
let test_covariance_search_allocation () =
  let c =
    List.find
      (fun (c : Perfbench.Ml_joins.case) ->
        c.Perfbench.Ml_joins.name = "covariance_star")
      (Perfbench.Ml_joins.cases ~seed:1 ())
  in
  let inputs = c.Perfbench.Ml_joins.inputs in
  let program =
    Galley.Driver.resolve_names
      (Galley_lang.Parser.parse_program c.Perfbench.Ml_joins.src)
  in
  let schema = Schema.create () in
  List.iter (fun (n, t) -> Schema.declare_tensor schema n t) inputs;
  let ctx =
    Ctx.create ~kind:Galley.Driver.default_config.Galley.Driver.estimator schema
  in
  List.iter (fun (n, t) -> ctx.Ctx.register_input n t) inputs;
  let before = Gc.minor_words () in
  let _plan, tiers =
    Opt.optimize_program_tiered Galley.Driver.default_config.Galley.Driver.logical
      ctx program
  in
  let words = Gc.minor_words () -. before in
  check_bool "exact tier" true
    (List.for_all (fun (_, t) -> t = Galley_plan.Tier.Exact) tiers);
  if words > 20e6 then
    Alcotest.failf "covariance search allocated %.1fM minor words (bound 20M)"
      (words /. 1e6)

(* A resident session re-registers its intermediates with every program
   and its inputs with every bind; the memo and interning tables reset
   then, so they do not grow with the number of distinct queries served. *)
let test_session_tables_bounded () =
  let prng = Prng.create 31 in
  let matrix () =
    T.random ~prng ~dims:[| 12; 12 |] ~formats:[| T.Dense; T.Sparse_list |]
      ~density:0.3 ()
  in
  let s = Galley.Driver.Session.create () in
  Galley.Driver.Session.bind s "A" (matrix ());
  Galley.Driver.Session.bind s "B" (matrix ());
  let sizes =
    List.init 200 (fun k ->
        if k mod 10 = 9 then Galley.Driver.Session.bind s "B" (matrix ());
        let src =
          Printf.sprintf "r[i] = sum[j,l](A[i,j] * B[j,l] * (A[l,j] + %d))" k
        in
        (match
           Galley.Driver.Session.run_program_checked s
             (Galley_lang.Parser.parse_program src)
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Galley.Errors.to_string e));
        (Galley.Driver.Session.ctx s).Ctx.table_sizes ())
  in
  let peak l = List.fold_left max 0 l in
  let first = peak (List.filteri (fun k _ -> k < 100) sizes)
  and last = peak (List.filteri (fun k _ -> k >= 100) sizes) in
  check_bool "tables hold entries" true (first > 0);
  if last > first then
    Alcotest.failf "tables grew: peak %d over queries 1-100, %d over 101-200"
      first last

let () =
  Alcotest.run "logical"
    [
      ( "msq",
        [
          Alcotest.test_case "distributive factoring" `Quick test_msq_distributive_factoring;
          Alcotest.test_case "commutative identical" `Quick test_msq_commutative_identical;
          Alcotest.test_case "repeated application" `Quick test_msq_repeated_application;
          Alcotest.test_case "idempotent no scale" `Quick test_msq_idempotent_no_scale;
          Alcotest.test_case "blocking" `Quick test_msq_blocking;
          Alcotest.test_case "multi containing" `Quick test_msq_multiple_containing_children;
          Alcotest.test_case "partial multi-index" `Quick test_multi_index_agg_partial;
        ] );
      ( "restrictions",
        [
          Alcotest.test_case "non-commuting aggregates" `Quick test_inner_first_restriction;
          Alcotest.test_case "blocked placement" `Quick test_blocked_inner_aggregate;
        ] );
      ( "optimization",
        [
          Alcotest.test_case "matrix chain" `Quick test_matrix_chain_plan_shape;
          Alcotest.test_case "bnb <= greedy" `Quick test_bnb_no_worse_than_greedy;
          Alcotest.test_case "example 2 pushdown" `Quick test_example2_pushdown;
          Alcotest.test_case "example 3 distribution" `Quick test_distribution_example3;
          Alcotest.test_case "pure map" `Quick test_pure_map_program;
          Alcotest.test_case "multi-query aliases" `Quick test_multi_query_program_aliases;
        ] );
      ( "interned search",
        [
          Alcotest.test_case "covariance search allocation" `Slow
            test_covariance_search_allocation;
          Alcotest.test_case "session tables bounded" `Quick
            test_session_tables_bounded;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_plan_validity ] );
    ]
