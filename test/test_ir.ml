(* Tests for the plan IR: index accounting, canonicalization rules (merging,
   lifting, uniquification, repeated-application rewrites), canonical keys
   for CSE, and the schema environment. *)

module Ir = Galley_plan.Ir
module Op = Galley_plan.Op
module Canonical = Galley_plan.Canonical
module Schema = Galley_plan.Schema
module T = Galley_tensor.Tensor

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let idx_set_to_list s = Ir.Idx_set.elements s

(* Canonicalization with a binder namer of its own, as one program gets. *)
let canonicalize schema e =
  Canonical.canonicalize ~binder:(Canonical.binder_namer ()) schema e

(* Tensors of moderate finite values, so value facts refuse no rewrite. *)
let finite = { Galley_tensor.Facts.lo = -1e6; hi = 1e6; nan = false }

let schema_with (entries : (string * int array) list) : Schema.t =
  let s = Schema.create () in
  List.iter
    (fun (n, dims) -> Schema.declare s n ~dims ~fill:0.0 ~facts:finite)
    entries;
  s

(* -------------------------------------------------------------- *)
(* Index accounting.                                                *)
(* -------------------------------------------------------------- *)

let test_free_indices () =
  let e =
    Ir.(sum [ "j" ] (mul [ input "A" [ "i"; "j" ]; input "B" [ "j"; "k" ] ]))
  in
  Alcotest.(check (list string))
    "free" [ "i"; "k" ]
    (idx_set_to_list (Ir.free_indices e));
  Alcotest.(check (list string))
    "all" [ "i"; "j"; "k" ]
    (idx_set_to_list (Ir.all_indices e));
  Alcotest.(check (list string))
    "aggregated" [ "j" ]
    (idx_set_to_list (Ir.aggregated_indices e))

let test_contains_agg () =
  check_bool "no agg" false Ir.(contains_agg (mul [ input "A" [ "i" ] ]));
  check_bool "agg" true Ir.(contains_agg (sum [ "i" ] (input "A" [ "i" ])));
  check_bool "nested" true
    Ir.(contains_agg (map Op.Sigmoid [ sum [ "i" ] (input "A" [ "i" ]) ]))

let test_rename () =
  let e = Ir.(mul [ input "A" [ "i"; "j" ]; input "B" [ "j" ] ]) in
  let e' = Ir.rename_indices (Ir.Idx_map.singleton "j" "z") e in
  Alcotest.(check (list string))
    "renamed free" [ "i"; "z" ]
    (idx_set_to_list (Ir.free_indices e'))

(* -------------------------------------------------------------- *)
(* Canonicalization.                                                *)
(* -------------------------------------------------------------- *)

let test_merge_nested_maps () =
  let schema = schema_with [ ("A", [| 3 |]); ("B", [| 3 |]); ("C", [| 3 |]) ] in
  let e =
    Ir.Map
      ( Op.Add,
        [
          Ir.Map (Op.Add, [ Ir.input "A" [ "i" ]; Ir.input "B" [ "i" ] ]);
          Ir.input "C" [ "i" ];
        ] )
  in
  match canonicalize schema e with
  | Ir.Map (Op.Add, args) ->
      Alcotest.(check int) "flattened to 3" 3 (List.length args)
  | e' -> Alcotest.failf "unexpected shape: %s" (Ir.expr_to_string e')

let test_merge_nested_aggs () =
  let schema = schema_with [ ("A", [| 3; 4 |]) ] in
  let e = Ir.(sum [ "i" ] (sum [ "j" ] (input "A" [ "i"; "j" ]))) in
  match canonicalize schema e with
  | Ir.Agg (Op.Add, idxs, Ir.Input ("A", _)) ->
      Alcotest.(check int) "merged binders" 2 (List.length idxs)
  | e' -> Alcotest.failf "unexpected shape: %s" (Ir.expr_to_string e')

let test_lift_agg_above_map () =
  (* theta[j] * Σ_i A[i,j]  ->  Σ_i (theta[j] * A[i,j]) *)
  let schema = schema_with [ ("A", [| 3; 4 |]); ("theta", [| 4 |]) ] in
  let e =
    Ir.(mul [ input "theta" [ "j" ]; sum [ "i" ] (input "A" [ "i"; "j" ]) ])
  in
  match canonicalize schema e with
  | Ir.Agg (Op.Add, [ "i" ], Ir.Map (Op.Mul, _)) -> ()
  | e' -> Alcotest.failf "not lifted: %s" (Ir.expr_to_string e')

let test_no_lift_across_infinities () =
  (* theta[j] * Σ_i A[i,j] with theta holding +inf and A's fill 0: the
     lifted Σ_i theta[j] * A[i,j] meets inf * 0 = NaN where the product of
     inf and a nonzero sum does not, so the aggregate stays put. *)
  let schema = schema_with [ ("A", [| 3; 4 |]) ] in
  Schema.declare schema "theta" ~dims:[| 4 |] ~fill:0.0
    ~facts:(Galley_tensor.Facts.join finite (Galley_tensor.Facts.of_value infinity));
  let e =
    Ir.(mul [ input "theta" [ "j" ]; sum [ "i" ] (input "A" [ "i"; "j" ]) ])
  in
  match canonicalize schema e with
  | Ir.Map (Op.Mul, _) -> ()
  | e' -> Alcotest.failf "lifted across an infinity: %s" (Ir.expr_to_string e')

let test_no_lift_when_mentioned () =
  (* B[i] * Σ_i A[i]: the binder collides with a free use; uniquification
     renames the binder, after which lifting is sound. *)
  let schema = schema_with [ ("A", [| 3 |]); ("B", [| 3 |]) ] in
  let e = Ir.(mul [ input "B" [ "i" ]; sum [ "i" ] (input "A" [ "i" ]) ]) in
  let e' = canonicalize schema e in
  (* after renaming, B's i stays free *)
  check_bool "i still free" true (Ir.Idx_set.mem "i" (Ir.free_indices e'))

let test_uniquify_shadowing () =
  let e =
    Ir.(
      mul
        [
          sum [ "i" ] (input "A" [ "i" ]);
          sum [ "i" ] (input "B" [ "i" ]);
        ])
  in
  let e' = Canonical.uniquify ~binder:(Canonical.binder_namer ()) e in
  let rec binders acc = function
    | Ir.Agg (_, idxs, body) -> binders (idxs @ acc) body
    | Ir.Map (_, args) -> List.fold_left binders acc args
    | _ -> acc
  in
  let bs = binders [] e' in
  Alcotest.(check int) "two binders" 2 (List.length bs);
  check_bool "distinct" true (List.nth bs 0 <> List.nth bs 1)

let test_agg_over_absent_index () =
  (* Σ_i B[j] = n_i * B[j] (repeated application for Add) *)
  let schema = schema_with [ ("B", [| 4 |]) ] in
  let e = Ir.(sum [ "i" ] (input "B" [ "j" ])) in
  (* dim of i is unknown from accesses; declare it via an auxiliary use *)
  let e_full = Ir.(mul [ e; sum [ "i2" ] (input "C" [ "i2" ]) ]) in
  Schema.declare schema "C" ~dims:[| 7 |] ~fill:0.0;
  let _ = e_full in
  (* direct test with an explicit dims map *)
  let dims = Ir.Idx_map.(add "i" 5 (add "j" 4 empty)) in
  match Canonical.simplify dims e with
  | Ir.Map (Op.Mul, args) ->
      check_bool "has literal 5" true
        (List.exists (fun a -> a = Ir.Literal 5.0) args)
  | e' -> Alcotest.failf "unexpected: %s" (Ir.expr_to_string e')

let test_empty_agg_dropped () =
  let dims = Ir.Idx_map.empty in
  let e = Ir.Agg (Op.Add, [], Ir.input "A" [ "i" ]) in
  check_bool "dropped" true (Canonical.simplify dims e = Ir.input "A" [ "i" ])

let test_literal_folding () =
  let dims = Ir.Idx_map.empty in
  let e = Ir.Map (Op.Mul, [ Ir.Literal 2.0; Ir.Literal 3.0; Ir.input "A" [ "i" ] ]) in
  match Canonical.simplify dims e with
  | Ir.Map (Op.Mul, args) ->
      check_bool "folded to 6" true (List.mem (Ir.Literal 6.0) args);
      Alcotest.(check int) "two args" 2 (List.length args)
  | e' -> Alcotest.failf "unexpected: %s" (Ir.expr_to_string e')

(* -------------------------------------------------------------- *)
(* Canonical keys.                                                  *)
(* -------------------------------------------------------------- *)

let test_canonical_key_alpha_equivalence () =
  let e1 = Ir.(sum [ "j" ] (mul [ input "A" [ "i"; "j" ]; input "B" [ "j" ] ])) in
  let e2 = Ir.(sum [ "q" ] (mul [ input "A" [ "p"; "q" ]; input "B" [ "q" ] ])) in
  check_str "alpha equivalent" (Canonical.canonical_key e1)
    (Canonical.canonical_key e2)

let test_canonical_key_commutative_order () =
  let e1 = Ir.(mul [ input "A" [ "i" ]; input "B" [ "i" ] ]) in
  let e2 = Ir.(mul [ input "B" [ "i" ]; input "A" [ "i" ] ]) in
  check_str "commutative sorted" (Canonical.canonical_key e1)
    (Canonical.canonical_key e2)

let test_canonical_key_distinguishes () =
  let e1 = Ir.(mul [ input "A" [ "i" ]; input "B" [ "i" ] ]) in
  let e2 = Ir.(add [ input "A" [ "i" ]; input "B" [ "i" ] ]) in
  check_bool "different ops differ" true
    (Canonical.canonical_key e1 <> Canonical.canonical_key e2);
  let e3 = Ir.(mul [ input "A" [ "i" ]; input "B" [ "j" ] ]) in
  check_bool "different idx structure differs" true
    (Canonical.canonical_key e1 <> Canonical.canonical_key e3)

let test_canonical_key_noncommutative_order () =
  let e1 = Ir.Map (Op.Sub, [ Ir.input "A" [ "i" ]; Ir.input "B" [ "i" ] ]) in
  let e2 = Ir.Map (Op.Sub, [ Ir.input "B" [ "i" ]; Ir.input "A" [ "i" ] ]) in
  check_bool "sub order matters" true
    (Canonical.canonical_key e1 <> Canonical.canonical_key e2)

let test_resolve_alias_key () =
  let e = Ir.alias "t1" [ "i" ] in
  let k1 = Canonical.canonical_key ~resolve_alias:(fun _ -> "DEF") e in
  let k2 =
    Canonical.canonical_key ~resolve_alias:(fun _ -> "DEF")
      (Ir.alias "t2" [ "i" ])
  in
  check_str "aliases with same def share keys" k1 k2

(* The canonical-key algorithm the buffer-writing [Canonical.canonical_key]
   replaced, kept as a reference: every commutative node computes each
   child's standalone key, sorts by it, then keys the children again in the
   shared numbering.  Engine CSE and the estimation memo both key on this
   output, so it must not change by a byte. *)
let reference_canonical_key ?(resolve_alias = fun (n : string) -> n)
    (e : Ir.expr) : string =
  let rec key (env : (Ir.idx, int) Hashtbl.t) (next : int ref) (e : Ir.expr) :
      string =
    let idx_key i =
      match Hashtbl.find_opt env i with
      | Some k -> Printf.sprintf "$%d" k
      | None ->
          let k = !next in
          incr next;
          Hashtbl.add env i k;
          Printf.sprintf "$%d" k
    in
    match e with
    | Ir.Input (n, idxs) ->
        Printf.sprintf "I:%s[%s]" n (String.concat "," (List.map idx_key idxs))
    | Ir.Alias (n, idxs) ->
        Printf.sprintf "A:{%s}[%s]" (resolve_alias n)
          (String.concat "," (List.map idx_key idxs))
    | Ir.Literal v -> Printf.sprintf "L:%h" v
    | Ir.Map (op, args) ->
        let keys =
          if Op.is_commutative op then
            let pre = List.map (fun a -> (key (Hashtbl.create 8) (ref 0) a, a)) args in
            let sorted = List.sort (fun (k1, _) (k2, _) -> compare k1 k2) pre in
            List.map (fun (_, a) -> key env next a) sorted
          else List.map (key env next) args
        in
        Printf.sprintf "M:%s(%s)" (Op.to_string op) (String.concat ";" keys)
    | Ir.Agg (op, idxs, body) ->
        let bound = List.map idx_key idxs in
        Printf.sprintf "G:%s[%s](%s)" (Op.to_string op)
          (String.concat "," bound)
          (key env next body)
  in
  key (Hashtbl.create 16) (ref 0) e

(* Random expressions with nested commutative maps, repeated and shared
   indices, aliases and literals (signed zeros, infinities, NaN). *)
let random_key_expr (prng : Galley_tensor.Prng.t) : Ir.expr =
  let pick a = a.(Galley_tensor.Prng.int prng (Array.length a)) in
  let idxs () =
    List.init (Galley_tensor.Prng.int prng 4) (fun _ -> pick [| "i"; "j"; "k"; "l" |])
  in
  let rec gen depth =
    if depth = 0 || Galley_tensor.Prng.int prng 4 = 0 then
      match Galley_tensor.Prng.int prng 4 with
      | 0 -> Ir.Alias (pick [| "t1"; "t2" |], idxs ())
      | 1 -> Ir.Literal (pick [| 0.0; -0.0; 1.5; infinity; Float.nan; 1e-310 |])
      | _ -> Ir.Input (pick [| "A"; "B"; "C" |], idxs ())
    else
      let args n = List.init n (fun _ -> gen (depth - 1)) in
      match Galley_tensor.Prng.int prng 6 with
      | 0 | 1 ->
          Ir.Map (pick [| Op.Add; Op.Mul; Op.Max |], args (2 + Galley_tensor.Prng.int prng 3))
      | 2 -> Ir.Map (pick [| Op.Sub; Op.Div |], args 2)
      | 3 -> Ir.Map (Op.Sigmoid, args 1)
      | _ -> Ir.Agg (pick [| Op.Add; Op.Max |], idxs (), gen (depth - 1))
  in
  gen 4

let prop_canonical_key_matches_reference =
  QCheck.Test.make ~name:"canonical_key is byte-identical to the reference"
    ~count:500 (QCheck.int_range 0 100_000) (fun seed ->
      let prng = Galley_tensor.Prng.create seed in
      let e = random_key_expr prng in
      let resolve_alias n = "def:" ^ n in
      Canonical.canonical_key e = reference_canonical_key e
      && Canonical.canonical_key ~resolve_alias e
         = reference_canonical_key ~resolve_alias e)

(* The estimate memo's classes are exactly the canonical-key classes.  A
   context with aliases t1 and t2 registered under alpha-equivalent
   definitions gives every expression the class of its key with each
   alias named by its definition's id; the second expression of a pair is
   often a variant of the first (indices renamed, commutative children
   reversed, t1 and t2 swapped), so equal keys are exercised too. *)
let interning_ctx () : Galley_stats.Ctx.t =
  let prng = Galley_tensor.Prng.create 5 in
  let a =
    T.random ~prng ~dims:[| 4; 4 |] ~formats:[| T.Dense; T.Sparse_list |]
      ~density:0.5 ()
  in
  let schema = Schema.create () in
  Schema.declare_tensor schema "A" a;
  let ctx = Galley_stats.Ctx.create schema in
  ctx.Galley_stats.Ctx.register_input "A" a;
  List.iter
    (fun (name, j) ->
      let def = Ir.(sum [ j ] (input "A" [ "i"; j ])) in
      Schema.declare_query_output schema
        { Ir.name; expr = def; out_order = Some [ "i" ] }
        ~output_idxs:[ "i" ];
      Galley_stats.Ctx.register_alias_estimated ctx name ~output_idxs:[ "i" ] def)
    [ ("t1", "j"); ("t2", "k") ];
  ctx

let rec key_variant (e : Ir.expr) : Ir.expr =
  let rename i =
    match i with "i" -> "l" | "j" -> "i" | "k" -> "j" | "l" -> "k" | i -> i
  in
  match e with
  | Ir.Input (n, idxs) -> Ir.Input (n, List.map rename idxs)
  | Ir.Alias (n, idxs) ->
      Ir.Alias ((match n with "t1" -> "t2" | "t2" -> "t1" | n -> n), List.map rename idxs)
  | Ir.Literal _ -> e
  | Ir.Map (op, args) ->
      let args = List.map key_variant args in
      Ir.Map (op, if Op.is_commutative op then List.rev args else args)
  | Ir.Agg (op, idxs, body) -> Ir.Agg (op, List.map rename idxs, key_variant body)

let prop_interned_classes_are_key_classes =
  let ctx = interning_ctx () in
  let resolve_alias = ctx.Galley_stats.Ctx.resolve in
  QCheck.Test.make ~name:"interned classes are canonical-key classes"
    ~count:500 (QCheck.int_range 0 100_000) (fun seed ->
      let prng = Galley_tensor.Prng.create seed in
      let e1 = random_key_expr prng in
      let e2 =
        if Galley_tensor.Prng.int prng 2 = 0 then key_variant e1
        else random_key_expr prng
      in
      let key e = Canonical.canonical_key ~resolve_alias e in
      let cls e = ctx.Galley_stats.Ctx.class_of (Galley_plan.Intern.of_expr e) in
      Bool.equal (cls e1 = cls e2) (String.equal (key e1) (key e2)))

let test_alias_resolves_to_definition () =
  let ctx = interning_ctx () in
  let resolve = ctx.Galley_stats.Ctx.resolve in
  Alcotest.(check bool) "a definition id" true
    (String.length (resolve "t1") > 2 && String.sub (resolve "t1") 0 2 = "D:");
  check_str "equal definitions, one id" (resolve "t1") (resolve "t2");
  check_str "no definition, the name" "A" (resolve "A");
  let cls e = ctx.Galley_stats.Ctx.class_of (Galley_plan.Intern.of_expr e) in
  Alcotest.(check int) "an alias's class follows its definition"
    (cls (Ir.alias "t1" [ "x" ]))
    (cls (Ir.alias "t2" [ "x" ]));
  Alcotest.(check bool) "not an input's" true
    (cls (Ir.alias "t1" [ "x" ]) <> cls (Ir.input "A" [ "x" ]))

(* -------------------------------------------------------------- *)
(* Schema.                                                          *)
(* -------------------------------------------------------------- *)

let test_schema_index_dims () =
  let schema = schema_with [ ("A", [| 3; 4 |]); ("B", [| 4; 5 |]) ] in
  let e = Ir.(mul [ input "A" [ "i"; "j" ]; input "B" [ "j"; "k" ] ]) in
  let dims = Schema.index_dims schema e in
  Alcotest.(check int) "i" 3 (Schema.dim_of_idx dims "i");
  Alcotest.(check int) "j" 4 (Schema.dim_of_idx dims "j");
  Alcotest.(check int) "k" 5 (Schema.dim_of_idx dims "k")

let test_schema_inconsistent () =
  let schema = schema_with [ ("A", [| 3 |]); ("B", [| 4 |]) ] in
  let e = Ir.(mul [ input "A" [ "i" ]; input "B" [ "i" ] ]) in
  Alcotest.check_raises "conflict"
    (Invalid_argument "Schema: index i bound to both 3 and 4") (fun () ->
      ignore (Schema.index_dims schema e))

let test_schema_arity_mismatch () =
  let schema = schema_with [ ("A", [| 3; 4 |]) ] in
  let e = Ir.input "A" [ "i" ] in
  check_bool "raises" true
    (try
       ignore (Schema.index_dims schema e);
       false
     with Invalid_argument _ -> true)

let test_expr_fill () =
  let schema = schema_with [ ("A", [| 3; 4 |]) ] in
  let dims = Ir.Idx_map.(add "i" 3 (add "j" 4 empty)) in
  let fill_of e = Schema.expr_fill schema dims e in
  Alcotest.(check (float 1e-9))
    "sigmoid fill" 0.5
    (fill_of Ir.(map Op.Sigmoid [ input "A" [ "i"; "j" ] ]));
  Alcotest.(check (float 1e-9))
    "sum fill" 0.0
    (fill_of Ir.(sum [ "j" ] (input "A" [ "i"; "j" ])));
  Alcotest.(check (float 1e-9))
    "sum of shifted fill" 8.0
    (fill_of Ir.(sum [ "j" ] (add [ input "A" [ "i"; "j" ]; lit 2.0 ])))

let test_query_output_declare () =
  let schema = schema_with [ ("A", [| 3; 4 |]) ] in
  let q = Ir.query "Q" Ir.(sum [ "j" ] (input "A" [ "i"; "j" ])) in
  Schema.declare_query_output schema q ~output_idxs:[ "i" ];
  let info = Schema.info_exn schema "Q" in
  Alcotest.(check (array int)) "dims" [| 3 |] info.Schema.dims

(* -------------------------------------------------------------- *)
(* Logical dialect validation.                                      *)
(* -------------------------------------------------------------- *)

let test_logical_query_validation () =
  let body = Ir.(mul [ input "A" [ "i"; "j" ]; input "B" [ "j" ] ]) in
  let q =
    Galley_plan.Logical_query.make ~name:"q" ~agg_op:Op.Add ~agg_idxs:[ "j" ]
      ~body ()
  in
  Alcotest.(check (list string)) "outputs" [ "i" ] q.Galley_plan.Logical_query.output_idxs;
  check_bool "agg body rejected" true
    (try
       ignore
         (Galley_plan.Logical_query.make ~name:"bad" ~agg_op:Op.Add
            ~agg_idxs:[ "i" ]
            ~body:Ir.(sum [ "j" ] (input "A" [ "i"; "j" ]))
            ());
       false
     with Invalid_argument _ -> true)

let test_logical_of_query () =
  let q =
    Ir.query "q" Ir.(sum [ "i"; "j" ] (input "A" [ "i"; "j" ]))
  in
  (match Galley_plan.Logical_query.of_query q with
  | Some lq ->
      Alcotest.(check (list string)) "no outputs" [] lq.Galley_plan.Logical_query.output_idxs
  | None -> Alcotest.fail "should convert");
  let nested =
    Ir.query "q2"
      Ir.(sum [ "i" ] (map Op.Sqrt [ sum [ "j" ] (input "A" [ "i"; "j" ]) ]))
  in
  check_bool "nested agg not logical" true
    (Galley_plan.Logical_query.of_query nested = None)

(* Property: canonicalization preserves free indices. *)
let prop_canonicalize_preserves_free =
  QCheck.Test.make ~name:"canonicalize preserves free indices" ~count:100
    (QCheck.int_range 0 10_000)
    (fun seed ->
      let prng = Galley_tensor.Prng.create seed in
      let schema = Schema.create () in
      Schema.declare schema "A" ~dims:[| 3; 4 |] ~fill:0.0;
      Schema.declare schema "B" ~dims:[| 4 |] ~fill:0.0;
      Schema.declare schema "C" ~dims:[| 3 |] ~fill:0.0;
      (* random small expression *)
      let rec gen depth =
        if depth = 0 || Galley_tensor.Prng.int prng 3 = 0 then
          match Galley_tensor.Prng.int prng 3 with
          | 0 -> Ir.input "A" [ "i"; "j" ]
          | 1 -> Ir.input "B" [ "j" ]
          | _ -> Ir.input "C" [ "i" ]
        else
          match Galley_tensor.Prng.int prng 4 with
          | 0 -> Ir.add [ gen (depth - 1); gen (depth - 1) ]
          | 1 -> Ir.mul [ gen (depth - 1); gen (depth - 1) ]
          | 2 -> Ir.map Op.Sigmoid [ gen (depth - 1) ]
          | _ ->
              (* only aggregate indices the body actually mentions, so
                 every index has a known dimension *)
              let body = gen (depth - 1) in
              if Ir.Idx_set.mem "j" (Ir.free_indices body) then
                Ir.sum [ "j" ] body
              else body
      in
      let e = gen 3 in
      let free_before = Ir.free_indices e in
      let free_after = Ir.free_indices (canonicalize schema e) in
      Ir.Idx_set.equal free_before free_after)

let () =
  Alcotest.run "ir"
    [
      ( "indices",
        [
          Alcotest.test_case "free/all/aggregated" `Quick test_free_indices;
          Alcotest.test_case "contains_agg" `Quick test_contains_agg;
          Alcotest.test_case "rename" `Quick test_rename;
        ] );
      ( "canonicalization",
        [
          Alcotest.test_case "merge maps" `Quick test_merge_nested_maps;
          Alcotest.test_case "merge aggs" `Quick test_merge_nested_aggs;
          Alcotest.test_case "lift agg" `Quick test_lift_agg_above_map;
          Alcotest.test_case "no lift across infinities" `Quick
            test_no_lift_across_infinities;
          Alcotest.test_case "shadowed binder" `Quick test_no_lift_when_mentioned;
          Alcotest.test_case "uniquify" `Quick test_uniquify_shadowing;
          Alcotest.test_case "absent index" `Quick test_agg_over_absent_index;
          Alcotest.test_case "empty agg" `Quick test_empty_agg_dropped;
          Alcotest.test_case "literal folding" `Quick test_literal_folding;
        ] );
      ( "canonical keys",
        [
          Alcotest.test_case "alpha equivalence" `Quick test_canonical_key_alpha_equivalence;
          Alcotest.test_case "commutative order" `Quick test_canonical_key_commutative_order;
          Alcotest.test_case "distinguishes" `Quick test_canonical_key_distinguishes;
          Alcotest.test_case "noncommutative order" `Quick test_canonical_key_noncommutative_order;
          Alcotest.test_case "alias resolution" `Quick test_resolve_alias_key;
          Alcotest.test_case "alias class is its definition's" `Quick
            test_alias_resolves_to_definition;
        ] );
      ( "schema",
        [
          Alcotest.test_case "index dims" `Quick test_schema_index_dims;
          Alcotest.test_case "inconsistent" `Quick test_schema_inconsistent;
          Alcotest.test_case "arity mismatch" `Quick test_schema_arity_mismatch;
          Alcotest.test_case "expr fill" `Quick test_expr_fill;
          Alcotest.test_case "query output" `Quick test_query_output_declare;
        ] );
      ( "logical dialect",
        [
          Alcotest.test_case "validation" `Quick test_logical_query_validation;
          Alcotest.test_case "of_query" `Quick test_logical_of_query;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_canonicalize_preserves_free;
            prop_canonical_key_matches_reference;
            prop_interned_classes_are_key_classes;
          ] );
    ]
