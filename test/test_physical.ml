(* Tests for the physical optimizer: constraint trees, loop-order choice
   (the paper's Example 6), transposition insertion for discordant inputs,
   output-format selection by sparsity and write pattern, format overrides,
   and access-protocol assignment. *)

module T = Galley_tensor.Tensor
module Prng = Galley_tensor.Prng
module Ir = Galley_plan.Ir
module Op = Galley_plan.Op
module Schema = Galley_plan.Schema
module LQ = Galley_plan.Logical_query
module Phys = Galley_plan.Physical
module Popt = Galley_physical.Optimizer
module Cons = Galley_physical.Constraints
module Ctx = Galley_stats.Ctx

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_ctx (inputs : (string * T.t) list) : Ctx.t =
  let schema = Schema.create () in
  List.iter (fun (n, t) -> Schema.declare_tensor schema n t) inputs;
  let ctx = Ctx.create schema in
  List.iter (fun (n, t) -> ctx.Ctx.register_input n t) inputs;
  ctx

let fresh_gen () =
  let c = ref 0 in
  fun () ->
    incr c;
    Printf.sprintf "#x%d" !c

let kernels_of (plan : Phys.plan) : Phys.kernel list =
  List.filter_map (function Phys.Kernel k -> Some k | _ -> None) plan

let transposes_of (plan : Phys.plan) =
  List.filter_map (function Phys.Transpose _ as t -> Some t | _ -> None) plan

(* -------------------------------------------------------------- *)
(* Constraint trees.                                                *)
(* -------------------------------------------------------------- *)

(* Facts of finite operands holding values in [0, 2]. *)
let finite _ = { Galley_tensor.Facts.lo = 0.0; hi = 2.0; nan = false }

let access tensor idxs =
  { Phys.tensor; kind = `Input; idxs; protocols = List.map (fun _ -> Phys.Lookup) idxs }

let test_constraint_mul_is_and () =
  let accesses = [| access "A" [ "i"; "j" ]; access "B" [ "j" ] |] in
  let body = Phys.P_map (Op.Mul, [ Phys.P_access 0; Phys.P_access 1 ]) in
  let tree = Cons.derive ~accesses ~fills:(fun _ -> 0.0) ~facts:finite ~idx:"j" body in
  match tree with
  | Cons.C_and members ->
      check_int "two members" 2 (List.length members)
  | t -> Alcotest.failf "expected and, got %s" (Format.asprintf "%a" Cons.pp t)

let test_constraint_add_is_or () =
  let accesses = [| access "A" [ "i" ]; access "B" [ "i" ] |] in
  let body = Phys.P_map (Op.Add, [ Phys.P_access 0; Phys.P_access 1 ]) in
  match Cons.derive ~accesses ~fills:(fun _ -> 0.0) ~facts:finite ~idx:"i" body with
  | Cons.C_or members -> check_int "two members" 2 (List.length members)
  | t -> Alcotest.failf "expected or, got %s" (Format.asprintf "%a" Cons.pp t)

let test_constraint_nonzero_fill_breaks_and () =
  (* Mul(A fill 0, B fill 1): only A constrains. *)
  let accesses = [| access "A" [ "i" ]; access "B" [ "i" ] |] in
  let body = Phys.P_map (Op.Mul, [ Phys.P_access 0; Phys.P_access 1 ]) in
  match
    Cons.derive ~accesses
      ~fills:(fun a -> if a = 0 then 0.0 else 1.0)
      ~facts:finite ~idx:"i" body
  with
  | Cons.C_access 0 -> ()
  | t -> Alcotest.failf "expected access 0, got %s" (Format.asprintf "%a" Cons.pp t)

let test_constraint_literal_zero_annihilates () =
  let accesses = [| access "A" [ "i" ] |] in
  let body = Phys.P_map (Op.Mul, [ Phys.P_access 0; Phys.P_literal 0.0 ]) in
  check_bool "constant zero" true
    (Cons.derive ~accesses ~fills:(fun _ -> 0.0) ~facts:finite ~idx:"i" body = Cons.C_empty)

let test_constraint_unmentioned_index () =
  let accesses = [| access "A" [ "i" ] |] in
  let body = Phys.P_access 0 in
  check_bool "cylindrical" true
    (Cons.derive ~accesses ~fills:(fun _ -> 0.0) ~facts:finite ~idx:"z" body = Cons.C_all)

let test_constraint_mixed_tree () =
  (* (A_i * B_i) + C_i -> or(and(A,B), C) *)
  let accesses = [| access "A" [ "i" ]; access "B" [ "i" ]; access "C" [ "i" ] |] in
  let body =
    Phys.P_map
      (Op.Add,
       [ Phys.P_map (Op.Mul, [ Phys.P_access 0; Phys.P_access 1 ]); Phys.P_access 2 ])
  in
  match Cons.derive ~accesses ~fills:(fun _ -> 0.0) ~facts:finite ~idx:"i" body with
  | Cons.C_or [ Cons.C_and _; Cons.C_access 2 ] -> ()
  | t -> Alcotest.failf "unexpected tree %s" (Format.asprintf "%a" Cons.pp t)

(* -------------------------------------------------------------- *)
(* Loop order (paper Example 6).                                    *)
(* -------------------------------------------------------------- *)

let test_example6_loop_order () =
  (* D[i,l] = Σ_jk A[i,j] B[j,k] C[k,l]; A has a single non-zero, B and C
     are much denser.  The loop order must start from A's indices. *)
  let a =
    T.of_coo ~dims:[| 20; 20 |] ~formats:[| T.Dense; T.Sparse_list |]
      [| ([| 3; 7 |], 1.0) |]
  in
  let prng = Prng.create 61 in
  let b =
    T.random ~prng ~dims:[| 20; 20 |] ~formats:[| T.Dense; T.Sparse_list |]
      ~density:0.25 ()
  in
  let c =
    T.random ~prng ~dims:[| 20; 20 |] ~formats:[| T.Dense; T.Sparse_list |]
      ~density:0.25 ()
  in
  let ctx = make_ctx [ ("A", a); ("B", b); ("C", c) ] in
  let q =
    LQ.make ~output_idxs:[ "i"; "l" ] ~name:"D" ~agg_op:Op.Add
      ~agg_idxs:[ "j"; "k" ]
      ~body:
        Ir.(
          mul
            [
              input "A" [ "i"; "j" ]; input "B" [ "j"; "k" ];
              input "C" [ "k"; "l" ];
            ])
      ()
  in
  let plan = Popt.plan_query ctx ~fresh:(fresh_gen ()) q in
  let k = List.hd (kernels_of plan) in
  (match k.Phys.loop_order with
  | x :: y :: _ ->
      check_bool "starts from A's indices" true
        (List.mem x [ "i"; "j" ] && List.mem y [ "i"; "j" ])
  | _ -> Alcotest.fail "short loop order");
  Phys.validate_kernel k

let test_transpose_inserted_for_discordant () =
  (* Sum over rows with a CSR-style matrix forces either loop order j-last
     or a transpose; ask for output ordered by j only: Σ_i A[i,j]. *)
  let prng = Prng.create 63 in
  let a =
    T.random ~prng ~dims:[| 12; 12 |] ~formats:[| T.Dense; T.Sparse_list |]
      ~density:0.3 ()
  in
  (* force discordance: access A as [j,i] (transposed view) *)
  let ctx = make_ctx [ ("A", a) ] in
  let q =
    LQ.make ~output_idxs:[ "j" ] ~name:"colsum" ~agg_op:Op.Add ~agg_idxs:[ "i" ]
      ~body:(Ir.mul [ Ir.input "A" [ "i"; "j" ]; Ir.input "A" [ "j"; "i" ] ])
      ()
  in
  let plan = Popt.plan_query ctx ~fresh:(fresh_gen ()) q in
  (* whatever the loop order, the two accesses of A cannot both be
     concordant: at least one transpose step must appear *)
  check_bool "has transpose" true (transposes_of plan <> []);
  List.iter (function Phys.Kernel k -> Phys.validate_kernel k | _ -> ()) plan

let test_output_order_respected () =
  let prng = Prng.create 65 in
  let a =
    T.random ~prng ~dims:[| 10; 14 |] ~formats:[| T.Dense; T.Sparse_list |]
      ~density:0.3 ()
  in
  let ctx = make_ctx [ ("A", a) ] in
  let q =
    LQ.make ~output_idxs:[ "j"; "i" ] ~name:"tr" ~agg_op:Op.Ident ~agg_idxs:[]
      ~body:(Ir.input "A" [ "i"; "j" ]) ()
  in
  let plan = Popt.plan_query ctx ~fresh:(fresh_gen ()) q in
  (* final step must produce "tr" *)
  let last = List.nth plan (List.length plan - 1) in
  let name =
    match last with Phys.Kernel k -> k.Phys.name | Phys.Transpose t -> t.name
  in
  Alcotest.(check string) "final name" "tr" name

(* -------------------------------------------------------------- *)
(* Output formats.                                                  *)
(* -------------------------------------------------------------- *)

let test_dense_output_for_dense_result () =
  let prng = Prng.create 67 in
  let a =
    T.random ~prng ~dims:[| 10; 10 |] ~formats:[| T.Dense; T.Sparse_list |]
      ~density:0.9 ()
  in
  let ctx = make_ctx [ ("A", a) ] in
  let q =
    LQ.make ~output_idxs:[ "i" ] ~name:"r" ~agg_op:Op.Add ~agg_idxs:[ "j" ]
      ~body:(Ir.input "A" [ "i"; "j" ]) ()
  in
  let plan = Popt.plan_query ctx ~fresh:(fresh_gen ()) q in
  let k = List.hd (kernels_of plan) in
  check_bool "dense" true (k.Phys.output_formats.(0) = T.Dense)

let test_sparse_output_for_sparse_result () =
  (* a 1000-long vector with 3 non-zeros keeps a sparse output *)
  let a =
    T.of_coo ~dims:[| 1000; 4 |] ~formats:[| T.Sparse_list; T.Sparse_list |]
      [| ([| 5; 0 |], 1.0); ([| 500; 1 |], 1.0); ([| 900; 2 |], 1.0) |]
  in
  let ctx = make_ctx [ ("A", a) ] in
  let q =
    LQ.make ~output_idxs:[ "i" ] ~name:"r" ~agg_op:Op.Add ~agg_idxs:[ "j" ]
      ~body:(Ir.input "A" [ "i"; "j" ]) ()
  in
  let plan = Popt.plan_query ctx ~fresh:(fresh_gen ()) q in
  let k = List.hd (kernels_of plan) in
  check_bool "not dense" true (k.Phys.output_formats.(0) <> T.Dense)

let test_format_override () =
  let prng = Prng.create 69 in
  let a =
    T.random ~prng ~dims:[| 10; 10 |] ~formats:[| T.Dense; T.Sparse_list |]
      ~density:0.9 ()
  in
  let ctx = make_ctx [ ("A", a) ] in
  let q =
    LQ.make ~output_idxs:[ "i" ] ~name:"r" ~agg_op:Op.Add ~agg_idxs:[ "j" ]
      ~body:(Ir.input "A" [ "i"; "j" ]) ()
  in
  let config =
    {
      Popt.default_config with
      format_override = (fun n -> if n = "r" then Some [| T.Hash |] else None);
    }
  in
  let plan = Popt.plan_query ~config ctx ~fresh:(fresh_gen ()) q in
  let k = List.hd (kernels_of plan) in
  check_bool "hash forced" true (k.Phys.output_formats.(0) = T.Hash)

(* -------------------------------------------------------------- *)
(* Protocols.                                                       *)
(* -------------------------------------------------------------- *)

let test_leader_is_smaller_input () =
  (* Intersecting a 3-element vector with a dense one: the sparse vector
     should iterate and the dense one be probed. *)
  let small =
    T.of_coo ~dims:[| 100 |] ~formats:[| T.Sparse_list |]
      [| ([| 1 |], 1.0); ([| 50 |], 1.0); ([| 99 |], 1.0) |]
  in
  let big =
    T.of_fun ~dims:[| 100 |] ~formats:[| T.Dense |] (fun _ -> 1.0)
  in
  let ctx = make_ctx [ ("s", small); ("d", big) ] in
  let q =
    LQ.make ~output_idxs:[] ~name:"dot" ~agg_op:Op.Add ~agg_idxs:[ "i" ]
      ~body:(Ir.mul [ Ir.input "s" [ "i" ]; Ir.input "d" [ "i" ] ])
      ()
  in
  let plan = Popt.plan_query ctx ~fresh:(fresh_gen ()) q in
  let k = List.hd (kernels_of plan) in
  let proto_of name =
    let acc =
      Array.to_list k.Phys.accesses
      |> List.find (fun (a : Phys.access) -> a.Phys.tensor = name)
    in
    List.hd acc.Phys.protocols
  in
  check_bool "sparse iterates" true (proto_of "s" = Phys.Iterate);
  check_bool "dense probes" true (proto_of "d" = Phys.Lookup)

let test_union_all_iterate () =
  let prng = Prng.create 71 in
  let a = T.random ~prng ~dims:[| 50 |] ~formats:[| T.Sparse_list |] ~density:0.1 () in
  let b = T.random ~prng ~dims:[| 50 |] ~formats:[| T.Sparse_list |] ~density:0.1 () in
  let ctx = make_ctx [ ("a", a); ("b", b) ] in
  let q =
    LQ.make ~output_idxs:[ "i" ] ~name:"s" ~agg_op:Op.Ident ~agg_idxs:[]
      ~body:(Ir.add [ Ir.input "a" [ "i" ]; Ir.input "b" [ "i" ] ])
      ()
  in
  let plan = Popt.plan_query ctx ~fresh:(fresh_gen ()) q in
  let k = List.hd (kernels_of plan) in
  Array.iter
    (fun (acc : Phys.access) ->
      check_bool (acc.Phys.tensor ^ " iterates") true
        (List.hd acc.Phys.protocols = Phys.Iterate))
    k.Phys.accesses

(* -------------------------------------------------------------- *)
(* Kernel signatures.                                               *)
(* -------------------------------------------------------------- *)

let test_signature_name_independent () =
  let prng = Prng.create 73 in
  let a = T.random ~prng ~dims:[| 10; 10 |] ~formats:[| T.Dense; T.Sparse_list |] ~density:0.3 () in
  let mk name tname =
    let ctx = make_ctx [ (tname, a) ] in
    let q =
      LQ.make ~output_idxs:[ "i" ] ~name ~agg_op:Op.Add ~agg_idxs:[ "j" ]
        ~body:(Ir.input tname [ "i"; "j" ]) ()
    in
    List.hd (kernels_of (Popt.plan_query ctx ~fresh:(fresh_gen ()) q))
  in
  let k1 = mk "r1" "A" and k2 = mk "r2" "B" in
  let fmts = [| [| T.Dense; T.Sparse_list |] |] in
  Alcotest.(check string)
    "signatures equal"
    (Phys.signature k1 ~access_formats:fmts)
    (Phys.signature k2 ~access_formats:fmts)

let test_signature_distinguishes_formats () =
  let prng = Prng.create 75 in
  let a = T.random ~prng ~dims:[| 10; 10 |] ~formats:[| T.Dense; T.Sparse_list |] ~density:0.3 () in
  let ctx = make_ctx [ ("A", a) ] in
  let q =
    LQ.make ~output_idxs:[ "i" ] ~name:"r" ~agg_op:Op.Add ~agg_idxs:[ "j" ]
      ~body:(Ir.input "A" [ "i"; "j" ]) ()
  in
  let k = List.hd (kernels_of (Popt.plan_query ctx ~fresh:(fresh_gen ()) q)) in
  let s1 = Phys.signature k ~access_formats:[| [| T.Dense; T.Sparse_list |] |] in
  let s2 = Phys.signature k ~access_formats:[| [| T.Dense; T.Hash |] |] in
  check_bool "formats matter" true (s1 <> s2)

(* -------------------------------------------------------------- *)
(* Validation.                                                      *)
(* -------------------------------------------------------------- *)

let test_validate_rejects_discordant () =
  let k =
    {
      Phys.name = "bad";
      loop_order = [ "i"; "j" ];
      agg_op = Op.Add;
      agg_idxs = [ "j" ];
      output_idxs = [ "i" ];
      output_dims = [| 3 |];
      output_formats = [| T.Dense |];
      loop_dims = [| 3; 4 |];
      body = Phys.P_access 0;
      accesses = [| access "A" [ "j"; "i" ] |];
      body_fill = 0.0;
      output_fill = 0.0;
      agg_space = 4.0;
    }
  in
  check_bool "rejected" true
    (try
       Phys.validate_kernel k;
       false
     with Invalid_argument _ -> true)

let test_is_subsequence () =
  check_bool "yes" true (Phys.is_subsequence [ "a"; "c" ] [ "a"; "b"; "c" ]);
  check_bool "no" false (Phys.is_subsequence [ "c"; "a" ] [ "a"; "b"; "c" ]);
  check_bool "empty" true (Phys.is_subsequence [] [ "a" ])

let () =
  Alcotest.run "physical"
    [
      ( "constraints",
        [
          Alcotest.test_case "mul = and" `Quick test_constraint_mul_is_and;
          Alcotest.test_case "add = or" `Quick test_constraint_add_is_or;
          Alcotest.test_case "fill-aware and" `Quick test_constraint_nonzero_fill_breaks_and;
          Alcotest.test_case "literal zero" `Quick test_constraint_literal_zero_annihilates;
          Alcotest.test_case "cylindrical" `Quick test_constraint_unmentioned_index;
          Alcotest.test_case "mixed tree" `Quick test_constraint_mixed_tree;
        ] );
      ( "loop order",
        [
          Alcotest.test_case "example 6" `Quick test_example6_loop_order;
          Alcotest.test_case "transpose insertion" `Quick test_transpose_inserted_for_discordant;
          Alcotest.test_case "output order" `Quick test_output_order_respected;
        ] );
      ( "formats",
        [
          Alcotest.test_case "dense result" `Quick test_dense_output_for_dense_result;
          Alcotest.test_case "sparse result" `Quick test_sparse_output_for_sparse_result;
          Alcotest.test_case "override" `Quick test_format_override;
        ] );
      ( "protocols",
        [
          Alcotest.test_case "leader selection" `Quick test_leader_is_smaller_input;
          Alcotest.test_case "union iterates" `Quick test_union_all_iterate;
        ] );
      ( "signatures",
        [
          Alcotest.test_case "name independent" `Quick test_signature_name_independent;
          Alcotest.test_case "formats matter" `Quick test_signature_distinguishes_formats;
        ] );
      ( "validation",
        [
          Alcotest.test_case "discordant rejected" `Quick test_validate_rejects_discordant;
          Alcotest.test_case "subsequence" `Quick test_is_subsequence;
        ] );
    ]
