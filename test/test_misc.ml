(* Additional coverage: tensor IO roundtrips, growable vectors, the
   distributivity expansion pass, error handling and failure injection
   across layers, and plan pretty-printers. *)

module T = Galley_tensor.Tensor
module Io = Galley_tensor.Tensor_io
module Vec = Galley_tensor.Vec
module Prng = Galley_tensor.Prng
module Ir = Galley_plan.Ir
module Op = Galley_plan.Op
module Dist = Galley_logical.Distribute
module D = Galley.Driver

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* -------------------------------------------------------------- *)
(* Tensor IO.                                                       *)
(* -------------------------------------------------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "galley_test" ".coo" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_io_roundtrip () =
  with_temp_file (fun path ->
      let prng = Prng.create 1 in
      let t =
        T.random ~prng ~dims:[| 6; 8 |] ~formats:[| T.Dense; T.Sparse_list |]
          ~density:0.3 ()
      in
      Io.save path t;
      let t2 = Io.load path in
      check_bool "values preserved" true (T.equal_approx t t2);
      Alcotest.(check (array int)) "dims" (T.dims t) (T.dims t2);
      check_float "fill" (T.fill t) (T.fill t2))

let test_io_nonzero_fill () =
  with_temp_file (fun path ->
      let t =
        T.of_coo ~fill:0.5 ~dims:[| 4 |] ~formats:[| T.Sparse_list |]
          [| ([| 2 |], 1.5) |]
      in
      Io.save path t;
      let t2 = Io.load path in
      check_float "fill restored" 0.5 (T.fill t2);
      check_float "entry" 1.5 (T.get t2 [| 2 |]);
      check_float "background" 0.5 (T.get t2 [| 0 |]))

(* Values come back with the same bits: random finite values, signed
   zeros, subnormals, ±inf and NaNs (canonical and with a payload), as
   entries and as fills. *)
let test_io_bit_exact () =
  let bits = Int64.bits_of_float in
  let prng = Prng.create 7 in
  let specials =
    [| 0.0; -0.0; 5e-324; -2.2250738585072009e-308; Float.max_float;
       infinity; neg_infinity; Float.nan;
       Int64.float_of_bits 0xfff8_0000_0000_0000L;
       Int64.float_of_bits 0x7ff0_0000_0000_0abcL |]
  in
  let random_finite () =
    let rec go () =
      let v = Int64.float_of_bits (Prng.next_int64 prng) in
      if Float.is_finite v then v else go ()
    in
    go ()
  in
  let n = 64 in
  let values =
    Array.init n (fun k ->
        if k < Array.length specials then specials.(k) else random_finite ())
  in
  List.iter
    (fun fill ->
      with_temp_file (fun path ->
          let t =
            T.of_coo ~fill ~prune:false ~dims:[| n |] ~formats:[| T.Sparse_list |]
              (Array.mapi (fun k v -> ([| k |], v)) values)
          in
          Io.save path t;
          let t2 = Io.load path in
          check_bool (Printf.sprintf "fill %h" fill) true
            (bits (T.fill t2) = bits fill);
          (* An entry equal to the fill (0 and -0 alike) is not stored. *)
          Array.iteri
            (fun k v ->
              if v <> fill then
                check_bool (Printf.sprintf "entry %d: %h" k v) true
                  (bits (T.get t2 [| k |]) = bits v))
            values))
    [ 0.0; -0.0; infinity; Float.nan; 0.1 ]

let test_io_missing_dims () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "0 1 2.5\n";
      close_out oc;
      check_bool "missing header rejected" true
        (try
           ignore (Io.load path);
           false
         with Invalid_argument _ -> true))

let test_io_comments_and_blank_lines () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "# dims: 3\n\n# a comment\n1 2.0\n\n";
      close_out oc;
      let t = Io.load path in
      check_float "parsed" 2.0 (T.get t [| 1 |]))

(* -------------------------------------------------------------- *)
(* Growable vectors.                                                *)
(* -------------------------------------------------------------- *)

let test_vec_float_growth () =
  let v = Vec.Float.create ~capacity:1 () in
  for i = 0 to 999 do
    Vec.Float.push v (float_of_int i)
  done;
  check_int "length" 1000 (Vec.Float.length v);
  check_float "first" 0.0 (Vec.Float.get v 0);
  check_float "last" 999.0 (Vec.Float.get v 999);
  Vec.Float.set v 500 (-1.0);
  check_float "set" (-1.0) (Vec.Float.get v 500);
  check_int "to_array" 1000 (Array.length (Vec.Float.to_array v));
  Vec.Float.clear v;
  check_int "cleared" 0 (Vec.Float.length v)

let test_vec_int_last () =
  let v = Vec.Int.create () in
  Vec.Int.push v 3;
  Vec.Int.push v 7;
  check_int "last" 7 (Vec.Int.last v)

let test_vec_poly () =
  let v = Vec.Poly.create ~dummy:"" () in
  Vec.Poly.push v "a";
  Vec.Poly.push v "b";
  Alcotest.(check string) "get" "b" (Vec.Poly.get v 1);
  Vec.Poly.set v 0 "z";
  Alcotest.(check (array string)) "to_array" [| "z"; "b" |] (Vec.Poly.to_array v)

(* -------------------------------------------------------------- *)
(* Distribution pass.                                               *)
(* -------------------------------------------------------------- *)

let test_normalize_square () =
  match Dist.normalize (Ir.map Op.Square [ Ir.input "A" [ "i" ] ]) with
  | Ir.Map (Op.Mul, [ Ir.Input ("A", _); Ir.Input ("A", _) ]) -> ()
  | e -> Alcotest.failf "unexpected %s" (Ir.expr_to_string e)

let test_normalize_sub () =
  match Dist.normalize (Ir.Map (Op.Sub, [ Ir.input "A" [ "i" ]; Ir.input "B" [ "i" ] ])) with
  | Ir.Map (Op.Add, [ Ir.Input ("A", _); Ir.Map (Op.Neg, [ Ir.Input ("B", _) ]) ]) -> ()
  | e -> Alcotest.failf "unexpected %s" (Ir.expr_to_string e)

let test_hoist_neg_parity () =
  let neg x = Ir.Map (Op.Neg, [ x ]) in
  let e = Ir.mul [ neg (Ir.input "A" [ "i" ]); neg (Ir.input "B" [ "i" ]) ] in
  (match Dist.hoist_neg e with
  | Ir.Map (Op.Mul, _) -> () (* two negations cancel *)
  | e' -> Alcotest.failf "even parity: %s" (Ir.expr_to_string e'));
  let e3 = Ir.mul [ neg (Ir.input "A" [ "i" ]); Ir.input "B" [ "i" ] ] in
  match Dist.hoist_neg e3 with
  | Ir.Map (Op.Neg, [ Ir.Map (Op.Mul, _) ]) -> ()
  | e' -> Alcotest.failf "odd parity: %s" (Ir.expr_to_string e')

let test_expand_product_of_sums () =
  let e =
    Ir.mul
      [
        Ir.add [ Ir.input "A" [ "i" ]; Ir.input "B" [ "i" ] ];
        Ir.input "C" [ "i" ];
      ]
  in
  match Dist.expand e with
  | Ir.Map (Op.Add, [ Ir.Map (Op.Mul, _); Ir.Map (Op.Mul, _) ]) -> ()
  | e' -> Alcotest.failf "unexpected %s" (Ir.expr_to_string e')

let test_expand_size_cap () =
  (* A product of many sums explodes; the expansion must bail out. *)
  let sum2 k =
    Ir.add
      [ Ir.input (Printf.sprintf "A%d" k) [ "i" ]; Ir.input (Printf.sprintf "B%d" k) [ "i" ] ]
  in
  let e = Ir.mul (List.init 12 sum2) in
  check_bool "raises Too_large" true
    (try
       ignore (Dist.expand e);
       false
     with Dist.Too_large -> true)

let test_distributed_variant_none_when_same () =
  let schema = Galley_plan.Schema.create () in
  Galley_plan.Schema.declare schema "A" ~dims:[| 4 |] ~fill:0.0;
  check_bool "no change, no variant" true
    (Dist.distributed_variant
       ~binder:(Galley_plan.Canonical.binder_namer ())
       schema (Ir.input "A" [ "i" ])
    = None)

(* -------------------------------------------------------------- *)
(* Failure injection across layers.                                 *)
(* -------------------------------------------------------------- *)

let test_run_with_unbound_input () =
  let q = Ir.query "r" (Ir.input "NOPE" [ "i" ]) in
  check_bool "raises" true
    (try
       ignore (D.run_query ~inputs:[] q);
       false
     with Invalid_argument _ -> true)

let test_run_with_arity_mismatch () =
  let prng = Prng.create 2 in
  let a = T.random ~prng ~dims:[| 4; 4 |] ~formats:[| T.Dense; T.Dense |] ~density:0.5 () in
  let q = Ir.query "r" (Ir.input "A" [ "i" ]) in
  check_bool "raises" true
    (try
       ignore (D.run_query ~inputs:[ ("A", a) ] q);
       false
     with Invalid_argument _ -> true)

let test_run_with_dim_conflict () =
  let prng = Prng.create 3 in
  let a = T.random ~prng ~dims:[| 4 |] ~formats:[| T.Dense |] ~density:0.5 () in
  let b = T.random ~prng ~dims:[| 5 |] ~formats:[| T.Dense |] ~density:0.5 () in
  let q = Ir.query "r" (Ir.mul [ Ir.input "A" [ "i" ]; Ir.input "B" [ "i" ] ]) in
  check_bool "raises" true
    (try
       ignore (D.run_query ~inputs:[ ("A", a); ("B", b) ] q);
       false
     with Invalid_argument _ -> true)

let test_bad_aggregate_op () =
  check_bool "sub is not an aggregate" true
    (try
       ignore (Ir.agg Op.Sub [ "i" ] (Ir.input "A" [ "i" ]));
       false
     with Invalid_argument _ -> true)

let test_bad_map_arity () =
  check_bool "binary op with 3 args" true
    (try
       ignore (Ir.map Op.Sub [ Ir.lit 1.0; Ir.lit 2.0; Ir.lit 3.0 ]);
       false
     with Invalid_argument _ -> true)

let test_output_of_missing () =
  let prng = Prng.create 4 in
  let a = T.random ~prng ~dims:[| 4 |] ~formats:[| T.Dense |] ~density:0.5 () in
  let r = D.run_query ~inputs:[ ("A", a) ] (Ir.query "r" (Ir.input "A" [ "i" ])) in
  check_bool "missing output raises" true
    (try
       ignore (D.output_of r "nope");
       false
     with Invalid_argument _ -> true)

(* -------------------------------------------------------------- *)
(* Pretty printers (smoke: non-empty, no exceptions).                *)
(* -------------------------------------------------------------- *)

let test_pretty_printers () =
  let prng = Prng.create 5 in
  let a = T.random ~prng ~dims:[| 5; 5 |] ~formats:[| T.Dense; T.Sparse_list |] ~density:0.4 () in
  let q =
    Ir.query ~out_order:[ "i" ] "r"
      Ir.(sum [ "j" ] (mul [ input "A" [ "i"; "j" ]; input "A" [ "j"; "i" ] ]))
  in
  let res = D.run_query ~inputs:[ ("A", a) ] q in
  let s1 =
    String.concat "\n"
      (List.map Galley_plan.Logical_query.to_string res.D.logical_plan)
  in
  let s2 = Galley_plan.Physical.plan_to_string res.D.physical_plan in
  check_bool "logical pp" true (String.length s1 > 0);
  check_bool "physical pp" true (String.length s2 > 0);
  check_bool "tensor pp" true (String.length (T.to_string a) > 0);
  check_bool "program pp" true
    (String.length (Ir.program_to_string { Ir.queries = [ q ]; outputs = [ "r" ] }) > 0)

(* -------------------------------------------------------------- *)
(* Session kernel-cache accounting across repeated plans.            *)
(* -------------------------------------------------------------- *)

let test_session_kernel_cache_warm () =
  let prng = Prng.create 6 in
  let a = T.random ~prng ~dims:[| 30; 30 |] ~formats:[| T.Dense; T.Sparse_list |] ~density:0.2 () in
  let plan =
    [
      Galley_plan.Logical_query.make ~output_idxs:[ "i" ] ~name:"rowsum"
        ~agg_op:Op.Add ~agg_idxs:[ "j" ] ~body:(Ir.input "A" [ "i"; "j" ]) ();
    ]
  in
  let s = D.Session.create () in
  D.Session.bind s "A" a;
  let r1 = D.Session.run_logical_plan s ~outputs:[ "rowsum" ] plan in
  (* Session timings report per-run deltas: the cold run compiles, the
     warm run reuses the resident kernel cache and compiles nothing. *)
  check_bool "cold run compiled" true (r1.D.timings.D.compile_count >= 1);
  let r2 = D.Session.run_logical_plan s ~outputs:[ "rowsum" ] plan in
  check_int "no new compilations when warm" 0 r2.D.timings.D.compile_count

(* A session runs a hand-written plan the same with and without JIT: every
   query's output must be registered before planning, so that planning the
   whole program up front ([jit = false]) sees the aliases, and the outputs
   agree bit for bit. *)
let test_session_logical_plan_no_jit () =
  let module W = Galley_workloads in
  let star = W.Tpch.star_instance ~scale:W.Tpch.tiny_scale ~seed:14 () in
  let inputs =
    star.W.Tpch.inputs
    @ W.Ml.parameter_inputs ~seed:17 ~d:star.W.Tpch.d ~hidden:4
  in
  let plan, out =
    W.Ml.baseline_plan W.Ml.Linreg ~x:star.W.Tpch.x_def ~pts:[ "i" ]
  in
  let run jit =
    let config =
      {
        D.default_config with
        jit;
        physical = W.Ml.baseline_physical_config ~pts:1 ~dense:false;
      }
    in
    let s = D.Session.create ~config ~inputs () in
    D.output_of (D.Session.run_logical_plan s ~outputs:[ out ] plan) out
  in
  let jit = T.to_coo (run true) and no_jit = T.to_coo (run false) in
  check_int "same entries" (Array.length jit) (Array.length no_jit);
  Array.iter2
    (fun (c, v) (c', v') ->
      check_bool "same coordinates" true (c = c');
      check_bool "same bits" true
        (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float v')))
    jit no_jit

let () =
  Alcotest.run "misc"
    [
      ( "tensor io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "nonzero fill" `Quick test_io_nonzero_fill;
          Alcotest.test_case "values round-trip bit-exactly" `Quick
            test_io_bit_exact;
          Alcotest.test_case "missing dims" `Quick test_io_missing_dims;
          Alcotest.test_case "comments" `Quick test_io_comments_and_blank_lines;
        ] );
      ( "vec",
        [
          Alcotest.test_case "float growth" `Quick test_vec_float_growth;
          Alcotest.test_case "int last" `Quick test_vec_int_last;
          Alcotest.test_case "poly" `Quick test_vec_poly;
        ] );
      ( "distribution",
        [
          Alcotest.test_case "square" `Quick test_normalize_square;
          Alcotest.test_case "sub" `Quick test_normalize_sub;
          Alcotest.test_case "neg parity" `Quick test_hoist_neg_parity;
          Alcotest.test_case "expand" `Quick test_expand_product_of_sums;
          Alcotest.test_case "size cap" `Quick test_expand_size_cap;
          Alcotest.test_case "identity" `Quick test_distributed_variant_none_when_same;
        ] );
      ( "failure injection",
        [
          Alcotest.test_case "unbound input" `Quick test_run_with_unbound_input;
          Alcotest.test_case "arity mismatch" `Quick test_run_with_arity_mismatch;
          Alcotest.test_case "dim conflict" `Quick test_run_with_dim_conflict;
          Alcotest.test_case "bad aggregate" `Quick test_bad_aggregate_op;
          Alcotest.test_case "bad map arity" `Quick test_bad_map_arity;
          Alcotest.test_case "missing output" `Quick test_output_of_missing;
        ] );
      ( "printing",
        [ Alcotest.test_case "pretty printers" `Quick test_pretty_printers ] );
      ( "session",
        [
          Alcotest.test_case "warm kernel cache" `Quick test_session_kernel_cache_warm;
          Alcotest.test_case "logical plan without jit" `Quick
            test_session_logical_plan_no_jit;
        ] );
    ]
