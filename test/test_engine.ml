(* Tests for the execution engine: kernel execution against the brute-force
   reference on targeted algebraic shapes (intersection, union, fill
   correction, max-aggregates, scalars), every output format, transposes,
   kernel-cache behaviour, CSE, binding versions, and timeouts. *)

module T = Galley_tensor.Tensor
module Prng = Galley_tensor.Prng
module Ir = Galley_plan.Ir
module Op = Galley_plan.Op
module Schema = Galley_plan.Schema
module LQ = Galley_plan.Logical_query
module Phys = Galley_plan.Physical
module Popt = Galley_physical.Optimizer
module Exec = Galley_engine.Exec
module Ctx = Galley_stats.Ctx

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let fresh_gen () =
  let c = ref 0 in
  fun () ->
    incr c;
    Printf.sprintf "#e%d" !c

(* Plan and execute one logical query over the given inputs. *)
let run_one ?config (inputs : (string * T.t) list) (q : LQ.t) : T.t =
  let schema = Schema.create () in
  List.iter (fun (n, t) -> Schema.declare_tensor schema n t) inputs;
  let ctx = Ctx.create schema in
  List.iter (fun (n, t) -> ctx.Ctx.register_input n t) inputs;
  let plan = Popt.plan_query ?config ctx ~fresh:(fresh_gen ()) q in
  let exec = Exec.create () in
  List.iter (fun (n, t) -> Exec.bind exec n t) inputs;
  Exec.run_plan exec plan;
  Exec.lookup exec q.LQ.name

(* Reference result for the same logical query. *)
let reference (inputs : (string * T.t) list) (q : LQ.t) : T.t =
  List.assoc q.LQ.name
    (Galley.Reference.eval_program inputs
       { Ir.queries = [ LQ.to_query q ]; outputs = [ q.LQ.name ] })

let check_against_reference ?config name inputs q =
  let got = run_one ?config inputs q in
  let want = reference inputs q in
  if not (T.equal_approx ~eps:1e-6 got want) then
    Alcotest.failf "%s: engine disagrees with reference:\ngot  %s\nwant %s" name
      (T.to_string got) (T.to_string want)

let sparse ~prng ~dims ~density =
  T.random ~prng ~dims
    ~formats:
      (Array.init (Array.length dims) (fun k ->
           if k = 0 then T.Dense else T.Sparse_list))
    ~density ()

(* -------------------------------------------------------------- *)
(* Algebraic shapes.                                                *)
(* -------------------------------------------------------------- *)

let test_matvec () =
  let prng = Prng.create 1 in
  let a = sparse ~prng ~dims:[| 8; 10 |] ~density:0.3 in
  let v = sparse ~prng ~dims:[| 10 |] ~density:0.7 in
  let q =
    LQ.make ~output_idxs:[ "i" ] ~name:"y" ~agg_op:Op.Add ~agg_idxs:[ "j" ]
      ~body:(Ir.mul [ Ir.input "A" [ "i"; "j" ]; Ir.input "v" [ "j" ] ])
      ()
  in
  check_against_reference "matvec" [ ("A", a); ("v", v) ] q

let test_union_add () =
  let prng = Prng.create 2 in
  let a = sparse ~prng ~dims:[| 12 |] ~density:0.25 in
  let b = sparse ~prng ~dims:[| 12 |] ~density:0.25 in
  let q =
    LQ.make ~output_idxs:[ "i" ] ~name:"s" ~agg_op:Op.Ident ~agg_idxs:[]
      ~body:(Ir.add [ Ir.input "a" [ "i" ]; Ir.input "b" [ "i" ] ])
      ()
  in
  check_against_reference "union add" [ ("a", a); ("b", b) ] q

let test_mixed_add_mul () =
  let prng = Prng.create 3 in
  let a = sparse ~prng ~dims:[| 6; 7 |] ~density:0.3 in
  let b = sparse ~prng ~dims:[| 7 |] ~density:0.5 in
  let c = sparse ~prng ~dims:[| 6; 7 |] ~density:0.3 in
  let q =
    LQ.make ~output_idxs:[ "i" ] ~name:"r" ~agg_op:Op.Add ~agg_idxs:[ "j" ]
      ~body:
        (Ir.add
           [
             Ir.mul [ Ir.input "A" [ "i"; "j" ]; Ir.input "b" [ "j" ] ];
             Ir.input "C" [ "i"; "j" ];
           ])
      ()
  in
  check_against_reference "mixed" [ ("A", a); ("b", b); ("C", c) ] q

let test_sigmoid_fill_propagation () =
  let prng = Prng.create 4 in
  let a = sparse ~prng ~dims:[| 9 |] ~density:0.3 in
  let q =
    LQ.make ~output_idxs:[ "i" ] ~name:"p" ~agg_op:Op.Ident ~agg_idxs:[]
      ~body:(Ir.map Op.Sigmoid [ Ir.input "a" [ "i" ] ])
      ()
  in
  let got = run_one [ ("a", a) ] q in
  check_float "fill is sigmoid(0)" 0.5 (T.fill got);
  check_against_reference "sigmoid" [ ("a", a) ] q

let test_max_aggregate_fill_correction () =
  (* max_j over a sparse row: untouched coordinates contribute the fill 0,
     so rows whose explicit values are all negative must produce 0. *)
  let a =
    T.of_coo ~dims:[| 3; 8 |] ~formats:[| T.Dense; T.Sparse_list |]
      [| ([| 0; 2 |], -5.0); ([| 0; 4 |], -1.0); ([| 1; 3 |], 7.0) |]
  in
  let q =
    LQ.make ~output_idxs:[ "i" ] ~name:"m" ~agg_op:Op.Max ~agg_idxs:[ "j" ]
      ~body:(Ir.input "A" [ "i"; "j" ]) ()
  in
  let got = run_one [ ("A", a) ] q in
  check_float "negative row maxes to fill" 0.0 (T.get got [| 0 |]);
  check_float "positive survives" 7.0 (T.get got [| 1 |]);
  check_float "empty row is fill" 0.0 (T.get got [| 2 |]);
  check_against_reference "max agg" [ ("A", a) ] q

let test_sum_with_nonzero_body_fill () =
  (* Σ_j (A[i,j] + 1): body fill is 1, so each row sums explicit values plus
     one per non-enumerated coordinate. *)
  let a =
    T.of_coo ~dims:[| 2; 5 |] ~formats:[| T.Dense; T.Sparse_list |]
      [| ([| 0; 1 |], 2.0); ([| 0; 3 |], 3.0) |]
  in
  let q =
    LQ.make ~output_idxs:[ "i" ] ~name:"s" ~agg_op:Op.Add ~agg_idxs:[ "j" ]
      ~body:(Ir.add [ Ir.input "A" [ "i"; "j" ]; Ir.lit 1.0 ])
      ()
  in
  let got = run_one [ ("A", a) ] q in
  check_float "row 0: 2+3 + 5 fills" 10.0 (T.get got [| 0 |]);
  check_float "row 1: all fill" 5.0 (T.get got [| 1 |]);
  check_against_reference "body fill" [ ("A", a) ] q

let test_scalar_output () =
  let prng = Prng.create 5 in
  let a = sparse ~prng ~dims:[| 6; 6 |] ~density:0.4 in
  let q =
    LQ.make ~output_idxs:[] ~name:"t" ~agg_op:Op.Add ~agg_idxs:[ "i"; "j" ]
      ~body:(Ir.input "A" [ "i"; "j" ]) ()
  in
  check_against_reference "full reduce" [ ("A", a) ] q

let test_scalar_input () =
  let prng = Prng.create 6 in
  let a = sparse ~prng ~dims:[| 6 |] ~density:0.6 in
  let c = T.scalar 2.5 in
  let q =
    LQ.make ~output_idxs:[ "i" ] ~name:"r" ~agg_op:Op.Ident ~agg_idxs:[]
      ~body:(Ir.mul [ Ir.input "a" [ "i" ]; Ir.input "c" [] ])
      ()
  in
  check_against_reference "scalar input" [ ("a", a); ("c", c) ] q

let test_comparison_output () =
  let prng = Prng.create 7 in
  let a = sparse ~prng ~dims:[| 10 |] ~density:0.5 in
  let q =
    LQ.make ~output_idxs:[ "i" ] ~name:"big" ~agg_op:Op.Ident ~agg_idxs:[]
      ~body:(Ir.Map (Op.Gt, [ Ir.input "a" [ "i" ]; Ir.lit 1.0 ]))
      ()
  in
  check_against_reference "comparison" [ ("a", a) ] q

let test_same_tensor_twice () =
  let prng = Prng.create 8 in
  let a = sparse ~prng ~dims:[| 7; 7 |] ~density:0.35 in
  let q =
    LQ.make ~output_idxs:[ "i"; "k" ] ~name:"sq" ~agg_op:Op.Add ~agg_idxs:[ "j" ]
      ~body:(Ir.mul [ Ir.input "A" [ "i"; "j" ]; Ir.input "A" [ "j"; "k" ] ])
      ()
  in
  check_against_reference "A*A" [ ("A", a) ] q

(* Each output format end-to-end via the format override. *)
let test_all_output_formats () =
  let prng = Prng.create 9 in
  let a = sparse ~prng ~dims:[| 9; 9 |] ~density:0.3 in
  let want =
    reference [ ("A", a) ]
      (LQ.make ~output_idxs:[ "i" ] ~name:"r" ~agg_op:Op.Add ~agg_idxs:[ "j" ]
         ~body:(Ir.input "A" [ "i"; "j" ]) ())
  in
  List.iter
    (fun fmt ->
      let q =
        LQ.make ~output_idxs:[ "i" ] ~name:"r" ~agg_op:Op.Add ~agg_idxs:[ "j" ]
          ~body:(Ir.input "A" [ "i"; "j" ]) ()
      in
      let config =
        {
          Popt.default_config with
          format_override = (fun n -> if n = "r" then Some [| fmt |] else None);
        }
      in
      let got = run_one ~config [ ("A", a) ] q in
      check_bool (T.format_to_string fmt) true (T.equal_approx ~eps:1e-9 got want))
    [ T.Dense; T.Sparse_list; T.Bytemap; T.Hash ]

(* -------------------------------------------------------------- *)
(* Caching, CSE, timeouts.                                          *)
(* -------------------------------------------------------------- *)

let plan_for (inputs : (string * T.t) list) (q : LQ.t) : Phys.plan =
  let schema = Schema.create () in
  List.iter (fun (n, t) -> Schema.declare_tensor schema n t) inputs;
  let ctx = Ctx.create schema in
  List.iter (fun (n, t) -> ctx.Ctx.register_input n t) inputs;
  Popt.plan_query ctx ~fresh:(fresh_gen ()) q

let test_kernel_cache_reuse () =
  let prng = Prng.create 10 in
  let a = sparse ~prng ~dims:[| 8; 8 |] ~density:0.3 in
  let b = sparse ~prng ~dims:[| 8; 8 |] ~density:0.3 in
  let q name tname =
    LQ.make ~output_idxs:[ "i" ] ~name ~agg_op:Op.Add ~agg_idxs:[ "j" ]
      ~body:(Ir.input tname [ "i"; "j" ]) ()
  in
  let inputs = [ ("A", a); ("B", b) ] in
  let exec = Exec.create () in
  List.iter (fun (n, t) -> Exec.bind exec n t) inputs;
  Exec.run_plan exec (plan_for inputs (q "r1" "A"));
  check_int "first compile" 1 exec.Exec.timings.Exec.compile_count;
  Exec.run_plan exec (plan_for inputs (q "r2" "B"));
  check_int "cache hit (same structure)" 1 exec.Exec.timings.Exec.compile_count;
  (* different result despite shared kernel *)
  check_bool "r1 = sum A" true
    (T.equal_approx (Exec.lookup exec "r1")
       (reference inputs (q "r1" "A")));
  check_bool "r2 = sum B" true
    (T.equal_approx (Exec.lookup exec "r2")
       (reference inputs (q "r2" "B")))

let test_kernel_cache_size_generic () =
  (* Same structure, different sizes: one compilation, two correct runs. *)
  let prng = Prng.create 11 in
  let a = sparse ~prng ~dims:[| 6; 6 |] ~density:0.4 in
  let b = sparse ~prng ~dims:[| 15; 4 |] ~density:0.4 in
  let q name tname =
    LQ.make ~output_idxs:[ "i" ] ~name ~agg_op:Op.Add ~agg_idxs:[ "j" ]
      ~body:(Ir.input tname [ "i"; "j" ]) ()
  in
  let inputs = [ ("A", a); ("B", b) ] in
  let exec = Exec.create () in
  List.iter (fun (n, t) -> Exec.bind exec n t) inputs;
  Exec.run_plan exec (plan_for inputs (q "r1" "A"));
  Exec.run_plan exec (plan_for inputs (q "r2" "B"));
  check_bool "r2 dims follow B" true ((T.dims (Exec.lookup exec "r2")).(0) = 15);
  check_bool "r2 correct" true
    (T.equal_approx (Exec.lookup exec "r2") (reference inputs (q "r2" "B")))

let test_cse_hits () =
  let prng = Prng.create 12 in
  let a = sparse ~prng ~dims:[| 8; 8 |] ~density:0.3 in
  let q name =
    LQ.make ~output_idxs:[ "i" ] ~name ~agg_op:Op.Add ~agg_idxs:[ "j" ]
      ~body:(Ir.input "A" [ "i"; "j" ]) ()
  in
  let inputs = [ ("A", a) ] in
  let exec = Exec.create () in
  List.iter (fun (n, t) -> Exec.bind exec n t) inputs;
  Exec.run_plan exec (plan_for inputs (q "r1"));
  Exec.run_plan exec (plan_for inputs (q "r2"));
  check_int "second run is a CSE hit" 1 exec.Exec.timings.Exec.cse_hits;
  check_int "kernel ran once" 1 exec.Exec.timings.Exec.kernel_count

let test_cse_invalidated_by_rebinding () =
  let prng = Prng.create 13 in
  let a1 = sparse ~prng ~dims:[| 8; 8 |] ~density:0.3 in
  let a2 = sparse ~prng ~dims:[| 8; 8 |] ~density:0.3 in
  let q name =
    LQ.make ~output_idxs:[ "i" ] ~name ~agg_op:Op.Add ~agg_idxs:[ "j" ]
      ~body:(Ir.input "A" [ "i"; "j" ]) ()
  in
  let exec = Exec.create () in
  Exec.bind exec "A" a1;
  Exec.run_plan exec (plan_for [ ("A", a1) ] (q "r1"));
  Exec.bind exec "A" a2;
  Exec.run_plan exec (plan_for [ ("A", a2) ] (q "r2"));
  check_int "no stale CSE hit" 0 exec.Exec.timings.Exec.cse_hits;
  check_bool "r2 reflects new binding" true
    (T.equal_approx (Exec.lookup exec "r2") (reference [ ("A", a2) ] (q "r2")))

(* Bit-for-bit equality of the dense images (and of fills and dims). *)
let bits_equal (a : T.t) (b : T.t) : bool =
  T.dims a = T.dims b
  && Int64.bits_of_float (T.fill a) = Int64.bits_of_float (T.fill b)
  &&
  let fa = T.to_flat_dense a and fb = T.to_flat_dense b in
  Array.for_all2
    (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
    fa fb

(* Covariance builds X twice, as two alpha-equivalent four-step chains.  A
   step that reads an intermediate is keyed by that intermediate's
   lineage, not its name, so the whole second chain hits: 4 hits, 6
   kernels instead of 10, and the same output bits as without CSE. *)
let test_cse_lineage_covariance () =
  let scale =
    {
      Perfbench.Ml_joins.default_scale with
      Perfbench.Ml_joins.cov = Perfbench.Ml_joins.star_scale 20;
    }
  in
  let c =
    List.find
      (fun (c : Perfbench.Ml_joins.case) ->
        c.Perfbench.Ml_joins.name = "covariance_star")
      (Perfbench.Ml_joins.cases ~scale ~seed:1 ())
  in
  let run cse =
    match
      Galley.Driver.run_source_checked
        ~config:{ Galley.Driver.default_config with Galley.Driver.cse }
        ~inputs:c.Perfbench.Ml_joins.inputs c.Perfbench.Ml_joins.src
    with
    | Ok r -> r
    | Error e -> Alcotest.fail (Galley.Errors.to_string e)
  in
  let on = run true and off = run false in
  let t = on.Galley.Driver.timings in
  check_int "cse hits" 4 t.Galley.Driver.cse_hits;
  check_int "kernels run" 6 t.Galley.Driver.kernel_count;
  check_int "kernels run without cse" 10
    off.Galley.Driver.timings.Galley.Driver.kernel_count;
  List.iter2
    (fun (n, _, x) (n', _, y) ->
      Alcotest.(check string) "output name" n n';
      check_bool (n ^ " identical with cse on and off") true (bits_equal x y))
    on.Galley.Driver.outputs off.Galley.Driver.outputs

(* Lineage starts at the inputs: rebinding one (a new version) misses on
   the step that reads it and on every step downstream. *)
let test_cse_lineage_rebinding () =
  let prng = Prng.create 15 in
  let a1 = sparse ~prng ~dims:[| 8; 8 |] ~density:0.3 in
  let a2 = sparse ~prng ~dims:[| 8; 8 |] ~density:0.3 in
  let program =
    Galley_lang.Parser.parse_program
      "r[i] = sum[j](A[i,j])\ns = sum[i](r[i] * r[i])"
  in
  let s = Galley.Driver.Session.create () in
  let run () =
    let r = Galley.Driver.Session.run_program s program in
    ( r.Galley.Driver.timings.Galley.Driver.cse_hits,
      r.Galley.Driver.timings.Galley.Driver.kernel_count )
  in
  Galley.Driver.Session.bind s "A" a1;
  let _, kernels = run () in
  check_bool "first run computes" true (kernels > 0);
  Alcotest.(check (pair int int)) "same binding replays" (kernels, 0) (run ());
  Galley.Driver.Session.bind s "A" a2;
  Alcotest.(check (pair int int)) "rebound input misses" (0, kernels) (run ());
  check_bool "result follows the new binding" true
    (T.equal_approx
       (Option.get (Galley.Driver.Session.lookup s "r"))
       (reference [ ("A", a2) ]
          (LQ.make ~output_idxs:[ "i" ] ~name:"r" ~agg_op:Op.Add
             ~agg_idxs:[ "j" ] ~body:(Ir.input "A" [ "i"; "j" ]) ())))

let test_cse_disabled () =
  let prng = Prng.create 14 in
  let a = sparse ~prng ~dims:[| 8; 8 |] ~density:0.3 in
  let q name =
    LQ.make ~output_idxs:[ "i" ] ~name ~agg_op:Op.Add ~agg_idxs:[ "j" ]
      ~body:(Ir.input "A" [ "i"; "j" ]) ()
  in
  let exec = Exec.create ~cse:false () in
  Exec.bind exec "A" a;
  Exec.run_plan exec (plan_for [ ("A", a) ] (q "r1"));
  Exec.run_plan exec (plan_for [ ("A", a) ] (q "r2"));
  check_int "no hits" 0 exec.Exec.timings.Exec.cse_hits;
  check_int "ran twice" 2 exec.Exec.timings.Exec.kernel_count

let test_transpose_step () =
  let prng = Prng.create 15 in
  let a = sparse ~prng ~dims:[| 5; 7 |] ~density:0.4 in
  let exec = Exec.create () in
  Exec.bind exec "A" a;
  let _ =
    Exec.run_step exec
      (Phys.Transpose
         {
           name = "At";
           source = "A";
           source_kind = `Input;
           perm = [| 1; 0 |];
           formats = [| T.Sparse_list; T.Sparse_list |];
         })
  in
  let at = Exec.lookup exec "At" in
  Alcotest.(check (array int)) "dims" [| 7; 5 |] (T.dims at);
  T.iter_nonfill a (fun c v -> check_float "entry" v (T.get at [| c.(1); c.(0) |]))

let test_timeout_raised () =
  (* A deliberately heavy kernel: dense 300^2 x 300 matmul-style triple loop. *)
  let n = 120 in
  let dense2 =
    T.of_fun ~dims:[| n; n |] ~formats:[| T.Dense; T.Dense |] (fun _ -> 1.0)
  in
  let q =
    LQ.make ~output_idxs:[ "i"; "k" ] ~name:"slow" ~agg_op:Op.Add
      ~agg_idxs:[ "j" ]
      ~body:(Ir.mul [ Ir.input "A" [ "i"; "j" ]; Ir.input "B" [ "j"; "k" ] ])
      ()
  in
  let inputs = [ ("A", dense2); ("B", dense2) ] in
  let plan = plan_for inputs q in
  let exec = Exec.create () in
  List.iter (fun (n, t) -> Exec.bind exec n t) inputs;
  exec.Exec.deadline <- Some (Unix.gettimeofday () -. 1.0) (* already past *);
  check_bool "raises" true
    (try
       Exec.run_plan exec plan;
       false
     with Exec.Timeout -> true)

(* -------------------------------------------------------------- *)
(* Differential property test: random kernels match the reference.  *)
(* -------------------------------------------------------------- *)

let prop_random_kernels =
  QCheck.Test.make ~name:"random kernels match reference" ~count:120
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let prng = Prng.create seed in
      let n1 = 3 + Prng.int prng 4 and n2 = 3 + Prng.int prng 4 in
      let a = sparse ~prng ~dims:[| n1; n2 |] ~density:0.4 in
      let b = sparse ~prng ~dims:[| n2 |] ~density:0.5 in
      let c = sparse ~prng ~dims:[| n1 |] ~density:0.5 in
      let inputs = [ ("A", a); ("b", b); ("c", c) ] in
      let leaf () =
        match Prng.int prng 4 with
        | 0 -> Ir.input "A" [ "i"; "j" ]
        | 1 -> Ir.input "b" [ "j" ]
        | 2 -> Ir.input "c" [ "i" ]
        | _ -> Ir.lit (Prng.float_range prng (-1.0) 2.0)
      in
      let rec gen depth =
        if depth = 0 || Prng.int prng 3 = 0 then leaf ()
        else
          match Prng.int prng 5 with
          | 0 -> Ir.add [ gen (depth - 1); gen (depth - 1) ]
          | 1 -> Ir.mul [ gen (depth - 1); gen (depth - 1) ]
          | 2 -> Ir.Map (Op.Max, [ gen (depth - 1); gen (depth - 1) ])
          | 3 -> Ir.Map (Op.Sub, [ gen (depth - 1); gen (depth - 1) ])
          | _ -> Ir.map Op.Sigmoid [ gen (depth - 1) ]
      in
      let body = gen 3 in
      let free = Ir.Idx_set.elements (Ir.free_indices body) in
      let agg_op = if Prng.bool prng then Op.Add else Op.Max in
      let agg_idxs = List.filter (fun _ -> Prng.bool prng) free in
      let output_idxs = List.filter (fun i -> not (List.mem i agg_idxs)) free in
      let agg_op = if agg_idxs = [] then Op.Ident else agg_op in
      let q =
        LQ.make ~output_idxs ~name:"out" ~agg_op ~agg_idxs ~body ()
      in
      let got = run_one inputs q in
      let want = reference inputs q in
      T.equal_approx ~eps:1e-6 got want)

let () =
  Alcotest.run "engine"
    [
      ( "kernels",
        [
          Alcotest.test_case "matvec" `Quick test_matvec;
          Alcotest.test_case "union add" `Quick test_union_add;
          Alcotest.test_case "mixed add/mul" `Quick test_mixed_add_mul;
          Alcotest.test_case "sigmoid fill" `Quick test_sigmoid_fill_propagation;
          Alcotest.test_case "max fill correction" `Quick test_max_aggregate_fill_correction;
          Alcotest.test_case "nonzero body fill" `Quick test_sum_with_nonzero_body_fill;
          Alcotest.test_case "scalar output" `Quick test_scalar_output;
          Alcotest.test_case "scalar input" `Quick test_scalar_input;
          Alcotest.test_case "comparison" `Quick test_comparison_output;
          Alcotest.test_case "self join" `Quick test_same_tensor_twice;
          Alcotest.test_case "all output formats" `Quick test_all_output_formats;
        ] );
      ( "caching",
        [
          Alcotest.test_case "kernel cache" `Quick test_kernel_cache_reuse;
          Alcotest.test_case "size generic" `Quick test_kernel_cache_size_generic;
          Alcotest.test_case "cse hits" `Quick test_cse_hits;
          Alcotest.test_case "cse vs rebinding" `Quick test_cse_invalidated_by_rebinding;
          Alcotest.test_case "cse disabled" `Quick test_cse_disabled;
          Alcotest.test_case "cse by lineage: covariance" `Slow
            test_cse_lineage_covariance;
          Alcotest.test_case "cse by lineage: rebound input misses" `Quick
            test_cse_lineage_rebinding;
        ] );
      ( "steps",
        [
          Alcotest.test_case "transpose" `Quick test_transpose_step;
          Alcotest.test_case "timeout" `Quick test_timeout_raised;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_random_kernels ] );
    ]
