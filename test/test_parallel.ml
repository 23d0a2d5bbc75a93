(* Parallel runtime: domain-pool unit tests, the serial-equivalence
   property, and determinism of everything but wall time.  Executing at
   [domains = 4] must produce outputs bit-identical to [domains = 1] on
   random generated kernels and on the paper's figure workloads, under
   both kernel backends.  The runtime guarantees this by replaying each
   morsel's accumulation log in morsel order on the submitting domain,
   reproducing the serial accumulation sequence exactly (DESIGN.md
   "Parallel runtime").  Queries and plan steps run one at a time at
   every domain count, so plans, compile/kernel/CSE-hit counts and the
   kernel-fault ordinal are identical as well. *)

module T = Galley_tensor.Tensor
module Prng = Galley_tensor.Prng
module Ir = Galley_plan.Ir
module Op = Galley_plan.Op
module Schema = Galley_plan.Schema
module LQ = Galley_plan.Logical_query
module Popt = Galley_physical.Optimizer
module Exec = Galley_engine.Exec
module Ctx = Galley_stats.Ctx
module Pool = Galley_parallel.Pool
module D = Galley.Driver
module E = Galley.Errors
module F = Galley.Faults
module W = Galley_workloads

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* -------------------------------------------------------------- *)
(* Pool.                                                            *)
(* -------------------------------------------------------------- *)

let test_pool_runs_all () =
  let pool = Pool.create ~domains:4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      check_int "size" 4 (Pool.size pool);
      let n = 100 in
      let hit = Array.make n false in
      Pool.run_all pool
        (Array.init n (fun i () -> hit.(i) <- true));
      check_bool "every task ran" true (Array.for_all Fun.id hit);
      (* Empty batch is a no-op. *)
      Pool.run_all pool [||])

let test_pool_serial_order () =
  (* parallelism <= 1 is the exact serial path: tasks run in submission
     order on the calling domain, so effects are strictly sequenced. *)
  let pool = Pool.create ~domains:1 in
  let order = ref [] in
  Pool.run_all pool (Array.init 5 (fun i () -> order := i :: !order));
  Alcotest.(check (list int)) "in order" [ 0; 1; 2; 3; 4 ] (List.rev !order);
  Pool.shutdown pool

let test_pool_exception () =
  let pool = Pool.create ~domains:4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let ran = Atomic.make 0 in
      let raised =
        try
          Pool.run_all pool
            (Array.init 8 (fun i () ->
                 if i = 3 then failwith "boom"
                 else ignore (Atomic.fetch_and_add ran 1)));
          false
        with Failure msg -> msg = "boom"
      in
      check_bool "exception type preserved" true raised;
      (* The batch drained: run_all returned, so no task is still live. *)
      check_bool "other tasks bounded" true (Atomic.get ran <= 7))

(* The pending count and first failure live on the pool: a failed batch
   must leave the next one clean, and a task may not submit a batch of
   its own to the pool running it. *)
let test_pool_failure_resets () =
  let pool = Pool.create ~domains:4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      (try Pool.run_all pool (Array.init 6 (fun _ () -> failwith "boom"))
       with Failure _ -> ());
      let count = Atomic.make 0 in
      Pool.run_all pool
        (Array.init 6 (fun _ () -> ignore (Atomic.fetch_and_add count 1)));
      check_int "next batch runs every task" 6 (Atomic.get count);
      let nested =
        try
          Pool.run_all pool
            (Array.init 2 (fun _ () -> Pool.run_all pool [| ignore; ignore |]));
          false
        with Invalid_argument _ -> true
      in
      check_bool "nested batch rejected" true nested)

let test_pool_shutdown_reuse () =
  let pool = Pool.create ~domains:4 in
  let count = Atomic.make 0 in
  let batch () =
    Pool.run_all pool
      (Array.init 6 (fun _ () -> ignore (Atomic.fetch_and_add count 1)))
  in
  batch ();
  Pool.shutdown pool;
  batch ();
  (* Shutdown is idempotent. *)
  Pool.shutdown pool;
  Pool.shutdown pool;
  check_int "both batches ran" 12 (Atomic.get count)

(* -------------------------------------------------------------- *)
(* Serial equivalence: domains = 4 must be bit-identical to 1.       *)
(* -------------------------------------------------------------- *)

let fresh_gen () =
  let c = ref 0 in
  fun () ->
    incr c;
    Printf.sprintf "#c%d" !c

let plan_for ?(popt_config = Popt.default_config) inputs (q : LQ.t) =
  let schema = Schema.create () in
  List.iter (fun (n, t) -> Schema.declare_tensor schema n t) inputs;
  let ctx = Ctx.create schema in
  List.iter (fun (n, t) -> ctx.Ctx.register_input n t) inputs;
  Popt.plan_query ~config:popt_config ctx ~fresh:(fresh_gen ()) q

let run_plan_with backend domains inputs plan name =
  let exec = Exec.create ~backend ~domains () in
  Fun.protect
    ~finally:(fun () -> Exec.shutdown exec)
    (fun () ->
      List.iter (fun (n, t) -> Exec.bind exec n t) inputs;
      Exec.run_plan exec plan;
      Exec.lookup exec name)

(* Bit-for-bit equality of the dense images (and of fills/dims). *)
let bits_equal (a : T.t) (b : T.t) : bool =
  T.dims a = T.dims b
  && Int64.bits_of_float (T.fill a) = Int64.bits_of_float (T.fill b)
  &&
  let fa = T.to_flat_dense a and fb = T.to_flat_dense b in
  Array.for_all2
    (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
    fa fb

let check_serial_equivalence ?popt_config name inputs (q : LQ.t) =
  let plan = plan_for ?popt_config inputs q in
  List.iter
    (fun backend ->
      let serial = run_plan_with backend 1 inputs plan q.LQ.name in
      let par = run_plan_with backend 4 inputs plan q.LQ.name in
      if not (bits_equal serial par) then
        Alcotest.failf "%s (%s): domains=4 diverges from domains=1:\n%s\nvs\n%s"
          name
          (match backend with Exec.Staged -> "staged" | Exec.Interp -> "interp")
          (T.to_string serial) (T.to_string par))
    [ Exec.Staged; Exec.Interp ]

(* The generator from the compiler's differential suite: random formats,
   fills (including non-annihilating), map/aggregate ops.  Here the
   oracle is the runtime itself at [domains = 1]. *)
let prop_parallel_equiv =
  QCheck.Test.make ~name:"domains=4 = domains=1 (bit-for-bit)" ~count:60
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let prng = Prng.create seed in
      let fmt () =
        match Prng.int prng 4 with
        | 0 -> T.Dense
        | 1 -> T.Sparse_list
        | 2 -> T.Bytemap
        | _ -> T.Hash
      in
      let fill () =
        match Prng.int prng 4 with 0 | 1 -> 0.0 | 2 -> 1.0 | _ -> 0.5
      in
      let n1 = 3 + Prng.int prng 5 and n2 = 3 + Prng.int prng 5 in
      let rand dims =
        T.random ~fill:(fill ()) ~prng ~dims
          ~formats:(Array.init (Array.length dims) (fun _ -> fmt ()))
          ~density:(Prng.float_range prng 0.15 0.6)
          ()
      in
      let a = rand [| n1; n2 |] in
      let b = rand [| n2 |] in
      let c = rand [| n1 |] in
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
          match Prng.int prng 7 with
          | 0 -> Ir.add [ gen (depth - 1); gen (depth - 1) ]
          | 1 -> Ir.mul [ gen (depth - 1); gen (depth - 1) ]
          | 2 -> Ir.Map (Op.Max, [ gen (depth - 1); gen (depth - 1) ])
          | 3 -> Ir.Map (Op.Min, [ gen (depth - 1); gen (depth - 1) ])
          | 4 -> Ir.Map (Op.Sub, [ gen (depth - 1); gen (depth - 1) ])
          | 5 -> Ir.map Op.Sigmoid [ gen (depth - 1) ]
          | _ -> Ir.map Op.Relu [ gen (depth - 1) ]
      in
      let body = gen 3 in
      let free = Ir.Idx_set.elements (Ir.free_indices body) in
      let agg_op =
        match Prng.int prng 4 with
        | 0 -> Op.Add
        | 1 -> Op.Max
        | 2 -> Op.Min
        | _ -> Op.Mul
      in
      let agg_idxs = List.filter (fun _ -> Prng.bool prng) free in
      let output_idxs = List.filter (fun i -> not (List.mem i agg_idxs)) free in
      let agg_op = if agg_idxs = [] then Op.Ident else agg_op in
      let out_fmts = Array.init (List.length output_idxs) (fun _ -> fmt ()) in
      let popt_config =
        {
          Popt.default_config with
          format_override = (fun n -> if n = "out" then Some out_fmts else None);
        }
      in
      let q = LQ.make ~output_idxs ~name:"out" ~agg_op ~agg_idxs ~body () in
      check_serial_equivalence ~popt_config "random kernel" inputs q;
      true)

(* A kernel big enough that the intra-kernel driver actually chunks the
   outermost level across several workers. *)
let test_large_matvec_equiv () =
  let prng = Prng.create 31 in
  List.iter
    (fun formats ->
      let a =
        T.random ~prng ~dims:[| 600; 80 |] ~formats ~density:0.08 ()
      in
      let v =
        T.random ~prng ~dims:[| 80 |] ~formats:[| T.Dense |] ~density:0.5 ()
      in
      let q =
        LQ.make ~output_idxs:[ "i" ] ~name:"out" ~agg_op:Op.Add
          ~agg_idxs:[ "j" ]
          ~body:(Ir.mul [ Ir.input "A" [ "i"; "j" ]; Ir.input "v" [ "j" ] ])
          ()
      in
      check_serial_equivalence "large matvec" [ ("A", a); ("v", v) ] q)
    [
      [| T.Dense; T.Sparse_list |];
      [| T.Sparse_list; T.Sparse_list |];
      [| T.Hash; T.Sparse_list |];
    ]

(* -------------------------------------------------------------- *)
(* Figure workloads end to end through the driver.                   *)
(* -------------------------------------------------------------- *)

let check_driver_identical name ~inputs program =
  List.iter
    (fun backend ->
      let run domains =
        D.run
          ~config:{ D.default_config with D.domains; kernel_backend = backend }
          ~inputs program
      in
      let serial = run 1 and par = run 4 in
      List.iter2
        (fun (n1, _, t1) (n4, _, t4) ->
          check_bool
            (Printf.sprintf "%s: output %s identical" name n1)
            true
            (n1 = n4 && bits_equal t1 t4))
        serial.D.outputs par.D.outputs)
    [ Exec.Staged; Exec.Interp ]

let test_fig6_ml_equiv () =
  (* Fig. 6 shapes over a materialized feature matrix: Linreg (one query)
     and the two-layer NN (an inter-query dependency, so the JIT
     refresh-then-plan order is in play). *)
  let prng = Prng.create 7 in
  let x =
    T.random ~prng ~dims:[| 64; 12 |]
      ~formats:[| T.Dense; T.Sparse_list |]
      ~density:0.3 ()
  in
  let inputs =
    ("X", x) :: W.Ml.parameter_inputs ~seed:5 ~d:12 ~hidden:8
  in
  let x_expr = Ir.input "X" [ "i"; "j" ] in
  List.iter
    (fun alg ->
      check_driver_identical
        ("fig6 " ^ W.Ml.algorithm_name alg)
        ~inputs
        (W.Ml.program_of alg ~x:x_expr ~pts:[ "i" ]))
    [ W.Ml.Linreg; W.Ml.Logreg; W.Ml.Nn ]

let test_fig7_subgraph_equiv () =
  (* Fig. 7: triangle and 3-path counting on a random graph. *)
  let g =
    W.Graphs.symmetrize
      (W.Graphs.erdos_renyi ~name:"par" ~seed:17 ~n:120 ~m:600 ())
  in
  List.iter
    (fun p ->
      check_driver_identical
        ("fig7 " ^ p.W.Subgraph.pname)
        ~inputs:(W.Subgraph.bindings g p)
        (W.Subgraph.count_program p))
    [ W.Subgraph.triangle; W.Subgraph.path 3 ]

let test_fig10_bfs_equiv () =
  (* Fig. 10: BFS runs iteration by iteration through a session; the
     traversal must make identical decisions at every domain count. *)
  let g =
    W.Graphs.symmetrize
      (W.Graphs.erdos_renyi ~name:"bfs-par" ~seed:23 ~n:300 ~m:900 ())
  in
  let adjacency = W.Graphs.adjacency g in
  let run domains =
    W.Bfs.run
      ~config_base:{ D.default_config with D.domains }
      W.Bfs.Adaptive ~adjacency ~source:0
  in
  let serial = run 1 and par = run 4 in
  check_int "same iterations" serial.W.Bfs.iterations par.W.Bfs.iterations;
  check_int "same visited" serial.W.Bfs.visited par.W.Bfs.visited;
  check_int "reference visited" (W.Bfs.reference_visited ~adjacency ~source:0)
    par.W.Bfs.visited

(* -------------------------------------------------------------- *)
(* Determinism beyond tensor contents.                               *)
(* -------------------------------------------------------------- *)

(* What a run reports besides tensors and wall time, as one comparable
   string: the physical plan and the compile/kernel/CSE-hit counts. *)
let run_summary (r : D.result) : string =
  let t = r.D.timings in
  Printf.sprintf "plan:\n%s\ncompiles=%d kernels=%d cse_hits=%d"
    (Galley_plan.Physical.plan_to_string r.D.physical_plan)
    t.D.compile_count t.D.kernel_count t.D.cse_hits

let check_deterministic name ~inputs program =
  let run ?(faults = F.none) domains =
    D.run_checked
      ~config:{ D.default_config with D.domains; faults }
      ~inputs program
  in
  let summary domains =
    match run domains with
    | Ok r -> r
    | Error e -> Alcotest.failf "%s: %s" name (E.to_string e)
  in
  let serial = summary 1 in
  Alcotest.(check string)
    (name ^ ": plan and counts at domains=4")
    (run_summary serial)
    (run_summary (summary 4));
  (* Every kernel invocation in turn fails under kernel-fail=N: the
     failing query and ordinal must not depend on the domain count. *)
  for n = 1 to serial.D.timings.D.kernel_count do
    let fail domains =
      match run ~faults:{ F.none with kernel_fail_on = Some n } domains with
      | Error (E.Kernel_failure _ as e) -> E.to_string e
      | Error e -> Alcotest.failf "%s: wrong error %s" name (E.to_string e)
      | Ok _ -> Alcotest.failf "%s: kernel-fail=%d did not fire" name n
    in
    Alcotest.(check string)
      (Printf.sprintf "%s: kernel-fail=%d context" name n)
      (fail 1) (fail 4)
  done

let test_determinism () =
  let prng = Prng.create 11 in
  let x =
    T.random ~prng ~dims:[| 64; 12 |]
      ~formats:[| T.Dense; T.Sparse_list |]
      ~density:0.3 ()
  in
  check_deterministic "fig6 nn"
    ~inputs:(("X", x) :: W.Ml.parameter_inputs ~seed:5 ~d:12 ~hidden:8)
    (W.Ml.program_of W.Ml.Nn ~x:(Ir.input "X" [ "i"; "j" ]) ~pts:[ "i" ]);
  (* Independent queries, two of them the same kernel over the same
     inputs: the second is a CSE hit only if it runs after the first. *)
  let a =
    T.random ~prng ~dims:[| 300; 200 |]
      ~formats:[| T.Dense; T.Sparse_list |]
      ~density:0.05 ()
  in
  let b =
    T.random ~prng ~dims:[| 300; 200 |]
      ~formats:[| T.Dense; T.Sparse_list |]
      ~density:0.05 ()
  in
  let v =
    T.random ~prng ~dims:[| 200 |] ~formats:[| T.Dense |] ~density:0.5 ()
  in
  check_deterministic "independent queries"
    ~inputs:[ ("A", a); ("B", b); ("v", v) ]
    (Galley_lang.Parser.parse_program
       "p[i] = sum[j](A[i,j] * v[j])\n\
        q[i] = sum[j](A[i,j] * v[j])\n\
        r[i] = sum[j](B[i,j] * v[j])\n\
        s[i] = sum[j](A[i,j] * B[i,j])\n\
        t = sum[i](p[i] * q[i] + r[i] * s[i])")

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "runs all tasks" `Quick test_pool_runs_all;
          Alcotest.test_case "serial order at 1" `Quick test_pool_serial_order;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "failure resets" `Quick test_pool_failure_resets;
          Alcotest.test_case "shutdown and reuse" `Quick
            test_pool_shutdown_reuse;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "large matvec" `Quick test_large_matvec_equiv;
          Alcotest.test_case "fig6 ML" `Quick test_fig6_ml_equiv;
          Alcotest.test_case "fig7 subgraph" `Quick test_fig7_subgraph_equiv;
          Alcotest.test_case "fig10 BFS" `Quick test_fig10_bfs_equiv;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "plans, counts and fault context" `Quick
            test_determinism;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_parallel_equiv ] );
    ]
