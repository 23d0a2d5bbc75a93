(* Kernel layer (DESIGN.md §14): word-level bitset algebra unit
   tests (tail words, empty and all-set masks, randomized vs naive),
   the morsel dispenser protocol, and the bit-for-bit equivalence of
   the staged fast paths — dense microkernels, bytemap word merges,
   morsel scheduling — against the interpreter oracle and the
   brute-force reference, at domains {1, 4}.
   Also checks the observability surfacing (merge-strategy strings,
   par:morsel suffix, kernel.morsels metric) and the sparse-weight GCN
   workload against its dense reference. *)

module T = Galley_tensor.Tensor
module Prng = Galley_tensor.Prng
module Bitset = Galley_tensor.Bitset
module Ir = Galley_plan.Ir
module Op = Galley_plan.Op
module Schema = Galley_plan.Schema
module LQ = Galley_plan.Logical_query
module Physical = Galley_plan.Physical
module Popt = Galley_physical.Optimizer
module Exec = Galley_engine.Exec
module Ctx = Galley_stats.Ctx
module Morsel = Galley_parallel.Morsel
module Obs = Galley_obs
module Trace = Galley_obs.Trace
module Metrics = Galley_obs.Metrics
module Fix = Galley_fixpoint.Fixpoint
module D = Galley.Driver
module E = Galley.Errors
module I = Galley_workloads.Iterative
module G = Galley_workloads.Graphs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))

(* -------------------------------------------------------------- *)
(* Bitset unit tests.                                               *)
(* -------------------------------------------------------------- *)

let wb = Bitset.word_bits

let test_bitset_shapes () =
  (* Word-count accounting, including exact word boundaries. *)
  check_int "one word" 1 (Bitset.n_words 1);
  check_int "full word" 1 (Bitset.n_words wb);
  check_int "one past a word" 2 (Bitset.n_words (wb + 1));
  check_int "two full words" 2 (Bitset.n_words (2 * wb));
  let w = Bitset.of_sorted [| 0; 5; wb - 1; wb; (2 * wb) - 1 |] ~len:(2 * wb) in
  check_int "words allocated" 2 (Array.length w);
  check_ints "cross-word round trip"
    [ 0; 5; wb - 1; wb; (2 * wb) - 1 ]
    (Array.to_list (Bitset.to_array w));
  check_bool "mem hit" true (Bitset.mem w wb);
  check_bool "mem miss" false (Bitset.mem w 1);
  check_bool "mem out of range" false (Bitset.mem w (10 * wb));
  Alcotest.check_raises "out-of-range coordinate"
    (Invalid_argument "Bitset.of_sorted: index out of range") (fun () ->
      ignore (Bitset.of_sorted [| 7 |] ~len:7));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Bitset.inter_into: length mismatch") (fun () ->
      Bitset.inter_into (Array.make 1 0) (Array.make 2 0))

let test_bitset_empty_mask () =
  let len = wb + 7 in
  let e = Bitset.of_sorted [||] ~len in
  check_int "empty count" 0 (Bitset.count e);
  check_ints "empty drain" [] (Array.to_list (Bitset.to_array e));
  Bitset.iter_set e (fun _ -> Alcotest.fail "iter_set visited an empty mask");
  let full = Bitset.of_sorted (Array.init len Fun.id) ~len in
  check_ints "empty kills intersection" []
    (Array.to_list (Bitset.to_array (Bitset.inter full e)));
  check_int "empty is union identity" len (Bitset.count (Bitset.union e full))

let test_bitset_all_set_tail () =
  (* A fully-set mask whose length is not a word multiple: the tail
     word must stay clean so algebra never manufactures out-of-range
     coordinates. *)
  List.iter
    (fun len ->
      let full = Bitset.of_sorted (Array.init len Fun.id) ~len in
      check_int "count = len" len (Bitset.count full);
      check_bool "identity round trip" true
        (Bitset.to_array full = Array.init len Fun.id);
      check_int "self-intersection" len (Bitset.count (Bitset.inter full full));
      check_int "self-union" len (Bitset.count (Bitset.union full full));
      (* Tail bits beyond [len] are zero in every word. *)
      let last = Array.length full - 1 in
      let used = len - (last * wb) in
      check_bool "tail hygiene" true
        (used = wb || full.(last) lsr used = 0))
    [ 1; wb - 1; wb; wb + 1; (2 * wb) + 13; 100 ]

let test_bitset_iter_ascending () =
  let prng = Prng.create 17 in
  for _ = 1 to 20 do
    let len = 1 + Prng.int prng 300 in
    let crd =
      Array.of_seq
        (Hashtbl.to_seq_keys
           (let tbl = Hashtbl.create 16 in
            for _ = 1 to Prng.int prng 80 do
              Hashtbl.replace tbl (Prng.int prng len) ()
            done;
            tbl))
    in
    let w = Bitset.of_sorted crd ~len in
    let prev = ref (-1) in
    Bitset.iter_set w (fun i ->
        check_bool "strictly ascending" true (i > !prev);
        check_bool "was inserted" true (Array.exists (( = ) i) crd);
        prev := i);
    check_int "visit count" (Array.length crd) (Bitset.count w)
  done

let test_bitset_algebra_vs_naive () =
  let prng = Prng.create 23 in
  for _ = 1 to 40 do
    let len = 1 + Prng.int prng 250 in
    let rand_set () =
      let tbl = Hashtbl.create 16 in
      for _ = 1 to Prng.int prng 120 do
        Hashtbl.replace tbl (Prng.int prng len) ()
      done;
      tbl
    in
    let ta = rand_set () and tb = rand_set () in
    let wa = Bitset.of_sorted (Array.of_seq (Hashtbl.to_seq_keys ta)) ~len in
    let wb_ = Bitset.of_sorted (Array.of_seq (Hashtbl.to_seq_keys tb)) ~len in
    let naive p = List.filter p (List.init len Fun.id) in
    check_ints "inter = naive"
      (naive (fun i -> Hashtbl.mem ta i && Hashtbl.mem tb i))
      (Array.to_list (Bitset.to_array (Bitset.inter wa wb_)));
    check_ints "union = naive"
      (naive (fun i -> Hashtbl.mem ta i || Hashtbl.mem tb i))
      (Array.to_list (Bitset.to_array (Bitset.union wa wb_)))
  done

(* -------------------------------------------------------------- *)
(* Morsel dispenser.                                                *)
(* -------------------------------------------------------------- *)

let test_morsel_ranges () =
  let d = Morsel.create ~n_items:10 ~size:3 in
  check_int "morsel count" 4 (Morsel.n_morsels d);
  let take () = Morsel.take d in
  check_bool "first" true (take () = Some (0, 0, 3));
  check_bool "second" true (take () = Some (1, 3, 6));
  check_bool "third" true (take () = Some (2, 6, 9));
  check_bool "short tail" true (take () = Some (3, 9, 10));
  check_bool "drained" true (take () = None);
  check_bool "stays drained" true (take () = None);
  (* Degenerate sizes are clamped, empty batches are dry at once. *)
  check_int "size clamp" 5 (Morsel.n_morsels (Morsel.create ~n_items:5 ~size:0));
  let e = Morsel.create ~n_items:0 ~size:4 in
  check_int "empty batch" 0 (Morsel.n_morsels e);
  check_bool "empty is dry" true (Morsel.take e = None)

let test_morsel_disjoint_cover () =
  (* Concurrent pulls partition [0, n): every item claimed exactly once. *)
  let n = 997 in
  let d = Morsel.create ~n_items:n ~size:16 in
  let claimed = Array.make n 0 in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let rec loop () =
              match Morsel.take d with
              | None -> ()
              | Some (_, lo, hi) ->
                  for i = lo to hi - 1 do
                    (* Each index lives in exactly one morsel, and each
                       morsel is claimed by exactly one lane, so these
                       writes never race. *)
                    claimed.(i) <- claimed.(i) + 1
                  done;
                  loop ()
            in
            loop ()))
  in
  Array.iter Domain.join domains;
  check_bool "each item exactly once" true (Array.for_all (( = ) 1) claimed)

(* -------------------------------------------------------------- *)
(* Differential: staged x domains {1,4} vs the interp oracle.        *)
(* -------------------------------------------------------------- *)

let fresh_gen () =
  let c = ref 0 in
  fun () ->
    incr c;
    Printf.sprintf "#v%d" !c

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

(* Cell-by-cell equality of the dense images under [Float.equal]: NaN
   equals NaN.  Signed zeros compare equal, as they do for the engine's
   fill test. *)
let values_equal (a : T.t) (b : T.t) : bool =
  T.dims a = T.dims b
  && Array.for_all2 Float.equal (T.to_flat_dense a) (T.to_flat_dense b)

let reference inputs (q : LQ.t) =
  List.assoc q.LQ.name
    (Galley.Reference.eval_program inputs
       { Ir.queries = [ LQ.to_query q ]; outputs = [ q.LQ.name ] })

(* Plan once; the interp oracle fixes the expected bits, and the staged
   backend at domains 1 and 4 — so micro, bitset merges and the morsel
   scheduler all engage — must reproduce them exactly.  The brute-force
   reference sums in a different order, so it gets a tolerance. *)
let check_vs_oracle ?popt_config name inputs (q : LQ.t) =
  let plan = plan_for ?popt_config inputs q in
  let run backend domains =
    run_plan_with backend domains inputs plan q.LQ.name
  in
  let oracle = run Exec.Interp 1 in
  List.iter
    (fun domains ->
      let got = run Exec.Staged domains in
      if not (bits_equal got oracle) then
        Alcotest.failf
          "%s: staged (domains=%d) diverges from the interp oracle:\n\
           %s\nvs\n%s"
          name domains (T.to_string got) (T.to_string oracle))
    [ 1; 4 ];
  let want = reference inputs q in
  if not (T.equal_approx ~eps:1e-6 oracle want) then
    Alcotest.failf "%s: disagrees with reference:\ngot  %s\nwant %s" name
      (T.to_string oracle) (T.to_string want)

let all_dense dims = Array.map (fun _ -> T.Dense) dims
let all_bytemap dims = Array.map (fun _ -> T.Bytemap) dims

let matvec =
  LQ.make ~output_idxs:[ "i" ] ~name:"out" ~agg_op:Op.Add ~agg_idxs:[ "j" ]
    ~body:(Ir.mul [ Ir.input "A" [ "i"; "j" ]; Ir.input "v" [ "j" ] ])
    ()

let test_micro_dense_matvec () =
  let prng = Prng.create 41 in
  let a =
    T.random ~prng ~dims:[| 150; 40 |] ~formats:(all_dense [| 0; 0 |])
      ~density:0.9 ()
  in
  let v =
    T.random ~prng ~dims:[| 40 |] ~formats:(all_dense [| 0 |]) ~density:0.9 ()
  in
  check_vs_oracle "dense matvec" [ ("A", a); ("v", v) ] matvec;
  (* Scalar reduction: no output coordinate to write in the inner loop. *)
  let dot =
    LQ.make ~output_idxs:[] ~name:"out" ~agg_op:Op.Add ~agg_idxs:[ "j" ]
      ~body:(Ir.mul [ Ir.input "v" [ "j" ]; Ir.input "w" [ "j" ] ])
      ()
  in
  let w =
    T.random ~prng ~dims:[| 40 |] ~formats:(all_dense [| 0 |]) ~density:0.9 ()
  in
  check_vs_oracle "dense dot" [ ("v", v); ("w", w) ] dot;
  (* Three dense operands + a map op in the body. *)
  let saxpy =
    LQ.make ~output_idxs:[ "j" ] ~name:"out" ~agg_op:Op.Ident ~agg_idxs:[]
      ~body:
        (Ir.add
           [
             Ir.mul [ Ir.lit 2.5; Ir.input "v" [ "j" ] ]; Ir.input "w" [ "j" ];
           ])
      ()
  in
  check_vs_oracle "dense axpy" [ ("v", v); ("w", w) ] saxpy

let test_micro_absent_rows () =
  (* Sparse outer level over a dense inner level: rows absent from A
     must make the microkernel fall back per-visit (an absent operand
     contributes nothing, which the generic generators express by
     iterating an empty candidate set — the micro loop must not run). *)
  let prng = Prng.create 43 in
  let a =
    T.random ~prng ~dims:[| 25; 30 |]
      ~formats:[| T.Sparse_list; T.Dense |]
      ~density:0.08 ()
  in
  let v =
    T.random ~prng ~dims:[| 30 |] ~formats:(all_dense [| 0 |]) ~density:0.9 ()
  in
  check_vs_oracle "absent-row matvec" [ ("A", a); ("v", v) ] matvec

let test_micro_nonzero_fill () =
  (* Fill-1 dense operands: the innermost constraint tree is a union of
     dense accesses, still micro-eligible, and the freeze-time fill
     correction must agree across every configuration. *)
  let a =
    T.of_coo ~fill:1.0 ~dims:[| 6; 70 |] ~formats:[| T.Dense; T.Dense |]
      [| ([| 0; 1 |], 3.0); ([| 2; 64 |], 0.5); ([| 5; 69 |], -2.0) |]
  in
  let v =
    T.of_coo ~fill:1.0 ~dims:[| 70 |] ~formats:[| T.Dense |]
      [| ([| 2 |], 2.0); ([| 64 |], 4.0) |]
  in
  check_vs_oracle "fill-1 matvec" [ ("A", a); ("v", v) ] matvec

let test_bitand_bytemap () =
  let prng = Prng.create 47 in
  let mk density =
    T.random ~prng ~dims:[| 200 |] ~formats:(all_bytemap [| 0 |]) ~density ()
  in
  let q3 =
    LQ.make ~output_idxs:[] ~name:"out" ~agg_op:Op.Add ~agg_idxs:[ "i" ]
      ~body:
        (Ir.mul
           [ Ir.input "x" [ "i" ]; Ir.input "y" [ "i" ]; Ir.input "z" [ "i" ] ])
      ()
  in
  (* Dense enough that the word-merge heuristic fires... *)
  check_vs_oracle "bytemap 3-way and"
    [ ("x", mk 0.5); ("y", mk 0.6); ("z", mk 0.5) ]
    q3;
  (* ...and sparse enough that it declines and takes the cursor path. *)
  check_vs_oracle "bytemap sparse and"
    [ ("x", mk 0.01); ("y", mk 0.5); ("z", mk 0.02) ]
    q3;
  (* An all-fill operand annihilates the whole intersection. *)
  let empty = T.of_coo ~dims:[| 200 |] ~formats:[| T.Bytemap |] [||] in
  check_vs_oracle "bytemap and with empty operand"
    [ ("x", mk 0.5); ("y", empty); ("z", mk 0.5) ]
    q3

let test_bitor_bytemap () =
  let prng = Prng.create 53 in
  let mk density =
    T.random ~prng ~dims:[| 200 |] ~formats:(all_bytemap [| 0 |]) ~density ()
  in
  let q =
    LQ.make ~output_idxs:[ "i" ] ~name:"out" ~agg_op:Op.Ident ~agg_idxs:[]
      ~body:(Ir.add [ Ir.input "x" [ "i" ]; Ir.input "y" [ "i" ] ])
      ()
  in
  check_vs_oracle "bytemap union" [ ("x", mk 0.4); ("y", mk 0.5) ] q;
  let empty = T.of_coo ~dims:[| 200 |] ~formats:[| T.Bytemap |] [||] in
  check_vs_oracle "bytemap union, one empty" [ ("x", empty); ("y", mk 0.5) ] q;
  check_vs_oracle "bytemap union, both empty" [ ("x", empty); ("y", empty) ] q

let test_bytemap_matrix_levels () =
  (* Two bytemap x bytemap matrices: both loop levels carry all-bytemap
     constraint trees, so the word merge nests under the outer one. *)
  let prng = Prng.create 59 in
  let mk () =
    T.random ~prng ~dims:[| 50; 80 |]
      ~formats:[| T.Bytemap; T.Bytemap |]
      ~density:0.4 ()
  in
  let q =
    LQ.make ~output_idxs:[ "i" ] ~name:"out" ~agg_op:Op.Add ~agg_idxs:[ "j" ]
      ~body:(Ir.mul [ Ir.input "A" [ "i"; "j" ]; Ir.input "B" [ "i"; "j" ] ])
      ()
  in
  check_vs_oracle "bytemap matrix hadamard-sum" [ ("A", mk ()); ("B", mk ()) ] q

let test_morsel_vs_serial () =
  (* Same plan, same inputs: the morsel scheduler at 4 domains must
     replay to the serial accumulation sequence. *)
  let prng = Prng.create 61 in
  let a =
    T.random ~prng ~dims:[| 500; 300 |]
      ~formats:[| T.Dense; T.Sparse_list |]
      ~density:0.05 ()
  in
  let v =
    T.random ~prng ~dims:[| 300 |] ~formats:[| T.Dense |] ~density:0.8 ()
  in
  let inputs = [ ("A", a); ("v", v) ] in
  let plan = plan_for inputs matvec in
  let serial = run_plan_with Exec.Staged 1 inputs plan "out" in
  let par = run_plan_with Exec.Staged 4 inputs plan "out" in
  if not (bits_equal serial par) then
    Alcotest.fail "morsel: domains=4 diverges from domains=1"

(* -------------------------------------------------------------- *)
(* Surfacing: merge-strategy strings and scheduler metrics.         *)
(* -------------------------------------------------------------- *)

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Run [plan] under tracing and return the "merge" attr of the first
   kernel span. *)
let merge_attr_of ~domains inputs plan name =
  Trace.reset ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () -> Trace.disable ())
    (fun () ->
      ignore (run_plan_with Exec.Staged domains inputs plan name);
      let evs = Trace.drain () in
      let is_kernel e =
        String.length e.Trace.ev_name >= 7
        && String.sub e.Trace.ev_name 0 7 = "kernel:"
      in
      match List.find_opt is_kernel evs with
      | None -> Alcotest.fail "no kernel span traced"
      | Some e -> (
          match List.assoc_opt "merge" e.Trace.ev_args with
          | None -> Alcotest.fail "kernel span lost its merge attr"
          | Some m -> m))

(* -------------------------------------------------------------- *)
(* Row loops: positional walk, in-step lookup, in-place row writes.  *)
(* -------------------------------------------------------------- *)

(* The oracle check, plus the innermost strategy the plan must name, so
   each case provably runs the row loop it targets. *)
let check_row ?popt_config ~needle name inputs (q : LQ.t) =
  check_vs_oracle ?popt_config name inputs q;
  let plan = plan_for ?popt_config inputs q in
  let m = merge_attr_of ~domains:1 inputs plan q.LQ.name in
  if not (contains ~needle m) then
    Alcotest.failf "%s: expected %S in the merge strategy, got %S" name needle m

let out_formats fmts =
  {
    Popt.default_config with
    format_override = (fun n -> if n = "out" then Some fmts else None);
  }

let hadamard_rows =
  LQ.make ~output_idxs:[ "i"; "j" ] ~name:"out" ~agg_op:Op.Ident ~agg_idxs:[]
    ~body:(Ir.mul [ Ir.input "A" [ "i"; "j" ]; Ir.input "B" [ "i"; "j" ] ])
    ()

let test_row_walk_leaders () =
  let prng = Prng.create 73 in
  let mk inner density =
    T.random ~prng ~dims:[| 40; 90 |] ~formats:[| T.Dense; inner |] ~density ()
  in
  (* A sparse leader probing a hash row, and a bytemap leader probing a
     hash row: the walked leaf is read by position, the probed one in
     step. *)
  check_row ~needle:"walk(inter(sparse&" "sparse leader, probed hash"
    [ ("A", mk T.Sparse_list 0.1); ("B", mk T.Hash 0.5) ]
    hadamard_rows;
  check_row ~needle:"walk(inter(bytemap&" "bytemap leader, probed hash"
    [ ("A", mk T.Bytemap 0.1); ("B", mk T.Hash 0.6) ]
    hadamard_rows;
  (* A reduction row: no output coordinate at the walked level. *)
  let rowdot =
    LQ.make ~output_idxs:[ "i" ] ~name:"out" ~agg_op:Op.Add ~agg_idxs:[ "j" ]
      ~body:(Ir.mul [ Ir.input "A" [ "i"; "j" ]; Ir.input "B" [ "i"; "j" ] ])
      ()
  in
  check_row ~needle:"walk(inter(sparse&" "sparse leader, reduced row"
    [ ("A", mk T.Sparse_list 0.1); ("B", mk T.Sparse_list 0.5) ]
    rowdot

(* One Bellman-Ford step: out[j] = min_i (d[i] + W[i,j]) over (min, +)
   with +inf fills; the innermost level spans the full range and reads
   W's sparse rows in step. *)
let bellman_step =
  LQ.make ~output_idxs:[ "j" ] ~name:"out" ~agg_op:Op.Min ~agg_idxs:[ "i" ]
    ~body:(Ir.add [ Ir.input "d" [ "i" ]; Ir.input "W" [ "i"; "j" ] ])
    ()

let test_row_step_min_plus () =
  let prng = Prng.create 79 in
  let w =
    T.random ~fill:infinity ~prng ~dims:[| 70; 70 |]
      ~formats:[| T.Dense; T.Sparse_list |]
      ~density:0.08 ()
  in
  (* The stored -inf keeps d's +inf fill from absorbing W's values
     (-inf + inf is NaN), so the union over the full range is the exact
     plan. *)
  let d =
    T.of_coo ~fill:infinity ~dims:[| 70 |] ~formats:[| T.Dense |]
      [| ([| 3 |], 0.0); ([| 11 |], 2.5); ([| 40 |], 1.0); ([| 57 |], neg_infinity) |]
  in
  check_row ~needle:"step(" "bellman-ford step" [ ("d", d); ("W", w) ] bellman_step

(* The same step on inputs that hold no -inf or NaN: +inf absorbs + on
   both sides, so the outer level intersects and the innermost one walks
   W's stored row instead of the full range. *)
let test_row_walk_min_plus () =
  let prng = Prng.create 79 in
  let w =
    T.random ~fill:infinity ~prng ~dims:[| 70; 70 |]
      ~formats:[| T.Dense; T.Sparse_list |]
      ~density:0.08 ()
  in
  let d =
    T.of_coo ~fill:infinity ~dims:[| 70 |] ~formats:[| T.Dense |]
      [| ([| 3 |], 0.0); ([| 11 |], 2.5); ([| 40 |], 1.0) |]
  in
  let inputs = [ ("d", d); ("W", w) ] in
  check_row ~needle:"walk(" "bellman-ford walk" inputs bellman_step;
  let m = merge_attr_of ~domains:1 inputs (plan_for inputs bellman_step) "out" in
  check_bool ("intersection in " ^ m) true (contains ~needle:"inter(" m)

(* One kernel structure run twice on one engine: first on finite inputs,
   where it compiles as an intersection, then with a -inf stored in d.
   The kernel cache must not replay the intersection: the second result
   has to match the reference, NaN included. *)
let test_kernel_cache_facts () =
  let prng = Prng.create 101 in
  let w =
    T.random ~fill:infinity ~prng ~dims:[| 30; 30 |]
      ~formats:[| T.Dense; T.Sparse_list |]
      ~density:0.1 ()
  in
  let d_of entries =
    T.of_coo ~fill:infinity ~dims:[| 30 |] ~formats:[| T.Dense |] entries
  in
  let finite = d_of [| ([| 2 |], 0.0); ([| 9 |], 1.5) |] in
  let with_neg_inf = d_of [| ([| 2 |], 0.0); ([| 9 |], neg_infinity) |] in
  let plan = plan_for [ ("d", finite); ("W", w) ] bellman_step in
  let exec = Exec.create () in
  Fun.protect
    ~finally:(fun () -> Exec.shutdown exec)
    (fun () ->
      Exec.bind exec "W" w;
      List.iter
        (fun d ->
          Exec.bind exec "d" d;
          Exec.run_plan exec plan;
          let got = Exec.lookup exec "out" in
          let want = reference [ ("d", d); ("W", w) ] bellman_step in
          if not (values_equal got want) then
            Alcotest.failf "cached kernel replayed on new facts:\n%s\nvs\n%s"
              (T.to_string got) (T.to_string want))
        [ finite; with_neg_inf ])

let test_row_step_fill_one_union () =
  (* Fill-1 operands under (+, +): the sum never annihilates, so the
     innermost level is a union that covers the full range; W's rows are
     read in step, absent rows read fill for the whole visit. *)
  let prng = Prng.create 83 in
  let w =
    T.random ~fill:1.0 ~prng ~dims:[| 50; 60 |]
      ~formats:[| T.Sparse_list; T.Sparse_list |]
      ~density:0.05 ()
  in
  let x =
    T.random ~fill:1.0 ~prng ~dims:[| 50 |] ~formats:[| T.Dense |] ~density:0.5 ()
  in
  let y =
    T.random ~fill:1.0 ~prng ~dims:[| 60 |] ~formats:[| T.Dense |] ~density:0.5 ()
  in
  let q =
    LQ.make ~output_idxs:[ "j" ] ~name:"out" ~agg_op:Op.Add ~agg_idxs:[ "i" ]
      ~body:
        (Ir.add
           [ Ir.input "x" [ "i" ]; Ir.input "W" [ "i"; "j" ]; Ir.input "y" [ "j" ] ])
      ()
  in
  check_row ~needle:"step(" "fill-1 union" [ ("x", x); ("W", w); ("y", y) ] q

let test_row_absent_subtree () =
  (* W has a fill of 1 under a product, so it does not constrain the
     outer level: most visited rows of W are absent, and the in-step
     loads of those visits read its fill. *)
  let prng = Prng.create 89 in
  let w =
    T.random ~fill:1.0 ~prng ~dims:[| 60; 45 |]
      ~formats:[| T.Sparse_list; T.Sparse_list |]
      ~density:0.03 ()
  in
  let x =
    T.random ~prng ~dims:[| 60 |] ~formats:[| T.Dense |] ~density:0.7 ()
  in
  let q =
    LQ.make ~output_idxs:[ "i"; "j" ] ~name:"out" ~agg_op:Op.Ident ~agg_idxs:[]
      ~body:(Ir.mul [ Ir.input "x" [ "i" ]; Ir.input "W" [ "i"; "j" ] ])
      ()
  in
  check_row ~needle:"step(" "absent rows" [ ("x", x); ("W", w) ] q

let test_row_output_leaves () =
  (* The walked row written into every output leaf format: dense rows
     in place, bytemap rows through the leaf, sorted-list and hash rows
     through the builder's leaf write. *)
  let prng = Prng.create 97 in
  let a =
    T.random ~prng ~dims:[| 30; 80 |] ~formats:[| T.Dense; T.Sparse_list |]
      ~density:0.15 ()
  in
  let b =
    T.random ~prng ~dims:[| 30; 80 |] ~formats:[| T.Dense; T.Dense |]
      ~density:0.6 ()
  in
  List.iter
    (fun leaf ->
      check_row ~popt_config:(out_formats [| T.Dense; leaf |]) ~needle:"walk("
        ("output leaf " ^ T.format_to_string leaf)
        [ ("A", a); ("B", b) ]
        hadamard_rows)
    [ T.Dense; T.Bytemap; T.Sparse_list; T.Hash ];
  (* Min-plus into a dense leaf: the in-place write without [Add]. *)
  let w =
    T.random ~fill:infinity ~prng ~dims:[| 40; 40 |]
      ~formats:[| T.Dense; T.Sparse_list |]
      ~density:0.1 ()
  in
  let d =
    T.random ~fill:infinity ~prng ~dims:[| 40 |] ~formats:[| T.Dense |]
      ~density:0.3 ()
  in
  List.iter
    (fun leaf ->
      check_vs_oracle ~popt_config:(out_formats [| leaf |])
        ("min-plus output " ^ T.format_to_string leaf)
        [ ("d", d); ("W", w) ]
        bellman_step)
    [ T.Dense; T.Bytemap; T.Hash ]

let test_row_deadline () =
  (* A deadline already past fires at the first clock check, 8192 ticks
     in — inside the full-range row loop, which holds nearly every tick. *)
  let n = 300 in
  let w =
    T.of_fun ~fill:infinity ~dims:[| n; n |] ~formats:[| T.Dense; T.Sparse_list |]
      (fun c -> if (c.(0) + c.(1)) mod 7 = 0 then 1.0 else infinity)
  in
  (* d's one -inf keeps the plan a full-range union (see "in-step
     min-plus"). *)
  let d =
    T.of_fun ~fill:infinity ~dims:[| n |] ~formats:[| T.Dense |] (fun c ->
        if c.(0) = 0 then neg_infinity else 0.5)
  in
  let inputs = [ ("d", d); ("W", w) ] in
  let plan = plan_for inputs bellman_step in
  let m = merge_attr_of ~domains:1 inputs plan "out" in
  check_bool "row loop planned" true (contains ~needle:"step(" m);
  let run_with deadline =
    let exec = Exec.create () in
    Fun.protect
      ~finally:(fun () -> Exec.shutdown exec)
      (fun () ->
        List.iter (fun (n, t) -> Exec.bind exec n t) inputs;
        exec.Exec.deadline <- Some deadline;
        Exec.run_plan exec plan)
  in
  check_bool "timeout raised" true
    (try
       run_with (Unix.gettimeofday () -. 1.0);
       false
     with Exec.Timeout -> true);
  (* Tick cadence: one per candidate (n outer, n*n inner) plus one per
     accumulation (n*n), flushed to the metric in 8192-tick quanta. *)
  let ticks = Metrics.counter "kernel.deadline_ticks" in
  let before = Metrics.value ticks in
  run_with (Unix.gettimeofday () +. 3600.0);
  check_int "deadline ticks" (8192 * ((n + (2 * n * n)) / 8192))
    (Metrics.value ticks - before)

(* Minor-heap words allocated by one run of the staged kernel that
   computes [q]'s output, compiled straight from its plan (all accesses
   read inputs, so no transpose runs first), and that kernel's strategy. *)
let kernel_minor_words inputs (q : LQ.t) : float * string =
  let plan = plan_for inputs q in
  let k =
    match
      List.find_map
        (function
          | Physical.Kernel k when k.Physical.name = q.LQ.name -> Some k
          | _ -> None)
        plan
    with
    | Some k -> k
    | None -> Alcotest.fail "no kernel for the output"
  in
  let tensors =
    Array.map (fun a -> List.assoc a.Physical.tensor inputs) k.Physical.accesses
  in
  let c =
    Galley_compile.Backend.compile k
      ~access_fills:(Array.map T.fill tensors)
      ~facts:(fun a -> T.facts tensors.(a))
      ~access_formats:(Array.map T.formats tensors)
  in
  ignore (c.Galley_compile.Backend.run k tensors);
  let before = Gc.minor_words () in
  ignore (c.Galley_compile.Backend.run k tensors);
  (Gc.minor_words () -. before, c.Galley_compile.Backend.describe)

let test_row_loop_allocation () =
  (* A row loop allocates nothing per entry: at a fixed row count, ten
     times more entries per row leaves the minor words of one run flat
     (what remains is per row and per run: the builder, the output). *)
  let rows = 3000 in
  let sparse_rows ~cols ~per_row =
    T.of_fun ~dims:[| rows; cols |] ~formats:[| T.Dense; T.Sparse_list |]
      (fun c ->
        if (c.(1) + (7 * c.(0))) mod (cols / per_row) = 0 then
          1.0 +. float_of_int (c.(1) mod 5)
        else 0.0)
  in
  let x =
    T.of_fun ~dims:[| rows |] ~formats:[| T.Dense |] (fun c ->
        0.5 +. float_of_int (c.(0) mod 3))
  in
  let flat name shape few many =
    let w_few, m = kernel_minor_words few shape in
    let w_many, _ = kernel_minor_words many shape in
    check_bool (name ^ " fused") true (contains ~needle:"walk(" m || contains ~needle:"micro(" m);
    if w_many > (1.1 *. w_few) +. 256.0 then
      Alcotest.failf "%s (%s): %.0f minor words at 10x the entries per row, %.0f at 1x"
        name m w_many w_few
  in
  flat "spmv" matvec
    [ ("A", sparse_rows ~cols:rows ~per_row:3); ("v", x) ]
    [ ("A", sparse_rows ~cols:rows ~per_row:30); ("v", x) ];
  (* axpy rows: out[i,:] += A[i,k] * B[k,:] over a 16-wide dense B. *)
  let axpy =
    LQ.make ~output_idxs:[ "i"; "j" ] ~name:"out" ~agg_op:Op.Add
      ~agg_idxs:[ "k" ]
      ~body:(Ir.mul [ Ir.input "A" [ "i"; "k" ]; Ir.input "B" [ "k"; "j" ] ])
      ()
  in
  let rows = 1000 in
  let a ~per_row =
    T.of_fun ~dims:[| rows; 400 |] ~formats:[| T.Dense; T.Sparse_list |]
      (fun c -> if (c.(1) + (3 * c.(0))) mod (400 / per_row) = 0 then 2.0 else 0.0)
  in
  let b =
    T.of_fun ~dims:[| 400; 16 |] ~formats:[| T.Dense; T.Dense |] (fun c ->
        float_of_int ((c.(0) + c.(1)) mod 4))
  in
  flat "axpy" axpy [ ("A", a ~per_row:2); ("B", b) ] [ ("A", a ~per_row:20); ("B", b) ]

let test_surfacing_strategies () =
  let prng = Prng.create 67 in
  let a =
    T.random ~prng ~dims:[| 60; 40 |] ~formats:(all_dense [| 0; 0 |])
      ~density:0.9 ()
  in
  let v =
    T.random ~prng ~dims:[| 40 |] ~formats:(all_dense [| 0 |]) ~density:0.9 ()
  in
  let dense_inputs = [ ("A", a); ("v", v) ] in
  let dense_plan = plan_for dense_inputs matvec in
  let m = merge_attr_of ~domains:1 dense_inputs dense_plan "out" in
  check_bool "micro named in explain" true (contains ~needle:"micro(" m);
  let m4 = merge_attr_of ~domains:4 dense_inputs dense_plan "out" in
  check_bool "morsel scheduler named" true (contains ~needle:" par:morsel" m4);
  let mkb d =
    T.random ~prng ~dims:[| 200 |] ~formats:(all_bytemap [| 0 |]) ~density:d ()
  in
  let band =
    LQ.make ~output_idxs:[] ~name:"out" ~agg_op:Op.Add ~agg_idxs:[ "i" ]
      ~body:(Ir.mul [ Ir.input "x" [ "i" ]; Ir.input "y" [ "i" ] ])
      ()
  in
  let b_inputs = [ ("x", mkb 0.5); ("y", mkb 0.5) ] in
  let b_plan = plan_for b_inputs band in
  let m = merge_attr_of ~domains:1 b_inputs b_plan "out" in
  check_bool "bitand named in explain" true (contains ~needle:"bitand(" m)

let test_morsel_metrics () =
  let prng = Prng.create 71 in
  let a =
    T.random ~prng ~dims:[| 400; 50 |]
      ~formats:[| T.Dense; T.Sparse_list |]
      ~density:0.1 ()
  in
  let v =
    T.random ~prng ~dims:[| 50 |] ~formats:[| T.Dense |] ~density:0.9 ()
  in
  let inputs = [ ("A", a); ("v", v) ] in
  let plan = plan_for inputs matvec in
  let morsels = Metrics.counter "kernel.morsels" in
  let before = Metrics.value morsels in
  ignore (run_plan_with Exec.Staged 4 inputs plan "out");
  check_bool "kernel.morsels advanced" true (Metrics.value morsels > before);
  (* The steals counter exists (its value is schedule-dependent). *)
  check_bool "kernel.steals registered" true
    (Metrics.value (Metrics.counter "kernel.steals") >= 0)

(* -------------------------------------------------------------- *)
(* Sparse-weight GCN workload.                                      *)
(* -------------------------------------------------------------- *)

let test_gcn_sparse_weights () =
  let g = G.erdos_renyi ~seed:13 ~n:60 ~m:300 () in
  let inputs = I.gcn_sparse_inputs ~seed:5 ~weight_density:0.25 g ~features:8 in
  let w = List.assoc "W" inputs in
  check_bool "W actually pruned" true (T.nnz w < 8 * 8);
  match Fix.run_source_checked ~inputs (I.gcn_sparse_source ~layers:2 ()) with
  | Error e -> Alcotest.failf "gcn_sparse: %s" (E.to_string e)
  | Ok (res, _) ->
      let h = D.output_of res "H" in
      let want =
        I.gcn_reference ~a:(List.assoc "A" inputs) ~h0:(List.assoc "H" inputs)
          ~w ~layers:2
      in
      check_bool "dims" true (T.dims h = [| 60; 8 |]);
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun f want_v ->
              let got = T.get h [| i; f |] in
              if abs_float (got -. want_v) > 1e-6 then
                Alcotest.failf "H[%d,%d] = %g, want %g" i f got want_v)
            row)
        want

(* -------------------------------------------------------------- *)
(* Property: random kernels, staged x domains {1,4} vs interp.       *)
(* -------------------------------------------------------------- *)

let prop_vs_oracle =
  QCheck.Test.make ~name:"staged vs interp at domains 1/4" ~count:30
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let prng = Prng.create seed in
      (* Biased toward Dense and Bytemap so the micro and word-merge
         paths fire often; Sparse_list/Hash keep the fallbacks hot. *)
      let fmt () =
        match Prng.int prng 6 with
        | 0 | 1 -> T.Dense
        | 2 | 3 -> T.Bytemap
        | 4 -> T.Sparse_list
        | _ -> T.Hash
      in
      let fill () =
        match Prng.int prng 4 with 0 | 1 | 2 -> 0.0 | _ -> 1.0
      in
      let n1 = 10 + Prng.int prng 50 and n2 = 10 + Prng.int prng 50 in
      let rand dims =
        T.random ~fill:(fill ()) ~prng ~dims
          ~formats:(Array.init (Array.length dims) (fun _ -> fmt ()))
          ~density:(Prng.float_range prng 0.1 0.7)
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
          match Prng.int prng 6 with
          | 0 -> Ir.add [ gen (depth - 1); gen (depth - 1) ]
          | 1 | 2 -> Ir.mul [ gen (depth - 1); gen (depth - 1) ]
          | 3 -> Ir.Map (Op.Max, [ gen (depth - 1); gen (depth - 1) ])
          | 4 -> Ir.map Op.Relu [ gen (depth - 1) ]
          | _ -> Ir.Map (Op.Sub, [ gen (depth - 1); gen (depth - 1) ])
      in
      let body = gen 3 in
      let free = Ir.Idx_set.elements (Ir.free_indices body) in
      let agg_op =
        match Prng.int prng 3 with 0 | 1 -> Op.Add | _ -> Op.Max
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
      check_vs_oracle ~popt_config "random kernel" inputs q;
      true)

(* Small tensors storing ±inf and NaN, fills in {0, 1, +inf, -inf},
   bodies over + * min max: every backend at domains {1, 4} must give the
   reference's values exactly.  Stored values are small integers, so
   sums are exact in any order. *)
let prop_special_values =
  QCheck.Test.make ~name:"inf and NaN match the reference" ~count:120
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let prng = Prng.create seed in
      let pick a = a.(Prng.int prng (Array.length a)) in
      let values =
        [| -2.0; -1.0; 0.0; 1.0; 3.0; infinity; neg_infinity; Float.nan |]
      in
      let fills = [| 0.0; 1.0; infinity; neg_infinity |] in
      let formats = [| T.Dense; T.Sparse_list; T.Bytemap; T.Hash |] in
      let n1 = 1 + Prng.int prng 4 and n2 = 1 + Prng.int prng 4 in
      let special dims =
        let entries = ref [] in
        for flat = 0 to T.dim_space dims - 1 do
          if Prng.int prng 2 = 0 then
            entries := (T.unflatten dims flat, pick values) :: !entries
        done;
        T.of_coo ~fill:(pick fills) ~dims
          ~formats:(Array.map (fun _ -> pick formats) dims)
          (Array.of_list !entries)
      in
      let inputs =
        [
          ("A", special [| n1; n2 |]);
          ("B", special [| n1; n2 |]);
          ("u", special [| n1 |]);
          ("v", special [| n2 |]);
        ]
      in
      let leaf () =
        match Prng.int prng 4 with
        | 0 -> Ir.input "A" [ "i"; "j" ]
        | 1 -> Ir.input "B" [ "i"; "j" ]
        | 2 -> Ir.input "u" [ "i" ]
        | _ -> Ir.input "v" [ "j" ]
      in
      let rec gen depth =
        if depth = 0 then leaf ()
        else
          let op = pick [| Op.Add; Op.Mul; Op.Min; Op.Max |] in
          let arg () = if Prng.int prng 3 = 0 then leaf () else gen (depth - 1) in
          Ir.Map (op, [ arg (); arg () ])
      in
      let body = gen 2 in
      let free = Ir.Idx_set.elements (Ir.free_indices body) in
      let agg_idxs = List.filter (fun _ -> Prng.bool prng) free in
      let output_idxs = List.filter (fun i -> not (List.mem i agg_idxs)) free in
      let agg_op =
        if agg_idxs = [] then Op.Ident else pick [| Op.Add; Op.Min; Op.Max |]
      in
      let q = LQ.make ~output_idxs ~name:"out" ~agg_op ~agg_idxs ~body () in
      let plan = plan_for inputs q in
      let want = reference inputs q in
      List.for_all
        (fun (backend, domains) ->
          let got = run_plan_with backend domains inputs plan "out" in
          values_equal got want
          || QCheck.Test.fail_reportf "%s at domains %d on %s:\n%s\nvs\n%s"
               (match backend with Exec.Staged -> "staged" | Exec.Interp -> "interp")
               domains (LQ.to_string q) (T.to_string got) (T.to_string want))
        [ (Exec.Staged, 1); (Exec.Staged, 4); (Exec.Interp, 1); (Exec.Interp, 4) ])

(* The fused row-loop shapes, bit for bit: reductions
   out[i] = g_j (A[i,j] f x[j]) and axpy rows out[i,j] = g_k (A[i,k] f B[k,j])
   for g in {+, min, max}, with A's rows sparse, bytemap or dense (the
   walked or stepped leader), the other operand's rows dense, sparse or
   fill only, fills 0, +inf and NaN, and stored values that include
   infinities and NaNs with distinct payloads, on either side of f.  The
   staged backend at domains 1 and 4, with and without a deadline, must
   give the interpreter's bits, fill and NaN payloads included.  The
   reference must give the same values (NaN equal to NaN): it folds every
   coordinate in index order, while both backends fold the skipped fill
   coordinates in at freeze time, so where several NaNs meet, the
   surviving payload can differ. *)
let prop_fused_shapes =
  QCheck.Test.make ~name:"fused row loops bit-identical" ~count:150
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let prng = Prng.create seed in
      let pick a = a.(Prng.int prng (Array.length a)) in
      let value () =
        match Prng.int prng 8 with
        | 0 ->
            Int64.float_of_bits
              (Int64.logor 0x7ff8000000000000L
                 (Int64.of_int (1 + Prng.int prng 4096)))
        | 1 -> pick [| infinity; neg_infinity |]
        | _ -> float_of_int (Prng.int prng 9 - 4) /. 2.0
      in
      let matrix ~fill ~dims ~inner ~density =
        let entries = ref [] in
        for flat = 0 to T.dim_space dims - 1 do
          if Prng.float_range prng 0.0 1.0 < density then
            entries := (T.unflatten dims flat, value ()) :: !entries
        done;
        T.of_coo ~fill ~dims
          ~formats:(Array.init (Array.length dims) (fun d ->
               if d = Array.length dims - 1 then inner else T.Dense))
          (Array.of_list !entries)
      in
      let n = 2 + Prng.int prng 10 and m = 2 + Prng.int prng 14 in
      let leader = pick [| T.Sparse_list; T.Bytemap; T.Dense |] in
      let a =
        matrix ~fill:(pick [| 0.0; infinity; Float.nan |]) ~dims:[| n; m |]
          ~inner:leader ~density:(Prng.float_range prng 0.1 0.7)
      in
      let load_fill = pick [| 0.0; infinity; Float.nan |] in
      let load_fmt, density =
        match Prng.int prng 3 with
        | 0 -> (T.Dense, Prng.float_range prng 0.5 1.0)
        | 1 -> (T.Sparse_list, Prng.float_range prng 0.1 0.7)
        | _ -> (T.Sparse_list, 0.0) (* fill only *)
      in
      let agg_op = pick [| Op.Add; Op.Min; Op.Max |] in
      let f = pick [| Op.Add; Op.Mul |] in
      let operands x y = if Prng.bool prng then [ x; y ] else [ y; x ] in
      let inputs, q =
        if Prng.bool prng then
          let x = matrix ~fill:load_fill ~dims:[| m |] ~inner:load_fmt ~density in
          ( [ ("A", a); ("x", x) ],
            LQ.make ~output_idxs:[ "i" ] ~name:"out" ~agg_op ~agg_idxs:[ "j" ]
              ~body:
                (Ir.Map
                   (f, operands (Ir.input "A" [ "i"; "j" ]) (Ir.input "x" [ "j" ])))
              () )
        else
          let w = 1 + Prng.int prng 6 in
          let b = matrix ~fill:load_fill ~dims:[| m; w |] ~inner:load_fmt ~density in
          ( [ ("A", a); ("B", b) ],
            LQ.make ~output_idxs:[ "i"; "j" ] ~name:"out" ~agg_op
              ~agg_idxs:[ "k" ]
              ~body:
                (Ir.Map
                   ( f,
                     operands (Ir.input "A" [ "i"; "k" ])
                       (Ir.input "B" [ "k"; "j" ]) ))
              () )
      in
      let plan = plan_for inputs q in
      let run backend domains deadline =
        let exec = Exec.create ~backend ~domains () in
        Fun.protect
          ~finally:(fun () -> Exec.shutdown exec)
          (fun () ->
            List.iter (fun (n, t) -> Exec.bind exec n t) inputs;
            exec.Exec.deadline <- deadline;
            Exec.run_plan exec plan;
            Exec.lookup exec "out")
      in
      let want = reference inputs q in
      let oracle = run Exec.Interp 1 None in
      let far = Some (Unix.gettimeofday () +. 3600.0) in
      (values_equal oracle want
      || QCheck.Test.fail_reportf "interp on %s:\n%s\nvs reference\n%s"
           (LQ.to_string q) (T.to_string oracle) (T.to_string want))
      && List.for_all
        (fun (name, got) ->
          bits_equal got oracle
          || QCheck.Test.fail_reportf "%s on %s:\n%s\nvs interp\n%s" name
               (LQ.to_string q) (T.to_string got) (T.to_string oracle))
        [
          ("staged", run Exec.Staged 1 None);
          ("staged, 4 domains", run Exec.Staged 4 None);
          ("staged, deadline", run Exec.Staged 1 far);
          ("staged, 4 domains, deadline", run Exec.Staged 4 far);
        ])

let () =
  Alcotest.run "kernels_v2"
    [
      ( "bitset",
        [
          Alcotest.test_case "shapes and membership" `Quick test_bitset_shapes;
          Alcotest.test_case "empty masks" `Quick test_bitset_empty_mask;
          Alcotest.test_case "all-set masks and tail words" `Quick
            test_bitset_all_set_tail;
          Alcotest.test_case "iter_set ascending" `Quick
            test_bitset_iter_ascending;
          Alcotest.test_case "algebra vs naive" `Quick
            test_bitset_algebra_vs_naive;
        ] );
      ( "morsel",
        [
          Alcotest.test_case "range protocol" `Quick test_morsel_ranges;
          Alcotest.test_case "disjoint cover under contention" `Quick
            test_morsel_disjoint_cover;
        ] );
      ( "differential",
        [
          Alcotest.test_case "dense microkernels" `Quick test_micro_dense_matvec;
          Alcotest.test_case "micro absent-row fallback" `Quick
            test_micro_absent_rows;
          Alcotest.test_case "micro non-annihilating fill" `Quick
            test_micro_nonzero_fill;
          Alcotest.test_case "bytemap word intersection" `Quick
            test_bitand_bytemap;
          Alcotest.test_case "bytemap word union" `Quick test_bitor_bytemap;
          Alcotest.test_case "nested bytemap levels" `Quick
            test_bytemap_matrix_levels;
          Alcotest.test_case "morsel vs serial scheduling" `Quick
            test_morsel_vs_serial;
        ] );
      ( "row loops",
        [
          Alcotest.test_case "walk leaders with probes" `Quick
            test_row_walk_leaders;
          Alcotest.test_case "in-step min-plus" `Quick test_row_step_min_plus;
          Alcotest.test_case "in-step fill-1 union" `Quick
            test_row_step_fill_one_union;
          Alcotest.test_case "absent subtrees" `Quick test_row_absent_subtree;
          Alcotest.test_case "output leaf formats" `Quick test_row_output_leaves;
          Alcotest.test_case "deadline in a row loop" `Quick test_row_deadline;
          Alcotest.test_case "walked min-plus" `Quick test_row_walk_min_plus;
          Alcotest.test_case "kernel cache keys on facts" `Quick
            test_kernel_cache_facts;
          Alcotest.test_case "no allocation per entry" `Quick
            test_row_loop_allocation;
        ] );
      ( "surfacing",
        [
          Alcotest.test_case "merge-strategy strings" `Quick
            test_surfacing_strategies;
          Alcotest.test_case "scheduler metrics" `Quick test_morsel_metrics;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "sparse-weight gcn" `Quick test_gcn_sparse_weights;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_vs_oracle; prop_special_values; prop_fused_shapes ] );
    ]
