(* Tests for the sparsity-estimation framework: the uniform estimator's
   closed-form cases, exact degree statistics (property-checked against
   brute-force distinct counts), the chain bound's soundness as an upper
   bound (property-checked against true non-fill counts, and audited on the
   Fig. 6 programs' intermediates), aggregation projections, renaming, and
   the estimation context. *)

module T = Galley_tensor.Tensor
module Prng = Galley_tensor.Prng
module Ir = Galley_plan.Ir
module Op = Galley_plan.Op
module Schema = Galley_plan.Schema
module Uniform = Galley_stats.Uniform
module Chain = Galley_stats.Chain
module Ctx = Galley_stats.Ctx
module W = Galley_workloads
module D = Galley.Driver
module Audit = Galley_obs.Audit

let check_float = Alcotest.(check (float 1e-6))
let check_bool = Alcotest.(check bool)

let dims_of (l : (string * int) list) : int Ir.Idx_map.t =
  List.fold_left (fun acc (i, n) -> Ir.Idx_map.add i n acc) Ir.Idx_map.empty l

let sparse_matrix ~prng ~rows ~cols ~density =
  T.random ~prng ~dims:[| rows; cols |]
    ~formats:[| T.Dense; T.Sparse_list |]
    ~density ()

(* -------------------------------------------------------------- *)
(* Uniform estimator.                                               *)
(* -------------------------------------------------------------- *)

let test_uniform_of_tensor () =
  let prng = Prng.create 1 in
  let t = sparse_matrix ~prng ~rows:10 ~cols:10 ~density:0.3 in
  let s = Uniform.of_tensor t ~idxs:[ "i"; "j" ] in
  check_float "nnz" (float_of_int (T.nnz t)) (Uniform.estimate s)

let test_uniform_annihilating () =
  (* A[i,j] (30 nnz over 100) * B[j,k] (20 nnz over 100):
     expected = 100*100/... : out space 10*10*10, p = .3 * .2 *)
  let dims = dims_of [ ("i", 10); ("j", 10); ("k", 10) ] in
  let a = { Uniform.idxs = Ir.Idx_set.of_list [ "i"; "j" ];
            dims = dims_of [ ("i", 10); ("j", 10) ]; nnz = 30.0 } in
  let b = { Uniform.idxs = Ir.Idx_set.of_list [ "j"; "k" ];
            dims = dims_of [ ("j", 10); ("k", 10) ]; nnz = 20.0 } in
  let c = Uniform.map_annihilating ~dims [ a; b ] in
  check_float "product density" (1000.0 *. 0.3 *. 0.2) (Uniform.estimate c)

let test_uniform_non_annihilating () =
  let dims = dims_of [ ("i", 10); ("j", 10) ] in
  let a = { Uniform.idxs = Ir.Idx_set.of_list [ "i"; "j" ]; dims; nnz = 30.0 } in
  let b = { Uniform.idxs = Ir.Idx_set.of_list [ "i"; "j" ]; dims; nnz = 20.0 } in
  let c = Uniform.map_non_annihilating ~dims [ a; b ] in
  (* 100 * (1 - 0.7*0.8) = 44 *)
  check_float "union density" 44.0 (Uniform.estimate c)

let test_uniform_aggregate () =
  let dims = dims_of [ ("i", 10); ("j", 10) ] in
  let a = { Uniform.idxs = Ir.Idx_set.of_list [ "i"; "j" ]; dims; nnz = 30.0 } in
  let c = Uniform.aggregate ~dims a ~over:[ "j" ] in
  (* 10 * (1 - 0.7^10) *)
  check_float "projection" (10.0 *. (1.0 -. (0.7 ** 10.0))) (Uniform.estimate c);
  check_bool "idxs shrink" true
    (Ir.Idx_set.equal (Uniform.idxs c) (Ir.Idx_set.singleton "i"))

let test_uniform_rename () =
  let dims = dims_of [ ("i", 10); ("j", 20) ] in
  let a = { Uniform.idxs = Ir.Idx_set.of_list [ "i"; "j" ]; dims; nnz = 30.0 } in
  let r = Uniform.rename a (fun x -> if x = "i" then "p" else x) in
  check_bool "renamed" true (Ir.Idx_set.mem "p" (Uniform.idxs r));
  check_float "same estimate" 30.0 (Uniform.estimate r)

let test_uniform_literal () =
  check_float "literal deviates nowhere" 0.0 (Uniform.estimate (Uniform.of_literal 2.0))

(* -------------------------------------------------------------- *)
(* Chain bound.                                                     *)
(* -------------------------------------------------------------- *)

let test_chain_of_tensor_exact_total () =
  let prng = Prng.create 2 in
  let t = sparse_matrix ~prng ~rows:8 ~cols:8 ~density:0.4 in
  let s = Chain.of_tensor t ~idxs:[ "i"; "j" ] in
  check_float "total exact" (float_of_int (T.nnz t)) (Chain.estimate s)

let test_chain_degree_bound_matrix () =
  (* A matrix with one dense row: D(j|i) = cols, D(i|j) small. *)
  let entries = Array.init 6 (fun j -> ([| 2; j |], 1.0)) in
  let t = T.of_coo ~dims:[| 6; 6 |] ~formats:[| T.Dense; T.Sparse_list |] entries in
  let s = Chain.of_tensor t ~idxs:[ "i"; "j" ] in
  check_float "estimate = nnz" 6.0 (Chain.estimate s)

let test_chain_triangle_bound () =
  (* nnz(A_ij * B_jk) <= chain bound; check the bound is no tighter than
     the true count on a concrete instance. *)
  let prng = Prng.create 3 in
  let a = sparse_matrix ~prng ~rows:8 ~cols:8 ~density:0.3 in
  let b = sparse_matrix ~prng ~rows:8 ~cols:8 ~density:0.3 in
  let dims = dims_of [ ("i", 8); ("j", 8); ("k", 8) ] in
  let sa = Chain.of_tensor a ~idxs:[ "i"; "j" ] in
  let sb = Chain.of_tensor b ~idxs:[ "j"; "k" ] in
  let sc = Chain.map_annihilating ~dims [ sa; sb ] in
  let true_count = ref 0 in
  for i = 0 to 7 do
    for j = 0 to 7 do
      for k = 0 to 7 do
        if T.get a [| i; j |] <> 0.0 && T.get b [| j; k |] <> 0.0 then
          incr true_count
      done
    done
  done;
  check_bool "upper bound" true
    (Chain.estimate sc +. 1e-9 >= float_of_int !true_count)

let test_chain_aggregate_drops_conditioned () =
  let prng = Prng.create 4 in
  let t = sparse_matrix ~prng ~rows:8 ~cols:8 ~density:0.4 in
  let s = Chain.of_tensor t ~idxs:[ "i"; "j" ] in
  let dims = dims_of [ ("i", 8); ("j", 8) ] in
  let p = Chain.aggregate ~dims s ~over:[ "j" ] in
  check_bool "projection bounded by rows" true (Chain.estimate p <= 8.0);
  (* and it is a sound upper bound on the number of non-empty rows *)
  let nonempty = ref 0 in
  for i = 0 to 7 do
    let any = ref false in
    for j = 0 to 7 do
      if T.get t [| i; j |] <> 0.0 then any := true
    done;
    if !any then incr nonempty
  done;
  check_bool "sound" true (Chain.estimate p +. 1e-9 >= float_of_int !nonempty)

(* Property: the chain bound is an upper bound on the true non-fill count of
   random sum-product expressions. *)
let prop_chain_upper_bound =
  QCheck.Test.make ~name:"chain bound is an upper bound" ~count:80
    (QCheck.int_range 0 100_000)
    (fun seed ->
      let prng = Prng.create seed in
      let n = 4 + Prng.int prng 4 in
      let a = sparse_matrix ~prng ~rows:n ~cols:n ~density:0.4 in
      let b = sparse_matrix ~prng ~rows:n ~cols:n ~density:0.4 in
      let dims = dims_of [ ("i", n); ("j", n); ("k", n) ] in
      let sa = Chain.of_tensor a ~idxs:[ "i"; "j" ] in
      let sb = Chain.of_tensor b ~idxs:[ "j"; "k" ] in
      (* product then project: matrix multiplication pattern *)
      let prod = Chain.map_annihilating ~dims [ sa; sb ] in
      let proj = Chain.aggregate ~dims prod ~over:[ "j" ] in
      let true_prod = ref 0 and true_proj = ref 0 in
      for i = 0 to n - 1 do
        for k = 0 to n - 1 do
          let any = ref false in
          for j = 0 to n - 1 do
            if T.get a [| i; j |] <> 0.0 && T.get b [| j; k |] <> 0.0 then begin
              incr true_prod;
              any := true
            end
          done;
          if !any then incr true_proj
        done
      done;
      Chain.estimate prod +. 1e-9 >= float_of_int !true_prod
      && Chain.estimate proj +. 1e-9 >= float_of_int !true_proj)

(* Property: non-annihilating merges bound the union pattern. *)
let prop_chain_union_upper_bound =
  QCheck.Test.make ~name:"chain bound covers unions" ~count:80
    (QCheck.int_range 0 100_000)
    (fun seed ->
      let prng = Prng.create seed in
      let n = 4 + Prng.int prng 4 in
      let a = sparse_matrix ~prng ~rows:n ~cols:n ~density:0.3 in
      let b = sparse_matrix ~prng ~rows:n ~cols:n ~density:0.3 in
      let dims = dims_of [ ("i", n); ("j", n) ] in
      let sa = Chain.of_tensor a ~idxs:[ "i"; "j" ] in
      let sb = Chain.of_tensor b ~idxs:[ "i"; "j" ] in
      let sum = Chain.map_non_annihilating ~dims [ sa; sb ] in
      let true_union = ref 0 in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if T.get a [| i; j |] <> 0.0 || T.get b [| i; j |] <> 0.0 then
            incr true_union
        done
      done;
      Chain.estimate sum +. 1e-9 >= float_of_int !true_union)

(* Property: [Chain.estimate] is the cheapest path product.  Random
   constraint sets over d <= 5 indices, with fractional bounds so rounding
   shows; the brute force walks every edge path from the empty set
   (multiplying along the path, as the estimator does) and caps the
   minimum by the index space. *)
let prop_chain_estimate_brute_force =
  QCheck.Test.make ~name:"chain estimate = brute-force path minimum"
    ~count:300 (QCheck.int_range 0 100_000) (fun seed ->
      let prng = Prng.create seed in
      let d = 1 + Prng.int prng 5 in
      let full = (1 lsl d) - 1 in
      let dims = Array.init d (fun _ -> float_of_int (1 + Prng.int prng 9)) in
      let n = Prng.int prng 7 in
      let xs = Array.init n (fun _ -> 1 + Prng.int prng full) in
      let ys = Array.init n (fun j -> Prng.int prng (full + 1) land lnot xs.(j)) in
      let bounds = Array.init n (fun _ -> Prng.float_range prng 0.5 40.0) in
      let c =
        {
          Chain.names = Array.init d (fun k -> String.make 1 (Char.chr (97 + k)));
          dims;
          xs;
          ys;
          bounds;
          empty = false;
        }
      in
      let edges =
        List.init n (fun j -> (ys.(j), xs.(j), bounds.(j)))
        @ List.init d (fun k -> (0, 1 lsl k, dims.(k)))
      in
      let rec walk s acc =
        if s = full then acc
        else
          List.fold_left
            (fun best (y, x, w) ->
              if y land s = y && x land lnot s <> 0 then
                Float.min best (walk (s lor x) (acc *. w))
              else best)
            infinity edges
      in
      let space = Array.fold_left ( *. ) 1.0 dims in
      Chain.estimate c = Float.min (walk 0 1.0) space)

let test_chain_rename_collision () =
  (* D(%0|%1) renamed with both names to "i": one index, masks merged. *)
  let prng = Prng.create 3 in
  let t = sparse_matrix ~prng ~rows:5 ~cols:5 ~density:0.5 in
  let c = Chain.rename (Chain.of_tensor t ~idxs:[ "%0"; "%1" ]) (fun _ -> "i") in
  Alcotest.(check (list string)) "one index" [ "i" ]
    (Ir.Idx_set.elements (Chain.idxs c));
  check_bool "every constraint over {i}" true
    (List.for_all
       (fun (d : Chain.degree) ->
         Ir.Idx_set.equal d.Chain.x (Ir.Idx_set.singleton "i")
         && Ir.Idx_set.subset d.Chain.y (Ir.Idx_set.singleton "i"))
       (Chain.degrees c));
  check_bool "estimate within the space" true (Chain.estimate c <= 5.0)

(* -------------------------------------------------------------- *)
(* Degree statistics: exact counts.                                 *)
(* -------------------------------------------------------------- *)

(* D(X|Y) by brute force over the non-fill entries: the most distinct
   X-projections among the entries that share one Y-projection. *)
let brute_degree (coo : (int array * float) array) (idxs : Ir.idx list) ~x ~y
    : int =
  let proj s (c : int array) =
    List.filteri (fun k _ -> Ir.Idx_set.mem (List.nth idxs k) s) (Array.to_list c)
  in
  let groups = Hashtbl.create 16 in
  Array.iter
    (fun (c, _) ->
      let yk = proj y c in
      let xs =
        match Hashtbl.find_opt groups yk with
        | Some xs -> xs
        | None ->
            let xs = Hashtbl.create 4 in
            Hashtbl.add groups yk xs;
            xs
      in
      Hashtbl.replace xs (proj x c) ())
    coo;
  Hashtbl.fold (fun _ xs acc -> max acc (Hashtbl.length xs)) groups 0

(* Every constraint [Chain.of_tensor] returns, under both budgets, is the
   exact distinct count. *)
let degrees_exact (t : T.t) : bool =
  let idxs = List.init (T.ndims t) (Printf.sprintf "i%d") in
  let coo = T.to_coo t in
  List.for_all
    (fun cheap ->
      let c = Chain.of_tensor ~cheap t ~idxs in
      List.for_all
        (fun (d : Chain.degree) ->
          d.Chain.bound
          = float_of_int (brute_degree coo idxs ~x:d.Chain.x ~y:d.Chain.y))
        (Chain.degrees c))
    [ false; true ]

(* Entries drawn per coordinate from [coord], about a quarter of them
   explicitly stored with the fill value (kept by [~prune:false]) so the
   statistics must skip them. *)
let stats_tensor ~prng ~dims ~formats ~fill ~n ~coord =
  let entries =
    Array.init n (fun _ ->
        ( Array.map (fun m -> coord m) dims,
          if Prng.int prng 4 = 0 then fill else Prng.float_range prng 1.0 2.0 ))
  in
  T.of_coo ~fill ~prune:false ~combine:(fun _ v -> v) ~dims ~formats entries

let all_formats = [| T.Dense; T.Sparse_list; T.Bytemap; T.Hash |]

(* Arity 1–7 crosses [Chain.max_full_enum] into the restricted split
   enumeration; dense levels over many dims push the larger tensors down
   the budget's rungs. *)
let prop_degrees_exact =
  QCheck.Test.make ~name:"degree statistics are exact distinct counts"
    ~count:150 (QCheck.int_range 0 100_000) (fun seed ->
      let prng = Prng.create seed in
      let arity = 1 + Prng.int prng 7 in
      let dims = Array.init arity (fun _ -> 1 + Prng.int prng 4) in
      let formats = Array.init arity (fun _ -> all_formats.(Prng.int prng 4)) in
      let fill = [| 0.0; 0.5; infinity |].(Prng.int prng 3) in
      degrees_exact
        (stats_tensor ~prng ~dims ~formats ~fill ~n:(Prng.int prng 40)
           ~coord:(Prng.int prng)))

(* Property: renaming statistics to new names (in another sort order) gives
   the constraints [of_tensor] computes under those names directly. *)
let prop_chain_rename_matches_of_tensor =
  QCheck.Test.make ~name:"chain rename = of_tensor under the new names"
    ~count:100 (QCheck.int_range 0 100_000) (fun seed ->
      let prng = Prng.create seed in
      let arity = 1 + Prng.int prng 4 in
      let dims = Array.init arity (fun _ -> 1 + Prng.int prng 4) in
      let t =
        stats_tensor ~prng ~dims
          ~formats:(Array.map (fun _ -> T.Sparse_list) dims)
          ~fill:0.0 ~n:(Prng.int prng 30) ~coord:(Prng.int prng)
      in
      let fresh = [| "q"; "b"; "x"; "a" |] in
      let canon = List.init arity (Printf.sprintf "%%%d") in
      let renamed =
        Chain.rename (Chain.of_tensor t ~idxs:canon) (fun i ->
            fresh.(int_of_string (String.sub i 1 (String.length i - 1))))
      in
      let direct = Chain.of_tensor t ~idxs:(List.init arity (fun k -> fresh.(k))) in
      let sorted c =
        List.sort compare
          (List.map
             (fun (d : Chain.degree) ->
               (Ir.Idx_set.elements d.Chain.x, Ir.Idx_set.elements d.Chain.y, d.Chain.bound))
             (Chain.degrees c))
      in
      sorted renamed = sorted direct
      && Chain.estimate renamed = Chain.estimate direct)

let test_degrees_exact_edge_cases () =
  let prng = Prng.create 17 in
  check_bool "empty tensor" true
    (degrees_exact
       (T.of_coo ~dims:[| 3; 4; 5 |]
          ~formats:[| T.Dense; T.Sparse_list; T.Hash |]
          [||]));
  (* Coordinates from three spread values, so groups hold several
     entries.  5 × 8192: the dims product passes 2^62, so packing a Y and
     an X side together goes through dense ranks. *)
  let spread m = [| 0; m / 2; m - 1 |].(Prng.int prng 3) in
  check_bool "dims product beyond 2^62" true
    (degrees_exact
       (stats_tensor ~prng ~dims:(Array.make 5 8192)
          ~formats:[| T.Sparse_list; T.Hash; T.Sparse_list; T.Hash; T.Sparse_list |]
          ~fill:0.0 ~n:60 ~coord:spread));
  (* 3 × 2^61: even ranked partial keys times one such dim overflow, so a
     dimension's own coordinates are ranked too. *)
  check_bool "dims near max_int" true
    (degrees_exact
       (stats_tensor ~prng ~dims:(Array.make 3 (1 lsl 61))
          ~formats:[| T.Sparse_list; T.Hash; T.Sparse_list |]
          ~fill:0.5 ~n:40 ~coord:spread))

(* The star-join scale of the ml_joins benchmark at [n] lineitems. *)
let star_scale n =
  {
    W.Tpch.n_lineitems = n;
    n_suppliers = max 5 (n / 25);
    n_parts = max 6 (n / 10);
    n_orders = max 7 (n * 3 / 20);
    n_customers = max 5 (n * 3 / 100);
  }

(* The register_input budget's nested rung: past the restricted rung, the
   star join's lineitem tensor keeps D(s,p,o,c|i) = 1, the functional
   dependency that makes the join cheap; smaller scales keep their richer
   rungs. *)
let test_budget_keeps_key_dependency () =
  let spoc = Ir.Idx_set.of_list [ "s"; "p"; "o"; "c" ] in
  List.iter
    (fun (n, want) ->
      let star = W.Tpch.star_instance ~scale:(star_scale n) ~seed:9 () in
      let l = List.assoc "L" star.W.Tpch.inputs in
      let c = Chain.of_tensor l ~idxs:[ "i"; "s"; "p"; "o"; "c" ] in
      Alcotest.(check int)
        (Printf.sprintf "%d lineitems: constraints" n)
        want (List.length (Chain.degrees c));
      check_bool
        (Printf.sprintf "%d lineitems: D(s,p,o,c|i) = 1" n)
        true
        (List.exists
           (fun (d : Chain.degree) ->
             Ir.Idx_set.equal d.Chain.x spoc
             && Ir.Idx_set.equal d.Chain.y (Ir.Idx_set.singleton "i")
             && d.Chain.bound = 1.0)
           (Chain.degrees c)))
    [ (1000, 211); (2000, 71); (4000, 71); (10_000, 11) ]

(* -------------------------------------------------------------- *)
(* Chain bound on the Fig. 6 programs' real intermediates.          *)
(* -------------------------------------------------------------- *)

(* The six Fig. 6 programs at the ml_joins benchmark's default scales and
   seed 1 (star join at 1 000 lineitems, covariance at 150, self join at
   400), each audited: every chain prediction, made from input statistics
   alone, must bound the query's actual output nnz (paper Sec. 7.3.2). *)
let test_chain_bounds_fig6_intermediates () =
  let self_join_scale n =
    {
      W.Tpch.n_lineitems = n;
      n_suppliers = max 5 (n / 20);
      n_parts = max 6 (n / 5);
      n_orders = 1;
      n_customers = 1;
    }
  in
  let seed = 1 in
  let params ~d k = W.Ml.parameter_inputs ~seed:((seed * 8) + k) ~d ~hidden:16 in
  let star_inputs sc k =
    let st = W.Tpch.star_instance ~scale:sc ~seed:((seed * 8) + k) () in
    st.W.Tpch.inputs @ params ~d:st.W.Tpch.d (k + 3)
  in
  let star = star_inputs (star_scale 1000) 1 in
  let cov = star_inputs (star_scale 150) 2 in
  let sj =
    let st =
      W.Tpch.self_join_instance ~scale:(self_join_scale 400)
        ~seed:((seed * 8) + 3) ()
    in
    st.W.Tpch.sj_inputs @ params ~d:st.W.Tpch.sj_d 6
  in
  let x_star j =
    Printf.sprintf
      "sum[s,p,o,c]((L[i,s,p,o,c] * (S[s,%s] + P[p,%s] + O[o,%s] + C[c,%s])))"
      j j j j
  in
  let x_sj = "sum[s1,s2,p]((L3[i1,s1,p] * L3[i2,s2,p] * (S[s1,j] + S[s2,j] + P[p,j])))" in
  let programs =
    [
      ("linreg_star", star, "Y[i] = sum[j]((" ^ x_star "j" ^ " * theta[j]))");
      ( "logreg_star",
        star,
        "Prob[i] = sigmoid(sum[j]((" ^ x_star "j" ^ " * theta[j])))" );
      ( "nn_star",
        star,
        "H[i,k] = relu(sum[j]((" ^ x_star "j" ^ " * W1[j,k])))\n"
        ^ "Out[i] = sigmoid(sum[k]((H[i,k] * w2[k])))" );
      ( "covariance_star",
        cov,
        "Cov[j,k] = sum[i]((" ^ x_star "j" ^ " * " ^ x_star "k" ^ "))" );
      ("linreg_self_join", sj, "Y[i1,i2] = sum[j]((" ^ x_sj ^ " * theta[j]))");
      ( "logreg_self_join",
        sj,
        "Prob[i1,i2] = sigmoid(sum[j]((" ^ x_sj ^ " * theta[j])))" );
    ]
  in
  let config = { D.default_config with D.audit = true; domains = 1 } in
  let checked = ref 0 in
  List.iter
    (fun (name, inputs, src) ->
      match D.run_source_checked ~config ~inputs src with
      | Error e -> Alcotest.failf "%s: %s" name (Galley.Errors.to_string e)
      | Ok r -> (
          match r.D.audit with
          | None -> Alcotest.failf "%s: no audit" name
          | Some a ->
              List.iter
                (fun (row : Audit.row) ->
                  if row.Audit.r_estimator = "chain" then
                    match row.Audit.r_actual with
                    | None -> Alcotest.failf "%s/%s: no actual" name row.Audit.r_query
                    | Some actual ->
                        incr checked;
                        check_bool
                          (Printf.sprintf "%s/%s: chain %g >= actual %g" name
                             row.Audit.r_query row.Audit.r_predicted actual)
                          true
                          (row.Audit.r_predicted >= actual))
                (Audit.rows a)))
    programs;
  check_bool "chain rows audited" true (!checked > 0)

(* -------------------------------------------------------------- *)
(* Estimation context.                                              *)
(* -------------------------------------------------------------- *)

let make_ctx ?(kind = Ctx.Chain_kind) (inputs : (string * T.t) list) : Ctx.t =
  let schema = Schema.create () in
  List.iter (fun (n, t) -> Schema.declare_tensor schema n t) inputs;
  let ctx = Ctx.create ~kind schema in
  List.iter (fun (n, t) -> ctx.Ctx.register_input n t) inputs;
  ctx

let test_ctx_estimates_input () =
  let prng = Prng.create 6 in
  let t = sparse_matrix ~prng ~rows:10 ~cols:10 ~density:0.3 in
  List.iter
    (fun kind ->
      let ctx = make_ctx ~kind [ ("A", t) ] in
      check_float
        (Ctx.kind_to_string kind)
        (float_of_int (T.nnz t))
        (Ctx.estimate_expr ctx (Ir.input "A" [ "i"; "j" ])))
    [ Ctx.Uniform_kind; Ctx.Chain_kind ]

let test_ctx_sigmoid_fill_flip () =
  (* sigmoid makes everything non-fill w.r.t. the *new* fill only where the
     input deviates: pattern size is preserved. *)
  let prng = Prng.create 7 in
  let t = sparse_matrix ~prng ~rows:10 ~cols:10 ~density:0.3 in
  let ctx = make_ctx [ ("A", t) ] in
  let est =
    Ctx.estimate_expr ctx (Ir.map Op.Sigmoid [ Ir.input "A" [ "i"; "j" ] ])
  in
  check_bool "pattern preserved" true (est >= float_of_int (T.nnz t) -. 1e-6)

let test_ctx_alias_estimated () =
  let prng = Prng.create 8 in
  let a = sparse_matrix ~prng ~rows:10 ~cols:10 ~density:0.3 in
  let ctx = make_ctx [ ("A", a) ] in
  let def = Ir.(sum [ "j" ] (input "A" [ "i"; "j" ])) in
  Schema.declare ctx.Ctx.schema "V" ~dims:[| 10 |] ~fill:0.0;
  Ctx.register_alias_estimated ctx "V" ~output_idxs:[ "i" ] def;
  check_bool "alias registered" true (ctx.Ctx.has_stats "V");
  let est = Ctx.estimate_expr ctx (Ir.alias "V" [ "q" ]) in
  check_bool "estimate sane" true (est >= 0.0 && est <= 10.0)

let test_ctx_alias_measured_overrides () =
  let prng = Prng.create 9 in
  let a = sparse_matrix ~prng ~rows:10 ~cols:10 ~density:0.3 in
  let ctx = make_ctx [ ("A", a) ] in
  Schema.declare ctx.Ctx.schema "V" ~dims:[| 10 |] ~fill:0.0;
  Ctx.register_alias_estimated ctx "V" ~output_idxs:[ "i" ]
    Ir.(sum [ "j" ] (input "A" [ "i"; "j" ]));
  let measured =
    T.of_coo ~dims:[| 10 |] ~formats:[| T.Sparse_list |] [| ([| 3 |], 1.0) |]
  in
  ctx.Ctx.register_alias_tensor "V" measured;
  check_float "measured wins" 1.0 (Ctx.estimate_expr ctx (Ir.alias "V" [ "i" ]))

let test_ctx_clone_isolated () =
  let prng = Prng.create 10 in
  let a = sparse_matrix ~prng ~rows:10 ~cols:10 ~density:0.3 in
  let ctx = make_ctx [ ("A", a) ] in
  let clone = ctx.Ctx.clone () in
  Schema.declare clone.Ctx.schema "W" ~dims:[| 10 |] ~fill:0.0;
  Ctx.register_alias_estimated clone "W" ~output_idxs:[ "i" ]
    Ir.(sum [ "j" ] (input "A" [ "i"; "j" ]));
  check_bool "clone has it" true (clone.Ctx.has_stats "W");
  check_bool "original does not" false (ctx.Ctx.has_stats "W")

let test_ctx_access_projected () =
  let entries = Array.init 6 (fun j -> ([| 2; j |], 1.0)) in
  let t = T.of_coo ~dims:[| 6; 6 |] ~formats:[| T.Dense; T.Sparse_list |] entries in
  let ctx = make_ctx [ ("A", t) ] in
  let total =
    ctx.Ctx.estimate_access_projected "A" [ "i"; "j" ]
      (Ir.Idx_set.of_list [ "i"; "j" ])
  in
  check_float "full" 6.0 total;
  let rows =
    ctx.Ctx.estimate_access_projected "A" [ "i"; "j" ] (Ir.Idx_set.singleton "i")
  in
  check_bool "rows >= 1" true (rows >= 1.0 && rows <= 6.0)

(* -------------------------------------------------------------- *)
(* Cost model.                                                      *)
(* -------------------------------------------------------------- *)

let test_cost_model () =
  let open Galley_stats.Cost in
  let c = logical_query_cost ~nnz_body:100.0 ~nnz_out:10.0 () in
  check_bool "positive" true (c > 0.0);
  let c2 = logical_query_cost ~nnz_body:100.0 ~nnz_out:1000.0 () in
  check_bool "bigger output costs more" true (c2 > c);
  check_float "transpose linear" (2.0 *. transpose_cost ~nnz:50.0 ())
    (transpose_cost ~nnz:100.0 ())

let () =
  Alcotest.run "stats"
    [
      ( "uniform",
        [
          Alcotest.test_case "of_tensor" `Quick test_uniform_of_tensor;
          Alcotest.test_case "annihilating" `Quick test_uniform_annihilating;
          Alcotest.test_case "non-annihilating" `Quick test_uniform_non_annihilating;
          Alcotest.test_case "aggregate" `Quick test_uniform_aggregate;
          Alcotest.test_case "rename" `Quick test_uniform_rename;
          Alcotest.test_case "literal" `Quick test_uniform_literal;
        ] );
      ( "chain",
        [
          Alcotest.test_case "exact total" `Quick test_chain_of_tensor_exact_total;
          Alcotest.test_case "degree bound" `Quick test_chain_degree_bound_matrix;
          Alcotest.test_case "triangle bound" `Quick test_chain_triangle_bound;
          Alcotest.test_case "aggregate" `Quick test_chain_aggregate_drops_conditioned;
          Alcotest.test_case "exact degrees: edge cases" `Quick
            test_degrees_exact_edge_cases;
          Alcotest.test_case "budget keeps key dependency" `Quick
            test_budget_keeps_key_dependency;
          Alcotest.test_case "bounds fig6 intermediates" `Quick
            test_chain_bounds_fig6_intermediates;
          Alcotest.test_case "rename collision" `Quick test_chain_rename_collision;
        ] );
      ( "context",
        [
          Alcotest.test_case "input estimate" `Quick test_ctx_estimates_input;
          Alcotest.test_case "sigmoid fill" `Quick test_ctx_sigmoid_fill_flip;
          Alcotest.test_case "alias estimated" `Quick test_ctx_alias_estimated;
          Alcotest.test_case "alias measured" `Quick test_ctx_alias_measured_overrides;
          Alcotest.test_case "clone isolation" `Quick test_ctx_clone_isolated;
          Alcotest.test_case "projected access" `Quick test_ctx_access_projected;
        ] );
      ("cost", [ Alcotest.test_case "weights" `Quick test_cost_model ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_chain_upper_bound;
            prop_chain_union_upper_bound;
            prop_degrees_exact;
            prop_chain_estimate_brute_force;
            prop_chain_rename_matches_of_tensor;
          ] );
    ]
