(* Tests for the fiber-tree tensor substrate: construction, access,
   iteration order, reformatting, transposition, builders, and property
   tests over random tensors in every format combination. *)

module T = Galley_tensor.Tensor
module B = Galley_tensor.Builder
module Prng = Galley_tensor.Prng

let all_formats = [ T.Dense; T.Sparse_list; T.Bytemap; T.Hash ]

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -------------------------------------------------------------- *)
(* Construction and point access.                                   *)
(* -------------------------------------------------------------- *)

let test_scalar () =
  let t = T.scalar 3.5 in
  check_int "ndims" 0 (T.ndims t);
  check_float "value" 3.5 (T.scalar_value t);
  check_float "get" 3.5 (T.get t [||])

let test_of_coo_get () =
  List.iter
    (fun fmt_outer ->
      List.iter
        (fun fmt_inner ->
          let t =
            T.of_coo ~dims:[| 3; 4 |] ~formats:[| fmt_outer; fmt_inner |]
              [| ([| 0; 1 |], 2.0); ([| 2; 3 |], -1.0); ([| 0; 0 |], 5.0) |]
          in
          let name =
            Printf.sprintf "%s/%s" (T.format_to_string fmt_outer)
              (T.format_to_string fmt_inner)
          in
          check_float (name ^ " [0,1]") 2.0 (T.get t [| 0; 1 |]);
          check_float (name ^ " [2,3]") (-1.0) (T.get t [| 2; 3 |]);
          check_float (name ^ " [0,0]") 5.0 (T.get t [| 0; 0 |]);
          check_float (name ^ " missing") 0.0 (T.get t [| 1; 1 |]);
          check_int (name ^ " nnz") 3 (T.nnz t))
        all_formats)
    all_formats

let test_of_coo_combines_duplicates () =
  let t =
    T.of_coo ~dims:[| 4 |] ~formats:[| T.Sparse_list |]
      [| ([| 1 |], 2.0); ([| 1 |], 3.0); ([| 2 |], 1.0) |]
  in
  check_float "summed" 5.0 (T.get t [| 1 |]);
  check_int "nnz" 2 (T.nnz t)

let test_of_coo_prunes_fill () =
  let t =
    T.of_coo ~dims:[| 4 |] ~formats:[| T.Sparse_list |]
      [| ([| 1 |], 0.0); ([| 2 |], 1.0) |]
  in
  check_int "nnz after prune" 1 (T.nnz t);
  let t2 =
    T.of_coo ~prune:false ~dims:[| 4 |] ~formats:[| T.Sparse_list |]
      [| ([| 1 |], 0.0); ([| 2 |], 1.0) |]
  in
  check_int "explicit kept" 2 (T.explicit_count t2)

let test_nonzero_fill () =
  let t =
    T.of_coo ~fill:1.0 ~dims:[| 3 |] ~formats:[| T.Sparse_list |]
      [| ([| 0 |], 4.0) |]
  in
  check_float "explicit" 4.0 (T.get t [| 0 |]);
  check_float "fill" 1.0 (T.get t [| 1 |]);
  check_int "nnz counts non-fill" 1 (T.nnz t)

let test_dense_explicit_everywhere () =
  let t =
    T.of_coo ~dims:[| 3 |] ~formats:[| T.Dense |] [| ([| 1 |], 2.0) |]
  in
  check_int "dense explicit count" 3 (T.explicit_count t);
  check_int "dense nnz" 1 (T.nnz t)

(* -------------------------------------------------------------- *)
(* Iteration.                                                       *)
(* -------------------------------------------------------------- *)

let test_iteration_sorted () =
  List.iter
    (fun fmt ->
      let t =
        T.of_coo ~dims:[| 10 |] ~formats:[| fmt |]
          [| ([| 7 |], 1.0); ([| 2 |], 1.0); ([| 5 |], 1.0) |]
      in
      let seen = ref [] in
      T.iter_nonfill t (fun c _ -> seen := c.(0) :: !seen);
      Alcotest.(check (list int))
        (T.format_to_string fmt ^ " sorted")
        [ 2; 5; 7 ] (List.rev !seen))
    all_formats

let test_to_coo_roundtrip () =
  let prng = Prng.create 5 in
  let t =
    T.random ~prng ~dims:[| 5; 6 |] ~formats:[| T.Hash; T.Bytemap |]
      ~density:0.4 ()
  in
  let t2 = T.of_coo ~dims:[| 5; 6 |] ~formats:[| T.Dense; T.Sparse_list |] (T.to_coo t) in
  check_bool "roundtrip equal" true (T.equal_approx t t2)

(* -------------------------------------------------------------- *)
(* Reformat / transpose.                                            *)
(* -------------------------------------------------------------- *)

let test_reformat_preserves_values () =
  let prng = Prng.create 11 in
  let t =
    T.random ~prng ~dims:[| 4; 5; 3 |]
      ~formats:[| T.Dense; T.Sparse_list; T.Sparse_list |]
      ~density:0.3 ()
  in
  List.iter
    (fun fmt ->
      let t2 = T.reformat t [| fmt; fmt; fmt |] in
      check_bool (T.format_to_string fmt) true (T.equal_approx t t2))
    all_formats

let test_transpose () =
  let t =
    T.of_coo ~dims:[| 2; 3 |] ~formats:[| T.Dense; T.Sparse_list |]
      [| ([| 0; 2 |], 1.5); ([| 1; 0 |], 2.5) |]
  in
  let tt = T.transpose t [| 1; 0 |] in
  Alcotest.(check (array int)) "dims" [| 3; 2 |] (T.dims tt);
  check_float "swapped" 1.5 (T.get tt [| 2; 0 |]);
  check_float "swapped2" 2.5 (T.get tt [| 0; 1 |]);
  let back = T.transpose tt [| 1; 0 |] in
  check_bool "involution" true (T.equal_approx t back)

let test_transpose_3d () =
  let prng = Prng.create 17 in
  let t =
    T.random ~prng ~dims:[| 3; 4; 5 |]
      ~formats:[| T.Dense; T.Sparse_list; T.Sparse_list |]
      ~density:0.3 ()
  in
  let perm = [| 2; 0; 1 |] in
  let tt = T.transpose t perm in
  Alcotest.(check (array int)) "dims" [| 5; 3; 4 |] (T.dims tt);
  T.iter_nonfill t (fun c v ->
      check_float "entry" v (T.get tt [| c.(2); c.(0); c.(1) |]))

(* -------------------------------------------------------------- *)
(* Flat dense interop.                                              *)
(* -------------------------------------------------------------- *)

let test_flat_dense_roundtrip () =
  let prng = Prng.create 23 in
  let dims = [| 3; 4 |] in
  let t =
    T.random ~prng ~dims ~formats:[| T.Sparse_list; T.Hash |] ~density:0.5 ()
  in
  let flat = T.to_flat_dense t in
  let t2 = T.of_flat_dense ~dims ~formats:[| T.Dense; T.Dense |] flat in
  check_bool "roundtrip" true (T.equal_approx t t2)

let test_of_fun () =
  let t =
    T.of_fun ~dims:[| 3; 3 |] ~formats:[| T.Dense; T.Sparse_list |] (fun c ->
        if c.(0) = c.(1) then 1.0 else 0.0)
  in
  check_int "identity nnz" 3 (T.nnz t);
  check_float "diag" 1.0 (T.get t [| 2; 2 |])

(* -------------------------------------------------------------- *)
(* Builders.                                                        *)
(* -------------------------------------------------------------- *)

let test_builder_accumulate () =
  List.iter
    (fun fmt ->
      let b = B.create ~dims:[| 4 |] ~formats:[| fmt |] ~identity:0.0 () in
      B.accum b [| 2 |] 1.0 ~combine:( +. );
      B.accum b [| 2 |] 2.0 ~combine:( +. );
      B.accum b [| 3 |] 5.0 ~combine:( +. );
      let t = B.freeze b ~finalize:(fun v _ -> v) ~fill:0.0 in
      check_float (T.format_to_string fmt ^ " acc") 3.0 (T.get t [| 2 |]);
      check_float (T.format_to_string fmt ^ " single") 5.0 (T.get t [| 3 |]))
    all_formats

let test_builder_counts () =
  let b = B.create ~dims:[| 3 |] ~formats:[| T.Dense |] ~identity:0.0 () in
  B.accum b [| 0 |] 1.0 ~combine:( +. );
  B.accum b [| 0 |] 1.0 ~combine:( +. );
  B.accum b [| 1 |] 1.0 ~combine:( +. );
  let t = B.freeze b ~finalize:(fun _ cnt -> float_of_int cnt) ~fill:0.0 in
  check_float "cnt 2" 2.0 (T.get t [| 0 |]);
  check_float "cnt 1" 1.0 (T.get t [| 1 |]);
  check_float "cnt 0" 0.0 (T.get t [| 2 |])

let test_builder_sequential_violation () =
  let b = B.create ~dims:[| 4 |] ~formats:[| T.Sparse_list |] ~identity:0.0 () in
  B.accum b [| 2 |] 1.0 ~combine:( +. );
  Alcotest.check_raises "backwards write rejected"
    (Invalid_argument "Builder: non-sequential write into a sorted-list level")
    (fun () -> B.accum b [| 1 |] 1.0 ~combine:( +. ))

let test_builder_negative_coordinate () =
  (* Hash levels key an int table whose empty slots are -1. *)
  let b = B.create ~dims:[| 4 |] ~formats:[| T.Hash |] ~identity:0.0 () in
  Alcotest.check_raises "negative coordinate rejected"
    (Invalid_argument "Builder: negative coordinate")
    (fun () -> B.accum b [| -1 |] 1.0 ~combine:( +. ))

let test_builder_random_writes () =
  List.iter
    (fun fmt ->
      let b = B.create ~dims:[| 5 |] ~formats:[| fmt |] ~identity:0.0 () in
      B.accum b [| 4 |] 1.0 ~combine:( +. );
      B.accum b [| 0 |] 2.0 ~combine:( +. );
      let t = B.freeze b ~finalize:(fun v _ -> v) ~fill:0.0 in
      check_float "late" 1.0 (T.get t [| 4 |]);
      check_float "early" 2.0 (T.get t [| 0 |]))
    [ T.Dense; T.Bytemap; T.Hash ]

let test_builder_nested () =
  let b =
    B.create ~dims:[| 3; 4 |] ~formats:[| T.Sparse_list; T.Hash |]
      ~identity:0.0 ()
  in
  B.accum b [| 0; 3 |] 1.0 ~combine:( +. );
  B.accum b [| 0; 1 |] 2.0 ~combine:( +. );
  B.accum b [| 2; 0 |] 4.0 ~combine:( +. );
  let t = B.freeze b ~finalize:(fun v _ -> v) ~fill:0.0 in
  check_int "nnz" 3 (T.nnz t);
  check_float "a" 1.0 (T.get t [| 0; 3 |]);
  check_float "b" 2.0 (T.get t [| 0; 1 |]);
  check_float "c" 4.0 (T.get t [| 2; 0 |])

let test_builder_scalar () =
  let b = B.create ~dims:[||] ~formats:[||] ~identity:0.0 () in
  B.accum b [||] 2.0 ~combine:( +. );
  B.accum b [||] 3.0 ~combine:( +. );
  let t = B.freeze b ~finalize:(fun v _ -> v) ~fill:0.0 in
  check_float "scalar sum" 5.0 (T.scalar_value t)

(* -------------------------------------------------------------- *)
(* Node-level accessors (used by the engine).                       *)
(* -------------------------------------------------------------- *)

let test_node_find () =
  let t =
    T.of_coo ~dims:[| 6; 6 |] ~formats:[| T.Bytemap; T.Sparse_list |]
      [| ([| 1; 2 |], 1.0); ([| 4; 5 |], 2.0) |]
  in
  let root = T.root t in
  check_bool "hit" true (T.Node.find root 1 <> None);
  check_bool "miss" true (T.Node.find root 2 = None);
  (match T.Node.find root 4 with
  | Some leaf -> check_float "leaf value" 2.0 (Option.get (T.Node.find_value leaf 5))
  | None -> Alcotest.fail "missing child");
  match T.Node.explicit_indices root with
  | Some arr -> Alcotest.(check (array int)) "explicit" [| 1; 4 |] arr
  | None -> Alcotest.fail "bytemap should report explicit indices"

(* -------------------------------------------------------------- *)
(* PRNG determinism.                                                *)
(* -------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_ranges () =
  let p = Prng.create 1 in
  for _ = 1 to 1000 do
    let x = Prng.int p 10 in
    check_bool "in range" true (x >= 0 && x < 10);
    let f = Prng.float p in
    check_bool "float range" true (f >= 0.0 && f < 1.0);
    let s = Prng.skewed p ~alpha:0.8 50 in
    check_bool "skewed range" true (s >= 0 && s < 50)
  done

let test_sample_distinct () =
  let p = Prng.create 3 in
  let s = Prng.sample_distinct p ~k:20 100 in
  check_int "count" 20 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  for i = 1 to 19 do
    check_bool "distinct" true (sorted.(i) <> sorted.(i - 1))
  done

(* -------------------------------------------------------------- *)
(* Property tests.                                                  *)
(* -------------------------------------------------------------- *)

let random_format prng =
  match Prng.int prng 4 with
  | 0 -> T.Dense
  | 1 -> T.Sparse_list
  | 2 -> T.Bytemap
  | _ -> T.Hash

let prop_get_matches_flat =
  QCheck.Test.make ~name:"get matches to_flat_dense" ~count:60
    (QCheck.int_range 0 10_000)
    (fun seed ->
      let prng = Prng.create seed in
      let nd = 1 + Prng.int prng 3 in
      let dims = Array.init nd (fun _ -> 2 + Prng.int prng 4) in
      let formats = Array.init nd (fun _ -> random_format prng) in
      let t = T.random ~prng ~dims ~formats ~density:0.4 () in
      let flat = T.to_flat_dense t in
      let ok = ref true in
      Array.iteri
        (fun i v ->
          let c = T.unflatten dims i in
          if T.get t c <> v then ok := false)
        flat;
      !ok)

let prop_transpose_preserves =
  QCheck.Test.make ~name:"transpose preserves entries" ~count:60
    (QCheck.int_range 0 10_000)
    (fun seed ->
      let prng = Prng.create seed in
      let nd = 2 + Prng.int prng 2 in
      let dims = Array.init nd (fun _ -> 2 + Prng.int prng 4) in
      let formats = Array.init nd (fun _ -> random_format prng) in
      let t = T.random ~prng ~dims ~formats ~density:0.4 () in
      let perm = Array.init nd (fun i -> i) in
      Prng.shuffle prng perm;
      let tt = T.transpose t perm in
      let ok = ref true in
      T.iter_nonfill t (fun c v ->
          let c' = Array.map (fun k -> c.(k)) perm in
          if T.get tt c' <> v then ok := false);
      !ok && T.nnz t = T.nnz tt)

let prop_reformat_identity =
  QCheck.Test.make ~name:"reformat preserves tensor" ~count:60
    (QCheck.int_range 0 10_000)
    (fun seed ->
      let prng = Prng.create seed in
      let nd = 1 + Prng.int prng 3 in
      let dims = Array.init nd (fun _ -> 2 + Prng.int prng 4) in
      let formats = Array.init nd (fun _ -> random_format prng) in
      let formats2 = Array.init nd (fun _ -> random_format prng) in
      let t = T.random ~prng ~dims ~formats ~density:0.5 () in
      T.equal_approx t (T.reformat t formats2))

(* Bit-level image of a tensor: dims, formats, fill and every node —
   format, explicit coordinates in order, values as bits — so two tensors
   compare equal only when they are built alike. *)
let dump (t : T.t) : string =
  let b = Buffer.create 256 in
  let bits v = Printf.bprintf b "%Lx," (Int64.bits_of_float v) in
  Array.iter (Printf.bprintf b "%d,") (T.dims t);
  Array.iter (fun f -> Buffer.add_string b (T.format_to_string f)) (T.formats t);
  bits (T.fill t);
  let rec go (n : T.node) =
    match n with
    | T.Scalar v -> bits v
    | T.Leaf_dense _ | T.Leaf_sparse _ | T.Leaf_bytemap _ | T.Leaf_hash _ ->
        Buffer.add_string b
          (match n with
          | T.Leaf_dense _ -> "[D"
          | T.Leaf_sparse _ -> "[S"
          | T.Leaf_bytemap _ -> "[B"
          | _ -> "[H");
        T.Node.iter_values n (fun i v ->
            Printf.bprintf b "%d:" i;
            bits v);
        Buffer.add_char b ']'
    | _ ->
        Buffer.add_string b
          (match n with
          | T.Inner_dense _ -> "(D"
          | T.Inner_sparse _ -> "(S"
          | T.Inner_bytemap _ -> "(B"
          | _ -> "(H");
        T.Node.iter_sorted n (fun i c ->
            Printf.bprintf b "%d:" i;
            go c);
        Buffer.add_char b ')'
  in
  go (T.root t);
  Buffer.contents b

(* Transpose through boxed COO tuples, as it was built before the
   columnar path: the reference the columnar transpose must match. *)
let transpose_via_coo ?formats (t : T.t) (perm : int array) : T.t =
  let out_dims = Array.map (fun k -> (T.dims t).(k)) perm in
  let out_formats =
    match formats with
    | Some fs -> fs
    | None -> Array.map (fun k -> (T.formats t).(k)) perm
  in
  let permuted =
    Array.map (fun (c, v) -> (Array.map (fun k -> c.(k)) perm, v)) (T.to_coo t)
  in
  T.of_coo ~fill:(T.fill t) ~dims:out_dims ~formats:out_formats permuted

let prop_transpose_matches_coo =
  QCheck.Test.make ~name:"transpose = of_coo of permuted to_coo" ~count:150
    (QCheck.int_range 0 100_000)
    (fun seed ->
      let prng = Prng.create seed in
      let nd = 1 + Prng.int prng 4 in
      let fill =
        match Prng.int prng 4 with 0 | 1 -> 0.0 | 2 -> 1.0 | _ -> infinity
      in
      let perm = Array.init nd Fun.id in
      Prng.shuffle prng perm;
      let huge = nd >= 2 && Prng.int prng 6 = 0 in
      let t =
        if huge then
          (* Dimensions whose product passes [max_int]: the packed-key sort
             cannot apply, so the column-wise comparison sort runs. *)
          let dims = Array.init nd (fun _ -> 1 lsl (62 / nd + 1)) in
          let formats =
            Array.init nd (fun _ -> if Prng.bool prng then T.Sparse_list else T.Hash)
          in
          let entries =
            Array.init (Prng.int prng 30) (fun _ ->
                ( Array.map (fun d -> Prng.int prng (min d 1_000_000)) dims,
                  Prng.float_range prng (-2.0) 2.0 ))
          in
          T.of_coo ~fill ~dims ~formats entries
        else
          let dims = Array.init nd (fun _ -> 1 + Prng.int prng 6) in
          let formats = Array.init nd (fun _ -> random_format prng) in
          T.random ~fill ~prng ~dims ~formats
            ~density:(Prng.float_range prng 0.0 0.8)
            ()
      in
      let formats =
        (* Dense and bytemap levels over a huge dimension would allocate it. *)
        if huge || Prng.bool prng then None
        else Some (Array.init nd (fun _ -> random_format prng))
      in
      dump (T.transpose ?formats t perm) = dump (transpose_via_coo ?formats t perm))

(* Builder against a naive association-list accumulator.  Writes are
   random cells, reordered only as far as sorted-list levels require:
   stably by the coordinates at the sorted-list positions, so dense, hash
   and bytemap levels see their prefixes revisited out of order.  Each
   write goes through [accum], through a fresh [leaf] row, or through a
   row handle resolved earlier for the same prefix.  [finalize] is not
   neutral, so counts show in the frozen values. *)
let prop_builder_vs_naive =
  QCheck.Test.make ~name:"builder = naive accumulator" ~count:300
    (QCheck.int_range 0 100_000)
    (fun seed ->
      let prng = Prng.create seed in
      let nd = Prng.int prng 4 in
      let dims = Array.init nd (fun _ -> 1 + Prng.int prng 5) in
      let formats = Array.init nd (fun _ -> random_format prng) in
      let op, combine, identity =
        match Prng.int prng 3 with
        | 0 -> ("add", ( +. ), 0.0)
        | 1 -> ("min", Float.min, infinity)
        | _ -> ("max", Float.max, neg_infinity)
      in
      let writes =
        Array.init (Prng.int prng 40) (fun _ ->
            ( Array.map (fun d -> Prng.int prng d) dims,
              Prng.float_range prng (-3.0) 3.0 ))
      in
      let sorted_pos =
        List.filter (fun d -> formats.(d) = T.Sparse_list) (List.init nd Fun.id)
      in
      let key c = List.map (fun d -> c.(d)) sorted_pos in
      Array.stable_sort (fun (a, _) (b, _) -> compare (key a) (key b)) writes;
      let b = B.create ~dims ~formats ~identity () in
      let naive = Hashtbl.create 16 in
      let rows = Hashtbl.create 16 in
      let last c = if nd = 0 then 0 else c.(nd - 1) in
      let prefix c = Array.to_list (Array.sub c 0 (max 0 (nd - 1))) in
      Array.iter
        (fun (c, v) ->
          (match Prng.int prng 3 with
          | 0 -> B.accum b c v ~combine
          | 1 ->
              let row = B.leaf b c in
              Hashtbl.replace rows (prefix c) row;
              B.leaf_accum b row (last c) v ~combine
          | _ ->
              let row =
                match Hashtbl.find_opt rows (prefix c) with
                | Some row -> row
                | None -> B.leaf b c
              in
              B.leaf_accum b row (last c) v ~combine);
          let k = Array.to_list c in
          let acc, cnt =
            match Hashtbl.find_opt naive k with
            | Some (acc, cnt) -> (acc, cnt)
            | None -> (identity, 0)
          in
          Hashtbl.replace naive k (combine acc v, cnt + 1))
        writes;
      let finalize v cnt = (v *. 3.0) +. float_of_int cnt in
      let fill = finalize identity 0 in
      let t = B.freeze b ~finalize ~fill in
      (* A cell is stored when written, or when it lies in a dense leaf
         whose row exists (dense inner levels hold every position, the others
         once written under); a scalar always is. *)
      let row_exists c =
        List.for_all
          (fun d ->
            formats.(d) = T.Dense
            || Array.exists
                 (fun (w, _) -> Array.sub w 0 (d + 1) = Array.sub c 0 (d + 1))
                 writes)
          (List.init (max 0 (nd - 1)) Fun.id)
      in
      let stored = Hashtbl.create 16 in
      T.iter_explicit t (fun c v -> Hashtbl.replace stored (Array.to_list c) v);
      let ok = ref true in
      for flat = 0 to T.dim_space dims - 1 do
        let c = T.unflatten dims flat in
        let want =
          match Hashtbl.find_opt naive (Array.to_list c) with
          | Some (acc, cnt) -> Some (finalize acc cnt)
          | None ->
              if nd = 0 || (formats.(nd - 1) = T.Dense && row_exists c) then
                Some fill
              else None
        in
        let got = Hashtbl.find_opt stored (Array.to_list c) in
        let same =
          match (want, got) with
          | Some w, Some g -> Int64.bits_of_float w = Int64.bits_of_float g
          | None, None -> true
          | _ -> false
        in
        if not same then begin
          ok := false;
          QCheck.Test.fail_reportf "%s, formats %s: cell %s wants %s, holds %s" op
            (String.concat "," (Array.to_list (Array.map T.format_to_string formats)))
            (String.concat "," (Array.to_list (Array.map string_of_int c)))
            (match want with Some w -> string_of_float w | None -> "none")
            (match got with Some g -> string_of_float g | None -> "none")
        end
      done;
      !ok)

let () =
  Alcotest.run "tensor"
    [
      ( "construction",
        [
          Alcotest.test_case "scalar" `Quick test_scalar;
          Alcotest.test_case "of_coo/get all formats" `Quick test_of_coo_get;
          Alcotest.test_case "duplicate combine" `Quick test_of_coo_combines_duplicates;
          Alcotest.test_case "fill pruning" `Quick test_of_coo_prunes_fill;
          Alcotest.test_case "non-zero fill" `Quick test_nonzero_fill;
          Alcotest.test_case "dense explicit" `Quick test_dense_explicit_everywhere;
          Alcotest.test_case "of_fun" `Quick test_of_fun;
        ] );
      ( "iteration",
        [
          Alcotest.test_case "sorted order" `Quick test_iteration_sorted;
          Alcotest.test_case "to_coo roundtrip" `Quick test_to_coo_roundtrip;
        ] );
      ( "reshape",
        [
          Alcotest.test_case "reformat" `Quick test_reformat_preserves_values;
          Alcotest.test_case "transpose 2d" `Quick test_transpose;
          Alcotest.test_case "transpose 3d" `Quick test_transpose_3d;
          Alcotest.test_case "flat roundtrip" `Quick test_flat_dense_roundtrip;
        ] );
      ( "builder",
        [
          Alcotest.test_case "accumulate" `Quick test_builder_accumulate;
          Alcotest.test_case "counts" `Quick test_builder_counts;
          Alcotest.test_case "sequential violation" `Quick test_builder_sequential_violation;
          Alcotest.test_case "random writes" `Quick test_builder_random_writes;
          Alcotest.test_case "nested" `Quick test_builder_nested;
          Alcotest.test_case "scalar" `Quick test_builder_scalar;
          Alcotest.test_case "negative coordinate" `Quick
            test_builder_negative_coordinate;
        ] );
      ("node", [ Alcotest.test_case "find/explicit" `Quick test_node_find ]);
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
          Alcotest.test_case "sample distinct" `Quick test_sample_distinct;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_get_matches_flat;
            prop_transpose_preserves;
            prop_reformat_identity;
            prop_transpose_matches_coo;
            prop_builder_vs_naive;
          ] );
    ]
