(* Fiber-tree sparse tensors (paper Sec. 3.2, Fig. 2).

   A tensor is a nested data structure: each level stores the explicit
   (potentially non-fill) indices of one dimension, conditioned on the outer
   dimensions, together with pointers to the next level.  Every level can be
   stored in one of four formats — dense vector, sorted list, bytemap, or
   hash table — each with different iteration / lookup / memory trade-offs.
   The innermost level stores scalar values directly (unboxed float arrays
   where the format allows), and a 0-dimensional tensor is a bare scalar. *)

type format = Dense | Sparse_list | Bytemap | Hash

let format_to_string = function
  | Dense -> "dense"
  | Sparse_list -> "sparse"
  | Bytemap -> "bytemap"
  | Hash -> "hash"

let pp_format fmt f = Format.pp_print_string fmt (format_to_string f)

type node =
  | Inner_dense of node array
  | Inner_sparse of { crd : int array; children : node array }
  | Inner_bytemap of {
      mask : Bytes.t;
      words : int array;  (* Bitset.of_sorted crd: mask packed word-wise *)
      crd : int array;
      children : node array;
    }
  | Inner_hash of {
      tbl : (int, node) Hashtbl.t;
      mutable sorted : int array option;
    }
  | Leaf_dense of float array
  | Leaf_sparse of { crd : int array; vals : float array }
  | Leaf_bytemap of {
      mask : Bytes.t;
      words : int array;
      crd : int array;
      vals : float array;
    }
  | Leaf_hash of {
      tbl : (int, float) Hashtbl.t;
      mutable sorted : int array option;
    }
  | Scalar of float

type t = {
  dims : int array;
  formats : format array;
  fill : float;
  root : node;
  mutable nnz_cache : int option;
      (* lazily computed non-fill count: tensors are immutable after
         construction, so one traversal serves every caller *)
  mutable facts_cache : Facts.t option; (* likewise, for [facts] *)
}

let ndims t = Array.length t.dims
let dims t = t.dims
let fill t = t.fill
let formats t = t.formats
let root t = t.root

let dim_space dims = Array.fold_left (fun acc n -> acc * n) 1 dims

(* ------------------------------------------------------------------ *)
(* Binary search over a sorted coordinate array.                        *)
(* ------------------------------------------------------------------ *)

(* Position of [x] in the sorted array [crd], or -1 when absent.  The
   loop compares ints only: no option is built and no polymorphic
   equality is called per step. *)
let bsearch (crd : int array) (x : int) : int =
  let lo = ref 0 and hi = ref (Array.length crd - 1) in
  let pos = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = Array.unsafe_get crd mid in
    if c = x then begin
      pos := mid;
      lo := !hi + 1
    end
    else if c < x then lo := mid + 1
    else hi := mid - 1
  done;
  !pos

let hash_sorted_keys tbl sorted set_sorted =
  match sorted with
  | Some s -> s
  | None ->
      let keys = Array.make (Hashtbl.length tbl) 0 in
      let i = ref 0 in
      Hashtbl.iter
        (fun k _ ->
          keys.(!i) <- k;
          incr i)
        tbl;
      Array.sort compare keys;
      set_sorted keys;
      keys

(* ------------------------------------------------------------------ *)
(* Node accessors used by the execution engine.                         *)
(* ------------------------------------------------------------------ *)

module Node = struct
  type t = node

  (* Sorted explicit indices of a level.  Dense levels return [None] so the
     caller can iterate the full dimension range without materializing it. *)
  let explicit_indices (n : node) : int array option =
    match n with
    | Inner_dense _ | Leaf_dense _ -> None
    | Inner_sparse { crd; _ } | Leaf_sparse { crd; _ } -> Some crd
    | Inner_bytemap { crd; _ } | Leaf_bytemap { crd; _ } -> Some crd
    | Inner_hash h -> Some (hash_sorted_keys h.tbl h.sorted (fun s -> h.sorted <- Some s))
    | Leaf_hash h -> Some (hash_sorted_keys h.tbl h.sorted (fun s -> h.sorted <- Some s))
    | Scalar _ -> invalid_arg "Node.explicit_indices: scalar"

  let explicit_count (n : node) : int =
    match n with
    | Inner_dense cs -> Array.length cs
    | Leaf_dense vs -> Array.length vs
    | Inner_sparse { crd; _ } | Leaf_sparse { crd; _ } -> Array.length crd
    | Inner_bytemap { crd; _ } | Leaf_bytemap { crd; _ } -> Array.length crd
    | Inner_hash { tbl; _ } -> Hashtbl.length tbl
    | Leaf_hash { tbl; _ } -> Hashtbl.length tbl
    | Scalar _ -> 1

  (* Lookup of a child node at an inner level. *)
  let find (n : node) (i : int) : node option =
    match n with
    | Inner_dense cs -> if i >= 0 && i < Array.length cs then Some cs.(i) else None
    | Inner_sparse { crd; children } ->
        let p = bsearch crd i in
        if p >= 0 then Some children.(p) else None
    | Inner_bytemap { mask; crd; children; _ } ->
        if i >= 0 && i < Bytes.length mask && Bytes.get mask i <> '\000' then
          let p = bsearch crd i in
          if p >= 0 then Some children.(p) else None
        else None
    | Inner_hash { tbl; _ } -> Hashtbl.find_opt tbl i
    | Leaf_dense _ | Leaf_sparse _ | Leaf_bytemap _ | Leaf_hash _ | Scalar _ ->
        invalid_arg "Node.find: leaf level"

  (* [find] with [absent] in place of [None]: the allocation-free form
     the kernel binders use. *)
  let find_or (n : node) (i : int) (absent : node) : node =
    match n with
    | Inner_dense cs -> if i >= 0 && i < Array.length cs then cs.(i) else absent
    | Inner_sparse { crd; children } ->
        let p = bsearch crd i in
        if p >= 0 then children.(p) else absent
    | Inner_bytemap { mask; crd; children; _ } ->
        if i >= 0 && i < Bytes.length mask && Bytes.get mask i <> '\000' then
          let p = bsearch crd i in
          if p >= 0 then children.(p) else absent
        else absent
    | Inner_hash { tbl; _ } -> (
        match Hashtbl.find tbl i with c -> c | exception Not_found -> absent)
    | Leaf_dense _ | Leaf_sparse _ | Leaf_bytemap _ | Leaf_hash _ | Scalar _ ->
        invalid_arg "Node.find: leaf level"

  (* Lookup of a value at a leaf level, [fill] when [i] is not stored:
     the allocation-free form the kernel binders use. *)
  let find_value_or (n : node) (i : int) (fill : float) : float =
    match n with
    | Leaf_dense vs -> if i >= 0 && i < Array.length vs then vs.(i) else fill
    | Leaf_sparse { crd; vals } ->
        let p = bsearch crd i in
        if p >= 0 then vals.(p) else fill
    | Leaf_bytemap { mask; crd; vals; _ } ->
        if i >= 0 && i < Bytes.length mask && Bytes.get mask i <> '\000' then
          let p = bsearch crd i in
          if p >= 0 then vals.(p) else fill
        else fill
    | Leaf_hash { tbl; _ } -> (
        match Hashtbl.find tbl i with v -> v | exception Not_found -> fill)
    | Scalar _ | Inner_dense _ | Inner_sparse _ | Inner_bytemap _ | Inner_hash _
      ->
        invalid_arg "Node.find_value: inner level"

  (* [find_value_or] stored into [dst.(slot)]: no float is boxed for the
     result. *)
  let load_value (n : node) (i : int) (fill : float) (dst : float array)
      (slot : int) : unit =
    dst.(slot) <-
      (match n with
      | Leaf_dense vs -> if i >= 0 && i < Array.length vs then vs.(i) else fill
      | Leaf_sparse { crd; vals } ->
          let p = bsearch crd i in
          if p >= 0 then vals.(p) else fill
      | Leaf_bytemap { mask; crd; vals; _ } ->
          if i >= 0 && i < Bytes.length mask && Bytes.get mask i <> '\000' then
            let p = bsearch crd i in
            if p >= 0 then vals.(p) else fill
          else fill
      | Leaf_hash { tbl; _ } -> (
          match Hashtbl.find tbl i with v -> v | exception Not_found -> fill)
      | Scalar _ | Inner_dense _ | Inner_sparse _ | Inner_bytemap _
      | Inner_hash _ ->
          invalid_arg "Node.find_value: inner level")

  (* Lookup of a value at a leaf level. *)
  let find_value (n : node) (i : int) : float option =
    match n with
    | Leaf_dense vs -> if i >= 0 && i < Array.length vs then Some vs.(i) else None
    | Leaf_sparse { crd; vals } ->
        let p = bsearch crd i in
        if p >= 0 then Some vals.(p) else None
    | Leaf_bytemap { mask; crd; vals; _ } ->
        if i >= 0 && i < Bytes.length mask && Bytes.get mask i <> '\000' then
          let p = bsearch crd i in
          if p >= 0 then Some vals.(p) else None
        else None
    | Leaf_hash { tbl; _ } -> Hashtbl.find_opt tbl i
    | Scalar _ | Inner_dense _ | Inner_sparse _ | Inner_bytemap _ | Inner_hash _
      ->
        invalid_arg "Node.find_value: inner level"

  let scalar_value (n : node) : float =
    match n with
    | Scalar v -> v
    | _ -> invalid_arg "Node.scalar_value: not a scalar"

  (* Membership probe: does this level store index [i] explicitly?  Cheaper
     than [find]/[find_value] when only presence matters — no child or value
     is fetched, and a bytemap answers from its mask alone. *)
  let mem (n : node) (i : int) : bool =
    match n with
    | Inner_dense cs -> i >= 0 && i < Array.length cs
    | Leaf_dense vs -> i >= 0 && i < Array.length vs
    | Inner_sparse { crd; _ } | Leaf_sparse { crd; _ } -> bsearch crd i >= 0
    | Inner_bytemap { mask; _ } | Leaf_bytemap { mask; _ } ->
        i >= 0 && i < Bytes.length mask && Bytes.get mask i <> '\000'
    | Inner_hash { tbl; _ } -> Hashtbl.mem tbl i
    | Leaf_hash { tbl; _ } -> Hashtbl.mem tbl i
    | Scalar _ -> invalid_arg "Node.mem: scalar"

  (* Word-packed presence mask of a bytemap level ([Bitset] words over
     the level's dimension); [None] for every other format.  The kernel
     backend intersects/unions these word arrays directly instead of
     probing byte-at-a-time. *)
  let bitmap_words (n : node) : int array option =
    match n with
    | Inner_bytemap { words; _ } | Leaf_bytemap { words; _ } -> Some words
    | _ -> None

  (* Iterate children of an inner level in ascending index order. *)
  let iter_sorted (n : node) (f : int -> node -> unit) : unit =
    match n with
    | Inner_dense cs -> Array.iteri f cs
    | Inner_sparse { crd; children } | Inner_bytemap { crd; children; _ } ->
        Array.iteri (fun p i -> f i children.(p)) crd
    | Inner_hash h ->
        let keys = hash_sorted_keys h.tbl h.sorted (fun s -> h.sorted <- Some s) in
        Array.iter (fun k -> f k (Hashtbl.find h.tbl k)) keys
    | Leaf_dense _ | Leaf_sparse _ | Leaf_bytemap _ | Leaf_hash _ | Scalar _ ->
        invalid_arg "Node.iter_sorted: leaf level"

  (* Iterate values of a leaf level in ascending index order. *)
  let iter_values (n : node) (f : int -> float -> unit) : unit =
    match n with
    | Leaf_dense vs -> Array.iteri f vs
    | Leaf_sparse { crd; vals } | Leaf_bytemap { crd; vals; _ } ->
        Array.iteri (fun p i -> f i vals.(p)) crd
    | Leaf_hash h ->
        let keys = hash_sorted_keys h.tbl h.sorted (fun s -> h.sorted <- Some s) in
        Array.iter (fun k -> f k (Hashtbl.find h.tbl k)) keys
    | Scalar _ | Inner_dense _ | Inner_sparse _ | Inner_bytemap _ | Inner_hash _
      ->
        invalid_arg "Node.iter_values: inner level"
end

(* ------------------------------------------------------------------ *)
(* Construction.                                                        *)
(* ------------------------------------------------------------------ *)

let scalar v =
  { dims = [||]; formats = [||]; fill = 0.0; root = Scalar v; nnz_cache = None; facts_cache = None }

let scalar_value t =
  match t.root with
  | Scalar v -> v
  | _ -> invalid_arg "Tensor.scalar_value: not 0-dimensional"

(* Canonical empty node for a level stack: used as the shared child of
   untouched positions in dense levels. *)
let rec empty_node (formats : format array) (dims : int array) (depth : int)
    (fill : float) : node =
  let leaf = depth = Array.length dims - 1 in
  match formats.(depth) with
  | Dense ->
      let n = dims.(depth) in
      if leaf then Leaf_dense (Array.make n fill)
      else begin
        let child = empty_node formats dims (depth + 1) fill in
        Inner_dense (Array.make n child)
      end
  | Sparse_list ->
      if leaf then Leaf_sparse { crd = [||]; vals = [||] }
      else Inner_sparse { crd = [||]; children = [||] }
  | Bytemap ->
      let n = dims.(depth) in
      let words = Array.make (Bitset.n_words n) 0 in
      if leaf then
        Leaf_bytemap { mask = Bytes.make n '\000'; words; crd = [||]; vals = [||] }
      else
        Inner_bytemap
          { mask = Bytes.make n '\000'; words; crd = [||]; children = [||] }
  | Hash ->
      if leaf then Leaf_hash { tbl = Hashtbl.create 4; sorted = Some [||] }
      else Inner_hash { tbl = Hashtbl.create 4; sorted = Some [||] }

(* Lexicographic comparison of two coordinate tuples. *)
let compare_coords (a : int array) (b : int array) : int =
  let n = Array.length a in
  let rec go i =
    if i = n then 0
    else
      let c = compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Build a fiber tree from sorted, deduplicated entries given as columns:
   [cols.(d).(e)] is entry [e]'s coordinate at depth [d] and [vals.(e)]
   its value; [lo, hi) is the active slice. *)
let rec build_node (formats : format array) (dims : int array) (fill : float)
    (cols : int array array) (vals : float array) (lo : int) (hi : int)
    (depth : int) : node =
  let leaf = depth = Array.length dims - 1 in
  let n = dims.(depth) in
  let col = cols.(depth) in
  (* Runs of equal coordinate at this depth: run [r] is
     [starts.(r), starts.(r + 1)). *)
  let starts = Vec.Int.create () in
  let i = ref lo in
  while !i < hi do
    Vec.Int.push starts !i;
    let c = col.(!i) in
    let j = ref (!i + 1) in
    while !j < hi && col.(!j) = c do
      incr j
    done;
    i := !j
  done;
  let nruns = Vec.Int.length starts in
  let run_lo r = Vec.Int.get starts r in
  let run_hi r = if r + 1 < nruns then Vec.Int.get starts (r + 1) else hi in
  let crd_of r = col.(run_lo r) in
  if leaf then begin
    match formats.(depth) with
    | Dense ->
        let vs = Array.make n fill in
        for r = 0 to nruns - 1 do
          vs.(crd_of r) <- vals.(run_lo r)
        done;
        Leaf_dense vs
    | Sparse_list ->
        let crd = Array.init nruns crd_of in
        Leaf_sparse { crd; vals = Array.init nruns (fun r -> vals.(run_lo r)) }
    | Bytemap ->
        let mask = Bytes.make n '\000' in
        let crd = Array.init nruns crd_of in
        Array.iter (fun c -> Bytes.set mask c '\001') crd;
        Leaf_bytemap
          {
            mask;
            words = Bitset.of_sorted crd ~len:n;
            crd;
            vals = Array.init nruns (fun r -> vals.(run_lo r));
          }
    | Hash ->
        let tbl = Hashtbl.create (max 4 (2 * nruns)) in
        for r = 0 to nruns - 1 do
          Hashtbl.replace tbl (crd_of r) vals.(run_lo r)
        done;
        Leaf_hash { tbl; sorted = None }
  end
  else begin
    let child_of r =
      build_node formats dims fill cols vals (run_lo r) (run_hi r) (depth + 1)
    in
    match formats.(depth) with
    | Dense ->
        (* Untouched positions share one canonical empty child. *)
        let empty = empty_node formats dims (depth + 1) fill in
        let children = Array.make n empty in
        for r = 0 to nruns - 1 do
          children.(crd_of r) <- child_of r
        done;
        Inner_dense children
    | Sparse_list ->
        let crd = Array.init nruns crd_of in
        Inner_sparse { crd; children = Array.init nruns child_of }
    | Bytemap ->
        let mask = Bytes.make n '\000' in
        let crd = Array.init nruns crd_of in
        let children = Array.init nruns child_of in
        Array.iter (fun c -> Bytes.set mask c '\001') crd;
        Inner_bytemap { mask; words = Bitset.of_sorted crd ~len:n; crd; children }
    | Hash ->
        let tbl = Hashtbl.create (max 4 (2 * nruns)) in
        for r = 0 to nruns - 1 do
          Hashtbl.replace tbl (crd_of r) (child_of r)
        done;
        Inner_hash { tbl; sorted = None }
  end

let of_coo ?(fill = 0.0) ?(combine = ( +. )) ?(prune = true) ~dims ~formats
    entries =
  let nd = Array.length dims in
  if Array.length formats <> nd then
    invalid_arg "Tensor.of_coo: formats/dims length mismatch";
  Array.iter
    (fun (c, _) ->
      if Array.length c <> nd then invalid_arg "Tensor.of_coo: bad coord arity")
    entries;
  if nd = 0 then begin
    let v = Array.fold_left (fun acc (_, x) -> combine acc x) fill entries in
    let v = if Array.length entries = 0 then fill else v in
    { dims = [||]; formats = [||]; fill; root = Scalar v; nnz_cache = None; facts_cache = None }
  end
  else begin
    let entries = Array.copy entries in
    Array.sort (fun (a, _) (b, _) -> compare_coords a b) entries;
    (* Deduplicate, combining values of equal coordinates. *)
    let dedup = Vec.Poly.create ~dummy:([||], 0.0) () in
    let n = Array.length entries in
    let i = ref 0 in
    while !i < n do
      let c, v = entries.(!i) in
      let acc = ref v in
      let j = ref (!i + 1) in
      while !j < n && compare_coords (fst entries.(!j)) c = 0 do
        acc := combine !acc (snd entries.(!j));
        incr j
      done;
      if (not prune) || !acc <> fill then Vec.Poly.push dedup (c, !acc);
      i := !j
    done;
    let entries = Vec.Poly.to_array dedup in
    let m = Array.length entries in
    let root =
      if m = 0 then empty_node formats dims 0 fill
      else
        let cols = Array.init nd (fun d -> Array.map (fun (c, _) -> c.(d)) entries) in
        build_node formats dims fill cols (Array.map snd entries) 0 m 0
    in
    { dims; formats; fill; root; nnz_cache = None; facts_cache = None }
  end

let get (t : t) (coords : int array) : float =
  let nd = ndims t in
  if Array.length coords <> nd then invalid_arg "Tensor.get: bad coord arity";
  if nd = 0 then scalar_value t
  else begin
    let rec go node depth =
      if depth = nd - 1 then
        match Node.find_value node coords.(depth) with
        | Some v -> v
        | None -> t.fill
      else
        match Node.find node coords.(depth) with
        | Some child -> go child (depth + 1)
        | None -> t.fill
    in
    go t.root 0
  end

(* Iterate all explicit entries with their full coordinates, reusing one
   coordinate array: [f] reads it and must not keep it. *)
let iter_explicit_in_place (t : t) (f : int array -> float -> unit) : unit =
  let nd = ndims t in
  if nd = 0 then f [||] (scalar_value t)
  else begin
    let coords = Array.make nd 0 in
    let rec go node depth =
      if depth = nd - 1 then
        Node.iter_values node (fun i v ->
            coords.(depth) <- i;
            f coords v)
      else
        Node.iter_sorted node (fun i child ->
            coords.(depth) <- i;
            go child (depth + 1))
    in
    go t.root 0
  end

let iter_explicit (t : t) (f : int array -> float -> unit) : unit =
  iter_explicit_in_place t (fun c v -> f (Array.copy c) v)

(* Like [iter_explicit] but skips entries whose value equals the fill. *)
let iter_nonfill_in_place (t : t) (f : int array -> float -> unit) : unit =
  iter_explicit_in_place t (fun c v -> if v <> t.fill then f c v)

let iter_nonfill (t : t) (f : int array -> float -> unit) : unit =
  iter_nonfill_in_place t (fun c v -> f (Array.copy c) v)

let to_coo (t : t) : (int array * float) array =
  let acc = Vec.Poly.create ~dummy:([||], 0.0) () in
  iter_nonfill t (fun c v -> Vec.Poly.push acc (c, v));
  Vec.Poly.to_array acc

(* Number of explicitly stored positions (dense counts everything). *)
let explicit_count (t : t) : int =
  let nd = ndims t in
  if nd = 0 then 1
  else begin
    let total = ref 0 in
    let rec go node depth =
      if depth = nd - 1 then total := !total + Node.explicit_count node
      else Node.iter_sorted node (fun _ child -> go child (depth + 1))
    in
    go t.root 0;
    !total
  end

(* Number of entries whose value differs from the fill (cached). *)
let nnz (t : t) : int =
  match t.nnz_cache with
  | Some n -> n
  | None ->
      let n = ref 0 in
      iter_nonfill_in_place t (fun _ _ -> incr n);
      t.nnz_cache <- Some !n;
      !n

(* Fold stored values into [acc] = [| lo; hi; nan |] (nan = 1.0 once a
   NaN is seen).  A float array and a plain loop keep the scan free of
   float boxing. *)
let see_values (acc : float array) (vs : float array) : unit =
  for p = 0 to Array.length vs - 1 do
    let v = Array.unsafe_get vs p in
    if v < Array.unsafe_get acc 0 then Array.unsafe_set acc 0 v;
    if v > Array.unsafe_get acc 1 then Array.unsafe_set acc 1 v;
    if v <> v then Array.unsafe_set acc 2 1.0
  done

(* Value facts of every entry, fill included (cached): one pass over the
   leaves' stored values.  The fill joins even when every position is
   stored, which keeps the facts a sound superset. *)
let facts (t : t) : Facts.t =
  match t.facts_cache with
  | Some f -> f
  | None ->
      let acc = [| infinity; neg_infinity; 0.0 |] in
      let rec go (n : node) : unit =
        match n with
        | Scalar v -> see_values acc [| v |]
        | Leaf_dense vs | Leaf_sparse { vals = vs; _ } | Leaf_bytemap { vals = vs; _ }
          ->
            see_values acc vs
        | Leaf_hash { tbl; _ } ->
            if Hashtbl.length tbl > 0 then Hashtbl.iter see_entry tbl
        | Inner_dense children
        | Inner_sparse { children; _ }
        | Inner_bytemap { children; _ } ->
            Array.iter go children
        | Inner_hash { tbl; _ } ->
            (* Dense parents hold many empty hash levels: skip them
               without a per-node closure. *)
            if Hashtbl.length tbl > 0 then Hashtbl.iter go_child tbl
      and go_child _ child = go child
      and see_entry _ v =
        if v < acc.(0) then acc.(0) <- v;
        if v > acc.(1) then acc.(1) <- v;
        if v <> v then acc.(2) <- 1.0
      in
      see_values acc [| t.fill |];
      go t.root;
      let f = { Facts.lo = acc.(0); hi = acc.(1); nan = acc.(2) = 1.0 } in
      t.facts_cache <- Some f;
      f

(* Force every lazily computed cache — hash levels' sorted key arrays,
   the nnz count and the value facts — so a tensor shared read-only across domains is truly
   immutable during parallel execution (the parallel backend presorts its
   operands instead of racing on first-use cache fills). *)
let presort (t : t) : unit =
  let rec go (n : node) : unit =
    match n with
    | Scalar _ | Leaf_dense _ | Leaf_sparse _ | Leaf_bytemap _ -> ()
    | Leaf_hash _ -> ignore (Node.explicit_indices n)
    | Inner_hash { tbl; _ } ->
        ignore (Node.explicit_indices n);
        Hashtbl.iter (fun _ child -> go child) tbl
    | Inner_dense children -> Array.iter go children
    | Inner_sparse { children; _ } | Inner_bytemap { children; _ } ->
        Array.iter go children
  in
  go t.root;
  ignore (nnz t);
  ignore (facts t)

let reformat ?fill (t : t) (formats : format array) : t =
  let fill = match fill with Some f -> f | None -> t.fill in
  of_coo ~fill ~dims:t.dims ~formats (to_coo t)

(* Non-fill entries in lexicographic order, as coordinate columns and
   values: the entries of [to_coo] without a tuple per entry. *)
let nonfill_columns (t : t) : int array array * float array =
  let nd = ndims t in
  let cols = Array.init nd (fun _ -> Vec.Int.create ()) in
  let vals = Vec.Float.create () in
  let coords = Array.make nd 0 in
  let rec go node depth =
    if depth = nd - 1 then
      Node.iter_values node (fun i v ->
          if v <> t.fill then begin
            coords.(depth) <- i;
            for d = 0 to nd - 1 do
              Vec.Int.push cols.(d) coords.(d)
            done;
            Vec.Float.push vals v
          end)
    else
      Node.iter_sorted node (fun i child ->
          coords.(depth) <- i;
          go child (depth + 1))
  in
  go t.root 0;
  (Array.map Vec.Int.to_array cols, Vec.Float.to_array vals)

(* Sort [keys], all in [0, range), ascending, moving [payload] alongside:
   least-significant-digit radix passes of 8 bits. *)
let radix_sort_with (keys : int array) (payload : int array) ~(range : int) :
    unit =
  let n = Array.length keys in
  let start = Array.make 257 0 in
  let ks = ref keys and ps = ref payload in
  let kd = ref (Array.make n 0) and pd = ref (Array.make n 0) in
  let shift = ref 0 in
  while !shift < Sys.int_size && (range - 1) lsr !shift > 0 do
    let k_src = !ks and p_src = !ps and k_dst = !kd and p_dst = !pd in
    let sh = !shift in
    Array.fill start 0 257 0;
    for e = 0 to n - 1 do
      let b = ((k_src.(e) lsr sh) land 255) + 1 in
      start.(b) <- start.(b) + 1
    done;
    for b = 1 to 256 do
      start.(b) <- start.(b) + start.(b - 1)
    done;
    for e = 0 to n - 1 do
      let k = k_src.(e) in
      let b = (k lsr sh) land 255 in
      k_dst.(start.(b)) <- k;
      p_dst.(start.(b)) <- p_src.(e);
      start.(b) <- start.(b) + 1
    done;
    ks := k_dst;
    ps := p_dst;
    kd := k_src;
    pd := p_src;
    shift := sh + 8
  done;
  if !ks != keys then begin
    Array.blit !ks 0 keys 0 n;
    Array.blit !ps 0 payload 0 n
  end

(* The permutation that sorts entries given as coordinate columns
   lexicographically: by radix sort of their row-major flat indices when
   those fit in an [int], else by a column-wise comparison. *)
let lex_order (cols : int array array) (dims : int array) (m : int) : int array
    =
  let order = Array.init m Fun.id in
  let range =
    Array.fold_left
      (fun r d -> if r < 0 || r > max_int / max d 1 then -1 else r * max d 1)
      1 dims
  in
  if range >= 0 then begin
    let keys = Array.make m 0 in
    Array.iteri
      (fun k col ->
        let d = dims.(k) in
        for e = 0 to m - 1 do
          keys.(e) <- (keys.(e) * d) + col.(e)
        done)
      cols;
    radix_sort_with keys order ~range
  end
  else begin
    let nd = Array.length cols in
    let cmp a b =
      let rec go k =
        if k = nd then 0
        else
          let c = compare (cols.(k).(a) : int) cols.(k).(b) in
          if c <> 0 then c else go (k + 1)
      in
      go 0
    in
    Array.stable_sort cmp order
  end;
  order

(* Transpose: [perm.(k)] is the source dimension that lands at position [k]
   of the output, i.e. out_dims.(k) = dims.(perm.(k)) and
   out[c0..] = in[c_{perm^-1}...].  The result is [of_coo] of the permuted
   [to_coo], built from permuted coordinate columns sorted by packed key
   instead of from boxed tuples. *)
let transpose ?formats (t : t) (perm : int array) : t =
  let nd = ndims t in
  if Array.length perm <> nd then invalid_arg "Tensor.transpose: bad perm";
  let out_dims = Array.map (fun k -> t.dims.(k)) perm in
  let out_formats =
    match formats with
    | Some fs -> fs
    | None -> Array.map (fun k -> t.formats.(k)) perm
  in
  if nd = 0 then of_coo ~fill:t.fill ~dims:out_dims ~formats:out_formats (to_coo t)
  else begin
    if Array.length out_formats <> nd then
      invalid_arg "Tensor.of_coo: formats/dims length mismatch";
    let src_cols, src_vals = nonfill_columns t in
    let m = Array.length src_vals in
    let cols = Array.map (fun k -> src_cols.(k)) perm in
    let order = lex_order cols out_dims m in
    let cols = Array.map (fun col -> Array.map (fun e -> col.(e)) order) cols in
    let vals = Array.map (fun e -> src_vals.(e)) order in
    let root =
      if m = 0 then empty_node out_formats out_dims 0 t.fill
      else build_node out_formats out_dims t.fill cols vals 0 m 0
    in
    { dims = out_dims; formats = out_formats; fill = t.fill; root; nnz_cache = None; facts_cache = None }
  end

(* ------------------------------------------------------------------ *)
(* Dense interop, mostly for tests and the reference evaluator.         *)
(* ------------------------------------------------------------------ *)

let flat_index (dims : int array) (coords : int array) : int =
  let nd = Array.length dims in
  let idx = ref 0 in
  for d = 0 to nd - 1 do
    idx := (!idx * dims.(d)) + coords.(d)
  done;
  !idx

let unflatten (dims : int array) (flat : int) : int array =
  let nd = Array.length dims in
  let coords = Array.make nd 0 in
  let rem = ref flat in
  for d = nd - 1 downto 0 do
    coords.(d) <- !rem mod dims.(d);
    rem := !rem / dims.(d)
  done;
  coords

(* Row-major flattening; cells never touched explicitly get the fill. *)
let to_flat_dense (t : t) : float array =
  let nd = ndims t in
  if nd = 0 then [| scalar_value t |]
  else begin
    let out = Array.make (dim_space t.dims) t.fill in
    iter_explicit_in_place t (fun c v -> out.(flat_index t.dims c) <- v);
    out
  end

let of_fun ?(fill = 0.0) ~dims ~formats f =
  let total = dim_space dims in
  let entries = Vec.Poly.create ~dummy:([||], 0.0) () in
  for flat = 0 to total - 1 do
    let c = unflatten dims flat in
    let v = f c in
    if v <> fill then Vec.Poly.push entries (c, v)
  done;
  of_coo ~fill ~dims ~formats (Vec.Poly.to_array entries)

let of_flat_dense ?(fill = 0.0) ~dims ~formats data =
  if Array.length data <> dim_space dims then
    invalid_arg "Tensor.of_flat_dense: size mismatch";
  of_fun ~fill ~dims ~formats (fun c -> data.(flat_index dims c))

(* Random sparse tensor: each cell is non-fill independently with
   probability [density]; values are uniform in [value_lo, value_hi). *)
let random ?(fill = 0.0) ?(value_lo = 0.5) ?(value_hi = 1.5) ~prng ~dims
    ~formats ~density () =
  let entries = Vec.Poly.create ~dummy:([||], 0.0) () in
  let total = dim_space dims in
  if density >= 0.3 || total <= 4096 then begin
    for flat = 0 to total - 1 do
      if Prng.float prng < density then begin
        let v = Prng.float_range prng value_lo value_hi in
        let v = if v = fill then v +. 1e-9 else v in
        Vec.Poly.push entries (unflatten dims flat, v)
      end
    done
  end
  else begin
    (* Sparse regime: sample expected-count cells without full scan. *)
    let expected = int_of_float (float_of_int total *. density) in
    let expected = max 1 expected in
    let seen = Hashtbl.create (2 * expected) in
    let tries = ref 0 in
    while Hashtbl.length seen < expected && !tries < 20 * expected do
      incr tries;
      let flat = Prng.int prng total in
      if not (Hashtbl.mem seen flat) then Hashtbl.add seen flat ()
    done;
    Hashtbl.iter
      (fun flat () ->
        let v = Prng.float_range prng value_lo value_hi in
        let v = if v = fill then v +. 1e-9 else v in
        Vec.Poly.push entries (unflatten dims flat, v))
      seen
  end;
  of_coo ~fill ~dims ~formats (Vec.Poly.to_array entries)

(* ------------------------------------------------------------------ *)
(* Comparison and printing.                                             *)
(* ------------------------------------------------------------------ *)

let equal_approx ?(eps = 1e-9) (a : t) (b : t) : bool =
  a.dims = b.dims
  &&
  let fa = to_flat_dense a and fb = to_flat_dense b in
  let ok = ref true in
  Array.iteri
    (fun i va ->
      let vb = fb.(i) in
      let scale = max 1.0 (max (abs_float va) (abs_float vb)) in
      if abs_float (va -. vb) > eps *. scale then ok := false)
    fa;
  !ok

let pp fmt (t : t) =
  Format.fprintf fmt "@[<v 2>tensor dims=[%s] formats=[%s] fill=%g nnz=%d"
    (String.concat "," (Array.to_list (Array.map string_of_int t.dims)))
    (String.concat ","
       (Array.to_list (Array.map format_to_string t.formats)))
    t.fill (nnz t);
  let shown = ref 0 in
  (try
     iter_nonfill t (fun c v ->
         if !shown >= 20 then raise Exit;
         incr shown;
         Format.fprintf fmt "@,[%s] = %g"
           (String.concat ","
              (Array.to_list (Array.map string_of_int c)))
           v)
   with Exit -> Format.fprintf fmt "@,...");
  Format.fprintf fmt "@]"

let to_string t = Format.asprintf "%a" pp t
