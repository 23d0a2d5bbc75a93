(* Degree statistics and the chain bound (paper Sec. 7.3.2).

   A degree statistic D_A(X|Y) stores the maximum number of distinct
   non-fill X-coordinates conditioned on any fixed Y-coordinate.  Estimates
   are *upper bounds* computed as the cheapest product of degree weights
   along a path from the empty index set to the full index set
   (shortest path over the cardinality-estimation graph, after Chen et
   al. [13]).

   Representation.  A statistic names its index variables once, in an
   array sorted ascending; an index set is an [int] mask whose bit k
   stands for [names.(k)], and each constraint is a pair of masks and a
   bound in parallel arrays.  Subset tests, unions, projections and
   renamings are then integer operations.  Bits ascend with the names, so
   a product of sizes over a mask ([space]) multiplies in ascending name
   order, as a fold over the equivalent [Ir.Idx_set] does. *)

open Galley_plan

type degree = { x : Ir.Idx_set.t; y : Ir.Idx_set.t; bound : float }

type t = {
  names : Ir.idx array; (* strictly ascending; bit k of a mask is names.(k) *)
  dims : float array; (* dims.(k) is the size of names.(k) *)
  xs : int array; (* constraint j: D(xs.(j) | ys.(j)) <= bounds.(j) *)
  ys : int array;
  bounds : float array;
  empty : bool; (* true when the deviation set is known to be empty *)
}

let name = "chain"

(* Masks are OCaml ints, one bit per index variable. *)
let max_idxs = Sys.int_size - 1

let check_width (names : Ir.idx array) : unit =
  if Array.length names > max_idxs then
    invalid_arg
      (Printf.sprintf "Chain: %d index variables, at most %d supported"
         (Array.length names) max_idxs)

let idxs t = Ir.Idx_set.of_seq (Array.to_seq t.names)

let set_of_mask (names : Ir.idx array) (m : int) : Ir.Idx_set.t =
  let s = ref Ir.Idx_set.empty in
  Array.iteri (fun k i -> if m land (1 lsl k) <> 0 then s := Ir.Idx_set.add i !s) names;
  !s

let degrees (t : t) : degree list =
  List.init (Array.length t.xs) (fun j ->
      {
        x = set_of_mask t.names t.xs.(j);
        y = set_of_mask t.names t.ys.(j);
        bound = t.bounds.(j);
      })

(* Position of [i] in [names]. *)
let index_of (names : Ir.idx array) (i : Ir.idx) : int option =
  let rec go k =
    if k >= Array.length names then None
    else if String.equal names.(k) i then Some k
    else go (k + 1)
  in
  go 0

let sorted_names (l : Ir.idx list) : Ir.idx array =
  let names = Array.of_list (List.sort_uniq String.compare l) in
  check_width names;
  names

(* Where each of [from]'s names sits in [into] (a superset). *)
let positions_in ~(into : Ir.idx array) (from : Ir.idx array) : int array =
  Array.map
    (fun i ->
      let rec go k = if String.equal into.(k) i then k else go (k + 1) in
      go 0)
    from

(* [m] with bit k moved to bit [perm.(k)]. *)
let remap (perm : int array) (m : int) : int =
  let r = ref 0 and m = ref m and k = ref 0 in
  while !m <> 0 do
    if !m land 1 = 1 then r := !r lor (1 lsl perm.(!k));
    m := !m lsr 1;
    incr k
  done;
  !r

(* Product of the sizes of [m]'s indices, lowest bit first. *)
let space (dims : float array) (m : int) : float =
  let acc = ref 1.0 and m = ref m and k = ref 0 in
  while !m <> 0 do
    if !m land 1 = 1 then acc := !acc *. dims.(!k);
    m := !m lsr 1;
    incr k
  done;
  !acc

(* Beyond this many index variables we stop enumerating all (X,Y) splits
   and fall back to singleton-X constraints. *)
let max_full_enum = 6

let bits (d : int) : int list = List.init d (fun k -> 1 lsl k)

(* Restricted split enumeration over [d] index bits: X a singleton or
   everything-but-Y, with |Y| <= 2.  Used past [max_full_enum] indices and
   for large tensors.  When everything-but-Y is a singleton it appears
   twice, once per form. *)
let xy_pairs_restricted (d : int) : (int * int) list =
  let full = (1 lsl d) - 1 in
  let ys =
    0
    :: List.concat_map
         (fun i ->
           i :: List.filter_map (fun j -> if i < j then Some (i lor j) else None) (bits d))
         (bits d)
  in
  List.concat_map
    (fun y ->
      let rest = full land lnot y in
      let singles =
        List.filter_map (fun i -> if rest land i <> 0 then Some (i, y) else None) (bits d)
      in
      if rest = 0 then singles else (rest, y) :: singles)
    ys

(* All (X, Y) pairs of disjoint subsets of [d] index bits with X non-empty.
   When there are more than [max_full_enum] indices, restrict to |X| = 1 or
   X = everything-but-Y, with |Y| <= 2. *)
let xy_pairs (d : int) : (int * int) list =
  if d = 0 then []
  else if d <= max_full_enum then begin
    let full = (1 lsl d) - 1 in
    let acc = ref [] in
    for x = 1 to full do
      (* Every subset y of the bits outside x, from all of them down to 0. *)
      let rest = full land lnot x in
      let y = ref rest in
      acc := (x, rest) :: !acc;
      while !y <> 0 do
        y := (!y - 1) land rest;
        acc := (x, !y) :: !acc
      done
    done;
    !acc
  end
  else xy_pairs_restricted d

(* Degree counting over packed integer keys.  Each entry's projected
   coordinates become one mixed-radix [int]; sorting the keys makes every
   Y-group a contiguous run, so D(X|Y) is one scan. *)

(* Sort [keys], all in [0, range), ascending: least-significant-digit radix
   passes of 8 bits, alternating with [buf] (same length).  With
   [Array.sort] and an int compare, sorting was nine tenths of the counting
   time; the few passes that keys of a few dozen bits need cost far less. *)
let radix_sort (keys : int array) ~(buf : int array) ~(range : int) : unit =
  let n = Array.length keys in
  let start = Array.make 257 0 in
  let src = ref keys and dst = ref buf and shift = ref 0 in
  while !shift < Sys.int_size && (range - 1) lsr !shift > 0 do
    let s = !src and d = !dst and sh = !shift in
    Array.fill start 0 257 0;
    for e = 0 to n - 1 do
      let b = ((s.(e) lsr sh) land 255) + 1 in
      start.(b) <- start.(b) + 1
    done;
    for b = 1 to 256 do
      start.(b) <- start.(b) + start.(b - 1)
    done;
    for e = 0 to n - 1 do
      let k = s.(e) in
      let b = (k lsr sh) land 255 in
      d.(start.(b)) <- k;
      start.(b) <- start.(b) + 1
    done;
    src := d;
    dst := s;
    shift := sh + 8
  done;
  if !src != keys then Array.blit !src 0 keys 0 n

(* Replace [keys], all in [0, range), by their dense ranks (order-preserving)
   and return the number of distinct keys. *)
let dense_rank (keys : int array) ~(range : int) : int =
  let n = Array.length keys in
  let uniq = Array.copy keys in
  radix_sort uniq ~buf:(Array.make n 0) ~range;
  let m = ref 0 in
  Array.iter
    (fun k ->
      if !m = 0 || uniq.(!m - 1) <> k then begin
        uniq.(!m) <- k;
        incr m
      end)
    uniq;
  for e = 0 to n - 1 do
    let k = keys.(e) in
    let lo = ref 0 and hi = ref (!m - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if uniq.(mid) < k then lo := mid + 1 else hi := mid
    done;
    keys.(e) <- !lo
  done;
  !m

(* Write into [keys] the mixed-radix packing of each entry's coordinates at
   [positions] (most significant first) and return the key range.  When the
   next radix step would pass [max_int], the partial keys are first replaced
   by their dense ranks (< the entry count); a dimension too large even for
   that contributes the dense ranks of its coordinates instead. *)
let pack_keys (cols : int array array) (dims : int array)
    (positions : int array) (keys : int array) : int =
  Array.fill keys 0 (Array.length keys) 0;
  Array.fold_left
    (fun range p ->
      let range =
        if range > max_int / dims.(p) then dense_rank keys ~range else range
      in
      let col, radix =
        if range > max_int / dims.(p) then begin
          let ranks = Array.copy cols.(p) in
          (ranks, dense_rank ranks ~range:dims.(p))
        end
        else (cols.(p), dims.(p))
      in
      for e = 0 to Array.length keys - 1 do
        keys.(e) <- (keys.(e) * radix) + col.(e)
      done;
      range * radix)
    1 positions

(* D(X|Y) over one or more entries: the largest number of distinct
   X-coordinates among the entries that share one Y-coordinate.  [keys] and
   [ykeys] are scratch arrays of the entry count. *)
let max_degree (cols : int array array) (dims : int array) ~(xpos : int array)
    ~(ypos : int array) ~(keys : int array) ~(ykeys : int array) : int =
  let y_range = pack_keys cols dims ypos ykeys in
  let x_range = pack_keys cols dims xpos keys in
  let y_range, x_range =
    if y_range > max_int / x_range then
      (dense_rank ykeys ~range:y_range, dense_rank keys ~range:x_range)
    else (y_range, x_range)
  in
  for e = 0 to Array.length keys - 1 do
    keys.(e) <- (ykeys.(e) * x_range) + keys.(e)
  done;
  radix_sort keys ~buf:ykeys ~range:(y_range * x_range);
  let best = ref 0 and run = ref 0 and prev = ref (-1) and prev_y = ref (-1) in
  Array.iter
    (fun k ->
      if k <> !prev then begin
        prev := k;
        let y = k / x_range in
        if y <> !prev_y then begin
          prev_y := y;
          run := 0
        end;
        incr run;
        if !run > !best then best := !run
      end)
    keys;
  !best

let of_tensor ?(cheap = false) tensor ~idxs:idx_list =
  let dims_arr = Galley_tensor.Tensor.dims tensor in
  if Array.length dims_arr <> List.length idx_list then
    invalid_arg "Chain.of_tensor: arity mismatch";
  let names = sorted_names idx_list in
  if Array.length names <> List.length idx_list then
    invalid_arg "Chain.of_tensor: repeated index";
  (* Storage dimension k is index variable [names.(perm.(k))]. *)
  let perm = positions_in ~into:names (Array.of_list idx_list) in
  let bit = Array.map (fun u -> 1 lsl u) perm in
  let dims = Array.make (Array.length names) 0.0 in
  Array.iteri (fun k u -> dims.(u) <- float_of_int dims_arr.(k)) perm;
  let full = (1 lsl Array.length names) - 1 in
  let n_entries = Galley_tensor.Tensor.nnz tensor in
  (* The total count D(I|emptyset) is exactly the non-fill count: free. The
     remaining splits cost one traversal of all *explicit* slots each (dense
     levels store every position), so pick the split set by a work budget —
     large tensors (e.g. intermediates measured by JIT optimization, where
     mostly the *size* matters, paper Sec. 8.1) keep only cheap stats.  The
     nested rung keeps each D(all∖{k}|{k}), so a key column's functional
     dependency survives at scales past the restricted rung. *)
  let work_budget = if cheap then 40_000 else 400_000 in
  let pass_cost = max n_entries (Galley_tensor.Tensor.explicit_count tensor) in
  let n_idxs = Array.length bit in
  let candidate_pairs =
    let d = Array.length names in
    let full_pairs = xy_pairs d in
    let singletons = Array.to_list (Array.map (fun b -> (b, 0)) bit) in
    if pass_cost * List.length full_pairs <= work_budget then full_pairs
    else begin
      let restricted = xy_pairs_restricted d in
      if pass_cost * List.length restricted <= work_budget then restricted
      else if (not cheap) && pass_cost * 2 * n_idxs <= work_budget then
        singletons
        @ List.filter_map
            (fun b ->
              let rest = full land lnot b in
              if rest = 0 then None else Some (rest, b))
            (Array.to_list bit)
      else if pass_cost * n_idxs <= 2 * work_budget then
        (* Per-dimension distinct counts only. *)
        singletons
      else [] (* total count only: what JIT refresh needs (Sec. 8.1) *)
    end
  in
  let pairs = List.filter (fun (x, y) -> not (x = full && y = 0)) candidate_pairs in
  (* Storage dimensions of a mask, in storage order. *)
  let positions (m : int) : int array =
    Array.of_list
      (List.filter_map
         (fun k -> if m land bit.(k) <> 0 then Some k else None)
         (List.init n_idxs Fun.id))
  in
  (* One pass gathers the non-fill coordinates, one column per dimension. *)
  let cols = Array.map (fun _ -> Array.make n_entries 0) dims_arr in
  let e = ref 0 in
  if pairs <> [] then
    Galley_tensor.Tensor.iter_nonfill_in_place tensor (fun coords _ ->
        Array.iteri (fun k c -> cols.(k).(!e) <- c) coords;
        incr e);
  let keys = Array.make n_entries 0 and ykeys = Array.make n_entries 0 in
  let degree (x, y) =
    if n_entries = 0 then 0
    else
      max_degree cols dims_arr ~xpos:(positions x) ~ypos:(positions y) ~keys
        ~ykeys
  in
  let cons =
    if full = 0 then []
    else
      (full, 0, float_of_int n_entries)
      :: List.map (fun (x, y) -> (x, y, float_of_int (degree (x, y)))) pairs
  in
  {
    names;
    dims;
    xs = Array.of_list (List.map (fun (x, _, _) -> x) cons);
    ys = Array.of_list (List.map (fun (_, y, _) -> y) cons);
    bounds = Array.of_list (List.map (fun (_, _, b) -> b) cons);
    empty = n_entries = 0;
  }

let of_literal _v =
  { names = [||]; dims = [||]; xs = [||]; ys = [||]; bounds = [||]; empty = true }

(* The union of [children]'s index variables, each child's bit positions
   in it, and the union's sizes: from [dims] where it has the index, else
   from the first child that does. *)
let merge ~(dims : int Ir.Idx_map.t) (children : t list) :
    Ir.idx array * int array list * float array =
  let names =
    sorted_names (List.concat_map (fun c -> Array.to_list c.names) children)
  in
  let perms = List.map (fun c -> positions_in ~into:names c.names) children in
  let d =
    Array.map
      (fun i ->
        match Ir.Idx_map.find_opt i dims with
        | Some n -> float_of_int n
        | None -> Float.nan)
      names
  in
  List.iter2
    (fun c perm ->
      Array.iteri (fun k u -> if Float.is_nan d.(u) then d.(u) <- c.dims.(k)) perm)
    children perms;
  Array.iteri
    (fun u n -> if Float.is_nan n then invalid_arg ("Chain: unknown dim for " ^ names.(u)))
    d;
  (names, perms, d)

(* Keep one constraint per (X, Y) pair — the tightest; between equal bounds
   the earlier constraint stays.  Open addressing over the pairs: [slot]
   holds the index of the constraint kept for a pair, or -1. *)
let dedupe (xs : int array) (ys : int array) (bounds : float array) :
    int array * int array * float array =
  let n = Array.length xs in
  let size = ref 4 in
  while !size < 2 * n do
    size := 2 * !size
  done;
  let mask = !size - 1 in
  let slot = Array.make !size (-1) in
  for j = 0 to n - 1 do
    let x = xs.(j) and y = ys.(j) in
    let h = ref ((((x * 0x9E3779B1) lxor y) * 0x85EBCA6B) lsr 16 land mask) in
    while slot.(!h) >= 0 && not (xs.(slot.(!h)) = x && ys.(slot.(!h)) = y) do
      h := (!h + 1) land mask
    done;
    let p = slot.(!h) in
    if p < 0 || not (bounds.(p) <= bounds.(j)) then slot.(!h) <- j
  done;
  let n_kept = Array.fold_left (fun acc j -> if j >= 0 then acc + 1 else acc) 0 slot in
  let kept = Array.make n_kept 0 and k = ref 0 in
  Array.iter
    (fun j ->
      if j >= 0 then begin
        kept.(!k) <- j;
        incr k
      end)
    slot;
  (Array.map (fun j -> xs.(j)) kept, Array.map (fun j -> ys.(j)) kept,
   Array.map (fun j -> bounds.(j)) kept)

let map_annihilating ~dims children =
  let names, perms, d = merge ~dims children in
  let xs = Array.concat (List.map2 (fun c p -> Array.map (remap p) c.xs) children perms) in
  let ys = Array.concat (List.map2 (fun c p -> Array.map (remap p) c.ys) children perms) in
  let bounds = Array.concat (List.map (fun c -> c.bounds) children) in
  let xs, ys, bounds = dedupe xs ys bounds in
  { names; dims = d; xs; ys; bounds; empty = List.exists (fun c -> c.empty) children }

(* Tightest bound on the number of distinct [x]-coordinates of a child's
   deviation set, conditioned on [y], after cylindrically extending it to
   the merged index space (its masks [cx], [cy] already moved there).  Any
   constraint (X'|Y') with X' ⊆ x and Y' ⊆ y gives bound · Π_{k ∈ x∖X'}
   n_k; missing dims of the cylinder range freely. *)
let bound_for ~(dims : float array) ~(cx : int array) ~(cy : int array)
    ~(cb : float array) ~(x : int) ~(y : int) : float =
  let best = ref (space dims x) in
  for j = 0 to Array.length cx - 1 do
    let xj = cx.(j) and yj = cy.(j) in
    if xj land x = xj && yj land y = yj then
      best := Float.min !best (cb.(j) *. space dims (x land lnot xj))
  done;
  !best

let map_non_annihilating ~dims children =
  let names, perms, d = merge ~dims children in
  let kids =
    List.map2
      (fun c p -> (c.empty, Array.map (remap p) c.xs, Array.map (remap p) c.ys, c.bounds))
      children perms
  in
  let pairs = Array.of_list (xy_pairs (Array.length names)) in
  let bounds =
    Array.map
      (fun (x, y) ->
        List.fold_left
          (fun acc (empty, cx, cy, cb) ->
            acc +. if empty then 0.0 else bound_for ~dims:d ~cx ~cy ~cb ~x ~y)
          0.0 kids)
      pairs
  in
  {
    names;
    dims = d;
    xs = Array.map fst pairs;
    ys = Array.map snd pairs;
    bounds;
    empty = List.for_all (fun c -> c.empty) children;
  }

let aggregate ~dims:_ (c : t) ~over =
  let over_mask =
    List.fold_left
      (fun m i -> match index_of c.names i with Some k -> m lor (1 lsl k) | None -> m)
      0 over
  in
  if over_mask = 0 then c
  else begin
    (* Kept bits close ranks: perm.(k) is bit k's position among them. *)
    let perm = Array.make (Array.length c.names) (-1) in
    let n_keep = ref 0 in
    Array.iteri
      (fun k _ ->
        if over_mask land (1 lsl k) = 0 then begin
          perm.(k) <- !n_keep;
          incr n_keep
        end)
      c.names;
    let kept a = Array.init !n_keep (fun k' ->
        let rec go k = if perm.(k) = k' then a.(k) else go (k + 1) in
        go 0)
    in
    (* Conditioning on an aggregated index is meaningless afterwards; X may
       be projected (distinct counts only shrink). *)
    let keeps j = c.ys.(j) land over_mask = 0 && c.xs.(j) land lnot over_mask <> 0 in
    let n = ref 0 in
    for j = 0 to Array.length c.xs - 1 do
      if keeps j then incr n
    done;
    let xs = Array.make !n 0 and ys = Array.make !n 0 in
    let bounds = Array.make !n 0.0 and p = ref 0 in
    for j = 0 to Array.length c.xs - 1 do
      if keeps j then begin
        xs.(!p) <- remap perm (c.xs.(j) land lnot over_mask);
        ys.(!p) <- remap perm c.ys.(j);
        bounds.(!p) <- c.bounds.(j);
        incr p
      end
    done;
    { names = kept c.names; dims = kept c.dims; xs; ys; bounds; empty = c.empty }
  end

(* Shortest weighted path from the empty set to the full index set, where an
   edge S -> S ∪ X with weight D(X|Y) exists whenever Y ⊆ S.  Implicit
   fallback edges S -> S ∪ {i} with weight n_i keep the graph connected.
   Every edge adds at least one bit, so it leads to a numerically larger
   mask: visiting the masks in ascending order settles each one before any
   edge leaves it, and one pass finds every shortest distance. *)
let estimate (c : t) : float =
  if c.empty then 0.0
  else begin
    let d = Array.length c.names in
    let full = (1 lsl d) - 1 in
    if d = 0 then 1.0
    else if d > 16 then space c.dims full
    else begin
      (* The constraint edges, counting-sorted by Y: group g holds the
         edges [start.(g), start.(g+1)) with Y = gy.(g), so a mask skips
         whole groups whose Y it lacks. *)
      let n = Array.length c.xs in
      let start_of_y = Array.make (full + 2) 0 in
      Array.iter (fun y -> start_of_y.(y + 1) <- start_of_y.(y + 1) + 1) c.ys;
      let gy = ref [] in
      for y = full downto 0 do
        if start_of_y.(y + 1) > 0 then gy := y :: !gy
      done;
      let gy = Array.of_list !gy in
      for y = 1 to full + 1 do
        start_of_y.(y) <- start_of_y.(y) + start_of_y.(y - 1)
      done;
      let start = Array.append (Array.map (fun y -> start_of_y.(y)) gy) [| n |] in
      let xs = Array.make n 0 and bounds = Array.make n 0.0 in
      Array.iteri
        (fun j y ->
          let p = start_of_y.(y) in
          xs.(p) <- c.xs.(j);
          bounds.(p) <- c.bounds.(j);
          start_of_y.(y) <- p + 1)
        c.ys;
      let dist = Array.make (full + 1) infinity in
      dist.(0) <- 1.0;
      for s = 0 to full - 1 do
        let ds = dist.(s) in
        if ds < infinity then begin
          for g = 0 to Array.length gy - 1 do
            let ym = gy.(g) in
            if ym land s = ym then
              for j = start.(g) to start.(g + 1) - 1 do
                let xm = xs.(j) in
                if xm land lnot s <> 0 then begin
                  let s' = s lor xm and nd = ds *. bounds.(j) in
                  if nd < dist.(s') then dist.(s') <- nd
                end
              done
          done;
          for k = 0 to d - 1 do
            if s land (1 lsl k) = 0 then begin
              let s' = s lor (1 lsl k) and nd = ds *. c.dims.(k) in
              if nd < dist.(s') then dist.(s') <- nd
            end
          done
        end
      done;
      let bound = dist.(full) and total = space c.dims full in
      if bound = infinity then total else Float.min bound total
    end
  end

(* Renaming moves only the names, unless the new names sort differently or
   two of them collide; then the masks follow the names to their sorted
   positions (colliding bits merge, and the size of the later old name
   wins). *)
let rename (c : t) (f : Ir.idx -> Ir.idx) : t =
  let mapped = Array.map f c.names in
  let ascending = ref true in
  for k = 1 to Array.length mapped - 1 do
    if String.compare mapped.(k - 1) mapped.(k) >= 0 then ascending := false
  done;
  if !ascending then { c with names = mapped }
  else begin
    let names = sorted_names (Array.to_list mapped) in
    let perm = positions_in ~into:names mapped in
    let dims = Array.make (Array.length names) 0.0 in
    Array.iteri (fun k u -> dims.(u) <- c.dims.(k)) perm;
    { c with names; dims; xs = Array.map (remap perm) c.xs; ys = Array.map (remap perm) c.ys }
  end

let pp fmt (c : t) =
  Format.fprintf fmt "chain{[%s] %d degs est=%.3g}"
    (String.concat "," (Array.to_list c.names))
    (Array.length c.xs) (estimate c)
