(* Degree statistics and the chain bound (paper Sec. 7.3.2).

   A degree statistic D_A(X|Y) stores the maximum number of distinct
   non-fill X-coordinates conditioned on any fixed Y-coordinate.  Estimates
   are *upper bounds* computed as the cheapest product of degree weights
   along a path from the empty index set to the full index set
   (breadth-first search over the cardinality-estimation graph, after
   Chen et al. [13]). *)

open Galley_plan

type degree = { x : Ir.Idx_set.t; y : Ir.Idx_set.t; bound : float }

type t = {
  idxs : Ir.Idx_set.t;
  dims : int Ir.Idx_map.t;
  cons : degree list;
  empty : bool; (* true when the deviation set is known to be empty *)
}

let name = "chain"

let idxs t = t.idxs

(* Beyond this many index variables we stop enumerating all (X,Y) splits
   and fall back to singleton-X constraints. *)
let max_full_enum = 6

let dim_of t i =
  match Ir.Idx_map.find_opt i t.dims with
  | Some n -> float_of_int n
  | None -> invalid_arg ("Chain: unknown dim for index " ^ i)

let space_of (t : t) (s : Ir.Idx_set.t) : float =
  Ir.Idx_set.fold (fun i acc -> acc *. dim_of t i) s 1.0

(* Restricted split enumeration: X a singleton or everything-but-Y, with
   |Y| <= 2.  Used past [max_full_enum] indices and for large tensors. *)
let xy_pairs_restricted (idx_list : Ir.idx list) :
    (Ir.Idx_set.t * Ir.Idx_set.t) list =
  let full = Ir.Idx_set.of_list idx_list in
  let ys =
    Ir.Idx_set.empty
    :: List.concat_map
         (fun i ->
           Ir.Idx_set.singleton i
           :: List.filter_map
                (fun j ->
                  if i < j then Some (Ir.Idx_set.of_list [ i; j ]) else None)
                idx_list)
         idx_list
  in
  List.concat_map
    (fun y ->
      let rest = Ir.Idx_set.diff full y in
      let singles =
        List.filter_map
          (fun i ->
            if Ir.Idx_set.mem i rest then Some (Ir.Idx_set.singleton i, y)
            else None)
          idx_list
      in
      if Ir.Idx_set.is_empty rest then singles else (rest, y) :: singles)
    ys

(* All (X, Y) pairs of disjoint subsets of [idxs] with X non-empty.  When
   there are more than [max_full_enum] indices, restrict to |X| = 1 or
   X = everything-but-Y, with |Y| <= 2. *)
let xy_pairs (idx_list : Ir.idx list) : (Ir.Idx_set.t * Ir.Idx_set.t) list =
  let d = List.length idx_list in
  if d = 0 then []
  else if d <= max_full_enum then begin
    (* Ternary enumeration: each index goes to X, Y, or neither. *)
    let arr = Array.of_list idx_list in
    let acc = ref [] in
    let total = int_of_float (3.0 ** float_of_int d) in
    for code = 0 to total - 1 do
      let x = ref Ir.Idx_set.empty and y = ref Ir.Idx_set.empty in
      let c = ref code in
      for k = 0 to d - 1 do
        (match !c mod 3 with
        | 1 -> x := Ir.Idx_set.add arr.(k) !x
        | 2 -> y := Ir.Idx_set.add arr.(k) !y
        | _ -> ());
        c := !c / 3
      done;
      if not (Ir.Idx_set.is_empty !x) then acc := (!x, !y) :: !acc
    done;
    !acc
  end
  else xy_pairs_restricted idx_list

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
  let dims =
    List.fold_left
      (fun acc (k, i) -> Ir.Idx_map.add i dims_arr.(k) acc)
      Ir.Idx_map.empty
      (List.mapi (fun k i -> (k, i)) idx_list)
  in
  let full_set = Ir.Idx_set.of_list idx_list in
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
  let n_idxs = List.length idx_list in
  let candidate_pairs =
    let full = xy_pairs idx_list in
    let singletons =
      List.map (fun i -> (Ir.Idx_set.singleton i, Ir.Idx_set.empty)) idx_list
    in
    if pass_cost * List.length full <= work_budget then full
    else begin
      let restricted = xy_pairs_restricted idx_list in
      if pass_cost * List.length restricted <= work_budget then restricted
      else if (not cheap) && pass_cost * 2 * n_idxs <= work_budget then
        singletons
        @ List.filter_map
            (fun i ->
              let rest = Ir.Idx_set.remove i full_set in
              if Ir.Idx_set.is_empty rest then None
              else Some (rest, Ir.Idx_set.singleton i))
            idx_list
      else if pass_cost * n_idxs <= 2 * work_budget then
        (* Per-dimension distinct counts only. *)
        singletons
      else [] (* total count only: what JIT refresh needs (Sec. 8.1) *)
    end
  in
  let pairs =
    List.filter
      (fun (x, y) ->
        not (Ir.Idx_set.equal x full_set && Ir.Idx_set.is_empty y))
      candidate_pairs
  in
  let positions (s : Ir.Idx_set.t) : int array =
    Array.of_list
      (List.filter_map
         (fun (k, i) -> if Ir.Idx_set.mem i s then Some k else None)
         (List.mapi (fun k i -> (k, i)) idx_list))
  in
  (* One pass gathers the non-fill coordinates, one column per dimension. *)
  let cols = Array.map (fun _ -> Array.make n_entries 0) dims_arr in
  let e = ref 0 in
  if pairs <> [] then
    Galley_tensor.Tensor.iter_nonfill tensor (fun coords _ ->
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
    { x = full_set; y = Ir.Idx_set.empty; bound = float_of_int n_entries }
    :: List.map
         (fun (x, y) -> { x; y; bound = float_of_int (degree (x, y)) })
         pairs
  in
  let cons =
    if Ir.Idx_set.is_empty full_set then [] else cons
  in
  { idxs = full_set; dims; cons; empty = n_entries = 0 }

let of_literal _v =
  { idxs = Ir.Idx_set.empty; dims = Ir.Idx_map.empty; cons = []; empty = true }

let union_dims ~(dims : int Ir.Idx_map.t) (children : t list) :
    Ir.Idx_set.t * int Ir.Idx_map.t =
  let all =
    List.fold_left (fun acc c -> Ir.Idx_set.union acc c.idxs) Ir.Idx_set.empty
      children
  in
  let d =
    Ir.Idx_set.fold
      (fun i acc ->
        let n =
          match Ir.Idx_map.find_opt i dims with
          | Some n -> n
          | None -> (
              let rec find = function
                | [] -> invalid_arg ("Chain: unknown dim for " ^ i)
                | c :: rest -> (
                    match Ir.Idx_map.find_opt i c.dims with
                    | Some n -> n
                    | None -> find rest)
              in
              find children)
        in
        Ir.Idx_map.add i n acc)
      all Ir.Idx_map.empty
  in
  (all, d)

(* Tightest bound on the number of distinct [x]-coordinates of [c]'s
   deviation set, conditioned on [y], after cylindrically extending [c] to a
   larger index space.  Any constraint (X'|Y') with X' ⊆ x and Y' ⊆ y gives
   bound · Π_{k ∈ x∖X'} n_k; missing dims of the cylinder range freely. *)
let bound_for (c : t) ~(dims : int Ir.Idx_map.t) ~(x : Ir.Idx_set.t)
    ~(y : Ir.Idx_set.t) : float =
  if c.empty then 0.0
  else begin
    let dim i =
      match Ir.Idx_map.find_opt i dims with
      | Some n -> float_of_int n
      | None -> (
          match Ir.Idx_map.find_opt i c.dims with
          | Some n -> float_of_int n
          | None -> invalid_arg ("Chain.bound_for: unknown dim " ^ i))
    in
    let full_cyl = Ir.Idx_set.fold (fun i acc -> acc *. dim i) x 1.0 in
    List.fold_left
      (fun best d ->
        if Ir.Idx_set.subset d.x x && Ir.Idx_set.subset d.y y then begin
          let extra = Ir.Idx_set.diff x d.x in
          let b =
            d.bound *. Ir.Idx_set.fold (fun i acc -> acc *. dim i) extra 1.0
          in
          Float.min best b
        end
        else best)
      full_cyl c.cons
  end

(* Keep one constraint per (X, Y) pair — the tightest. *)
let dedupe_cons (cons : degree list) : degree list =
  let tbl = Hashtbl.create (2 * List.length cons) in
  List.iter
    (fun d ->
      let key =
        String.concat "," (Ir.Idx_set.elements d.x)
        ^ "|"
        ^ String.concat "," (Ir.Idx_set.elements d.y)
      in
      match Hashtbl.find_opt tbl key with
      | Some prev when prev.bound <= d.bound -> ()
      | _ -> Hashtbl.replace tbl key d)
    cons;
  Hashtbl.fold (fun _ d acc -> d :: acc) tbl []

let map_annihilating ~dims children =
  let all, d = union_dims ~dims children in
  let cons = dedupe_cons (List.concat_map (fun c -> c.cons) children) in
  { idxs = all; dims = d; cons; empty = List.exists (fun c -> c.empty) children }

let map_non_annihilating ~dims children =
  let all, d = union_dims ~dims children in
  let idx_list = Ir.Idx_set.elements all in
  let cons =
    List.map
      (fun (x, y) ->
        let bound =
          List.fold_left
            (fun acc c -> acc +. bound_for c ~dims:d ~x ~y)
            0.0 children
        in
        { x; y; bound })
      (xy_pairs idx_list)
  in
  { idxs = all; dims = d; cons; empty = List.for_all (fun c -> c.empty) children }

let aggregate ~dims:_ (c : t) ~over =
  let over_set = Ir.Idx_set.inter (Ir.Idx_set.of_list over) c.idxs in
  if Ir.Idx_set.is_empty over_set then c
  else begin
    let keep = Ir.Idx_set.diff c.idxs over_set in
    let cons =
      List.filter_map
        (fun d ->
          (* Conditioning on an aggregated index is meaningless afterwards;
             X may be projected (distinct counts only shrink). *)
          if not (Ir.Idx_set.is_empty (Ir.Idx_set.inter d.y over_set)) then None
          else
            let x' = Ir.Idx_set.diff d.x over_set in
            if Ir.Idx_set.is_empty x' then None
            else Some { d with x = x' })
        c.cons
    in
    let dims' = Ir.Idx_map.filter (fun i _ -> Ir.Idx_set.mem i keep) c.dims in
    { idxs = keep; dims = dims'; cons; empty = c.empty }
  end

(* Shortest weighted path from the empty set to the full index set, where an
   edge S -> S ∪ X with weight D(X|Y) exists whenever Y ⊆ S.  Implicit
   fallback edges S -> S ∪ {i} with weight n_i keep the graph connected. *)
let estimate (c : t) : float =
  if c.empty then 0.0
  else begin
    let idx_arr = Array.of_list (Ir.Idx_set.elements c.idxs) in
    let d = Array.length idx_arr in
    if d = 0 then 1.0
    else if d > 16 then space_of c c.idxs
    else begin
      let pos = Hashtbl.create 8 in
      Array.iteri (fun k i -> Hashtbl.replace pos i k) idx_arr;
      let set_to_mask (s : Ir.Idx_set.t) : int =
        Ir.Idx_set.fold (fun i m -> m lor (1 lsl Hashtbl.find pos i)) s 0
      in
      let full = (1 lsl d) - 1 in
      let dist = Array.make (full + 1) infinity in
      dist.(0) <- 1.0;
      (* Edges as (y_mask, x_mask, weight). *)
      let edges =
        List.map (fun dg -> (set_to_mask dg.y, set_to_mask dg.x, dg.bound)) c.cons
        @ List.init d (fun k -> (0, 1 lsl k, dim_of c idx_arr.(k)))
      in
      (* Bellman-Ford style relaxation: weights are multiplicative and
         >= 0; masks only grow, so |full|+1 rounds suffice. *)
      let changed = ref true in
      let rounds = ref 0 in
      while !changed && !rounds <= d + 1 do
        changed := false;
        incr rounds;
        for s = 0 to full do
          if dist.(s) < infinity then
            List.iter
              (fun (ym, xm, w) ->
                if ym land s = ym && xm land lnot s <> 0 then begin
                  let s' = s lor xm in
                  let nd = dist.(s) *. w in
                  if nd < dist.(s') then begin
                    dist.(s') <- nd;
                    changed := true
                  end
                end)
              edges
        done
      done;
      let bound = dist.(full) in
      if bound = infinity then space_of c c.idxs
      else Float.min bound (space_of c c.idxs)
    end
  end

let rename (c : t) (f : Ir.idx -> Ir.idx) : t =
  {
    idxs = Ir.Idx_set.map f c.idxs;
    dims =
      Ir.Idx_map.fold
        (fun i n acc -> Ir.Idx_map.add (f i) n acc)
        c.dims Ir.Idx_map.empty;
    cons =
      List.map
        (fun d -> { d with x = Ir.Idx_set.map f d.x; y = Ir.Idx_set.map f d.y })
        c.cons;
    empty = c.empty;
  }

let pp fmt (c : t) =
  Format.fprintf fmt "chain{[%s] %d degs est=%.3g}"
    (String.concat "," (Ir.Idx_set.elements c.idxs))
    (List.length c.cons) (estimate c)
