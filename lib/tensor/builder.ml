(* Mutable per-format output builders used by the execution engine.

   A builder mirrors the fiber-tree structure of the output tensor: one
   builder level per output dimension, in the output's chosen formats.
   Sorted-list levels only support *sequential* construction (non-decreasing
   index writes) — the physical optimizer guarantees this by only choosing
   them when the output indices form a prefix of the loop order.  Dense,
   bytemap, and hash levels support random writes.

   Each leaf cell tracks (value, count): the count is the number of
   accumulations into the cell, which the engine needs to correct aggregates
   whose map-expression fill is not the aggregate's neutral element
   (see DESIGN.md "Fill-value propagation").

   Writes reach a leaf row in two ways.  [accum] descends from the root,
   but remembers the leaf reached by the previous coordinate prefix, so a
   run of writes into one row descends once.  [leaf] hands that row to
   the kernel backend, which writes a whole innermost loop into it
   ([leaf_accum], or directly into a dense row's arrays), or folds a
   loop that writes one cell locally and stores the result once
   ([cell_value], [cell_store]). *)

(* Open-addressing int → int table with linear probing: keys are
   coordinates (≥ 0, so -1 marks an empty slot) and values are positions
   in the level's own vectors.  Replaces the polymorphic [Hashtbl] on the
   write path: no boxed bucket per entry and no polymorphic hash or
   compare per lookup. *)
module Itab = struct
  type t = { mutable keys : int array; mutable vals : int array; mutable size : int }

  (* Empty tables allocate no slots: most builder levels hold a handful
     of entries, and many are never written. *)
  let create () = { keys = [||]; vals = [||]; size = 0 }

  let slot_of (keys : int array) (k : int) : int =
    let mask = Array.length keys - 1 in
    let h = k * 0x2545F4914F6CDD1D in
    let s = ref ((h lxor (h lsr 29)) land mask) in
    while
      let k' = Array.unsafe_get keys !s in
      k' <> k && k' <> -1
    do
      s := (!s + 1) land mask
    done;
    !s

  (* Value bound to [k], or -1. *)
  let find (t : t) (k : int) : int =
    if t.size = 0 || k < 0 then -1
    else
      let s = slot_of t.keys k in
      if Array.unsafe_get t.keys s = k then Array.unsafe_get t.vals s else -1

  let grow (t : t) : unit =
    let keys = t.keys and vals = t.vals in
    let cap = max 8 (2 * Array.length keys) in
    t.keys <- Array.make cap (-1);
    t.vals <- Array.make cap 0;
    Array.iteri
      (fun s k ->
        if k <> -1 then begin
          let s' = slot_of t.keys k in
          t.keys.(s') <- k;
          t.vals.(s') <- vals.(s)
        end)
      keys

  (* Bind an absent key. *)
  let add (t : t) (k : int) (v : int) : unit =
    if k < 0 then invalid_arg "Builder: negative coordinate";
    if 2 * (t.size + 1) > Array.length t.keys then grow t;
    let s = slot_of t.keys k in
    t.keys.(s) <- k;
    t.vals.(s) <- v;
    t.size <- t.size + 1

  let sorted_keys (t : t) : int array =
    let out = Array.make t.size 0 in
    let n = ref 0 in
    Array.iter
      (fun k ->
        if k <> -1 then begin
          out.(!n) <- k;
          incr n
        end)
      t.keys;
    Array.sort (fun (a : int) b -> compare a b) out;
    out
end

type cell = { mutable v : float; mutable cnt : int }

(* Hash and bytemap levels map a coordinate to its position ([Itab]) in
   the level's append-only vectors; sparse levels append in order. *)
type bnode =
  | B_inner_dense of bnode array
  | B_inner_sparse of { crd : Vec.Int.t; children : bnode Vec.Poly.t }
  | B_inner_hash of { slots : Itab.t; children : bnode Vec.Poly.t }
  | B_inner_bytemap of {
      mask : Bytes.t;
      slots : Itab.t;
      children : bnode Vec.Poly.t;
    }
  | B_leaf_dense of { vals : float array; cnts : int array }
  | B_leaf_sparse of { crd : Vec.Int.t; vals : Vec.Float.t; cnts : Vec.Int.t }
  | B_leaf_hash of { slots : Itab.t; vals : Vec.Float.t; cnts : Vec.Int.t }
  | B_leaf_bytemap of {
      mask : Bytes.t;
      slots : Itab.t;
      vals : Vec.Float.t;
      cnts : Vec.Int.t;
    }
  | B_scalar of cell

type t = {
  dims : int array;
  formats : Tensor.format array;
  identity : float; (* initial accumulator value (aggregate identity) *)
  root : bnode;
  prefix : int array; (* coordinate prefix (all but the last) of [last] *)
  mutable last : bnode; (* leaf reached by [prefix]; [no_leaf] when none *)
}

(* Sentinel for "no leaf resolved yet", compared physically; also the
   filler of child vectors. *)
let no_leaf = B_scalar { v = 0.0; cnt = 0 }

(* Level vectors start at one slot and double as they fill. *)
let small_ints () = Vec.Int.create ~capacity:1 ()
let small_floats () = Vec.Float.create ~capacity:1 ()
let small_children () = Vec.Poly.create ~capacity:1 ~dummy:no_leaf ()

let make_node (dims : int array) (formats : Tensor.format array)
    (identity : float) (depth : int) : bnode =
  let nd = Array.length dims in
  if nd = 0 then B_scalar { v = identity; cnt = 0 }
  else begin
    let leaf = depth = nd - 1 in
    let n = dims.(depth) in
    match formats.(depth) with
    | Tensor.Dense ->
        if leaf then
          B_leaf_dense { vals = Array.make n identity; cnts = Array.make n 0 }
        else
          (* Children are made on first write ([no_leaf] until then);
             [freeze] gives every untouched position one shared frozen
             empty subtree. *)
          B_inner_dense (Array.make n no_leaf)
    | Tensor.Sparse_list ->
        if leaf then
          B_leaf_sparse
            { crd = small_ints (); vals = small_floats (); cnts = small_ints () }
        else
          B_inner_sparse
            { crd = small_ints (); children = small_children () }
    | Tensor.Hash ->
        if leaf then
          B_leaf_hash
            { slots = Itab.create (); vals = small_floats (); cnts = small_ints () }
        else
          B_inner_hash
            { slots = Itab.create (); children = small_children () }
    | Tensor.Bytemap ->
        if leaf then
          B_leaf_bytemap
            {
              mask = Bytes.make n '\000';
              slots = Itab.create ();
              vals = small_floats ();
              cnts = small_ints ();
            }
        else
          B_inner_bytemap
            {
              mask = Bytes.make n '\000';
              slots = Itab.create ();
              children = small_children ();
            }
  end

let create ~dims ~formats ~identity () =
  if Array.length formats <> Array.length dims then
    invalid_arg "Builder.create: formats/dims mismatch";
  {
    dims;
    formats;
    identity;
    root = make_node dims formats identity 0;
    prefix = Array.make (max 0 (Array.length dims - 1)) 0;
    last = no_leaf;
  }

let seq_error () =
  invalid_arg "Builder: non-sequential write into a sorted-list level"

(* Child of an inner level at coordinate [i], created on first write. *)
let child (b : t) (node : bnode) (depth : int) (i : int) : bnode =
  match node with
  | B_inner_dense children ->
      let c = children.(i) in
      if c != no_leaf then c
      else begin
        let c = make_node b.dims b.formats b.identity (depth + 1) in
        children.(i) <- c;
        c
      end
  | B_inner_sparse { crd; children } ->
      let len = Vec.Int.length crd in
      if len = 0 || Vec.Int.last crd < i then begin
        let c = make_node b.dims b.formats b.identity (depth + 1) in
        Vec.Int.push crd i;
        Vec.Poly.push children c;
        c
      end
      else if Vec.Int.last crd = i then Vec.Poly.get children (len - 1)
      else seq_error ()
  | B_inner_hash { slots; children } ->
      let s = Itab.find slots i in
      if s >= 0 then Vec.Poly.get children s
      else begin
        let c = make_node b.dims b.formats b.identity (depth + 1) in
        Itab.add slots i (Vec.Poly.length children);
        Vec.Poly.push children c;
        c
      end
  | B_inner_bytemap { mask; slots; children } ->
      let s = Itab.find slots i in
      if s >= 0 then Vec.Poly.get children s
      else begin
        let c = make_node b.dims b.formats b.identity (depth + 1) in
        Bytes.set mask i '\001';
        Itab.add slots i (Vec.Poly.length children);
        Vec.Poly.push children c;
        c
      end
  | _ -> assert false

(* The leaf row addressed by [coords] (all but its last coordinate; the
   root cell of a scalar builder), created on first use.  The leaf
   reached by the previous prefix is cached: the tree only grows, so the
   same prefix always reaches the same leaf. *)
let leaf (b : t) (coords : int array) : bnode =
  let np = Array.length b.prefix in
  if np = 0 then b.root
  else begin
    let hit = ref (b.last != no_leaf) in
    let d = ref 0 in
    while !hit && !d < np do
      if Array.unsafe_get b.prefix !d <> coords.(!d) then hit := false;
      incr d
    done;
    if !hit then b.last
    else begin
      let node = ref b.root in
      for d = 0 to np - 1 do
        node := child b !node d coords.(d)
      done;
      Array.blit coords 0 b.prefix 0 np;
      b.last <- !node;
      !node
    end
  end

(* Accumulate [value] into cell [i] of the leaf row [leaf] (a scalar
   builder's root cell ignores [i]). *)
let leaf_accum (b : t) (leaf : bnode) (i : int) (value : float)
    ~(combine : float -> float -> float) : unit =
  match leaf with
  | B_leaf_dense { vals; cnts } ->
      vals.(i) <- combine vals.(i) value;
      cnts.(i) <- cnts.(i) + 1
  | B_leaf_sparse { crd; vals; cnts } ->
      let len = Vec.Int.length crd in
      if len = 0 || Vec.Int.last crd < i then begin
        Vec.Int.push crd i;
        Vec.Float.push vals (combine b.identity value);
        Vec.Int.push cnts 1
      end
      else if Vec.Int.last crd = i then begin
        let p = len - 1 in
        Vec.Float.set vals p (combine (Vec.Float.get vals p) value);
        Vec.Int.set cnts p (Vec.Int.get cnts p + 1)
      end
      else seq_error ()
  | B_leaf_hash { slots; vals; cnts } | B_leaf_bytemap { slots; vals; cnts; _ }
    ->
      let p = Itab.find slots i in
      if p >= 0 then begin
        Vec.Float.set vals p (combine (Vec.Float.get vals p) value);
        Vec.Int.set cnts p (Vec.Int.get cnts p + 1)
      end
      else begin
        (match leaf with
        | B_leaf_bytemap { mask; _ } -> Bytes.set mask i '\001'
        | _ -> ());
        Itab.add slots i (Vec.Float.length vals);
        Vec.Float.push vals (combine b.identity value);
        Vec.Int.push cnts 1
      end
  | B_scalar c ->
      c.v <- combine c.v value;
      c.cnt <- c.cnt + 1
  | B_inner_dense _ | B_inner_sparse _ | B_inner_hash _ | B_inner_bytemap _ ->
      invalid_arg "Builder.leaf_accum: inner level"

(* The value of cell [i] of the leaf row [leaf], or the identity when the
   cell holds no accumulation yet: the seed of a row loop's local
   accumulator. *)
let cell_value (b : t) (leaf : bnode) (i : int) : float =
  match leaf with
  | B_leaf_dense { vals; _ } -> vals.(i)
  | B_leaf_sparse { crd; vals; _ } ->
      let len = Vec.Int.length crd in
      if len > 0 && Vec.Int.last crd = i then Vec.Float.get vals (len - 1)
      else b.identity
  | B_leaf_hash { slots; vals; _ } | B_leaf_bytemap { slots; vals; _ } ->
      let p = Itab.find slots i in
      if p >= 0 then Vec.Float.get vals p else b.identity
  | B_scalar c -> c.v
  | B_inner_dense _ | B_inner_sparse _ | B_inner_hash _ | B_inner_bytemap _ ->
      invalid_arg "Builder.cell_value: inner level"

(* Store [value] into cell [i] of the leaf row [leaf] and add [count]
   accumulations to it: the write-back of a local accumulator seeded by
   [cell_value], so the cell ends as [count] [leaf_accum]s would leave it. *)
let cell_store (leaf : bnode) (i : int) (value : float) ~(count : int) :
    unit =
  match leaf with
  | B_leaf_dense { vals; cnts } ->
      vals.(i) <- value;
      cnts.(i) <- cnts.(i) + count
  | B_leaf_sparse { crd; vals; cnts } ->
      let len = Vec.Int.length crd in
      if len = 0 || Vec.Int.last crd < i then begin
        Vec.Int.push crd i;
        Vec.Float.push vals value;
        Vec.Int.push cnts count
      end
      else if Vec.Int.last crd = i then begin
        Vec.Float.set vals (len - 1) value;
        Vec.Int.set cnts (len - 1) (Vec.Int.get cnts (len - 1) + count)
      end
      else seq_error ()
  | B_leaf_hash { slots; vals; cnts } | B_leaf_bytemap { slots; vals; cnts; _ }
    ->
      let p = Itab.find slots i in
      if p >= 0 then begin
        Vec.Float.set vals p value;
        Vec.Int.set cnts p (Vec.Int.get cnts p + count)
      end
      else begin
        (match leaf with
        | B_leaf_bytemap { mask; _ } -> Bytes.set mask i '\001'
        | _ -> ());
        Itab.add slots i (Vec.Float.length vals);
        Vec.Float.push vals value;
        Vec.Int.push cnts count
      end
  | B_scalar c ->
      c.v <- value;
      c.cnt <- c.cnt + count
  | B_inner_dense _ | B_inner_sparse _ | B_inner_hash _ | B_inner_bytemap _ ->
      invalid_arg "Builder.cell_store: inner level"

(* Accumulate [value] into the cell at [coords] with [combine]. *)
let accum (b : t) (coords : int array) (value : float)
    ~(combine : float -> float -> float) : unit =
  let nd = Array.length b.dims in
  leaf_accum b (leaf b coords) (if nd = 0 then 0 else coords.(nd - 1)) value
    ~combine

(* Freeze the builder into an immutable tensor.  [finalize v cnt] maps the
   accumulated value and count of every explicit cell to its final value;
   without it every cell keeps its value, and a dense leaf row becomes
   the tensor's row as it is (the builder must not be written after).
   [fill] is the fill value of the result (= finalize identity 0 when the
   query aggregates, so untouched cells are consistent by construction). *)
let freeze ?(finalize : (float -> int -> float) option) (b : t) ~(fill : float)
    : Tensor.t =
  let keep = Option.is_none finalize in
  let finalize = Option.value finalize ~default:(fun v _ -> v) in
  let final vals cnts p = finalize (Vec.Float.get vals p) (Vec.Int.get cnts p) in
  (* The frozen image of an untouched subtree at each depth, made once
     and shared (tensors are immutable once built). *)
  let empty = Array.make (Array.length b.dims + 1) None in
  let rec empty_at depth =
    match empty.(depth) with
    | Some e -> e
    | None ->
        let e = go (make_node b.dims b.formats b.identity depth) depth in
        empty.(depth) <- Some e;
        e
  and go node depth : Tensor.node =
    match node with
    | B_scalar c -> Tensor.Scalar (finalize c.v c.cnt)
    | B_leaf_dense { vals; cnts } ->
        Tensor.Leaf_dense
          (if keep then vals else Array.mapi (fun i v -> finalize v cnts.(i)) vals)
    | B_leaf_sparse { crd; vals; cnts } ->
        Tensor.Leaf_sparse
          {
            crd = Vec.Int.to_array crd;
            vals = Array.init (Vec.Int.length crd) (final vals cnts);
          }
    | B_leaf_hash { slots; vals; cnts } ->
        let crd = Itab.sorted_keys slots in
        let out = Hashtbl.create (max 4 (2 * Array.length crd)) in
        Array.iter
          (fun i -> Hashtbl.replace out i (final vals cnts (Itab.find slots i)))
          crd;
        Tensor.Leaf_hash { tbl = out; sorted = Some crd }
    | B_leaf_bytemap { mask; slots; vals; cnts } ->
        let crd = Itab.sorted_keys slots in
        Tensor.Leaf_bytemap
          {
            mask;
            words = Bitset.of_sorted crd ~len:(Bytes.length mask);
            crd;
            vals = Array.map (fun i -> final vals cnts (Itab.find slots i)) crd;
          }
    | B_inner_dense children ->
        Tensor.Inner_dense
          (Array.map
             (fun c -> if c == no_leaf then empty_at (depth + 1) else go c (depth + 1))
             children)
    | B_inner_sparse { crd; children } ->
        Tensor.Inner_sparse
          {
            crd = Vec.Int.to_array crd;
            children =
              Array.init (Vec.Poly.length children) (fun p ->
                  go (Vec.Poly.get children p) (depth + 1));
          }
    | B_inner_hash { slots; children } ->
        let crd = Itab.sorted_keys slots in
        let out = Hashtbl.create (max 4 (2 * Array.length crd)) in
        Array.iter
          (fun i ->
            Hashtbl.replace out i
              (go (Vec.Poly.get children (Itab.find slots i)) (depth + 1)))
          crd;
        Tensor.Inner_hash { tbl = out; sorted = Some crd }
    | B_inner_bytemap { mask; slots; children } ->
        let crd = Itab.sorted_keys slots in
        Tensor.Inner_bytemap
          {
            mask;
            words = Bitset.of_sorted crd ~len:(Bytes.length mask);
            crd;
            children =
              Array.map
                (fun i -> go (Vec.Poly.get children (Itab.find slots i)) (depth + 1))
                crd;
          }
  in
  { Tensor.dims = b.dims; formats = b.formats; fill; root = go b.root 0; nnz_cache = None; facts_cache = None }
