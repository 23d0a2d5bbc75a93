(** Fiber-tree sparse tensors (paper Sec. 3.2, Fig. 2).

    A tensor is a nested data structure: each level stores the explicit
    indices of one dimension, conditioned on the outer dimensions, with
    pointers to the next level.  Every level is stored in one of four
    formats with different iteration / lookup / memory trade-offs.  Entries
    not explicitly stored equal the tensor's {e fill} value.  Tensors are
    immutable once constructed; use {!Builder} for incremental output
    construction. *)

(** Storage format of one fiber-tree level. *)
type format =
  | Dense  (** every index explicit; O(1) lookup, O(n) memory *)
  | Sparse_list  (** sorted coordinate list; O(log nnz) lookup *)
  | Bytemap  (** presence bitmap + sorted list; O(1) membership *)
  | Hash  (** hash table; O(1) lookup, unsorted (sorted on demand) *)

val format_to_string : format -> string
val pp_format : Format.formatter -> format -> unit

(** Internal node representation; exposed for the execution engine and
    builders. *)
type node =
  | Inner_dense of node array
  | Inner_sparse of { crd : int array; children : node array }
  | Inner_bytemap of {
      mask : Bytes.t;
      words : int array;
          (** {!Bitset} word-packing of [mask], for word-level merges *)
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
  dims : int array;  (** dimension sizes, outermost first *)
  formats : format array;  (** one format per dimension *)
  fill : float;  (** value of entries not explicitly stored *)
  root : node;
  mutable nnz_cache : int option;  (** lazily cached non-fill count *)
  mutable facts_cache : Facts.t option;  (** lazily cached {!facts} *)
}

val ndims : t -> int
val dims : t -> int array
val fill : t -> float
val formats : t -> format array
val root : t -> node

(** Level-wise accessors used by the execution engine. *)
module Node : sig
  type t = node

  (** Sorted explicit indices of a level; [None] for dense levels (iterate
      the full dimension range instead). *)
  val explicit_indices : t -> int array option

  val explicit_count : t -> int

  (** Child lookup at an inner level; [None] = subtree at fill. *)
  val find : t -> int -> t option

  (** [find] returning the given node (a caller's sentinel) in place of
      [None]; allocates nothing. *)
  val find_or : t -> int -> t -> t

  (** Value lookup at a leaf level; [None] = fill. *)
  val find_value : t -> int -> float option

  (** [find_value_or n i fill]: value lookup at a leaf level, [fill] when
      [i] is not stored.  Allocates nothing. *)
  val find_value_or : t -> int -> float -> float

  (** [load_value n i fill dst slot] stores [find_value_or n i fill] into
      [dst.(slot)]; no float is boxed for the result. *)
  val load_value : t -> int -> float -> float array -> int -> unit

  val scalar_value : t -> float

  (** Membership probe: is index [i] explicitly stored at this level?
      Cheaper than {!find}/{!find_value} when only presence matters. *)
  val mem : t -> int -> bool

  (** Word-packed presence mask of a bytemap level; [None] for other
      formats.  Enables word-at-a-time set algebra ({!Bitset}). *)
  val bitmap_words : t -> int array option

  (** Iterate children / values in ascending index order. *)
  val iter_sorted : t -> (int -> t -> unit) -> unit

  val iter_values : t -> (int -> float -> unit) -> unit
end

(** {1 Construction} *)

(** 0-dimensional tensor. *)
val scalar : float -> t

val scalar_value : t -> float

(** Build from coordinate/value pairs.  Entries are sorted; duplicates are
    merged with [combine] (default [(+.)]); entries equal to [fill] are
    dropped unless [prune:false]. *)
val of_coo :
  ?fill:float ->
  ?combine:(float -> float -> float) ->
  ?prune:bool ->
  dims:int array ->
  formats:format array ->
  (int array * float) array ->
  t

(** Tabulate a tensor from a function of coordinates (dense enumeration;
    test-sized tensors only). *)
val of_fun :
  ?fill:float ->
  dims:int array ->
  formats:format array ->
  (int array -> float) ->
  t

(** Inverse of {!to_flat_dense} (row-major). *)
val of_flat_dense :
  ?fill:float -> dims:int array -> formats:format array -> float array -> t

(** Random sparse tensor: each cell non-fill independently with probability
    [density], values uniform in [[value_lo, value_hi)]. *)
val random :
  ?fill:float ->
  ?value_lo:float ->
  ?value_hi:float ->
  prng:Prng.t ->
  dims:int array ->
  formats:format array ->
  density:float ->
  unit ->
  t

(** {1 Access and iteration} *)

(** Point lookup; returns the fill for non-explicit coordinates. *)
val get : t -> int array -> float

(** Iterate all explicitly stored entries in lexicographic order. *)
val iter_explicit : t -> (int array -> float -> unit) -> unit

(** Like {!iter_explicit}, skipping entries equal to the fill. *)
val iter_nonfill : t -> (int array -> float -> unit) -> unit

(** {!iter_nonfill} without a coordinate array per entry: one array is
    reused, so the callback reads it and must not keep it. *)
val iter_nonfill_in_place : t -> (int array -> float -> unit) -> unit

(** Non-fill entries as coordinate/value pairs. *)
val to_coo : t -> (int array * float) array

(** Number of explicitly stored positions (dense levels store everything). *)
val explicit_count : t -> int

(** Number of entries whose value differs from the fill (cached). *)
val nnz : t -> int

(** Value facts of every entry, fill included: the interval of non-NaN
    values and whether NaN occurs.  One pass over the stored values, cached
    on the tensor. *)
val facts : t -> Facts.t

(** Force every lazily computed cache (hash levels' sorted key arrays, the
    nnz count, the value facts) so the tensor is truly immutable afterwards — required
    before sharing it read-only across domains. *)
val presort : t -> unit

(** {1 Restructuring} *)

(** Rebuild with different level formats (and optionally a new fill). *)
val reformat : ?fill:float -> t -> format array -> t

(** Permute dimensions: output dimension [k] is source dimension
    [perm.(k)].  Formats default to the permuted source formats. *)
val transpose : ?formats:format array -> t -> int array -> t

(** {1 Dense interop (reference evaluation and tests)} *)

val flat_index : int array -> int array -> int
val unflatten : int array -> int -> int array

(** Row-major dense image, with fills at non-explicit cells. *)
val to_flat_dense : t -> float array

(** {1 Comparison and printing} *)

(** Pointwise comparison with relative tolerance [eps]. *)
val equal_approx : ?eps:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(**/**)

val dim_space : int array -> int
val compare_coords : int array -> int array -> int
