(* The minimal sparsity-statistics interface (paper Sec. 7.2).

   Implementing an estimator requires exactly five operations:
     1. a constructor from a materialized tensor            ([of_tensor]);
     2. a merge for annihilating Map nodes                  ([map_annihilating]);
     3. a merge for non-annihilating Map nodes              ([map_non_annihilating]);
     4. an adjustment for aggregation over a set of indices ([aggregate]);
     5. an estimation procedure for the non-fill count      ([estimate]).

   Throughout, "nnz" means the number of entries whose value differs from
   the tensor's fill value.  Estimates guide the optimizers only; they never
   affect correctness. *)

open Galley_plan

module type S = sig
  type t

  val name : string

  (* (1) Statistics of a materialized tensor accessed with index variables
     [idxs] (one per dimension, in storage order).  [cheap] limits the work
     to sizes and per-dimension counts: used by just-in-time refresh of
     intermediate statistics, which mainly needs sizes (paper Sec. 8.1). *)
  val of_tensor : ?cheap:bool -> Galley_tensor.Tensor.t -> idxs:Ir.idx list -> t

  (* Statistics of a scalar literal: zero deviation from its own fill. *)
  val of_literal : float -> t

  (* (2) Every child's fill annihilates the Map operator against the
     other children's values ([Op.absorbing_children]): the output's
     non-fill set is the intersection of the children's. *)
  val map_annihilating : dims:int Ir.Idx_map.t -> t list -> t

  (* (3) Otherwise: the output's non-fill set is bounded by the (cylindrical
     extension of the) union of the children's. *)
  val map_non_annihilating : dims:int Ir.Idx_map.t -> t list -> t

  (* (4) Aggregation over [over]: projection of the non-fill index set. *)
  val aggregate : dims:int Ir.Idx_map.t -> t -> over:Ir.idx list -> t

  (* (5) Estimated number of non-fill entries. *)
  val estimate : t -> float

  (* Reindex statistics to new index-variable names (statistics are cached
     per tensor under canonical positional names and renamed per access). *)
  val rename : t -> (Ir.idx -> Ir.idx) -> t

  val idxs : t -> Ir.Idx_set.t
  val pp : Format.formatter -> t -> unit
end
