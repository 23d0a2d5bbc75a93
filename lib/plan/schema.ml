(* Schema environment: what the optimizer knows about every named tensor
   (inputs and aliases) — dimension sizes, fill values and value facts —
   plus the per-index dimension sizes inferred from how tensors are
   accessed.  Facts are measured for materialized tensors and inferred
   through the defining expression for estimated aliases.

   The same tensor may be accessed with different index variables at
   different places (e.g. [E[i,j]] and [E[j,k]] in triangle counting); the
   index environment checks that every variable is bound to a single
   consistent size. *)

module Facts = Galley_tensor.Facts

type info = { dims : int array; fill : float; facts : Facts.t }

type t = { tensors : (string, info) Hashtbl.t }

let create () = { tensors = Hashtbl.create 16 }

(* Without [facts] the tensor may hold any value. *)
let declare ?(facts = Facts.top) t name ~dims ~fill =
  Hashtbl.replace t.tensors name { dims; fill; facts }

let declare_tensor t name (tensor : Galley_tensor.Tensor.t) =
  declare t name ~dims:(Galley_tensor.Tensor.dims tensor)
    ~fill:(Galley_tensor.Tensor.fill tensor)
    ~facts:(Galley_tensor.Tensor.facts tensor)

let find t name = Hashtbl.find_opt t.tensors name

let info_exn t name =
  match Hashtbl.find t.tensors name with
  | i -> i
  | exception Not_found -> invalid_arg ("Schema: unknown tensor " ^ name)

let fill_of t name = (info_exn t name).fill
let facts_of t name = (info_exn t name).facts
let dims_of t name = (info_exn t name).dims

let copy t = { tensors = Hashtbl.copy t.tensors }

(* Infer the dimension size of every index variable used in [e], checking
   consistency across accesses. *)
let index_dims (t : t) (e : Ir.expr) : int Ir.Idx_map.t =
  let bind acc idx n =
    match Ir.Idx_map.find_opt idx acc with
    | Some m when m <> n ->
        invalid_arg
          (Printf.sprintf "Schema: index %s bound to both %d and %d" idx m n)
    | _ -> Ir.Idx_map.add idx n acc
  in
  let rec go acc (e : Ir.expr) =
    match e with
    | Ir.Input (name, idxs) | Ir.Alias (name, idxs) ->
        let info = info_exn t name in
        if Array.length info.dims <> List.length idxs then
          invalid_arg
            (Printf.sprintf "Schema: %s accessed with %d indices but has %d"
               name (List.length idxs)
               (Array.length info.dims));
        List.fold_left
          (fun acc (k, idx) -> bind acc idx info.dims.(k))
          acc
          (List.mapi (fun k idx -> (k, idx)) idxs)
    | Ir.Literal _ -> acc
    | Ir.Map (_, args) -> List.fold_left go acc args
    | Ir.Agg (_, _, body) -> go acc body
  in
  go Ir.Idx_map.empty e

let dim_of_idx (dims : int Ir.Idx_map.t) (i : Ir.idx) : int =
  match Ir.Idx_map.find_opt i dims with
  | Some n -> n
  | None -> invalid_arg ("Schema: index with unknown dimension " ^ i)

let space (dims : int Ir.Idx_map.t) (idxs : Ir.idx list) : float =
  List.fold_left (fun acc i -> acc *. float_of_int (dim_of_idx dims i)) 1.0 idxs

(* Fill value of the tensor denoted by [e]: evaluate the expression with
   every leaf at its fill.  Aggregates fold the fill of their body over the
   whole aggregated subspace via the repeated-application function g. *)
let expr_fill (t : t) (dims : int Ir.Idx_map.t) (e : Ir.expr) : float =
  let rec go (e : Ir.expr) : float =
    match e with
    | Ir.Input (name, _) | Ir.Alias (name, _) -> fill_of t name
    | Ir.Literal v -> v
    | Ir.Map (op, args) -> Op.apply op (Array.of_list (List.map go args))
    | Ir.Agg (op, idxs, body) ->
        let n = int_of_float (space dims idxs) in
        Op.repeat op (go body) n
  in
  go e

(* Value facts of the tensor denoted by [e], by interval arithmetic
   through every Map and Agg node. *)
let rec expr_facts (t : t) (dims : int Ir.Idx_map.t) (e : Ir.expr) : Facts.t =
  match e with
  | Ir.Input (name, _) | Ir.Alias (name, _) -> facts_of t name
  | Ir.Literal v -> Facts.of_value v
  | Ir.Map (op, args) -> Op.map_facts op (List.map (expr_facts t dims) args)
  | Ir.Agg (op, idxs, body) ->
      Op.agg_facts op (space dims idxs) (expr_facts t dims body)

(* [expr_facts], or [Facts.top] (any value) when [e] reads a tensor the
   schema does not know. *)
let expr_facts_or_top (t : t) (dims : int Ir.Idx_map.t) (e : Ir.expr) :
    Facts.t =
  try expr_facts t dims e with Invalid_argument _ -> Facts.top

(* Register the alias produced by a query: dims in [output_idxs] order,
   plus the fill and facts its expression implies.  [dims], when given,
   must bind every index of [q] as [index_dims] would. *)
let declare_query_output ?dims (t : t) (q : Ir.query)
    ~(output_idxs : Ir.idx list) : unit =
  let dims = match dims with Some d -> d | None -> index_dims t q.expr in
  let out_dims =
    Array.of_list (List.map (fun i -> dim_of_idx dims i) output_idxs)
  in
  declare t q.name ~dims:out_dims ~fill:(expr_fill t dims q.expr)
    ~facts:(expr_facts t dims q.expr)
