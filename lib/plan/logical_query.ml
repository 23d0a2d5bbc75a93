(* The logical dialect (paper Sec. 4.1): each query is a single aggregate
   wrapping an Agg-free pointwise expression.  Element-wise queries use the
   no-op aggregate [Op.Ident] with an empty index list. *)

type t = {
  name : string;
  agg_op : Op.t;
  agg_idxs : Ir.idx list;
  body : Ir.expr; (* contains no Agg nodes *)
  output_idxs : Ir.idx list; (* free indices of the query, fixed order *)
}

(* [free] and [has_agg] are the body's free indices and whether it holds
   an aggregate. *)
let check (q : t) ~(free : Ir.Idx_set.t) ~(has_agg : bool) : unit =
  if has_agg then
    invalid_arg ("Logical_query: body of " ^ q.name ^ " contains an aggregate");
  if not (Op.is_aggregate q.agg_op) then
    invalid_arg ("Logical_query: bad aggregate op in " ^ q.name);
  let out = Ir.Idx_set.diff free (Ir.Idx_set.of_list q.agg_idxs) in
  if not (Ir.Idx_set.equal out (Ir.Idx_set.of_list q.output_idxs)) then
    invalid_arg
      (Printf.sprintf "Logical_query %s: output indices {%s} /= free {%s}"
         q.name
         (String.concat "," q.output_idxs)
         (String.concat "," (Ir.Idx_set.elements out)))

let validate (q : t) : unit =
  check q ~free:(Ir.free_indices q.body) ~has_agg:(Ir.contains_agg q.body)

(* Free indices in order of first occurrence in a left-to-right traversal:
   the default output order of intermediates.  This tends to match the
   storage order of the inputs (and hence concordant loop orders), avoiding
   gratuitous transposes. *)
let occurrence_order (body : Ir.expr) ~(excluding : Ir.idx list) : Ir.idx list
    =
  let rec visit seen = function
    | [] -> seen
    | i :: rest ->
        visit
          (if List.mem i seen || List.mem i excluding then seen else i :: seen)
          rest
  in
  let rec go seen (e : Ir.expr) =
    match e with
    | Ir.Input (_, idxs) | Ir.Alias (_, idxs) -> visit seen idxs
    | Ir.Literal _ -> seen
    | Ir.Map (_, args) -> List.fold_left go seen args
    | Ir.Agg (_, _, b) -> go seen b
  in
  List.rev (go [] body)

let make ?output_idxs ~name ~agg_op ~agg_idxs ~body () : t =
  let output_idxs =
    match output_idxs with
    | Some idxs -> idxs
    | None -> occurrence_order body ~excluding:agg_idxs
  in
  let q = { name; agg_op; agg_idxs; body; output_idxs } in
  validate q;
  q

(* [make] over an interned body, whose free indices and aggregate test are
   already known.  The occurrence order of an aggregate-free body lists
   exactly its free indices, so only given output indices need the set
   comparison. *)
let of_node ?output_idxs ~name ~agg_op ~agg_idxs (body : Intern.node) : t =
  let q =
    {
      name;
      agg_op;
      agg_idxs;
      body = body.Intern.expr;
      output_idxs =
        (match output_idxs with
        | Some idxs -> idxs
        | None -> occurrence_order body.Intern.expr ~excluding:agg_idxs);
    }
  in
  if
    Option.is_some output_idxs || body.Intern.has_agg
    || not (Op.is_aggregate agg_op)
  then check q ~free:body.Intern.free ~has_agg:body.Intern.has_agg;
  q

(* The node of [to_query q]'s expression, given the node of [q]'s body. *)
let output_node (q : t) (body : Intern.node) : Intern.node =
  if q.agg_idxs = [] && q.agg_op = Op.Ident then body
  else Intern.agg q.agg_op q.agg_idxs body

(* View a logical query back as a generic IR query. *)
let to_query (q : t) : Ir.query =
  let expr =
    if q.agg_idxs = [] && q.agg_op = Op.Ident then q.body
    else Ir.Agg (q.agg_op, q.agg_idxs, q.body)
  in
  { Ir.name = q.name; expr; out_order = Some q.output_idxs }

(* Convert an IR query already in logical shape. *)
let of_query (q : Ir.query) : t option =
  match q.expr with
  | Ir.Agg (op, idxs, body) when not (Ir.contains_agg body) ->
      Some (make ?output_idxs:q.out_order ~name:q.name ~agg_op:op ~agg_idxs:idxs ~body ())
  | e when not (Ir.contains_agg e) ->
      Some (make ?output_idxs:q.out_order ~name:q.name ~agg_op:Op.Ident ~agg_idxs:[] ~body:e ())
  | _ -> None

let pp fmt (q : t) =
  Format.fprintf fmt "@[<hov 2>Query(%s,@ Agg(%s,@ [%a],@ %a))@ -> [%a]@]"
    q.name (Op.to_string q.agg_op) Ir.pp_idx_list q.agg_idxs Ir.pp_expr q.body
    Ir.pp_idx_list q.output_idxs

let to_string q = Format.asprintf "%a" pp q
