(* Minimal sub-query extraction (paper Sec. 5.4).

   Eliminating an index [v] from an expression means: find the Agg node that
   binds [v], traverse down its body guided by the algebraic properties of
   each Map node, and carve out the smallest sub-expressions that must be
   aggregated together.  The traversal rules:

   - *Distributive* functions (e.g. * over Σ, for the values [facts] says
     the children can hold; see [Op.distributes_over]): children not
     containing [v] factor out; with one containing child we keep descending; with several
     we stop and wrap just those children (the operator being commutative
     and associative lets us exclude the rest).
   - *Commutative, identical* functions (e.g. + under Σ): the aggregate
     pushes into every child independently; children without [v] get the
     repeated-application map g(x, n_v).
   - *Blocking* functions: wrap the whole subtree.

   Each extraction returns one or more new logical queries plus the
   rewritten expression in which the carved sub-queries are aliases. *)

open Galley_plan
module Facts = Galley_tensor.Facts

type extraction = {
  queries : Logical_query.t list; (* in dependency order *)
  rewritten : Ir.expr; (* the input expression with [v] eliminated *)
}

(* Find the unique Agg node binding [v] (expressions are uniquified). *)
let rec find_binding_agg (e : Ir.expr) (v : Ir.idx) : Ir.expr option =
  match e with
  | Ir.Input _ | Ir.Alias _ | Ir.Literal _ -> None
  | Ir.Map (_, args) ->
      List.fold_left
        (fun acc a -> match acc with Some _ -> acc | None -> find_binding_agg a v)
        None args
  | Ir.Agg (_, idxs, body) ->
      if List.mem v idxs then Some e else find_binding_agg body v

(* Indices of [e] that are aggregated over, available for elimination:
   those whose Agg node's body contains no further Agg (inner-first
   restriction, paper Sec. 5.5). *)
let rec available_indices (e : Ir.expr) : Ir.idx list =
  match e with
  | Ir.Input _ | Ir.Alias _ | Ir.Literal _ -> []
  | Ir.Map (_, args) -> List.concat_map available_indices args
  | Ir.Agg (_, idxs, body) ->
      if Ir.contains_agg body then available_indices body
      else idxs @ available_indices body

(* All aggregated indices remaining in the expression. *)
let rec remaining_agg_indices (e : Ir.expr) : Ir.idx list =
  match e with
  | Ir.Input _ | Ir.Alias _ | Ir.Literal _ -> []
  | Ir.Map (_, args) -> List.concat_map remaining_agg_indices args
  | Ir.Agg (_, idxs, body) -> idxs @ remaining_agg_indices body

(* Make a logical query out of an MSQ body. *)
let make_query ~(fresh : unit -> string) ~(agg_op : Op.t) ~(v : Ir.idx)
    (body : Ir.expr) : Logical_query.t * Ir.expr =
  assert (not (Ir.contains_agg body));
  let name = fresh () in
  let q = Logical_query.make ~name ~agg_op ~agg_idxs:[ v ] ~body () in
  (q, Ir.Alias (name, q.Logical_query.output_idxs))

(* Traverse [e] (the body, or part of the body, of the Agg binding [v]) and
   aggregate [v] out of it.  Precondition: [e] mentions [v] freely and
   contains no Agg nodes (guaranteed by the inner-first restriction). *)
let rec extract ~(dims : int Ir.Idx_map.t) ~(facts : Ir.expr -> Facts.t)
    ~(fresh : unit -> string) ~(agg_op : Op.t) ~(v : Ir.idx) (e : Ir.expr) :
    Logical_query.t list * Ir.expr =
  match e with
  | Ir.Input _ | Ir.Alias _ ->
      let q, alias = make_query ~fresh ~agg_op ~v e in
      ([ q ], alias)
  | Ir.Literal _ -> assert false (* literals do not mention [v] *)
  | Ir.Agg _ -> assert false (* excluded by the inner-first restriction *)
  | Ir.Map (op, args) ->
      let with_v, without_v = List.partition (fun a -> Ir.mentions a v) args in
      assert (with_v <> []);
      if op = agg_op && Op.is_commutative op then begin
        (* Commutative, identical: push the aggregate into each child. *)
        let n_v = Schema.dim_of_idx dims v in
        let results =
          List.map (fun a -> extract ~dims ~facts ~fresh ~agg_op ~v a) with_v
        in
        let queries = List.concat_map fst results in
        let repl_with = List.map snd results in
        let repl_without =
          List.map
            (fun a ->
              (* g(x, n_v) via the shared expression-level repeated
                 application; every commutative aggregate in the algebra
                 has a closed form, so a miss is an internal error, not
                 a silent identity rewrite. *)
              match Ir.repeat_expr agg_op a n_v with
              | Some e -> e
              | None ->
                  invalid_arg
                    ("Elimination: no repeated-application form for "
                    ^ Op.to_string agg_op))
            without_v
        in
        (queries, Ir.Map (op, repl_with @ repl_without))
      end
      else if
        Op.distributes_over ~pointwise:op ~aggregate:agg_op
          ~outer:(lazy (Op.map_facts op (List.map facts without_v)))
          ~inner:(lazy (Op.map_facts op (List.map facts with_v)))
      then begin
        match with_v with
        | [ child ] ->
            (* Factor every other child out of the aggregate. *)
            let queries, repl = extract ~dims ~facts ~fresh ~agg_op ~v child in
            let args' =
              List.map (fun a -> if a == child then repl else a) args
            in
            (queries, Ir.Map (op, args'))
        | _ when Op.is_commutative op && Op.is_associative op && without_v <> [] ->
            (* Wrap only the children that contain [v]. *)
            let q, alias = make_query ~fresh ~agg_op ~v (Ir.Map (op, with_v)) in
            ([ q ], Ir.Map (op, alias :: without_v))
        | _ ->
            let q, alias = make_query ~fresh ~agg_op ~v e in
            ([ q ], alias)
      end
      else begin
        (* Blocking function: wrap the whole subtree. *)
        let q, alias = make_query ~fresh ~agg_op ~v e in
        ([ q ], alias)
      end

(* Eliminate index [v] from the full expression [e]: locate its Agg node,
   extract the minimal sub-queries, and return the new queries plus the
   rewritten expression (with the Agg node's binder list shrunk by [v]). *)
let eliminate ~(dims : int Ir.Idx_map.t) ~(facts : Ir.expr -> Facts.t)
    ~(fresh : unit -> string) (e : Ir.expr) (v : Ir.idx) : extraction =
  match find_binding_agg e v with
  | None -> invalid_arg ("Elimination: index not aggregated: " ^ v)
  | Some (Ir.Agg (agg_op, idxs, body) as target) ->
      if Ir.contains_agg body then
        invalid_arg
          ("Elimination: inner aggregates must be eliminated before " ^ v);
      let queries, body' = extract ~dims ~facts ~fresh ~agg_op ~v body in
      let remaining = List.filter (fun i -> i <> v) idxs in
      let replacement =
        if remaining = [] then body' else Ir.Agg (agg_op, remaining, body')
      in
      { queries; rewritten = Ir.replace_subexpr ~target ~by:replacement e }
  | Some _ -> assert false
