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

(* A carved sub-query with its interned body. *)
type query = Logical_query.t * Intern.node

type extraction = {
  queries : query list; (* in dependency order *)
  rewritten : Intern.node; (* the input expression with [v] eliminated *)
}

(* Find the unique Agg node binding [v] (expressions are uniquified). *)
let rec find_binding_agg (e : Intern.node) (v : Ir.idx) : Intern.node option =
  match e.Intern.view with
  | Intern.Input _ | Intern.Alias _ | Intern.Literal _ -> None
  | Intern.Map (_, args) -> List.find_map (fun a -> find_binding_agg a v) args
  | Intern.Agg (_, idxs, body) ->
      if List.mem v idxs then Some e else find_binding_agg body v

(* Indices of [e] that are aggregated over, available for elimination:
   those whose Agg node's body contains no further Agg (inner-first
   restriction, paper Sec. 5.5). *)
let rec available_indices (e : Intern.node) : Ir.idx list =
  match e.Intern.view with
  | Intern.Input _ | Intern.Alias _ | Intern.Literal _ -> []
  | Intern.Map (_, args) -> List.concat_map available_indices args
  | Intern.Agg (_, idxs, body) ->
      if body.Intern.has_agg then available_indices body
      else idxs @ available_indices body

(* All aggregated indices remaining in the expression. *)
let rec remaining_agg_indices (e : Intern.node) : Ir.idx list =
  match e.Intern.view with
  | Intern.Input _ | Intern.Alias _ | Intern.Literal _ -> []
  | Intern.Map (_, args) -> List.concat_map remaining_agg_indices args
  | Intern.Agg (_, idxs, body) -> idxs @ remaining_agg_indices body

(* Make a logical query out of an MSQ body. *)
let make_query ~(fresh : unit -> string) ~(agg_op : Op.t)
    ~(v : Ir.idx) (body : Intern.node) : query * Intern.node =
  let name = fresh () in
  let q = Logical_query.of_node ~name ~agg_op ~agg_idxs:[ v ] body in
  ( (q, body),
    Intern.alias
      ~free:(Ir.Idx_set.remove v body.Intern.free)
      name q.Logical_query.output_idxs )

(* Traverse [e] (the body, or part of the body, of the Agg binding [v]) and
   aggregate [v] out of it.  Precondition: [e] mentions [v] freely and
   contains no Agg nodes (guaranteed by the inner-first restriction).  The
   rewritten node's free indices are [e]'s without [v]. *)
let rec extract ~(dims : int Ir.Idx_map.t)
    ~(facts : Ir.expr -> Facts.t) ~(fresh : unit -> string) ~(agg_op : Op.t)
    ~(v : Ir.idx) (e : Intern.node) : query list * Intern.node =
  match e.Intern.view with
  | Intern.Input _ | Intern.Alias _ ->
      let q, alias = make_query ~fresh ~agg_op ~v e in
      ([ q ], alias)
  | Intern.Literal _ -> assert false (* literals do not mention [v] *)
  | Intern.Agg _ -> assert false (* excluded by the inner-first restriction *)
  | Intern.Map (op, args) ->
      let with_v, without_v =
        List.partition (fun a -> Intern.mentions a v) args
      in
      assert (with_v <> []);
      let free = Ir.Idx_set.remove v e.Intern.free in
      let expr_facts args = List.map (fun a -> facts a.Intern.expr) args in
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
              match Ir.repeat_expr agg_op a.Intern.expr n_v with
              | Some e -> Intern.of_expr ~sub:a e
              | None ->
                  invalid_arg
                    ("Elimination: no repeated-application form for "
                    ^ Op.to_string agg_op))
            without_v
        in
        (queries, Intern.map ~free op (repl_with @ repl_without))
      end
      else if
        Op.distributes_over ~pointwise:op ~aggregate:agg_op
          ~outer:(lazy (Op.map_facts op (expr_facts without_v)))
          ~inner:(lazy (Op.map_facts op (expr_facts with_v)))
      then begin
        match with_v with
        | [ child ] ->
            (* Factor every other child out of the aggregate. *)
            let queries, repl =
              extract ~dims ~facts ~fresh ~agg_op ~v child
            in
            let args' =
              List.map (fun a -> if a == child then repl else a) args
            in
            (queries, Intern.map ~free op args')
        | _ when Op.is_commutative op && Op.is_associative op && without_v <> [] ->
            (* Wrap only the children that contain [v]. *)
            let q, alias =
              make_query ~fresh ~agg_op ~v (Intern.map op with_v)
            in
            ([ q ], Intern.map ~free op (alias :: without_v))
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
let eliminate ~(dims : int Ir.Idx_map.t)
    ~(facts : Ir.expr -> Facts.t) ~(fresh : unit -> string) (e : Intern.node)
    (v : Ir.idx) : extraction =
  match find_binding_agg e v with
  | None -> invalid_arg ("Elimination: index not aggregated: " ^ v)
  | Some ({ Intern.view = Intern.Agg (agg_op, idxs, body); _ } as target) ->
      if body.Intern.has_agg then
        invalid_arg
          ("Elimination: inner aggregates must be eliminated before " ^ v);
      let queries, body' = extract ~dims ~facts ~fresh ~agg_op ~v body in
      let remaining = List.filter (fun i -> i <> v) idxs in
      let replacement =
        if remaining = [] then body'
        else Intern.agg ~free:target.Intern.free agg_op remaining body'
      in
      { queries; rewritten = Intern.replace ~target ~by:replacement e }
  | Some _ -> assert false
