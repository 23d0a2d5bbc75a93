(* Canonicalization of input programs (paper Sec. 5.1) and canonical hashing
   for common sub-expression elimination (paper Sec. 8.2).

   The canonicalization rules, applied exhaustively:
     1. merge nested Map operators with the same associative operator;
     2. merge nested Agg operators with the same operator;
     3. lift Agg operators above Map operators when the pointwise operator
        distributes over the aggregate and no other Map argument mentions
        the aggregated indices;
     4. rename aggregate-bound indices to be globally unique;
   plus housekeeping: drop empty aggregates, unwrap singleton variadic maps,
   fold all-literal maps, and turn aggregates over indices absent from their
   body into an explicit repeated-application Map. *)

module Facts = Galley_tensor.Facts

(* A fresh binder namer: renames [i] to [i#N], with N counting from 1.
   Binder names order the logical search, so one program's plan must not
   depend on what was planned before it: the optimizer makes one namer
   per program and every canonicalization within it shares that namer,
   which keeps the names unique across the program. *)
let binder_namer () : Ir.idx -> Ir.idx =
  let n = ref 0 in
  fun base ->
    incr n;
    Printf.sprintf "%s#%d" base !n

(* Rule 4: make every Agg binder unique and distinct from free indices. *)
let uniquify ~(binder : Ir.idx -> Ir.idx) (e : Ir.expr) : Ir.expr =
  let free = Ir.free_indices e in
  let seen_binders = ref free in
  let rename subst i =
    match Ir.Idx_map.find_opt i subst with Some j -> j | None -> i
  in
  let rec go (subst : Ir.idx Ir.Idx_map.t) (e : Ir.expr) : Ir.expr =
    match e with
    | Ir.Input (n, idxs) -> Ir.Input (n, List.map (rename subst) idxs)
    | Ir.Alias (n, idxs) -> Ir.Alias (n, List.map (rename subst) idxs)
    | Ir.Literal _ -> e
    | Ir.Map (op, args) -> Ir.Map (op, List.map (go subst) args)
    | Ir.Agg (op, idxs, body) ->
        let subst, idxs =
          List.fold_left_map
            (fun subst i ->
              if Ir.Idx_set.mem i !seen_binders then begin
                let j = binder i in
                seen_binders := Ir.Idx_set.add j !seen_binders;
                (Ir.Idx_map.add i j subst, j)
              end
              else begin
                seen_binders := Ir.Idx_set.add i !seen_binders;
                (subst, i)
              end)
            subst idxs
        in
        Ir.Agg (op, idxs, go subst body)
  in
  go Ir.Idx_map.empty e

(* One bottom-up simplification pass; [dims] is needed to rewrite aggregates
   over absent indices into repeated application. *)
let rec simplify_once ~(facts : Ir.expr -> Facts.t) (dims : int Ir.Idx_map.t)
    (e : Ir.expr) : Ir.expr =
  match e with
  | Ir.Input _ | Ir.Alias _ | Ir.Literal _ -> e
  | Ir.Map (op, args) -> (
      let args = List.map (simplify_once ~facts dims) args in
      (* Rule 1: flatten nested variadic maps with the same operator. *)
      let args =
        if Op.is_associative op then
          List.concat_map
            (fun a ->
              match a with Ir.Map (op', args') when op' = op -> args' | _ -> [ a ])
            args
        else args
      in
      (* Fold literals. *)
      let lits, rest =
        List.partition (fun a -> match a with Ir.Literal _ -> true | _ -> false) args
      in
      let args =
        if Op.is_commutative op && List.length lits >= 2 then begin
          let v =
            Op.apply op
              (Array.of_list
                 (List.map
                    (fun a -> match a with Ir.Literal v -> v | _ -> assert false)
                    lits))
          in
          Ir.Literal v :: rest
        end
        else args
      in
      match args with
      | [ a ] when Op.arity op = Op.Variadic || op = Op.Ident -> a
      | [ Ir.Literal v ] when Op.arity op = Op.Unary -> Ir.Literal (Op.apply1 op v)
      | [ Ir.Literal a; Ir.Literal b ] when Op.arity op = Op.Binary ->
          Ir.Literal (Op.apply2 op a b)
      | args -> lift_aggregates ~facts dims op args)
  | Ir.Agg (op, idxs, body) -> (
      let body = simplify_once ~facts dims body in
      if idxs = [] then body
      else
        (* Split indices into those present in the body and those absent;
           absent ones contribute a repeated application g(x, n). *)
        let free = Ir.free_indices body in
        let present, absent = List.partition (fun i -> Ir.Idx_set.mem i free) idxs in
        let wrap_absent e =
          List.fold_left
            (fun e i ->
              let n = Schema.dim_of_idx dims i in
              (* [Ir.repeat_expr] carries the per-aggregate algebra,
                 including the 0/1 normalization Or/And need (they are
                 idempotent only up to truthiness). *)
              match Ir.repeat_expr op e n with
              | Some e' -> e'
              | None -> Ir.Agg (op, [ i ], e) (* keep: no closed form *))
            e absent
        in
        let core =
          if present = [] then body
          else
            (* Rule 2: merge directly nested aggregates with the same op. *)
            match body with
            | Ir.Agg (op', idxs', body') when op' = op ->
                Ir.Agg (op, present @ idxs', body')
            | _ -> Ir.Agg (op, present, body)
        in
        wrap_absent core)

(* Rule 3: given Map (op, args) where some argument is an aggregate that op
   distributes over (or where op is the same commutative operator), lift the
   aggregate above the map when no *other* argument mentions its indices. *)
and lift_aggregates ~(facts : Ir.expr -> Facts.t) (dims : int Ir.Idx_map.t)
    (op : Op.t) (args : Ir.expr list) : Ir.expr =
  let try_lift () =
    let rec split before = function
      | [] -> None
      | Ir.Agg (agg_op, idxs, body) :: after
        when Op.distributes_over ~pointwise:op ~aggregate:agg_op
               ~outer:
                 (lazy
                   (Op.map_facts op
                      (List.map facts (List.rev_append before after))))
               ~inner:(lazy (facts body))
             && List.for_all
                  (fun other ->
                    List.for_all (fun i -> not (Ir.mentions other i)) idxs)
                  (List.rev_append before after) ->
          Some (List.rev before, (agg_op, idxs, body), after)
      | a :: after -> split (a :: before) after
    in
    split [] args
  in
  match try_lift () with
  | Some (before, (agg_op, idxs, body), after) ->
      simplify_once ~facts dims
        (Ir.Agg (agg_op, idxs, Ir.Map (op, before @ (body :: after))))
  | None -> Ir.Map (op, args)

(* [facts] gives the value facts of a sub-expression, which gate the
   distributive lifts; without it every value is possible. *)
let rec simplify ?(facts = fun _ -> Facts.top) (dims : int Ir.Idx_map.t)
    (e : Ir.expr) : Ir.expr =
  let e' = simplify_once ~facts dims e in
  if e' = e then e else simplify ~facts dims e'

(* Full canonicalization of a query expression. *)
let canonicalize ~(binder : Ir.idx -> Ir.idx) (schema : Schema.t)
    (e : Ir.expr) : Ir.expr =
  let e = uniquify ~binder e in
  let dims = Schema.index_dims schema e in
  simplify ~facts:(Schema.expr_facts_or_top schema dims) dims e

(* ------------------------------------------------------------------ *)
(* Canonical keys for common sub-expression elimination.                *)
(* ------------------------------------------------------------------ *)

(* A canonical string for an expression: indices are renamed in first-
   occurrence order of a canonical traversal, and the children of
   commutative operators are sorted by their canonical strings.  Two
   expressions with equal keys denote the same tensor (given equal input
   bindings), up to index naming.

   A commutative node orders its children by their *standalone* keys (each
   numbered from $0), so the order does not depend on the numbering around
   the node.  [sorted] fixes every node's order once, bottom-up; one
   traversal then writes the key into a single buffer. *)
type sorted =
  | S_leaf of Ir.expr (* Input, Alias or Literal *)
  | S_map of Op.t * sorted list
  | S_agg of Op.t * Ir.idx list * sorted

let write ~(resolve_alias : string -> string) (buf : Buffer.t) (s : sorted) :
    unit =
  (* Indices numbered so far, most recent first: number k is the
     (k+1)-th distinct index met. *)
  let seen = ref [] and next = ref 0 in
  let idx i =
    let rec find k = function
      | [] ->
          let k = !next in
          seen := i :: !seen;
          incr next;
          k
      | j :: rest -> if String.equal i j then k else find (k - 1) rest
    in
    let k = find (!next - 1) !seen in
    Buffer.add_char buf '$';
    if k < 10 then Buffer.add_char buf (Char.unsafe_chr (48 + k))
    else Buffer.add_string buf (string_of_int k)
  in
  let idx_list idxs =
    Buffer.add_char buf '[';
    List.iteri
      (fun j i ->
        if j > 0 then Buffer.add_char buf ',';
        idx i)
      idxs;
    Buffer.add_char buf ']'
  in
  let rec go = function
    | S_leaf (Ir.Input (n, idxs)) ->
        Buffer.add_string buf "I:";
        Buffer.add_string buf n;
        idx_list idxs
    | S_leaf (Ir.Alias (n, idxs)) ->
        Buffer.add_string buf "A:{";
        Buffer.add_string buf (resolve_alias n);
        Buffer.add_char buf '}';
        idx_list idxs
    | S_leaf (Ir.Literal v) -> Printf.bprintf buf "L:%h" v
    | S_leaf (Ir.Map _ | Ir.Agg _) -> assert false
    | S_map (op, args) ->
        Buffer.add_string buf "M:";
        Buffer.add_string buf (Op.to_string op);
        Buffer.add_char buf '(';
        List.iteri
          (fun j a ->
            if j > 0 then Buffer.add_char buf ';';
            go a)
          args;
        Buffer.add_char buf ')'
    | S_agg (op, idxs, body) ->
        Buffer.add_string buf "G:";
        Buffer.add_string buf (Op.to_string op);
        idx_list idxs;
        Buffer.add_char buf '(';
        go body;
        Buffer.add_char buf ')'
  in
  go s

(* The key of an ordered tree. *)
let key_of_sorted ?(resolve_alias = fun (n : string) -> n) (s : sorted) :
    string =
  let buf = Buffer.create 256 in
  write ~resolve_alias buf s;
  Buffer.contents buf

(* A map node's children [args] in key order: by their standalone keys
   when the operator is commutative (stably), else as given. *)
let order (op : Op.t) ~(key : 'a -> string) ~(sorted : 'a -> sorted)
    (args : 'a list) : sorted list =
  if Op.is_commutative op then
    List.map snd
      (List.stable_sort
         (fun (k1, _) (k2, _) -> String.compare k1 k2)
         (List.map (fun a -> (key a, sorted a)) args))
  else List.map sorted args

let canonical_key ?(resolve_alias = fun (n : string) -> n) (e : Ir.expr) :
    string =
  let rec sorted (e : Ir.expr) : sorted =
    match e with
    | Ir.Input _ | Ir.Alias _ | Ir.Literal _ -> S_leaf e
    | Ir.Map (op, args) ->
        S_map
          ( op,
            order op
              ~key:(key_of_sorted ~resolve_alias)
              ~sorted:Fun.id (List.map sorted args) )
    | Ir.Agg (op, idxs, body) -> S_agg (op, idxs, sorted body)
  in
  key_of_sorted ~resolve_alias (sorted e)
