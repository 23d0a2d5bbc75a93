(* Plan IR for the input-program and logical dialects (paper Fig. 4).

   A program is a sequence of named queries.  Expressions mix [Map]
   (pointwise application), [Agg] (aggregation over a set of index
   variables), tensor [Input]s, references to previously computed queries
   ([Alias]), and scalar [Literal]s.  The *logical* dialect is the
   restriction where each query is a single Agg wrapping an Agg-free
   expression (see {!Logical_query}). *)

type idx = string

module Idx_set = Set.Make (String)
module Idx_map = Map.Make (String)

type expr =
  | Input of string * idx list
  | Alias of string * idx list
  | Literal of float
  | Map of Op.t * expr list
  | Agg of Op.t * idx list * expr

(* [out_order], when given, fixes the dimension order of the query's output
   tensor; otherwise the (sorted) free indices of [expr] are used. *)
type query = { name : string; expr : expr; out_order : idx list option }

type program = { queries : query list; outputs : string list }

(* ------------------------------------------------------------------ *)
(* Statement-level dialect: straight-line queries plus fixpoints.       *)
(* ------------------------------------------------------------------ *)

(* A fixpoint construct (the `iterate` statement of the .gly language):
   the body is an ordinary program fragment run once per iteration.
   Body statements are either iteration-local definitions (`=`) or
   loop-carried updates (`:=`, [u_carried] below).  Carried updates have
   Gauss-Seidel semantics: each takes effect immediately for statements
   after it in the same iteration (a statement's own right-hand side
   still sees the previous value).  A primed name `X'` anywhere in the
   body or condition denotes the value X held at the start of the
   iteration.  The `until` condition, when present, is evaluated after
   the body as a scalar Galley query over the new bindings; nonzero
   means converged. *)
type body_stmt = { u_query : query; u_carried : bool }

type fixpoint = {
  fix_name : string; (* result name; must be one of the carried names *)
  fix_max_iters : int option; (* None = subsystem default *)
  fix_cond : expr option; (* until-condition; None = run max_iters times *)
  fix_body : body_stmt list;
}

type stmt = Query_stmt of query | Fix_stmt of fixpoint

type xprogram = { stmts : stmt list; xoutputs : string list }

let carried_names (f : fixpoint) : string list =
  List.sort_uniq compare
    (List.filter_map
       (fun u -> if u.u_carried then Some u.u_query.name else None)
       f.fix_body)

let has_fixpoint (p : xprogram) : bool =
  List.exists (function Fix_stmt _ -> true | Query_stmt _ -> false) p.stmts

(* The straight-line restriction of an xprogram, when it has no
   fixpoints (legacy entry points). *)
let program_of_xprogram (p : xprogram) : program option =
  if has_fixpoint p then None
  else
    Some
      {
        queries =
          List.filter_map
            (function Query_stmt q -> Some q | Fix_stmt _ -> None)
            p.stmts;
        outputs = p.xoutputs;
      }

let xprogram_of_program (p : program) : xprogram =
  {
    stmts = List.map (fun q -> Query_stmt q) p.queries;
    xoutputs = p.outputs;
  }

(* ------------------------------------------------------------------ *)
(* Smart constructors.                                                  *)
(* ------------------------------------------------------------------ *)

let input name idxs = Input (name, idxs)
let alias name idxs = Alias (name, idxs)
let lit v = Literal v

let map op args =
  (match (Op.arity op, List.length args) with
  | Op.Unary, 1 | Op.Binary, 2 -> ()
  | Op.Variadic, n when n >= 1 -> ()
  | _ ->
      invalid_arg
        (Printf.sprintf "Ir.map: %s applied to %d arguments" (Op.to_string op)
           (List.length args)));
  Map (op, args)

let agg op idxs body =
  if not (Op.is_aggregate op) then
    invalid_arg ("Ir.agg: not an aggregate operator: " ^ Op.to_string op);
  Agg (op, idxs, body)

let sum idxs body = agg Op.Add idxs body
let mul args = map Op.Mul args
let add args = map Op.Add args

let query ?out_order name expr = { name; expr; out_order }

(* ------------------------------------------------------------------ *)
(* Index accounting.                                                    *)
(* ------------------------------------------------------------------ *)

(* Index variables free in [e]: appearing in a leaf and not bound by an
   enclosing Agg *inside* [e].  These are the output indices of the
   tensor [e] denotes. *)
let rec free_indices (e : expr) : Idx_set.t =
  match e with
  | Input (_, idxs) | Alias (_, idxs) -> Idx_set.of_list idxs
  | Literal _ -> Idx_set.empty
  | Map (_, args) ->
      List.fold_left
        (fun acc a -> Idx_set.union acc (free_indices a))
        Idx_set.empty args
  | Agg (_, idxs, body) ->
      Idx_set.diff (free_indices body) (Idx_set.of_list idxs)

(* All index variables mentioned anywhere in [e]. *)
let rec all_indices (e : expr) : Idx_set.t =
  match e with
  | Input (_, idxs) | Alias (_, idxs) -> Idx_set.of_list idxs
  | Literal _ -> Idx_set.empty
  | Map (_, args) ->
      List.fold_left
        (fun acc a -> Idx_set.union acc (all_indices a))
        Idx_set.empty args
  | Agg (_, idxs, body) ->
      Idx_set.union (Idx_set.of_list idxs) (all_indices body)

(* Indices bound by some Agg inside [e]. *)
let aggregated_indices (e : expr) : Idx_set.t =
  Idx_set.diff (all_indices e) (free_indices e)

let rec contains_agg (e : expr) : bool =
  match e with
  | Agg _ -> true
  | Map (_, args) -> List.exists contains_agg args
  | Input _ | Alias _ | Literal _ -> false

(* Does the subtree mention index [i] freely? *)
let mentions (e : expr) (i : idx) : bool = Idx_set.mem i (free_indices e)

(* Tensor names referenced as inputs / aliases. *)
let rec referenced_names (e : expr) : (string * [ `Input | `Alias ]) list =
  match e with
  | Input (n, _) -> [ (n, `Input) ]
  | Alias (n, _) -> [ (n, `Alias) ]
  | Literal _ -> []
  | Map (_, args) -> List.concat_map referenced_names args
  | Agg (_, _, body) -> referenced_names body

(* ------------------------------------------------------------------ *)
(* Structural transforms.                                               *)
(* ------------------------------------------------------------------ *)

let rec rename_indices (subst : idx Idx_map.t) (e : expr) : expr =
  let r i = match Idx_map.find_opt i subst with Some j -> j | None -> i in
  match e with
  | Input (n, idxs) -> Input (n, List.map r idxs)
  | Alias (n, idxs) -> Alias (n, List.map r idxs)
  | Literal _ -> e
  | Map (op, args) -> Map (op, List.map (rename_indices subst) args)
  | Agg (op, idxs, body) ->
      Agg (op, List.map r idxs, rename_indices subst body)

(* Repeated application of an aggregate over [n] copies of [e] — the
   expression-level counterpart of [Op.repeat], shared by the logical
   elimination and canonicalization rewrites so neither silently assumes
   the (+,×) semiring.  [Max]/[Min] are genuinely idempotent on floats;
   [Or]/[And] are idempotent only up to 0/1 truthiness normalization
   (or(2,2) = 1 ≠ 2), so their closed form must normalize exactly as the
   kernel accumulator does.  Returns [None] when no closed pointwise
   form exists (callers must then keep an explicit aggregate). *)
let repeat_expr (op : Op.t) (e : expr) (n : int) : expr option =
  if n < 1 then None
  else
    match op with
    | Op.Add -> Some (Map (Op.Mul, [ e; Literal (float_of_int n) ]))
    | Op.Mul -> Some (Map (Op.Pow, [ e; Literal (float_of_int n) ]))
    | Op.Max | Op.Min | Op.Ident -> Some e
    | Op.Or | Op.And -> Some (Map (Op.Neq, [ e; Literal 0.0 ]))
    | _ -> None

let rec size (e : expr) : int =
  match e with
  | Input _ | Alias _ | Literal _ -> 1
  | Map (_, args) -> 1 + List.fold_left (fun a e -> a + size e) 0 args
  | Agg (_, _, body) -> 1 + size body

(* ------------------------------------------------------------------ *)
(* Pretty printing.                                                     *)
(* ------------------------------------------------------------------ *)

let pp_idx_list fmt idxs =
  Format.fprintf fmt "%s" (String.concat "," idxs)

let rec pp_expr fmt (e : expr) =
  match e with
  | Input (n, idxs) -> Format.fprintf fmt "%s[%a]" n pp_idx_list idxs
  | Alias (n, idxs) -> Format.fprintf fmt "@@%s[%a]" n pp_idx_list idxs
  | Literal v -> Format.fprintf fmt "%g" v
  | Map (op, args) ->
      Format.fprintf fmt "@[<hov 2>Map(%s,@ %a)@]" (Op.to_string op)
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.fprintf fmt ",@ ")
           pp_expr)
        args
  | Agg (op, idxs, body) ->
      Format.fprintf fmt "@[<hov 2>Agg(%s,@ [%a],@ %a)@]" (Op.to_string op)
        pp_idx_list idxs pp_expr body

let pp_query fmt (q : query) =
  Format.fprintf fmt "@[<hov 2>Query(%s,@ %a)@]" q.name pp_expr q.expr

let pp_program fmt (p : program) =
  Format.fprintf fmt "@[<v>%a@,outputs: %s@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_query)
    p.queries
    (String.concat ", " p.outputs)

let pp_stmt fmt (s : stmt) =
  match s with
  | Query_stmt q -> pp_query fmt q
  | Fix_stmt f ->
      Format.fprintf fmt "@[<v 2>Iterate(%s%s%s)@,%a@]" f.fix_name
        (match f.fix_max_iters with
        | Some n -> Printf.sprintf ", max=%d" n
        | None -> "")
        (match f.fix_cond with
        | Some c -> ", until=" ^ Format.asprintf "%a" pp_expr c
        | None -> "")
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun fmt u ->
             Format.fprintf fmt "%s%a"
               (if u.u_carried then ":= " else "= ")
               pp_query u.u_query))
        f.fix_body

let pp_xprogram fmt (p : xprogram) =
  Format.fprintf fmt "@[<v>%a@,outputs: %s@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt)
    p.stmts
    (String.concat ", " p.xoutputs)

let expr_to_string e = Format.asprintf "%a" pp_expr e
let query_to_string q = Format.asprintf "%a" pp_query q
let program_to_string p = Format.asprintf "%a" pp_program p
let xprogram_to_string p = Format.asprintf "%a" pp_xprogram p
