(* Per-loop-level iteration constraints.

   For a loop index [x], the set of candidate positions that can produce a
   non-fill value of the kernel body is described by an and/or tree over the
   accesses that bind [x]:

   - a Map deviates from its fill only where *every* child whose fill
     absorbs the others deviates ([Op.absorbing_children]): an AND over
     those children.  Absorption reads value facts, not just fills: a
     0-fill child joins a product only when the other operands are finite,
     a +inf-fill child joins a sum only when no other operand can hold
     -inf or NaN, and a min/max only against operands without NaN;
   - any other Map deviates only where *some* child deviates: an OR;
   - an access that does not bind [x] is cylindrical in [x] (C_all);
   - a literal never deviates (C_empty).

   The tree always describes a *superset* of the true non-fill positions, so
   it affects performance, never correctness, as long as the facts cover
   the bound tensors' values.  The physical optimizer derives trees from
   the schema's facts to assign access protocols (who leads an
   intersection); the kernel compilers derive them from the bound tensors'
   measured facts, and the kernel cache keys on the resulting AND
   membership ([and_key]). *)

open Galley_plan
module Facts = Galley_tensor.Facts

type t =
  | C_all
  | C_empty
  | C_access of int
  | C_and of t list
  | C_or of t list

(* Fill and value facts of a pexpr node, bottom-up; the facts are forced
   only where an annihilation decision reads them, so [facts] is consulted
   only behind a candidate fill. *)
let rec pexpr_info ~(fills : int -> float) ~(facts : int -> Facts.t)
    (e : Physical.pexpr) : float * Facts.t Lazy.t =
  match e with
  | Physical.P_access a -> (fills a, lazy (facts a))
  | Physical.P_literal v -> (v, Lazy.from_val (Facts.of_value v))
  | Physical.P_map (op, args) ->
      let infos = List.map (pexpr_info ~fills ~facts) args in
      ( Op.apply op (Array.of_list (List.map fst infos)),
        lazy (Op.map_facts op (List.map (fun (_, f) -> Lazy.force f) infos)) )

(* Which children of a Map node join its AND. *)
let and_children ~fills ~facts op (args : Physical.pexpr list) : bool list =
  Op.absorbing_children op (List.map (pexpr_info ~fills ~facts) args)

(* The AND membership of every Map node, preorder, one character per
   child: everything a derived tree depends on beyond the kernel's
   structure and fills, so it completes the kernel-cache key. *)
let and_key ~fills ~facts (body : Physical.pexpr) : string =
  let buf = Buffer.create 16 in
  let rec go (e : Physical.pexpr) =
    match e with
    | Physical.P_access _ | Physical.P_literal _ -> ()
    | Physical.P_map (op, args) ->
        List.iter
          (fun j -> Buffer.add_char buf (if j then '&' else '|'))
          (and_children ~fills ~facts op args);
        List.iter go args
  in
  go body;
  Buffer.contents buf

let simplify_and (cs : t list) : t =
  let cs = List.filter (fun c -> c <> C_all) cs in
  if List.exists (fun c -> c = C_empty) cs then C_empty
  else
    match cs with [] -> C_all | [ c ] -> c | cs -> C_and cs

let simplify_or (cs : t list) : t =
  let cs = List.filter (fun c -> c <> C_empty) cs in
  if List.exists (fun c -> c = C_all) cs then C_all
  else match cs with [] -> C_empty | [ c ] -> c | cs -> C_or cs

let derive ~(accesses : Physical.access array) ~(fills : int -> float)
    ~(facts : int -> Facts.t) ~(idx : Ir.idx) (body : Physical.pexpr) : t =
  let rec go (e : Physical.pexpr) : t =
    match e with
    | Physical.P_access a ->
        if List.mem idx accesses.(a).Physical.idxs then C_access a else C_all
    | Physical.P_literal _ -> C_empty
    | Physical.P_map (op, args) ->
        let joins = and_children ~fills ~facts op args in
        if List.exists Fun.id joins then
          simplify_and
            (List.concat
               (List.map2 (fun j c -> if j then [ go c ] else []) joins args))
        else simplify_or (List.map go args)
  in
  go body

(* Accesses appearing as direct members of a top-level AND (including the
   singleton case): the candidates for a leader / probe protocol split. *)
let and_members (c : t) : int list =
  match c with
  | C_access a -> [ a ]
  | C_and cs ->
      List.filter_map (fun c -> match c with C_access a -> Some a | _ -> None) cs
  | C_all | C_empty | C_or _ -> []

(* Accesses mentioned anywhere in the tree. *)
let rec all_accesses (c : t) : int list =
  match c with
  | C_access a -> [ a ]
  | C_and cs | C_or cs -> List.concat_map all_accesses cs
  | C_all | C_empty -> []

let rec pp fmt (c : t) =
  match c with
  | C_all -> Format.pp_print_string fmt "all"
  | C_empty -> Format.pp_print_string fmt "empty"
  | C_access a -> Format.fprintf fmt "a%d" a
  | C_and cs ->
      Format.fprintf fmt "and(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
           pp)
        cs
  | C_or cs ->
      Format.fprintf fmt "or(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
           pp)
        cs
