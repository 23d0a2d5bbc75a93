(* Pointwise distributivity (paper Sec. 5.1, Example 3).

   Distributing products over sums can be asymptotically better (each term
   computable in time linear in the sparse factor) or worse (more terms), so
   the optimizer produces both the original and the distributed form and
   keeps the cheaper plan.

   The distributed form is obtained by (a) normalizing Square into an
   explicit self-product and Sub into Add-of-Neg, (b) hoisting Neg out of
   products, and (c) exhaustively expanding Map(f, [... Map(g, ts) ...])
   into Map(g, [Map(f, ...t...)]) when f distributes over g pointwise.
   Expansion is abandoned when the expression grows past a size cap. *)

open Galley_plan

let size_cap = 512

(* Square(e) -> Mul(e, e); Sub(a, b) -> Add(a, Neg b). *)
let rec normalize (e : Ir.expr) : Ir.expr =
  match e with
  | Ir.Input _ | Ir.Alias _ | Ir.Literal _ -> e
  | Ir.Map (Op.Square, [ a ]) ->
      let a = normalize a in
      Ir.Map (Op.Mul, [ a; a ])
  | Ir.Map (Op.Sub, [ a; b ]) ->
      Ir.Map (Op.Add, [ normalize a; Ir.Map (Op.Neg, [ normalize b ]) ])
  | Ir.Map (op, args) -> Ir.Map (op, List.map normalize args)
  | Ir.Agg (op, idxs, body) -> Ir.Agg (op, idxs, normalize body)

(* Hoist Neg out of products: Mul(..., Neg a, ...) -> [Neg] Mul(..., a, ...). *)
let rec hoist_neg (e : Ir.expr) : Ir.expr =
  match e with
  | Ir.Input _ | Ir.Alias _ | Ir.Literal _ -> e
  | Ir.Map (Op.Mul, args) ->
      let args = List.map hoist_neg args in
      let negs, stripped =
        List.fold_left_map
          (fun n a ->
            match a with Ir.Map (Op.Neg, [ x ]) -> (n + 1, x) | _ -> (n, a))
          0 args
      in
      let prod = Ir.Map (Op.Mul, stripped) in
      if negs mod 2 = 1 then Ir.Map (Op.Neg, [ prod ]) else prod
  | Ir.Map (op, args) -> Ir.Map (op, List.map hoist_neg args)
  | Ir.Agg (op, idxs, body) -> Ir.Agg (op, idxs, hoist_neg body)

exception Too_large

(* One outside-in expansion pass; raises [Too_large] past the size cap.
   Sub-expressions expand independently, so the per-step check alone cannot
   see global blowup: [expand] (the exported entry point below) re-checks
   the total size of the result. *)
let rec expand_rec (e : Ir.expr) : Ir.expr =
  if Ir.size e > size_cap then raise Too_large;
  match e with
  | Ir.Input _ | Ir.Alias _ | Ir.Literal _ -> e
  | Ir.Agg (op, idxs, body) -> Ir.Agg (op, idxs, expand_rec body)
  | Ir.Map (op, args) -> (
      let distributable a =
        match a with
        | Ir.Map (inner, _) when Op.pointwise_distributes ~outer:op ~inner ->
            true
        | _ -> false
      in
      let numbered = List.mapi (fun k a -> (k, a)) args in
      match List.find_opt (fun (_, a) -> distributable a) numbered with
      | None -> Ir.Map (op, List.map expand_rec args)
      | Some (pos, target) ->
          let inner_op, terms =
            match target with
            | Ir.Map (inner, terms) -> (inner, terms)
            | _ -> assert false
          in
          let rest =
            List.filter_map (fun (k, a) -> if k = pos then None else Some a) numbered
          in
          let expanded =
            Ir.Map (inner_op, List.map (fun t -> Ir.Map (op, t :: rest)) terms)
          in
          if Ir.size expanded > size_cap then raise Too_large;
          expand_rec expanded)

(* Full expansion with a global size check. *)
let expand (e : Ir.expr) : Ir.expr =
  let e' = expand_rec e in
  if Ir.size e' > size_cap then raise Too_large;
  e'

(* The fully distributed variant of [e], if it stays within the size cap and
   actually differs from the canonicalized original. *)
let distributed_variant ~(binder : Ir.idx -> Ir.idx) (schema : Schema.t)
    (e : Ir.expr) : Ir.expr option =
  match expand (hoist_neg (normalize e)) with
  | exception Too_large -> None
  | e' ->
      let e' = Canonical.canonicalize ~binder schema e' in
      if e' = e then None else Some e'
