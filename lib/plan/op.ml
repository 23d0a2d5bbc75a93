(* The operator algebra (paper Sec. 3.1, 5.4).

   Galley supports arbitrary functions for both pointwise operations and
   aggregates; what the optimizer needs from each operator is a small set of
   algebraic facts: identity, commutativity, distributivity over aggregate
   operators, idempotence, and the repeated-application function
   [g(x, n) = f(x, ..., x)] used to fold fill values into aggregates.

   Annihilation is not a constant of the operator: whether a fill [a]
   forces [f(..., a, ...) = a] depends on what the other operands can hold
   (0 * inf is NaN, +inf + -inf is NaN).  [absorbs] decides it from the
   operands' value facts ([Galley_tensor.Facts]), and [map_facts] /
   [agg_facts] carry those facts through Map and Agg nodes by sound
   interval arithmetic.

   Booleans are encoded as floats with truthiness [x <> 0]; comparison and
   logical operators return 0.0 / 1.0. *)

type t =
  (* variadic, commutative, associative *)
  | Add
  | Mul
  | Max
  | Min
  | Or
  | And
  (* binary, non-commutative *)
  | Sub
  | Div
  | Pow
  | Eq
  | Neq
  | Lt
  | Leq
  | Gt
  | Geq
  (* unary *)
  | Sigmoid
  | Relu
  | Exp
  | Log
  | Sqrt
  | Abs
  | Neg
  | Sign
  | Square
  (* unary identity; also the "no-op" aggregate of the logical dialect *)
  | Ident

let to_string = function
  | Add -> "+"
  | Mul -> "*"
  | Max -> "max"
  | Min -> "min"
  | Or -> "or"
  | And -> "and"
  | Sub -> "-"
  | Div -> "/"
  | Pow -> "^"
  | Eq -> "=="
  | Neq -> "!="
  | Lt -> "<"
  | Leq -> "<="
  | Gt -> ">"
  | Geq -> ">="
  | Sigmoid -> "sigmoid"
  | Relu -> "relu"
  | Exp -> "exp"
  | Log -> "log"
  | Sqrt -> "sqrt"
  | Abs -> "abs"
  | Neg -> "neg"
  | Sign -> "sign"
  | Square -> "sq"
  | Ident -> "id"

let pp fmt op = Format.pp_print_string fmt (to_string op)

let of_string s =
  let all =
    [
      Add; Mul; Max; Min; Or; And; Sub; Div; Pow; Eq; Neq; Lt; Leq; Gt; Geq;
      Sigmoid; Relu; Exp; Log; Sqrt; Abs; Neg; Sign; Square; Ident;
    ]
  in
  match List.find_opt (fun op -> to_string op = s) all with
  | Some op -> op
  | None -> invalid_arg ("Op.of_string: unknown operator " ^ s)

type arity = Unary | Binary | Variadic

let arity = function
  | Add | Mul | Max | Min | Or | And -> Variadic
  | Sub | Div | Pow | Eq | Neq | Lt | Leq | Gt | Geq -> Binary
  | Sigmoid | Relu | Exp | Log | Sqrt | Abs | Neg | Sign | Square | Ident ->
      Unary

let is_commutative op = arity op = Variadic
let is_associative op = arity op = Variadic

(* Identity element: [f(x, identity) = x].  This is also the initial value of
   an aggregate accumulator. *)
let identity = function
  | Add | Or -> Some 0.0
  | Mul | And -> Some 1.0
  | Max -> Some neg_infinity
  | Min -> Some infinity
  | Sub -> Some 0.0 (* right identity only *)
  | Div | Pow -> Some 1.0 (* right identity only *)
  | Ident -> None
  | Eq | Neq | Lt | Leq | Gt | Geq -> None
  | Sigmoid | Relu | Exp | Log | Sqrt | Abs | Neg | Sign | Square -> None

let truthy x = x <> 0.0
let bool_float b = if b then 1.0 else 0.0

let apply2 op a b =
  match op with
  | Add -> a +. b
  | Mul -> a *. b
  | Max -> Float.max a b
  | Min -> Float.min a b
  | Or -> bool_float (truthy a || truthy b)
  | And -> bool_float (truthy a && truthy b)
  | Sub -> a -. b
  | Div -> a /. b
  | Pow -> a ** b
  | Eq -> bool_float (a = b)
  | Neq -> bool_float (a <> b)
  | Lt -> bool_float (a < b)
  | Leq -> bool_float (a <= b)
  | Gt -> bool_float (a > b)
  | Geq -> bool_float (a >= b)
  | Sigmoid | Relu | Exp | Log | Sqrt | Abs | Neg | Sign | Square | Ident ->
      invalid_arg ("Op.apply2: unary operator " ^ to_string op)

let apply1 op a =
  match op with
  | Sigmoid -> 1.0 /. (1.0 +. exp (-.a))
  | Relu -> Float.max 0.0 a
  | Exp -> exp a
  | Log -> log a
  | Sqrt -> sqrt a
  | Abs -> abs_float a
  | Neg -> -.a
  | Sign -> if a > 0.0 then 1.0 else if a < 0.0 then -1.0 else 0.0
  | Square -> a *. a
  | Ident -> a
  | Add | Mul | Max | Min | Or | And -> a (* variadic over a singleton *)
  | Sub | Div | Pow | Eq | Neq | Lt | Leq | Gt | Geq ->
      invalid_arg ("Op.apply1: binary operator " ^ to_string op)

let apply op (args : float array) : float =
  match (arity op, Array.length args) with
  | Unary, 1 -> apply1 op args.(0)
  | Binary, 2 -> apply2 op args.(0) args.(1)
  | Variadic, 0 -> (
      match identity op with
      | Some e -> e
      | None -> invalid_arg "Op.apply: empty application")
  | Variadic, _ ->
      let acc = ref args.(0) in
      for i = 1 to Array.length args - 1 do
        acc := apply2 op !acc args.(i)
      done;
      !acc
  | _ ->
      invalid_arg
        (Printf.sprintf "Op.apply: %s applied to %d arguments" (to_string op)
           (Array.length args))

(* ------------------------------------------------------------------ *)
(* Aggregate-operator algebra.                                          *)
(* ------------------------------------------------------------------ *)

(* Operators usable as aggregates (commutative monoids, plus the no-op). *)
let is_aggregate = function
  | Add | Mul | Max | Min | Or | And | Ident -> true
  | _ -> false

let is_idempotent = function
  | Max | Min | Or | And -> true
  | _ -> false

(* Repeated application g(x, n) = f(x, ..., x) (n copies), paper Sec 5.4.
   Used to account for aggregate contributions of fill entries. *)
let repeat op (x : float) (n : int) : float =
  if n <= 0 then
    match identity op with
    | Some e -> e
    | None -> invalid_arg ("Op.repeat: no identity for " ^ to_string op)
  else
    match op with
    | Add -> x *. float_of_int n
    | Mul -> x ** float_of_int n
    | Max | Min -> x
    (* Or/And normalize to 0/1 on application, so g(x, n>=1) does too. *)
    | Or | And -> bool_float (truthy x)
    | Ident -> x
    | _ -> invalid_arg ("Op.repeat: not an aggregate: " ^ to_string op)

(* Does pointwise [f] distribute over pointwise [g], i.e.
   f(g(a,b), c) = g(f(a,c), f(b,c))?  Used by the logical optimizer's
   pointwise-distributivity expansion (paper Sec. 5.1, Example 3). *)
let pointwise_distributes ~(outer : t) ~(inner : t) : bool =
  match (outer, inner) with
  | Mul, Add | Mul, Sub -> true
  | And, Or -> true
  | _ -> false

(* Do two aggregate operators commute: agg_f over i of agg_g over j equals
   agg_g over j of agg_f over i?  True when identical (and commutative
   associative); Max/Min commute with each other as well. *)
let aggregates_commute a b =
  if not (is_aggregate a && is_aggregate b) then false
  else if a = b then true
  else
    match (a, b) with
    | Ident, _ | _, Ident -> true
    | Max, Min | Min, Max -> false
    | Max, Or | Or, Max -> false
    | _ -> false

(* Monotone-increasing unary functions commute with Max/Min aggregation;
   used nowhere critical but exposed for the physical optimizer's sanity
   checks. *)
let is_monotone_unary = function
  | Sigmoid | Relu | Exp | Sqrt | Ident -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Value facts: annihilation and interval arithmetic.                  *)
(* ------------------------------------------------------------------ *)

module F = Galley_tensor.Facts

(* Does [a] annihilate [op] against every value [x] can hold, i.e.
   [f(a, v) = f(v, a) = a] for all such [v]?  This is the one annihilation
   rule (paper Sec. 7.2, made exact): a Map child whose fill absorbs the
   others joins the Map's intersection.  Against no values ([F.bottom])
   it answers whether [a] is an annihilator candidate of [op] at all. *)
let absorbs (op : t) (a : float) (x : F.t) : bool =
  match op with
  | Mul -> a = 0.0 && F.is_finite x
  | Add ->
      (a = infinity && not (x.F.nan || F.may_neg_inf x))
      || (a = neg_infinity && not (x.F.nan || F.may_pos_inf x))
  | Min -> a = neg_infinity && not x.F.nan
  | Max -> a = infinity && not x.F.nan
  | And -> a = 0.0
  | Or -> a = 1.0
  | Sub | Div | Pow | Eq | Neq | Lt | Leq | Gt | Geq | Sigmoid | Relu | Exp
  | Log | Sqrt | Abs | Neg | Sign | Square | Ident ->
      false

(* Facts of [f(x, y)] for [x], [y] drawn from [a], [b], for operators whose
   extremes over a box lie at its corners (monotone in each argument, or
   bilinear).  Infinities only occur at interval ends, so a NaN made from
   two infinities shows up at a corner too. *)
let corners f (a : F.t) (b : F.t) : F.t =
  let nan = a.F.nan || b.F.nan in
  if F.is_empty a || F.is_empty b then { F.bottom with F.nan }
  else
    let c1 = f a.F.lo b.F.lo and c2 = f a.F.lo b.F.hi in
    let c3 = f a.F.hi b.F.lo and c4 = f a.F.hi b.F.hi in
    (* Float.min/max would keep a NaN corner: drop it by hand. *)
    let lo = ref infinity and hi = ref neg_infinity and nan = ref nan in
    let see c =
      if Float.is_nan c then nan := true
      else begin
        if c < !lo then lo := c;
        if c > !hi then hi := c
      end
    in
    see c1;
    see c2;
    see c3;
    see c4;
    { F.lo = !lo; hi = !hi; nan = !nan }

let zero_one = { F.lo = 0.0; hi = 1.0; nan = false }
let may_inf (f : F.t) : bool = F.may_pos_inf f || F.may_neg_inf f

(* Whether the interval holds a finite value. *)
let has_finite (f : F.t) : bool = f.F.lo < infinity && f.F.hi > neg_infinity

let facts2 (op : t) (a : F.t) (b : F.t) : F.t =
  match op with
  | Add | Sub | Max | Min -> corners (apply2 op) a b
  | Mul ->
      (* 0 inside one interval meets an infinity of the other away from
         the corners, and a finite value of the other gives 0 even where
         every corner is 0 * inf: [0, 0] times [-inf, inf] holds 0. *)
      let r = corners ( *. ) a b in
      let r =
        if
          (F.contains_zero a && has_finite b)
          || (F.contains_zero b && has_finite a)
        then F.join r (F.of_value 0.0)
        else r
      in
      if (F.contains_zero a && may_inf b) || (F.contains_zero b && may_inf a) then
        { r with F.nan = true }
      else r
  | Div ->
      if F.contains_zero b then F.top
      else
        (* A finite value over an infinity gives 0, which the corners
           miss where each is inf / inf. *)
        let r = corners ( /. ) a b in
        if has_finite a && may_inf b then F.join r (F.of_value 0.0) else r
  | Or | And | Eq | Neq | Lt | Leq | Gt | Geq -> zero_one
  | Pow -> F.top
  | Sigmoid | Relu | Exp | Log | Sqrt | Abs | Neg | Sign | Square | Ident ->
      invalid_arg ("Op.facts2: unary operator " ^ to_string op)

let facts1 (op : t) (a : F.t) : F.t =
  (* [mono f]: image under a non-decreasing [f] defined everywhere. *)
  let mono f =
    if F.is_empty a then a else { a with F.lo = f a.F.lo; hi = f a.F.hi }
  in
  (* Non-decreasing on [0, inf], NaN below 0. *)
  let nonneg f =
    let nan = a.F.nan || a.F.lo < 0.0 in
    if F.is_empty a || a.F.hi < 0.0 then { F.bottom with F.nan }
    else { F.lo = f (Float.max a.F.lo 0.0); hi = f a.F.hi; nan }
  in
  let abs_itv () =
    if F.is_empty a || a.F.lo >= 0.0 then a
    else if a.F.hi <= 0.0 then { a with F.lo = -.a.F.hi; hi = -.a.F.lo }
    else { a with F.lo = 0.0; hi = Float.max (-.a.F.lo) a.F.hi }
  in
  match op with
  | Sigmoid | Relu | Exp | Ident | Add | Mul | Max | Min | Or | And ->
      mono (apply1 op)
  | Sqrt -> nonneg sqrt
  | Log -> nonneg log
  | Neg -> if F.is_empty a then a else { a with F.lo = -.a.F.hi; hi = -.a.F.lo }
  | Abs -> abs_itv ()
  | Square ->
      let m = abs_itv () in
      if F.is_empty m then m else { m with F.lo = m.F.lo *. m.F.lo; hi = m.F.hi *. m.F.hi }
  | Sign ->
      (* sign(NaN) = 0 *)
      let s = mono (apply1 Sign) in
      if a.F.nan then F.join { s with F.nan = false } (F.of_value 0.0) else s
  | Sub | Div | Pow | Eq | Neq | Lt | Leq | Gt | Geq ->
      invalid_arg ("Op.facts1: binary operator " ^ to_string op)

(* Facts of a Map node from its children's facts: [apply]'s left fold,
   one interval step per application. *)
let map_facts (op : t) (args : F.t list) : F.t =
  match (arity op, args) with
  | Unary, [ a ] -> facts1 op a
  | Binary, [ a; b ] -> facts2 op a b
  | Variadic, [] -> (
      match identity op with Some e -> F.of_value e | None -> F.top)
  | Variadic, [ a ] -> facts1 op a
  | Variadic, a :: rest -> List.fold_left (facts2 op) a rest
  | _ -> F.top

(* Does pointwise operator [f] distribute over aggregate operator [g], i.e.
   f(a, g(b1..bn)) = g(f(a,b1) .. f(a,bn)), for operands kept outside the
   aggregate whose values lie in [outer] and an aggregate body whose values
   lie in [inner]?  Conservative table: we only declare pairs that hold
   for every such value (e.g. Mul over Max holds only for non-negative
   multipliers, so it is excluded).  Two pairs hold only away from the
   infinities, decided from value facts as [absorbs] decides annihilation:
   Mul over Add fails where ±inf meets 0 (inf * (0 + 1) is inf, while
   inf * 0 + inf * 1 is NaN), and Add over Min/Max fails where +inf meets
   -inf (-inf + min(inf, 1) is -inf, while min(-inf + inf, -inf + 1) is
   NaN).  Both are refused when either side may hold the offending value.
   The facts are forced only for those pairs. *)
let distributes_over ~(pointwise : t) ~(aggregate : t) ~(outer : F.t Lazy.t)
    ~(inner : F.t Lazy.t) : bool =
  let may_inf f = F.may_pos_inf f || F.may_neg_inf f in
  match (pointwise, aggregate) with
  | Mul, Add ->
      let a = Lazy.force outer and b = Lazy.force inner in
      not ((F.contains_zero a && may_inf b) || (may_inf a && F.contains_zero b))
  | Add, Max | Add, Min ->
      let a = Lazy.force outer and b = Lazy.force inner in
      not
        ((F.may_pos_inf a && F.may_neg_inf b)
        || (F.may_neg_inf a && F.may_pos_inf b))
  | And, Or -> true
  | Max, Max | Min, Min | Or, Or | And, And -> true
  | Neg, Add -> true (* -(Σx) = Σ(-x) *)
  | _ -> false

(* Facts of an aggregate of [n] values each described by [f].  A sum's
   bounds scale by [n] and widen by the worst-case rounding of an n-term
   float sum; a bound past [max_float] can overflow and becomes infinite. *)
let agg_facts (op : t) (n : float) (f : F.t) : F.t =
  if n <= 0.0 then
    match identity op with Some e -> F.of_value e | None -> f
  else
    match op with
    | Max | Min | Ident -> f
    | Or | And -> zero_one
    | Add ->
        if F.is_empty f then f
        else
          let finite_mag x = if Float.is_finite x then Float.abs x else 0.0 in
          let m = Float.max (finite_mag f.F.lo) (finite_mag f.F.hi) in
          let err = 2.0 *. n *. n *. epsilon_float *. m in
          let clamp x =
            if x > max_float then infinity
            else if x < -.max_float then neg_infinity
            else x
          in
          let lo =
            if f.F.lo >= 0.0 then Float.max 0.0 ((n *. f.F.lo) -. err)
            else clamp ((n *. f.F.lo) -. err)
          in
          let hi =
            if f.F.hi <= 0.0 then Float.min 0.0 ((n *. f.F.hi) +. err)
            else clamp ((n *. f.F.hi) +. err)
          in
          { F.lo; hi; nan = f.F.nan || (lo = neg_infinity && hi = infinity) }
    | Mul ->
        if n <= 1.0 then f
        else if F.is_empty f then f
        else if f.F.lo >= 0.0 && f.F.hi <= 1.0 then { f with F.lo = 0.0 }
        else if f.F.lo >= -1.0 && f.F.hi <= 1.0 then { f with F.lo = -1.0; hi = 1.0 }
        else F.top
    | Sub | Div | Pow | Eq | Neq | Lt | Leq | Gt | Geq | Sigmoid | Relu | Exp
    | Log | Sqrt | Abs | Neg | Sign | Square ->
        invalid_arg ("Op.agg_facts: not an aggregate: " ^ to_string op)

(* Which children of a Map node join its intersection, given each child's
   fill and facts.  Child [k] joins when its fill absorbs what [apply]'s
   left fold meets around it: the fold of the children before it, and each
   child after it.  Facts are forced only behind a candidate fill. *)
let absorbing_children (op : t) (children : (float * F.t Lazy.t) list) :
    bool list =
  let rec go prefix = function
    | [] -> []
    | (fill, facts) :: rest ->
        let joins =
          absorbs op fill F.bottom
          && (match prefix with
             | None -> true
             | Some p -> absorbs op fill (Lazy.force p))
          && List.for_all (fun (_, f) -> absorbs op fill (Lazy.force f)) rest
        in
        let prefix =
          match prefix with
          | None -> facts
          | Some p -> lazy (facts2 op (Lazy.force p) (Lazy.force facts))
        in
        joins :: go (Some prefix) rest
  in
  match arity op with
  | Variadic -> go None children
  | Unary | Binary -> List.map (fun _ -> false) children
