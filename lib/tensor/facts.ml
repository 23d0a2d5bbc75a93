(* Value facts: a sound description of the values a tensor can hold,
   fill included — the interval [lo, hi] that bounds its non-NaN values,
   and whether it can hold NaN.  An empty interval ([lo > hi]) means the
   tensor holds no non-NaN value.

   The facts decide when a fill value annihilates an operator (see
   [Op.absorbs]): 0 annihilates [*] only against finite values, +inf
   annihilates [+] only where no -inf or NaN can meet it. *)

type t = { lo : float; hi : float; nan : bool }

let bottom = { lo = infinity; hi = neg_infinity; nan = false }
let top = { lo = neg_infinity; hi = infinity; nan = true }

let of_value (v : float) : t =
  if Float.is_nan v then { bottom with nan = true }
  else { lo = v; hi = v; nan = false }

let join (a : t) (b : t) : t =
  { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi; nan = a.nan || b.nan }

let is_empty (f : t) : bool = f.lo > f.hi
let may_pos_inf (f : t) : bool = f.hi = infinity
let may_neg_inf (f : t) : bool = f.lo = neg_infinity
let contains_zero (f : t) : bool = f.lo <= 0.0 && 0.0 <= f.hi

let is_finite (f : t) : bool =
  not (f.nan || may_pos_inf f || may_neg_inf f)

let to_string (f : t) : string =
  let itv = if is_empty f then "{}" else Printf.sprintf "[%g, %g]" f.lo f.hi in
  if f.nan then itv ^ "+nan" else itv
