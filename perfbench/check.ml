(* Output checks, run after the timed interval.  A check returns [None]
   when the output is right and [Some reason] otherwise. *)

module T = Galley_tensor.Tensor

(* Relative tolerance for outputs whose summation order differs from the
   reference's (optimized vs. hand-written plans, engine vs. dense
   oracle). *)
let rtol = 1e-6

let close (a : float) (b : float) : bool =
  a = b
  || Float.is_finite a && Float.is_finite b
     && Float.abs (a -. b)
        <= rtol *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let coords_string c =
  "[" ^ String.concat "," (Array.to_list (Array.map string_of_int c)) ^ "]"

(* Every stored entry of either tensor agrees with the other's value at
   the same coordinates. *)
let tensors ~(what : string) (got : T.t) (want : T.t) : string option =
  if T.dims got <> T.dims want then
    Some (Printf.sprintf "%s: dims differ" what)
  else begin
    let bad = ref None in
    let cmp x y =
      T.iter_explicit x (fun c v ->
          if !bad = None then begin
            let w = T.get y c in
            if not (close v w) then
              bad :=
                Some
                  (Printf.sprintf "%s%s: %.17g vs reference %.17g" what
                     (coords_string c) v w)
          end)
    in
    cmp got want;
    cmp want got;
    !bad
  end

(* A tensor against a dense reference given per coordinate. *)
let against ~(what : string) (got : T.t) (ref_at : int array -> float) :
    string option =
  let bad = ref None in
  let dims = T.dims got in
  let rec go prefix k =
    if !bad = None then
      if k = Array.length dims then begin
        let c = Array.of_list (List.rev prefix) in
        let v = T.get got c and w = ref_at c in
        if not (close v w) then
          bad :=
            Some
              (Printf.sprintf "%s%s: %.17g vs reference %.17g" what
                 (coords_string c) v w)
      end
      else
        for i = 0 to dims.(k) - 1 do
          go (i :: prefix) (k + 1)
        done
  in
  go [] 0;
  !bad

let output ~(what : string) (outputs : (string * T.t) list) (name : string) :
    (T.t, string) result =
  match List.assoc_opt name outputs with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "%s: output %s missing" what name)
