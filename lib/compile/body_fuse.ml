(* Scalar-body fusion: compile a [Physical.pexpr] into straight-line slot
   code over the per-access value array, so the innermost loop evaluates
   the body with no expression-tree walk, no closure call and no boxed
   float.

   Slots [0, n_acc) hold the current value of each access; every operator
   application writes a temporary slot after them, and every literal owns
   a slot written once when a lane's state is made ([consts]).  The
   backend's evaluator ([Backend.eval]) runs the instructions in order
   and leaves the body value in slot [result] (an access slot when the
   body is a bare access); it lives beside the row loops that call it
   once per entry, so the call is direct.

   The instructions must be bit-for-bit identical to the interpreter's
   [Op.apply1]/[Op.apply2] folds (the interpreter is the differential
   oracle), so every specialization below inlines exactly the operator's
   formula and variadic maps fold left, as [Op.apply] does. *)

open Galley_plan

type instr =
  | Add of int * int * int  (* dst, x, y: dst <- x + y *)
  | Mul of int * int * int
  | Sub of int * int * int
  | Div of int * int * int
  | Max of int * int * int
  | Min of int * int * int
  | Bin of Op.t * int * int * int  (* any other binary application *)
  | Neg of int * int  (* dst, x *)
  | Square of int * int
  | Relu of int * int
  | Exp of int * int
  | Sigmoid of int * int
  | Un of Op.t * int * int  (* any other unary application *)
  | Apply of Op.t * int * int array
      (* an arity mismatch: [Op.apply] raises the interpreter's error *)

type prog = {
  code : instr array;
  result : int;  (* slot holding the body value after [Backend.eval] *)
  n_slots : int;  (* access slots plus temporaries *)
  consts : (int * float) list;  (* literal slots and their values *)
}

let compile ~(n_acc : int) (e : Physical.pexpr) : prog =
  let code = ref [] and consts = ref [] and next = ref n_acc in
  let fresh () =
    let s = !next in
    incr next;
    s
  in
  let emit mk =
    let d = fresh () in
    code := mk d :: !code;
    d
  in
  let binary op x y =
    emit (fun d ->
        match op with
        | Op.Add -> Add (d, x, y)
        | Op.Mul -> Mul (d, x, y)
        | Op.Sub -> Sub (d, x, y)
        | Op.Div -> Div (d, x, y)
        | Op.Max -> Max (d, x, y)
        | Op.Min -> Min (d, x, y)
        | _ -> Bin (op, d, x, y))
  in
  let rec go (e : Physical.pexpr) : int =
    match e with
    | Physical.P_access a -> a
    | Physical.P_literal v ->
        let s = fresh () in
        consts := (s, v) :: !consts;
        s
    | Physical.P_map (op, [ x ]) when Op.arity op = Op.Unary -> (
        let x = go x in
        match op with
        | Op.Ident -> x
        | Op.Neg -> emit (fun d -> Neg (d, x))
        | Op.Square -> emit (fun d -> Square (d, x))
        | Op.Relu -> emit (fun d -> Relu (d, x))
        | Op.Exp -> emit (fun d -> Exp (d, x))
        | Op.Sigmoid -> emit (fun d -> Sigmoid (d, x))
        | _ -> emit (fun d -> Un (op, d, x)))
    | Physical.P_map (op, [ x; y ]) ->
        let x = go x in
        let y = go y in
        binary op x y
    | Physical.P_map (op, x :: rest) when Op.arity op = Op.Variadic ->
        List.fold_left (fun acc y -> binary op acc (go y)) (go x) rest
    | Physical.P_map (op, args) ->
        let args = Array.of_list (List.map go args) in
        emit (fun d -> Apply (op, d, args))
  in
  let result = go e in
  {
    code = Array.of_list (List.rev !code);
    result;
    n_slots = !next;
    consts = !consts;
  }

(* Write the literal slots of a fresh value array. *)
let init (p : prog) (vs : float array) : unit =
  List.iter (fun (s, v) -> vs.(s) <- v) p.consts
