(* Tests for the operator algebra: evaluation, identities, annihilation
   under value facts, the repeated-application function g, distributivity
   facts, interval arithmetic over facts, and algebraic property checks
   over random values. *)

module Op = Galley_plan.Op
module Facts = Galley_tensor.Facts

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

let variadic_ops = [ Op.Add; Op.Mul; Op.Max; Op.Min; Op.Or; Op.And ]

let test_apply2 () =
  check_float "add" 5.0 (Op.apply2 Op.Add 2.0 3.0);
  check_float "mul" 6.0 (Op.apply2 Op.Mul 2.0 3.0);
  check_float "max" 3.0 (Op.apply2 Op.Max 2.0 3.0);
  check_float "min" 2.0 (Op.apply2 Op.Min 2.0 3.0);
  check_float "sub" (-1.0) (Op.apply2 Op.Sub 2.0 3.0);
  check_float "div" 2.0 (Op.apply2 Op.Div 6.0 3.0);
  check_float "pow" 8.0 (Op.apply2 Op.Pow 2.0 3.0);
  check_float "or true" 1.0 (Op.apply2 Op.Or 0.0 2.0);
  check_float "or false" 0.0 (Op.apply2 Op.Or 0.0 0.0);
  check_float "and" 1.0 (Op.apply2 Op.And 2.0 3.0);
  check_float "and false" 0.0 (Op.apply2 Op.And 2.0 0.0);
  check_float "lt" 1.0 (Op.apply2 Op.Lt 2.0 3.0);
  check_float "geq" 0.0 (Op.apply2 Op.Geq 2.0 3.0)

let test_apply1 () =
  check_float "sigmoid 0" 0.5 (Op.apply1 Op.Sigmoid 0.0);
  check_bool "sigmoid large" true (Op.apply1 Op.Sigmoid 100.0 > 0.999);
  check_float "relu neg" 0.0 (Op.apply1 Op.Relu (-3.0));
  check_float "relu pos" 3.0 (Op.apply1 Op.Relu 3.0);
  check_float "neg" (-2.0) (Op.apply1 Op.Neg 2.0);
  check_float "abs" 2.0 (Op.apply1 Op.Abs (-2.0));
  check_float "square" 9.0 (Op.apply1 Op.Square 3.0);
  check_float "sign" (-1.0) (Op.apply1 Op.Sign (-0.5));
  check_float "ident" 7.0 (Op.apply1 Op.Ident 7.0)

let test_apply_variadic () =
  check_float "sum" 10.0 (Op.apply Op.Add [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "prod" 24.0 (Op.apply Op.Mul [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "max" 4.0 (Op.apply Op.Max [| 1.0; 4.0; 3.0 |]);
  check_float "singleton" 5.0 (Op.apply Op.Add [| 5.0 |])

let test_identity_law () =
  List.iter
    (fun op ->
      (* Or/And operate on booleans; their identities hold on {0,1}. *)
      let domain =
        match op with
        | Op.Or | Op.And -> [ 0.0; 1.0 ]
        | _ -> [ -2.5; 0.0; 3.0 ]
      in
      match Op.identity op with
      | Some e ->
          List.iter
            (fun x ->
              check_float
                (Op.to_string op ^ " identity")
                x (Op.apply2 op x e))
            domain
      | None -> ())
    variadic_ops

(* On single values the facts rule is exact: [a] absorbs [x] iff
   f(a, x) = f(x, a) = a, NaN and the infinities included. *)
let test_annihilator_law () =
  let values =
    [ -2.5; -0.0; 0.0; 0.5; 1.0; 3.0; infinity; neg_infinity; Float.nan ]
  in
  List.iter
    (fun op ->
      List.iter
        (fun a ->
          if Op.absorbs op a Facts.bottom then
            List.iter
              (fun x ->
                let law = Op.apply2 op a x = a && Op.apply2 op x a = a in
                check_bool
                  (Printf.sprintf "%s absorbs %g against %g" (Op.to_string op)
                     a x)
                  law
                  (Op.absorbs op a (Facts.of_value x)))
              values)
        [ 0.0; 1.0; infinity; neg_infinity ])
    variadic_ops;
  (* The candidates themselves. *)
  check_bool "0 for *" true (Op.absorbs Op.Mul 0.0 Facts.bottom);
  check_bool "+inf for +" true (Op.absorbs Op.Add infinity Facts.bottom);
  check_bool "-inf for +" true (Op.absorbs Op.Add neg_infinity Facts.bottom);
  check_bool "1 for *" false (Op.absorbs Op.Mul 1.0 Facts.bottom);
  check_bool "none for -" false (Op.absorbs Op.Sub 0.0 Facts.bottom)

(* A product folds left, so a 0 fill behind two operands must absorb
   their product: finite operands can still overflow to inf first. *)
let test_absorbing_children_prefix () =
  let absorbing_children op children =
    Op.absorbing_children op
      (List.map (fun (fill, f) -> (fill, Lazy.from_val f)) children)
  in
  let big = { Facts.lo = 1.0; hi = 1e300; nan = false } in
  let zero = Facts.of_value 0.0 in
  Alcotest.(check (list bool))
    "overflowing prefix" [ false; false; false ]
    (absorbing_children Op.Mul [ (1.0, big); (1.0, big); (0.0, zero) ]);
  Alcotest.(check (list bool))
    "leading zero" [ true; false; false ]
    (absorbing_children Op.Mul [ (0.0, zero); (1.0, big); (1.0, big) ]);
  let dist = { Facts.lo = 0.0; hi = infinity; nan = false } in
  Alcotest.(check (list bool))
    "(min,+) operands" [ true; true ]
    (absorbing_children Op.Add [ (infinity, dist); (infinity, dist) ]);
  Alcotest.(check (list bool))
    "a stored -inf keeps the other operand out" [ false; true ]
    (absorbing_children Op.Add
       [ (infinity, dist); (infinity, { dist with Facts.lo = neg_infinity }) ])

(* Where every corner of the product or quotient is NaN (0 * inf,
   inf / inf), the 0 that a finite operand gives must still be covered. *)
let test_facts_zero_between_corners () =
  let all = { Facts.lo = neg_infinity; hi = infinity; nan = true } in
  let zero = { (Facts.of_value 0.0) with Facts.nan = true } in
  let covers_zero op args = Facts.contains_zero (Op.map_facts op args) in
  check_bool "[0, 0] * [-inf, inf] holds 0" true (covers_zero Op.Mul [ zero; all ]);
  check_bool "[-inf, inf] / {-inf} holds 0" true
    (covers_zero Op.Div [ all; Facts.of_value neg_infinity ]);
  check_bool "{inf} / {inf} holds no 0" false
    (covers_zero Op.Div [ Facts.of_value infinity; Facts.of_value infinity ])

let test_repeat_matches_fold () =
  (* g(x, n) must equal folding n copies of x into the identity, which is
     exactly how the engine accumulates. *)
  List.iter
    (fun op ->
      List.iter
        (fun x ->
          List.iter
            (fun n ->
              let acc = ref (Option.get (Op.identity op)) in
              for _ = 1 to n do
                acc := Op.apply2 op !acc x
              done;
              check_float
                (Printf.sprintf "g(%s, %g, %d)" (Op.to_string op) x n)
                !acc (Op.repeat op x n))
            [ 0; 1; 2; 5 ])
        [ 0.5; 2.0 ])
    variadic_ops

let test_repeat_idempotent () =
  check_float "max idempotent" 3.0 (Op.repeat Op.Max 3.0 1000);
  check_float "add scales" 3000.0 (Op.repeat Op.Add 3.0 1000)

(* Facts of finite values: every pair in the table holds. *)
let finite = lazy { Facts.lo = -.max_float; hi = max_float; nan = false }

let distributes ?(outer = finite) ?(inner = finite) f g =
  Op.distributes_over ~pointwise:f ~aggregate:g ~outer ~inner

let test_distributivity_facts () =
  check_bool "mul over add" true (distributes Op.Mul Op.Add);
  check_bool "and over or" true (distributes Op.And Op.Or);
  check_bool "add over max" true (distributes Op.Add Op.Max);
  check_bool "mul over max excluded (sign)" false (distributes Op.Mul Op.Max);
  check_bool "sigmoid blocks" false (distributes Op.Sigmoid Op.Add);
  (* Gated by value facts: inf * (0 + 1) is inf, inf * 0 + inf * 1 NaN;
     -inf + min(inf, 1) is -inf, min(-inf + inf, -inf + 1) NaN. *)
  let with_inf = lazy (Facts.join (Facts.of_value 0.0) (Facts.of_value infinity)) in
  let nonzero = lazy { Facts.lo = 1.0; hi = 2.0; nan = false } in
  check_bool "mul over add: inf outside, 0 inside" false
    (distributes ~outer:with_inf Op.Mul Op.Add);
  check_bool "mul over add: 0 outside, inf inside" false
    (distributes ~inner:with_inf Op.Mul Op.Add);
  check_bool "mul over add: inf outside, no 0 inside" true
    (distributes ~outer:with_inf ~inner:nonzero Op.Mul Op.Add);
  let neg_inf = lazy (Facts.join (Facts.of_value neg_infinity) (Facts.of_value 1.0)) in
  let pos_inf = lazy (Facts.join (Facts.of_value infinity) (Facts.of_value 1.0)) in
  List.iter
    (fun g ->
      check_bool "add over min/max: -inf outside, +inf inside" false
        (distributes ~outer:neg_inf ~inner:pos_inf Op.Add g);
      check_bool "add over min/max: +inf outside, -inf inside" false
        (distributes ~outer:pos_inf ~inner:neg_inf Op.Add g);
      check_bool "add over min/max: one infinity" true
        (distributes ~outer:pos_inf ~inner:pos_inf Op.Add g))
    [ Op.Min; Op.Max ]

(* Verify the declared distributivity facts semantically:
   f(a, g(b,c)) = g(f(a,b), f(a,c)), for values that include 0, ±inf and
   NaN, each pair asked with the facts of exactly those values.  NaN
   equals NaN; finite results agree up to rounding. *)
let prop_distributivity_sound =
  let value =
    QCheck.(
      oneof
        [
          float_range (-10.0) 10.0;
          oneofl [ 0.0; -0.0; infinity; neg_infinity; Float.nan; 1.0 ];
        ])
  in
  QCheck.Test.make ~name:"declared distributivity holds on values" ~count:2000
    (QCheck.triple value value value)
    (fun (a, b, c) ->
      List.for_all
        (fun (f, g) ->
          let outer = lazy (Facts.of_value a) in
          let inner = lazy (Facts.join (Facts.of_value b) (Facts.of_value c)) in
          if Op.distributes_over ~pointwise:f ~aggregate:g ~outer ~inner then begin
            let lhs = Op.apply2 f a (Op.apply2 g b c) in
            let rhs = Op.apply2 g (Op.apply2 f a b) (Op.apply2 f a c) in
            (Float.is_nan lhs && Float.is_nan rhs)
            || lhs = rhs
            || abs_float (lhs -. rhs) <= 1e-6 *. Float.max 1.0 (abs_float lhs)
          end
          else true)
        [
          (Op.Mul, Op.Add); (Op.Add, Op.Max); (Op.Add, Op.Min);
          (Op.Max, Op.Max); (Op.Min, Op.Min);
        ])

let prop_commutative =
  QCheck.Test.make ~name:"variadic operators commute" ~count:200
    QCheck.(pair (float_range (-10.0) 10.0) (float_range (-10.0) 10.0))
    (fun (a, b) ->
      List.for_all
        (fun op -> Op.apply2 op a b = Op.apply2 op b a)
        variadic_ops)

let prop_associative =
  QCheck.Test.make ~name:"variadic operators associate" ~count:200
    QCheck.(triple (float_range (-4.0) 4.0) (float_range (-4.0) 4.0) (float_range (-4.0) 4.0))
    (fun (a, b, c) ->
      List.for_all
        (fun op ->
          let lhs = Op.apply2 op (Op.apply2 op a b) c in
          let rhs = Op.apply2 op a (Op.apply2 op b c) in
          abs_float (lhs -. rhs) <= 1e-9 *. Float.max 1.0 (abs_float lhs))
        variadic_ops)

let prop_aggregates_commute_sound =
  (* If declared commuting, aggregating a 2x2 grid row-first equals
     column-first. *)
  QCheck.Test.make ~name:"declared aggregate commutation holds" ~count:200
    QCheck.(
      quad (float_range (-5.0) 5.0) (float_range (-5.0) 5.0)
        (float_range (-5.0) 5.0) (float_range (-5.0) 5.0))
    (fun (a, b, c, d) ->
      List.for_all
        (fun (f, g) ->
          if Op.aggregates_commute f g && f <> Op.Ident && g <> Op.Ident then begin
            let rows = Op.apply2 f (Op.apply2 g a b) (Op.apply2 g c d) in
            let cols = Op.apply2 g (Op.apply2 f a c) (Op.apply2 f b d) in
            (* only same-op pairs are declared, where both orders agree *)
            abs_float (rows -. cols) <= 1e-9 *. Float.max 1.0 (abs_float rows)
          end
          else true)
        [ (Op.Add, Op.Add); (Op.Max, Op.Max); (Op.Max, Op.Min); (Op.Add, Op.Max) ])

let test_of_string_roundtrip () =
  List.iter
    (fun op ->
      Alcotest.(check string)
        "roundtrip" (Op.to_string op)
        (Op.to_string (Op.of_string (Op.to_string op))))
    [
      Op.Add; Op.Mul; Op.Max; Op.Min; Op.Or; Op.And; Op.Sub; Op.Div; Op.Pow;
      Op.Sigmoid; Op.Relu; Op.Ident; Op.Square;
    ]

let test_is_aggregate () =
  check_bool "add" true (Op.is_aggregate Op.Add);
  check_bool "ident" true (Op.is_aggregate Op.Ident);
  check_bool "sigmoid" false (Op.is_aggregate Op.Sigmoid);
  check_bool "sub" false (Op.is_aggregate Op.Sub)

(* Interval arithmetic is sound: for operands drawn from random facts,
   every Map and Agg result lies in the facts [map_facts] / [agg_facts]
   give, NaN included. *)
let prop_facts_sound =
  let points = [| neg_infinity; -3.0; -1.0; -0.5; 0.0; 0.5; 1.0; 2.0; 1e300; infinity |] in
  let gen_facts =
    QCheck.Gen.(
      map3
        (fun a b nan ->
          let lo = Float.min points.(a) points.(b)
          and hi = Float.max points.(a) points.(b) in
          { Facts.lo; hi; nan })
        (int_bound 9) (int_bound 9) bool)
  in
  let ops =
    [| Op.Add; Op.Mul; Op.Max; Op.Min; Op.Sub; Op.Div; Op.Pow; Op.Lt; Op.Or;
       Op.Sigmoid; Op.Relu; Op.Exp; Op.Log; Op.Sqrt; Op.Abs; Op.Neg; Op.Sign;
       Op.Square |]
  in
  QCheck.Test.make ~name:"facts cover every result" ~count:2000
    (QCheck.make
       ~print:(fun (k, fa, fb) ->
         Printf.sprintf "%s %s %s" (Op.to_string ops.(k)) (Facts.to_string fa)
           (Facts.to_string fb))
       QCheck.Gen.(triple (int_bound (Array.length ops - 1)) gen_facts gen_facts))
    (fun (k, fa, fb) ->
      let op = ops.(k) in
      (* The ends, the midpoint (0 between two infinities) and NaN when
         allowed. *)
      let samples (f : Facts.t) =
        let mid = (f.Facts.lo /. 2.0) +. (f.Facts.hi /. 2.0) in
        (if Facts.is_empty f then []
         else [ f.Facts.lo; f.Facts.hi; (if Float.is_nan mid then 0.0 else mid) ])
        @ if f.Facts.nan then [ Float.nan ] else []
      in
      let covers (f : Facts.t) v =
        if Float.is_nan v then f.Facts.nan else f.Facts.lo <= v && v <= f.Facts.hi
      in
      let xs = samples fa and ys = samples fb in
      match Op.arity op with
      | Op.Unary ->
          List.for_all (fun x -> covers (Op.map_facts op [ fa ]) (Op.apply1 op x)) xs
      | Op.Binary | Op.Variadic ->
          let r = Op.map_facts op [ fa; fb ] in
          let map_ok =
            List.for_all
              (fun x -> List.for_all (fun y -> covers r (Op.apply2 op x y)) ys)
              xs
          in
          (* An aggregate folds its n values into the identity. *)
          let fold vs =
            Array.fold_left (Op.apply2 op) (Option.get (Op.identity op)) vs
          in
          let agg_ok n =
            let r = Op.agg_facts op (float_of_int n) fa in
            List.for_all
              (fun x ->
                List.for_all
                  (fun y ->
                    covers r
                      (fold (Array.init n (fun i -> if i = 0 then y else x))))
                  xs)
              xs
          in
          map_ok
          && ((not (Op.is_aggregate op)) || List.for_all agg_ok [ 1; 2; 7 ]))

let () =
  Alcotest.run "op"
    [
      ( "evaluation",
        [
          Alcotest.test_case "binary" `Quick test_apply2;
          Alcotest.test_case "unary" `Quick test_apply1;
          Alcotest.test_case "variadic" `Quick test_apply_variadic;
        ] );
      ( "algebra",
        [
          Alcotest.test_case "identity law" `Quick test_identity_law;
          Alcotest.test_case "annihilator law" `Quick test_annihilator_law;
          Alcotest.test_case "absorption reads the fold prefix" `Quick
            test_absorbing_children_prefix;
          Alcotest.test_case "facts cover 0 between NaN corners" `Quick
            test_facts_zero_between_corners;
          Alcotest.test_case "repeat = fold" `Quick test_repeat_matches_fold;
          Alcotest.test_case "repeat idempotent" `Quick test_repeat_idempotent;
          Alcotest.test_case "distributivity table" `Quick test_distributivity_facts;
          Alcotest.test_case "aggregate predicate" `Quick test_is_aggregate;
          Alcotest.test_case "of_string" `Quick test_of_string_roundtrip;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_distributivity_sound;
            prop_commutative;
            prop_associative;
            prop_aggregates_commute_sound;
            prop_facts_sound;
          ] );
    ]
