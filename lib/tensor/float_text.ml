(* Float text: the round-trip text of a double, written straight into
   the caller's bytes.

   Finite values print with Grisu2 (Loitsch, "Printing Floating-Point
   Numbers Quickly and Accurately with Integers", PLDI 2010).  The
   value's rounding interval is scaled by a cached power of ten so that
   its decimal digits fall out of integer arithmetic, and digits are
   generated until they land inside the interval.  The text always reads
   back to the same double.  It is the shortest such text for nearly
   every double; Grisu2 keeps off the interval's boundaries, so a few
   values take one digit more (1e23 prints as 9.999999999999999e22).

   Significands are 62-bit native ints, not the paper's 64-bit ones:
   split into 31-bit halves their products fit an OCaml int, so no
   [Int64] is boxed and nothing is allocated.  Two fewer bits only widen
   the one-unit error margin Grisu2 trims off each end of the interval,
   from 2^-64 to 2^-62 of a value whose interval is 2^-53 wide.

   The text is a JSON number: an optional '-', an integer part without
   leading zeros, an optional fraction and an optional exponent.  It is in
   fixed notation when the decimal exponent of the first digit is in
   [-4, 17) (where printf's %g prints fixed at 17 digits), d.ddde<x>
   otherwise, and no fraction on integral values ("3", "-0").

   Non-finite values print as the tokens "inf", "-inf", "nan" (the
   canonical [Float.nan]) and "nan:0x<16 hex digits>" (any other NaN),
   which [special_of_string] reads back bit for bit; they are not JSON
   numbers, so JSON writers quote them. *)

(* Longest text [write] produces: sign, 17 digits, '.', "e-" and a
   three-digit exponent. *)
let max_length = 24

(* 10^0 .. 10^18, every power of ten an OCaml int holds. *)
let pow10 =
  let a = Array.make 19 1 in
  for k = 1 to 18 do
    a.(k) <- a.(k - 1) * 10
  done;
  a

(* Number of decimal digits of [n >= 0]. *)
let digit_count (n : int) : int =
  let k = ref 1 in
  while !k < 19 && Array.unsafe_get pow10 !k <= n do
    incr k
  done;
  !k

(* "00", "01", ..., "99" back to back. *)
let digit_pairs =
  String.init 200 (fun i -> Char.chr (48 + if i land 1 = 0 then i / 20 else i / 2 mod 10))

(* Decimal digits of [n >= 0] at [pos], two per division; returns the
   position after them. *)
let write_nat (buf : Bytes.t) (pos : int) (n : int) : int =
  let len = digit_count n in
  if pos < 0 || pos + len > Bytes.length buf then
    invalid_arg "Float_text.write_nat";
  let p = ref (pos + len) and m = ref n in
  while !m >= 100 do
    let q = !m / 100 in
    let r = 2 * (!m - (q * 100)) in
    p := !p - 2;
    Bytes.unsafe_set buf !p (String.unsafe_get digit_pairs r);
    Bytes.unsafe_set buf (!p + 1) (String.unsafe_get digit_pairs (r + 1));
    m := q
  done;
  if !m >= 10 then begin
    Bytes.unsafe_set buf pos (String.unsafe_get digit_pairs (2 * !m));
    Bytes.unsafe_set buf (pos + 1) (String.unsafe_get digit_pairs ((2 * !m) + 1))
  end
  else Bytes.unsafe_set buf pos (Char.unsafe_chr (48 + !m));
  pos + len

(* [write_int buf pos n] writes the decimal text of [n] at [pos] and
   returns the position after it. *)
let write_int (buf : Bytes.t) (pos : int) (n : int) : int =
  if n >= 0 then write_nat buf pos n
  else if n = min_int then begin
    let s = string_of_int n in
    Bytes.blit_string s 0 buf pos (String.length s);
    pos + String.length s
  end
  else begin
    Bytes.set buf pos '-';
    write_nat buf (pos + 1) (-n)
  end

(* 10^k for k = -348, -340, ..., 340 as [cached_f.(i) * 2^cached_e.(i)],
   the significand in [2^61, 2^62) and rounded to nearest: exact
   rational arithmetic, e = floor(k log2 10) - 61. *)
let cached_min_k = -348

let cached_f =
  [|
    0x3ea3f568020700a2; 0x2eabb85fe88fafde; 0x22c5bec80c156b1e;
    0x33d0a25297738d7b; 0x269aec2a95594ecb; 0x3986b3c0cf469178;
    0x2adc3f85f1e6b1b3; 0x3fddec7f2faf3714; 0x2f95a47bd05af583;
    0x237407eb641fff0f; 0x34d4570a0c5566a1; 0x275c6b23eb69b26d;
    0x3aa7089dc8fba2f3; 0x2bb31264501e14db; 0x208f049e576db396;
    0x3084250d937ed58e; 0x2425ba9bce122614; 0x35dd2172c9608eb2;
    0x2821b3f365efe5fd; 0x3bcd02a605caab39; 0x2c8e19feca8d6ca3;
    0x21323537f4b18fcf; 0x31775109c6b4f36f; 0x24dae7f3aec97265;
    0x36eb1b091f58a961; 0x28ead9960357f6bd; 0x3cf8be24f7b0fc4a;
    0x2d6d6b6a2abfe02e; 0x21d897c15b1f12a3; 0x326f3fd80d304c15;
    0x2593a163246e8995; 0x37fe5dc91c0a5faf; 0x29b7ef67ee396e24;
    0x3e2a57f3e21d1f65; 0x2e511c24e3ea26f4; 0x22823c3e2fc3c55b;
    0x336c0955594c4c6e; 0x264ff8b1b41edfeb; 0x391704310a8acec1;
    0x2a8909265a5ce4b5; 0x3f61ed7ca0c03283; 0x2f394219248446bb;
    0x232f33025bd42233; 0x346dc5d63886594b; 0x2710000000000000;
    0x3a35294400000000; 0x2b5e3af16b188000; 0x204fce5e3e250261;
    0x3025f39ef241c56d; 0x23df8cb39efa971c; 0x35748e292afa601a;
    0x27d3c9c985e68891; 0x3b58e88c75313eca; 0x2c37994e23322b6a;
    0x20f1c22386aad977; 0x3117477e509c4767; 0x24935a4b2986f9d6;
    0x36807b99069c237a; 0x289b68e666bbddd2; 0x3c825e1eed1f5ae1;
    0x2d1539285e77461e; 0x2196e1a496e6f171; 0x320d54f17225974f;
    0x254aad173ea5e82d; 0x3791a7ef666817f9; 0x2966f08d36ce6309;
    0x3db1a69ca8e627d7; 0x2df72fd4d53a6fb4; 0x223f3cc5fc889079;
    0x330833a6f4d71e29; 0x260596bcdec854f8; 0x38a82d7725c7cc0f;
    0x2a367454d738ece6; 0x3ee6df366929d10f; 0x2edd931329e91104;
    0x22eae3bbed902707; 0x3407fbc42995e10b; 0x26c429397a644c4a;
    0x39c426fee8670327; 0x2b0a0836588efd0a; 0x201112d79ea9f3e1;
    0x2fc8791000eb374b; 0x2399e70bd7913fe4; 0x350cc5e767232e10;
    0x278676e4ad38c6ea; 0x3ae5afdbaeb7ddf6; 0x2be1c08ee6fc3b9b;
  |]

let cached_e =
  [|
    -1218; -1191; -1164; -1138; -1111; -1085; -1058; -1032; -1005; -978; -952;
    -925; -899; -872; -845; -819; -792; -766; -739; -713; -686; -659; -633;
    -606; -580; -553; -527; -500; -473; -447; -420; -394; -367; -341; -314;
    -287; -261; -234; -208; -181; -155; -128; -101; -75; -48; -22; 5; 32; 58;
    85; 111; 138; 164; 191; 218; 244; 271; 297; 324; 350; 377; 404; 430; 457;
    483; 510; 536; 563; 590; 616; 643; 669; 696; 722; 749; 776; 802; 829; 855;
    882; 909; 935; 962; 988; 1015; 1041; 1068;
  |]

(* Grisu2 picks the cached power that puts the scaled exponent in
   [alpha, alpha + 28]: the integer part of the scaled upper boundary
   then fits 32 bits, and ten times its fraction (< 2^-alpha) fits an
   OCaml int. *)
let alpha = -58

let mask31 = (1 lsl 31) - 1

(* High 62 bits of the 124-bit product of two 62-bit significands,
   rounded; the exponent of the result is the sum of both plus 62. *)
let[@inline] mul (a : int) (b : int) : int =
  let ah = a lsr 31 and al = a land mask31 in
  let bh = b lsr 31 and bl = b land mask31 in
  let hl = ah * bl and lh = al * bh in
  let mid =
    ((al * bl) lsr 31) + (hl land mask31) + (lh land mask31) + (1 lsl 30)
  in
  (ah * bh) + (hl lsr 31) + (lh lsr 31) + (mid lsr 31)

(* Left shift that brings [x] (0 < x < 2^62) into [2^61, 2^62). *)
let norm_shift (x : int) : int =
  let x = ref x and s = ref 0 in
  if !x < 1 lsl 30 then (x := !x lsl 32; s := 32);
  if !x < 1 lsl 46 then (x := !x lsl 16; s := !s + 16);
  if !x < 1 lsl 54 then (x := !x lsl 8; s := !s + 8);
  if !x < 1 lsl 58 then (x := !x lsl 4; s := !s + 4);
  if !x < 1 lsl 60 then (x := !x lsl 2; s := !s + 2);
  if !x < 1 lsl 61 then s := !s + 1;
  !s

(* Lay out the digits at [pos + 1 .. pos + len], worth
   [digits * 10^dexp], as the final text starting at [pos]. *)
let layout (buf : Bytes.t) (pos : int) (len : int) (dexp : int) : int =
  let x = len - 1 + dexp in
  if x >= 0 && x < 17 then
    if len <= x + 1 then begin
      Bytes.blit buf (pos + 1) buf pos len;
      Bytes.fill buf (pos + len) (x + 1 - len) '0';
      pos + x + 1
    end
    else begin
      Bytes.blit buf (pos + 1) buf pos (x + 1);
      Bytes.set buf (pos + x + 1) '.';
      pos + len + 1
    end
  else if x < 0 && x >= -4 then begin
    Bytes.blit buf (pos + 1) buf (pos + 1 - x) len;
    Bytes.set buf pos '0';
    Bytes.set buf (pos + 1) '.';
    Bytes.fill buf (pos + 2) (-x - 1) '0';
    pos + 1 - x + len
  end
  else begin
    Bytes.set buf pos (Bytes.get buf (pos + 1));
    let p =
      if len = 1 then pos + 1
      else begin
        Bytes.set buf (pos + 1) '.';
        pos + len + 1
      end
    in
    Bytes.set buf p 'e';
    write_int buf (p + 1) x
  end

(* Grisu2 on a finite, nonzero double given by its bits without the
   sign.  Digits go to [pos + 1 ...] as they are generated, and [layout]
   moves them into place. *)
let write_positive (buf : Bytes.t) (pos : int) (bits : int) : int =
  let mant = bits land ((1 lsl 52) - 1) in
  let bexp = bits lsr 52 in
  let f = if bexp = 0 then mant else mant lor (1 lsl 52) in
  let e = if bexp = 0 then -1074 else bexp - 1075 in
  (* The rounding interval (m-, m+) around v = f * 2^e, all three
     normalized to the exponent of m+. *)
  let sp = norm_shift ((2 * f) + 1) in
  let pe = e - 1 - sp in
  let pf = ((2 * f) + 1) lsl sp in
  let mf =
    if mant = 0 && bexp > 1 then ((4 * f) - 1) lsl (sp - 1)
    else ((2 * f) - 1) lsl sp
  in
  let wf = f lsl (sp + 1) in
  (* The cached power 10^-k' with k' the first table entry at or above
     k = ceil(q log10 2), log10 2 being 78913 / 2^18 here. *)
  let q = alpha - pe - 1 in
  let k = (q * 78913 / 262144) + if q > 0 then 1 else 0 in
  let idx = (k - cached_min_k + 7) / 8 in
  let cf = Array.unsafe_get cached_f idx in
  let sh = -(pe + Array.unsafe_get cached_e idx + 62) in
  (* Scaled by the cached power; each product is off by less than one
     unit, so shrinking the interval by one unit at each end keeps it
     inside the true one. *)
  let w = mul wf cf in
  let wp = mul pf cf - 1 in
  let wm = mul mf cf + 1 in
  let one = 1 lsl sh in
  let delta = ref (wp - wm) and dist = ref (wp - w) in
  let p1 = wp lsr sh and p2 = wp land (one - 1) in
  let d = pos + 1 in
  (* The integer part p1 (< 2^32) has [n] digits; write them all, then
     keep the shortest prefix whose rest lies within delta. *)
  let n = digit_count p1 in
  ignore (write_nat buf d p1);
  let len = ref 0 and prefix = ref 0 in
  let dexp = ref (-(cached_min_k + (8 * idx))) in
  let rest = ref 0 and ten_k = ref 0 and stop = ref false in
  while (not !stop) && !len < n do
    prefix := (!prefix * 10) + Char.code (Bytes.get buf (d + !len)) - 48;
    incr len;
    let scale = Array.unsafe_get pow10 (n - !len) in
    let r = ((p1 - (!prefix * scale)) lsl sh) + p2 in
    if r <= !delta then begin
      dexp := !dexp + n - !len;
      rest := r;
      ten_k := scale lsl sh;
      stop := true
    end
  done;
  (* Then digits of the fraction, with delta and dist scaled alongside. *)
  if not !stop then begin
    let p2 = ref p2 and m = ref 0 and more = ref true in
    while !more do
      p2 := !p2 * 10;
      Bytes.set buf (d + !len) (Char.unsafe_chr (48 + (!p2 lsr sh)));
      p2 := !p2 land (one - 1);
      incr len;
      incr m;
      delta := !delta * 10;
      dist := !dist * 10;
      more := !p2 > !delta
    done;
    dexp := !dexp - !m;
    rest := !p2;
    ten_k := one
  end;
  (* Move the last digit down while that brings the text closer to v
     and keeps it inside the interval. *)
  let last = d + !len - 1 in
  let delta = !delta and dist = !dist and ten_k = !ten_k in
  while
    !rest < dist
    && delta - !rest >= ten_k
    && (!rest + ten_k < dist || dist - !rest > !rest + ten_k - dist)
  do
    Bytes.set buf last (Char.unsafe_chr (Char.code (Bytes.get buf last) - 1));
    rest := !rest + ten_k
  done;
  while !len > 1 && Bytes.get buf (d + !len - 1) = '0' do
    decr len;
    incr dexp
  done;
  layout buf pos !len !dexp

let nan_bits = Int64.bits_of_float Float.nan

let put_string (buf : Bytes.t) (pos : int) (s : string) : int =
  Bytes.blit_string s 0 buf pos (String.length s);
  pos + String.length s

let write_special (buf : Bytes.t) (pos : int) (v : float) : int =
  if v = infinity then put_string buf pos "inf"
  else if v = neg_infinity then put_string buf pos "-inf"
  else
    let bits = Int64.bits_of_float v in
    if bits = nan_bits then put_string buf pos "nan"
    else begin
      let p = put_string buf pos "nan:0x" in
      for i = 0 to 15 do
        let nibble =
          Int64.to_int (Int64.shift_right_logical bits (60 - (4 * i))) land 15
        in
        Bytes.set buf (p + i) "0123456789abcdef".[nibble]
      done;
      p + 16
    end

(* [write buf pos v] writes the text of [v] at [pos] and returns the
   position after it; [buf] needs [max_length] bytes of room there.
   Allocates nothing. *)
let write (buf : Bytes.t) (pos : int) (v : float) : int =
  if not (Float.is_finite v) then write_special buf pos v
  else begin
    let pos =
      if Float.sign_bit v then begin
        Bytes.set buf pos '-';
        pos + 1
      end
      else pos
    in
    if v = 0.0 then begin
      Bytes.set buf pos '0';
      pos + 1
    end
    (* [Int64.to_int] keeps the low 63 bits: the sign is dropped. *)
    else write_positive buf pos (Int64.to_int (Int64.bits_of_float v))
  end

(* The non-finite tokens [write] produces, read back bit for bit; [None]
   for any other text. *)
let special_of_string (s : string) : float option =
  match s with
  | "inf" -> Some infinity
  | "-inf" -> Some neg_infinity
  | "nan" -> Some Float.nan
  | _ when String.starts_with ~prefix:"nan:0x" s -> (
      match Int64.of_string_opt (String.sub s 4 (String.length s - 4)) with
      | Some bits when Float.is_nan (Int64.float_of_bits bits) ->
          Some (Int64.float_of_bits bits)
      | _ -> None)
  | _ -> None

(* Inverse of [write]: the non-finite tokens, else [float_of_string]. *)
let of_string (s : string) : float =
  match special_of_string s with Some v -> v | None -> float_of_string s
