(* Minimal JSON reader for baseline files.

   The repo deliberately avoids external JSON dependencies: writers build
   documents by hand (with [Metrics.json_escape]), and this module is the
   matching reader — a small recursive-descent parser over the grammar
   subset those writers produce plus standard JSON.  Numbers parse as
   OCaml floats; object member order is preserved. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string * int  (* message, byte offset *)

(* Integer tokens of at most this many digits are exact in a float and
   read without [float_of_string]. *)
let max_int_digits = 15

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (msg, !pos)) in
  (* The byte at [pos], or '\000' past the end: callers that accept a
     NUL check [!pos < n] before acting on it. *)
  let peek () = if !pos < n then String.unsafe_get s !pos else '\000' in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match String.unsafe_get s !pos with
         | ' ' | '\t' | '\n' | '\r' -> true
         | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    if !pos < n && String.unsafe_get s !pos = c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail ("bad literal, expected " ^ word)
  in
  let parse_escaped b =
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char b '"'
               | '\\' -> Buffer.add_char b '\\'
               | '/' -> Buffer.add_char b '/'
               | 'n' -> Buffer.add_char b '\n'
               | 't' -> Buffer.add_char b '\t'
               | 'r' -> Buffer.add_char b '\r'
               | 'b' -> Buffer.add_char b '\b'
               | 'f' -> Buffer.add_char b '\012'
               | 'u' ->
                   if !pos + 4 >= n then fail "truncated \\u escape";
                   let hex = String.sub s (!pos + 1) 4 in
                   let code =
                     match int_of_string_opt ("0x" ^ hex) with
                     | Some c -> c
                     | None -> fail "bad \\u escape"
                   in
                   (* Our writers only emit \u00xx for control bytes;
                      wider code points degrade to '?' rather than
                      growing a UTF-8 encoder here. *)
                   if code < 0x80 then Buffer.add_char b (Char.chr code)
                   else Buffer.add_char b '?';
                   pos := !pos + 4
               | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
            advance ();
            go ()
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents b
  in
  (* A string without escapes is one [String.sub]; the first backslash
     hands the rest to [parse_escaped]. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    while
      !pos < n
      && match String.unsafe_get s !pos with '"' | '\\' -> false | _ -> true
    do
      advance ()
    done;
    if !pos < n && String.unsafe_get s !pos = '"' then begin
      advance ();
      String.sub s start (!pos - start - 1)
    end
    else begin
      let b = Buffer.create (max 16 (2 * (!pos - start))) in
      Buffer.add_substring b s start (!pos - start);
      parse_escaped b
    end
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char (String.unsafe_get s !pos) do
      advance ()
    done;
    (* Fast path: an optional '-' and 1 to [max_int_digits] digits. *)
    let neg = String.unsafe_get s start = '-' in
    let first = if neg then start + 1 else start in
    let digits = !pos - first in
    let value = ref 0 and plain = ref (digits >= 1 && digits <= max_int_digits) in
    let i = ref first in
    while !plain && !i < !pos do
      (match String.unsafe_get s !i with
      | '0' .. '9' as c -> value := (!value * 10) + Char.code c - 48
      | _ -> plain := false);
      incr i
    done;
    if !plain then
      if neg then -.float_of_int !value else float_of_int !value
    else
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let members = ref [] and more = ref true in
          while !more do
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            members := (key, v) :: !members;
            skip_ws ();
            match peek () with
            | ',' -> advance ()
            | '}' ->
                advance ();
                more := false
            | _ -> fail "expected ',' or '}'"
          done;
          Obj (List.rev !members)
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] and more = ref true in
          while !more do
            items := parse_value () :: !items;
            skip_ws ();
            match peek () with
            | ',' -> advance ()
            | ']' ->
                advance ();
                more := false
            | _ -> fail "expected ',' or ']'"
          done;
          Arr (List.rev !items)
        end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (parse_number ())
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (msg, at) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

let parse_file (path : string) : (t, string) result =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> parse s
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors (total: Option-typed, no exceptions).                      *)
(* ------------------------------------------------------------------ *)

let member (key : string) (v : t) : t option =
  match v with Obj kvs -> List.assoc_opt key kvs | _ -> None

let to_list (v : t) : t list option = match v with Arr l -> Some l | _ -> None

let to_float (v : t) : float option =
  match v with Num f -> Some f | _ -> None

let to_string (v : t) : string option =
  match v with Str s -> Some s | _ -> None

let to_bool (v : t) : bool option = match v with Bool b -> Some b | _ -> None
