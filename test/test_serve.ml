(* `galley serve`: protocol round-trips, the LRU cache bound, QoS
   budget→tier mapping, and the daemon itself — warm-cache replay,
   concurrent soak with bit-identical results vs. batch, queue-full
   load shedding, deadline rejection, drain, and fault isolation
   (an injected mid-request kill must not affect neighbours). *)

module T = Galley_tensor.Tensor
module D = Galley.Driver
module Tier = Galley_plan.Tier
module Lru = Galley_engine.Lru
module P = Galley_serve.Protocol
module S = Galley_serve.Server
module C = Galley_serve.Client
module Json = Galley_obs.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Units: LRU, tiers, protocol                                         *)
(* ------------------------------------------------------------------ *)

let test_lru_eviction () =
  let evicted = ref [] in
  let lru =
    Lru.create ~on_evict:(fun k _ -> evicted := k :: !evicted) ~capacity:2 ()
  in
  Lru.put lru "a" 1;
  Lru.put lru "b" 2;
  (* touch "a" so "b" is the LRU entry when "c" overflows *)
  check_bool "a present" true (Lru.find lru "a" = Some 1);
  Lru.put lru "c" 3;
  check_int "capacity held" 2 (Lru.length lru);
  check_int "one eviction" 1 (Lru.evictions lru);
  check_string "lru entry evicted" "b"
    (match !evicted with [ k ] -> k | _ -> "?");
  check_bool "b gone" true (Lru.find lru "b" = None);
  check_bool "a kept" true (Lru.find lru "a" = Some 1);
  check_bool "c kept" true (Lru.find lru "c" = Some 3)

let test_tier_of_budget () =
  let tier = Tier.of_budget ~naive_below:0.1 ~greedy_below:1.0 in
  check_string "50ms -> naive" "naive" (Tier.to_string (tier 0.05));
  check_string "500ms -> greedy" "greedy" (Tier.to_string (tier 0.5));
  check_string "2s -> exact" "exact" (Tier.to_string (tier 2.0))

let test_protocol_roundtrip () =
  (match
     P.decode_request
       (P.encode_query ~id:"q7" ~budget_ms:50.0 ~max_entries:10
          "t = sum[i,j](E[i,j])")
   with
  | Ok
      {
        req_id = Some "q7";
        req = P.Query { src; budget_ms; want_values; max_entries };
      } ->
      check_string "src" "t = sum[i,j](E[i,j])" src;
      check_bool "budget" true (budget_ms = Some 50.0);
      check_bool "max_entries" true (max_entries = Some 10);
      check_bool "values default" true want_values
  | Ok _ -> Alcotest.fail "query decoded to the wrong request"
  | Error e -> Alcotest.fail e);
  (match
     P.decode_request
       (P.encode_bind_entries ~name:"E" ~dims:[| 2; 2 |]
          [| ([| 0; 1 |], 2.5); ([| 1; 0 |], -3.25) |])
   with
  | Ok
      {
        req = P.Bind { name = "E"; spec = P.From_entries { dims; entries; _ } };
        _;
      } ->
      check_bool "dims" true (dims = [| 2; 2 |]);
      check_bool "entries" true
        (entries = [| ([| 0; 1 |], 2.5); ([| 1; 0 |], -3.25) |])
  | Ok _ -> Alcotest.fail "bind decoded to the wrong request"
  | Error e -> Alcotest.fail e);
  (match P.decode_request (P.encode_health ~id:"h" ()) with
  | Ok { req_id = Some "h"; req = P.Health } -> ()
  | _ -> Alcotest.fail "health round-trip failed");
  check_bool "garbage rejected" true
    (Result.is_error (P.decode_request "not json at all"));
  check_bool "unknown op rejected" true
    (Result.is_error (P.decode_request {|{"op":"frobnicate"}|}));
  check_bool "bind without source rejected" true
    (Result.is_error (P.decode_request {|{"op":"bind","name":"E"}|}))

let bits = Int64.bits_of_float

let float_text v =
  let b = Buffer.create 26 in
  P.buf_float b v;
  Buffer.contents b

(* The JSON number grammar: an optional '-', 0 or digits without a
   leading zero, an optional '.' and digits, an optional e/E, sign and
   digits. *)
let is_json_number (s : string) : bool =
  let n = String.length s in
  let i = ref 0 in
  let digits () =
    let start = !i in
    while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
      incr i
    done;
    !i > start
  in
  if !i < n && s.[!i] = '-' then incr i;
  let int_ok =
    if !i < n && s.[!i] = '0' then (incr i; true) else digits ()
  in
  let frac_ok =
    if !i < n && s.[!i] = '.' then (incr i; digits ()) else true
  in
  let exp_ok =
    if !i < n && (s.[!i] = 'e' || s.[!i] = 'E') then begin
      incr i;
      if !i < n && (s.[!i] = '+' || s.[!i] = '-') then incr i;
      digits ()
    end
    else true
  in
  int_ok && frac_ok && exp_ok && !i = n

(* Random 64-bit patterns (every class of double, NaN payloads
   included) plus the boundaries: each prints as a JSON number when
   finite and comes back with the same bits through [Json.parse] and
   [float_of_json], and through [float_of_string]. *)
let prop_float_text_roundtrip =
  let boundaries =
    List.map Int64.float_of_bits
      [ 0L; Int64.min_int; 1L; 0x000f_ffff_ffff_ffffL; 0x0010_0000_0000_0000L;
        0x7fef_ffff_ffff_ffffL; 0x7ff0_0000_0000_0000L; 0xfff0_0000_0000_0000L;
        0x7ff8_0000_0000_0001L; 0x7ff0_0000_0000_0abcL; 0xfff8_0000_0000_0000L;
        0x3ff0_0000_0000_0000L; 0x4340_0000_0000_0001L ]
    @ [ 0.1; 1e23; 5e-324; 2.2250738585072009e-308; 9007199254740993.0;
        123456789012345.0; 1e15; 1e16; 1e21; 1e-4; 1e-5 ]
  in
  let gen =
    QCheck.Gen.(
      frequency
        [ (8, map Int64.float_of_bits ui64); (1, oneofl boundaries);
          (1, map float_of_int (int_range (-1_000_000) 1_000_000)) ])
  in
  QCheck.Test.make ~name:"floats round-trip bit-exactly as JSON numbers"
    ~count:100_000
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun v ->
      let text = float_text v in
      let via_json =
        match Json.parse text with
        | Ok j -> Option.map bits (P.float_of_json j)
        | Error _ -> None
      in
      via_json = Some (bits v)
      && ((not (Float.is_finite v))
         || is_json_number text
            && bits (float_of_string text) = bits v))

(* The result encoder before entries were written straight from the
   tensor: [T.to_coo] and [%.17g].  Kept as the oracle for the entry
   set, order and truncation of [P.result_json]. *)
let oracle_output_json (t : T.t) ~max_entries : string =
  let old_float b f =
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
    else if f = infinity then Buffer.add_string b {|"inf"|}
    else if f = neg_infinity then Buffer.add_string b {|"-inf"|}
    else if bits f = bits Float.nan then Buffer.add_string b {|"nan"|}
    else Buffer.add_string b (Printf.sprintf {|"nan:0x%016Lx"|} (bits f))
  in
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf {|{"nnz":%d,"fill":|} (T.nnz t));
  old_float b (T.fill t);
  let coo = T.to_coo t in
  let total = Array.length coo in
  let shown = min total max_entries in
  Buffer.add_string b {|,"entries":[|};
  for k = 0 to shown - 1 do
    if k > 0 then Buffer.add_char b ',';
    let coords, v = coo.(k) in
    Buffer.add_char b '[';
    Array.iter (fun c -> Buffer.add_string b (string_of_int c ^ ",")) coords;
    old_float b v;
    Buffer.add_char b ']'
  done;
  Buffer.add_string b (Printf.sprintf {|],"truncated":%b}|} (shown < total));
  Buffer.contents b

(* [P.result_json] against the oracle, both parsed: the same entries in
   the same order (coordinates equal, value bits equal), and the same
   nnz, fill and truncation, over arities 0-3, every level format, fills
   {0, 1, +inf, NaN} and max_entries {0, 1, nnz-1, nnz, max_int}. *)
let test_result_encoder_differential () =
  let base =
    D.run
      ~inputs:
        [ ("E", T.of_coo ~dims:[| 3 |] ~formats:[| T.Dense |] [| ([| 1 |], 2.0) |]) ]
      (Galley_lang.Parser.parse_program "s = sum[i](E[i])")
  in
  let prng = Galley_tensor.Prng.create 23 in
  let specials =
    [| infinity; neg_infinity; Float.nan; Int64.float_of_bits 0xfff8_0000_0000_0000L;
       -0.0; 0.0; 1.0; 5e-324; 0.1; 1e23 |]
  in
  let value () =
    if Galley_tensor.Prng.int prng 3 = 0 then
      specials.(Galley_tensor.Prng.int prng (Array.length specials))
    else Galley_tensor.Prng.float_range prng (-1e3) 1e3
  in
  let all_formats = [ T.Dense; T.Sparse_list; T.Bytemap; T.Hash ] in
  let rec stacks k =
    if k = 0 then [ [] ]
    else
      List.concat_map
        (fun f -> List.map (fun s -> f :: s) (stacks (k - 1)))
        all_formats
  in
  let parse s = match Json.parse s with Ok j -> j | Error e -> Alcotest.fail e in
  let float_bits j = Option.map bits (P.float_of_json j) in
  let fields j =
    ( Json.member "nnz" j,
      Option.bind (Json.member "fill" j) float_bits,
      Json.member "truncated" j,
      match Option.bind (Json.member "entries" j) Json.to_list with
      | None -> Alcotest.fail "no entries"
      | Some rows ->
          List.map
            (fun row ->
              match List.rev (Option.get (Json.to_list row)) with
              | v :: coords -> (List.rev coords, float_bits v)
              | [] -> Alcotest.fail "empty entry row")
            rows )
  in
  let cases = ref 0 in
  List.iter
    (fun arity ->
      let dims = Array.sub [| 5; 4; 3 |] 0 arity in
      List.iter
        (fun formats ->
          List.iter
            (fun fill ->
              let entries = ref [] in
              for flat = 0 to T.dim_space dims - 1 do
                if Galley_tensor.Prng.int prng 5 < 2 || arity = 0 then
                  entries := (T.unflatten dims flat, value ()) :: !entries
              done;
              let t =
                T.of_coo ~fill ~dims ~formats:(Array.of_list formats)
                  (Array.of_list !entries)
              in
              let nnz = T.nnz t in
              List.iter
                (fun max_entries ->
                  incr cases;
                  let idxs = List.init arity (Printf.sprintf "i%d") in
                  let r = { base with D.outputs = [ ("o", idxs, t) ] } in
                  let got =
                    let j = parse (P.result_json ~want_values:true ~max_entries r) in
                    match Option.bind (Json.member "outputs" j) Json.to_list with
                    | Some [ o ] -> fields o
                    | _ -> Alcotest.fail "one output expected"
                  in
                  let want = fields (parse (oracle_output_json t ~max_entries)) in
                  if got <> want then
                    Alcotest.failf "arity %d, formats [%s], fill %h, max_entries %d"
                      arity
                      (String.concat " " (List.map T.format_to_string formats))
                      fill max_entries)
                [ 0; 1; nnz - 1; nnz; max_int ])
            [ 0.0; 1.0; infinity; Float.nan ])
        (stacks arity))
    [ 0; 1; 2; 3 ];
  check_int "cases" (85 * 4 * 5) !cases

(* Every float the wire carries comes back with the same bits: NaNs
   (including a payload and a negative one), infinities, signed zeros,
   subnormals, and the largest finite values; the fill too. *)
let test_float_wire_roundtrip () =
  let values =
    [|
      Float.nan;
      Int64.float_of_bits 0x7ff0_0000_0000_0abcL;
      Int64.float_of_bits 0xfff8_0000_0000_0000L;
      infinity;
      neg_infinity;
      0.0;
      -0.0;
      5e-324;
      -4.9406564584124654e-324;
      2.2250738585072009e-308;
      Float.max_float;
      -.Float.max_float;
      0.1;
    |]
  in
  let entries = Array.mapi (fun k v -> ([| k |], v)) values in
  List.iter
    (fun fill ->
      match
        P.decode_request
          (P.encode_bind_entries ~name:"V" ~dims:[| Array.length values |] ~fill
             entries)
      with
      | Ok { req = P.Bind { spec = P.From_entries { fill = got_fill; entries = got; _ }; _ }; _ } ->
          check_bool
            (Printf.sprintf "fill %h bits" fill)
            true
            (bits got_fill = bits fill);
          check_int "entry count" (Array.length values) (Array.length got);
          Array.iteri
            (fun k (coords, v) ->
              check_bool (Printf.sprintf "entry %d coords" k) true (coords = [| k |]);
              check_bool
                (Printf.sprintf "entry %d: %h bits" k values.(k))
                true
                (bits v = bits values.(k)))
            got
      | Ok _ -> Alcotest.fail "bind decoded to the wrong request"
      | Error e -> Alcotest.fail e)
    [ 0.0; -0.0; infinity; neg_infinity; Float.nan; 5e-324 ];
  (* Grisu2 text: shortest digits in nearly every case; 1e23 sits on a
     rounding boundary, which Grisu2 keeps off, so it takes 16 digits. *)
  List.iter
    (fun (v, text) -> check_string (Printf.sprintf "%h prints" v) text (float_text v))
    [
      (0.1, "0.1");
      (5e-324, "5e-324");
      (1e23, "9.999999999999999e22");
      (-0.0, "-0");
      (Float.max_float, "1.7976931348623157e308");
      (Float.ldexp 1.0 53 +. 2.0, "9007199254740994");
      (1e-5, "1e-5");
      (0.0001, "0.0001");
      (1e17, "1e17");
      (infinity, {|"inf"|});
    ];
  check_bool "a string cell that is not a float is rejected" true
    (Result.is_error
       (P.decode_request
          {|{"op":"bind","name":"V","dims":[2],"entries":[[0,"infinity"]]}|}));
  check_bool "a coordinate must be a number" true
    (Result.is_error
       (P.decode_request
          {|{"op":"bind","name":"V","dims":[2],"entries":[["inf",1]]}|}))

(* ------------------------------------------------------------------ *)
(* Daemon harness                                                      *)
(* ------------------------------------------------------------------ *)

let temp_socket () =
  let path = Filename.temp_file "galley_serve" ".sock" in
  Sys.remove path;
  path

let with_server ?(cfg = fun c -> c) (f : string -> S.t -> unit) : unit =
  let sock = temp_socket () in
  let server = S.create (cfg (S.default_config ~socket_path:sock)) in
  S.start server;
  Fun.protect
    ~finally:(fun () ->
      S.request_drain server;
      S.wait server;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () -> f sock server)

let rpc_ok sock line =
  match C.rpc ~retries:5 ~socket:sock line with
  | Error e -> Alcotest.failf "rpc failed: %s" e
  | Ok resp -> (
      match Json.parse resp with
      | Error e -> Alcotest.failf "bad response %s: %s" resp e
      | Ok json -> json)

let is_ok json =
  match Option.bind (Json.member "ok" json) Json.to_bool with
  | Some b -> b
  | None -> false

let error_kind json =
  Option.bind (Json.member "error" json) (fun e ->
      Option.bind (Json.member "kind" e) Json.to_string)

(* Extract output [name]'s entries from a response: (coords, value) list. *)
let entries_of json name =
  let outputs =
    Option.value ~default:[]
      (Option.bind (Json.member "outputs" json) Json.to_list)
  in
  match
    List.find_opt
      (fun o ->
        Option.bind (Json.member "name" o) Json.to_string = Some name)
      outputs
  with
  | None -> Alcotest.failf "response has no output %S" name
  | Some o ->
      let rows =
        Option.value ~default:[]
          (Option.bind (Json.member "entries" o) Json.to_list)
      in
      List.map
        (fun row ->
          let cells =
            List.filter_map Json.to_float
              (Option.value ~default:[] (Json.to_list row))
          in
          let n = List.length cells in
          ( Array.of_list
              (List.map int_of_float (List.filteri (fun i _ -> i < n - 1) cells)),
            List.nth cells (n - 1) ))
        rows

(* Output [name]'s fill and entries from a response, non-finite values
   included. *)
let output_of_response json name : float * (int array * float) array =
  let outputs =
    Option.value ~default:[]
      (Option.bind (Json.member "outputs" json) Json.to_list)
  in
  match
    List.find_opt
      (fun o -> Option.bind (Json.member "name" o) Json.to_string = Some name)
      outputs
  with
  | None -> Alcotest.failf "response has no output %S" name
  | Some o ->
      let fill =
        match Option.bind (Json.member "fill" o) P.float_of_json with
        | Some f -> f
        | None -> Alcotest.failf "output %S has no fill" name
      in
      let dims =
        List.length
          (Option.value ~default:[] (Option.bind (Json.member "dims" o) Json.to_list))
      in
      let entries =
        match Json.member "entries" o with
        | None -> Alcotest.failf "output %S has no entries" name
        | Some e -> (
            match P.decode_entries ~ndims:dims e with
            | Ok entries -> entries
            | Error e -> Alcotest.fail e)
      in
      (fill, entries)

(* Served results must be BIT-identical to a batch run: same coords,
   float equality, not approximate. *)
let check_matches_batch ~msg json name (expected : (int array * float) array)
    =
  let got = entries_of json name in
  check_int (msg ^ ": entry count") (Array.length expected) (List.length got);
  List.iteri
    (fun i (coords, v) ->
      let ec, ev = expected.(i) in
      check_bool
        (Printf.sprintf "%s: entry %d coords" msg i)
        true (coords = ec);
      check_bool
        (Printf.sprintf "%s: entry %d value bit-identical" msg i)
        true (v = ev))
    got

let spec_e = "40x40:0.08:11"
let spec_x = "40:0.5:12"
let soak_src = "y[i] = sum[j](E[i,j] * x[j])"

let batch_expected () =
  let e = Result.get_ok (P.random_of_spec spec_e) in
  let x = Result.get_ok (P.random_of_spec spec_x) in
  let program = Galley_lang.Parser.parse_program soak_src in
  let res = D.run ~inputs:[ ("E", e); ("x", x) ] program in
  T.to_coo (D.output_of res "y")

(* ------------------------------------------------------------------ *)
(* Daemon tests                                                        *)
(* ------------------------------------------------------------------ *)

let test_bind_query_roundtrip () =
  with_server (fun sock _ ->
      let expected = batch_expected () in
      check_bool "bind E ok" true
        (is_ok (rpc_ok sock (P.encode_bind_random ~name:"E" spec_e)));
      check_bool "bind x ok" true
        (is_ok (rpc_ok sock (P.encode_bind_random ~name:"x" spec_x)));
      let resp = rpc_ok sock (P.encode_query ~id:"rt" soak_src) in
      check_bool "query ok" true (is_ok resp);
      check_matches_batch ~msg:"round-trip" resp "y" expected)

(* Bellman-Ford (min-plus, fill = +inf) served from the example program:
   the inputs' +inf fill must survive the bind, and the served distances
   must match a batch fixpoint run bit for bit, fill included. *)
let test_bellman_ford_serve_matches_batch () =
  let src = In_channel.with_open_bin "../examples/bellman_ford.gly" In_channel.input_all in
  let g =
    Galley_workloads.Graphs.symmetrize
      (Galley_workloads.Graphs.power_law ~seed:5 ~n:80 ~m:240 ())
  in
  let source = fst g.Galley_workloads.Graphs.edges.(0) in
  (* The tensors as the server builds them from the wire. *)
  let inputs =
    List.map
      (fun (name, t) ->
        let dims = T.dims t in
        (name, T.of_coo ~fill:(T.fill t) ~dims ~formats:(P.default_formats dims) (T.to_coo t)))
      (Galley_workloads.Iterative.bellman_inputs g ~source)
  in
  let batch =
    match Galley_fixpoint.Fixpoint.run_source_checked ~inputs src with
    | Ok (r, _) -> D.output_of r "D"
    | Error e -> Alcotest.fail (Galley.Errors.to_string e)
  in
  check_bool "batch fill is +inf" true (T.fill batch = infinity);
  with_server (fun sock _ ->
      List.iter
        (fun (name, t) ->
          check_bool ("bind " ^ name) true
            (is_ok
               (rpc_ok sock
                  (P.encode_bind_entries ~name ~dims:(T.dims t) ~fill:(T.fill t)
                     (T.to_coo t)))))
        inputs;
      let resp = rpc_ok sock (P.encode_query ~id:"bf" src) in
      check_bool "query ok" true (is_ok resp);
      let fill, entries = output_of_response resp "D" in
      check_bool "served fill bit-identical" true (bits fill = bits (T.fill batch));
      let want = T.to_coo batch in
      check_int "entry count" (Array.length want) (Array.length entries);
      check_bool "reaches past the source" true (Array.length want > 1);
      Array.iteri
        (fun k (coords, v) ->
          let wc, wv = want.(k) in
          check_bool (Printf.sprintf "entry %d coords" k) true (coords = wc);
          check_bool (Printf.sprintf "entry %d bits" k) true (bits v = bits wv))
        entries)

let cache_field json cache field =
  Option.bind (Json.member cache json) (fun c ->
      Option.map int_of_float (Option.bind (Json.member field c) Json.to_float))

let test_warm_cache_replay () =
  with_server (fun sock _ ->
      ignore (rpc_ok sock (P.encode_bind_random ~name:"E" spec_e));
      ignore (rpc_ok sock (P.encode_bind_random ~name:"x" spec_x));
      let r1 = rpc_ok sock (P.encode_query soak_src) in
      let r2 = rpc_ok sock (P.encode_query soak_src) in
      check_bool "cold ok" true (is_ok r1);
      check_bool "warm ok" true (is_ok r2);
      let compiles r = Option.get (cache_field r "cache" "compile_count") in
      let cse r = Option.get (cache_field r "cache" "cse_hits") in
      check_bool "cold run compiled" true (compiles r1 >= 1);
      check_int "warm run compiled nothing" 0 (compiles r2);
      check_bool "warm run replayed from CSE" true (cse r2 >= 1))

let test_concurrent_soak () =
  with_server (fun sock _ ->
      let expected = batch_expected () in
      ignore (rpc_ok sock (P.encode_bind_random ~name:"E" spec_e));
      ignore (rpc_ok sock (P.encode_bind_random ~name:"x" spec_x));
      let clients = 4 and per_client = 6 in
      let failures = Queue.create () in
      let fail_mutex = Mutex.create () in
      let worker c =
        match C.connect ~retries:10 sock with
        | Error e ->
            Mutex.lock fail_mutex;
            Queue.push (Printf.sprintf "client %d: %s" c e) failures;
            Mutex.unlock fail_mutex
        | Ok conn ->
            Fun.protect
              ~finally:(fun () -> C.close conn)
              (fun () ->
                for q = 1 to per_client do
                  let id = Printf.sprintf "c%d-q%d" c q in
                  match C.request conn (P.encode_query ~id soak_src) with
                  | Error e ->
                      Mutex.lock fail_mutex;
                      Queue.push (id ^ ": " ^ e) failures;
                      Mutex.unlock fail_mutex
                  | Ok resp -> (
                      match Json.parse resp with
                      | Ok json when is_ok json -> (
                          match
                            check_matches_batch ~msg:id json "y" expected
                          with
                          | () -> ()
                          | exception exn ->
                              Mutex.lock fail_mutex;
                              Queue.push (id ^ ": " ^ Printexc.to_string exn)
                                failures;
                              Mutex.unlock fail_mutex)
                      | _ ->
                          Mutex.lock fail_mutex;
                          Queue.push (id ^ ": not ok: " ^ resp) failures;
                          Mutex.unlock fail_mutex)
                done)
      in
      let threads =
        List.init clients (fun c -> Thread.create worker (c + 1))
      in
      List.iter Thread.join threads;
      if not (Queue.is_empty failures) then
        Alcotest.failf "soak failures:\n%s"
          (String.concat "\n" (List.of_seq (Queue.to_seq failures)));
      (* The daemon survived 24 concurrent requests and still answers. *)
      let health = rpc_ok sock (P.encode_health ()) in
      check_bool "health after soak" true (is_ok health))

let test_queue_full_shed () =
  (* Capacity 1 + slow optimizer: concurrent submissions overflow the
     queue and at least one gets the structured queue_full rejection;
     once the flood passes, the daemon accepts work again. *)
  with_server
    ~cfg:(fun c ->
      {
        c with
        S.queue_capacity = 1;
        driver =
          {
            D.default_config with
            faults =
              Result.get_ok (Galley.Faults.of_spec "opt-delay=0.02");
          };
      })
    (fun sock _ ->
      ignore (rpc_ok sock (P.encode_bind_random ~name:"E" spec_e));
      ignore (rpc_ok sock (P.encode_bind_random ~name:"x" spec_x));
      let kinds = Queue.create () in
      let k_mutex = Mutex.create () in
      let fire i =
        let json =
          rpc_ok sock (P.encode_query ~id:(string_of_int i) soak_src)
        in
        let kind =
          if is_ok json then "ok"
          else Option.value ~default:"?" (error_kind json)
        in
        Mutex.lock k_mutex;
        Queue.push kind kinds;
        Mutex.unlock k_mutex
      in
      let threads = List.init 8 (fun i -> Thread.create fire i) in
      List.iter Thread.join threads;
      let kinds = List.of_seq (Queue.to_seq kinds) in
      check_bool
        ("at least one queue_full rejection in: "
        ^ String.concat "," kinds)
        true
        (List.mem "queue_full" kinds);
      check_bool "some requests still succeeded" true (List.mem "ok" kinds);
      (* load shedding is temporary: the next request goes through *)
      check_bool "accepts again after flood" true
        (is_ok (rpc_ok sock (P.encode_query ~id:"after" soak_src))))

let test_deadline_reject () =
  with_server
    ~cfg:(fun c ->
      {
        c with
        driver =
          {
            D.default_config with
            faults =
              Result.get_ok (Galley.Faults.of_spec "opt-delay=0.02");
          };
      })
    (fun sock _ ->
      ignore (rpc_ok sock (P.encode_bind_random ~name:"E" spec_e));
      ignore (rpc_ok sock (P.encode_bind_random ~name:"x" spec_x));
      (* Occupy the executor with a batch query, then submit one whose
         1ms budget is certain to be spent queueing behind it.  The
         executor observes a query's queue wait as it takes the query,
         so a new [serve.queue_wait_us] sample means the slow query
         holds the executor and its 20ms optimizer delay lies ahead. *)
      let module M = Galley_obs.Metrics in
      let waits = M.histogram "serve.queue_wait_us" in
      let taken = M.histogram_count waits in
      let slow =
        Thread.create (fun () -> ignore (rpc_ok sock (P.encode_query soak_src))) ()
      in
      let give_up = Unix.gettimeofday () +. 10.0 in
      while M.histogram_count waits = taken do
        if Unix.gettimeofday () > give_up then
          Alcotest.fail "slow query never reached the executor";
        Thread.delay 0.0005
      done;
      let json =
        rpc_ok sock (P.encode_query ~id:"tight" ~budget_ms:1.0 soak_src)
      in
      Thread.join slow;
      check_bool "rejected" true (not (is_ok json));
      check_string "deadline kind" "deadline"
        (Option.value ~default:"?" (error_kind json)))

let test_fault_isolation () =
  (* serve-kill=2 kills the second admitted query mid-request: it must
     answer with a structured error while queries 1 and 3 succeed and
     the daemon keeps serving. *)
  with_server
    ~cfg:(fun c ->
      {
        c with
        driver =
          {
            D.default_config with
            faults = Result.get_ok (Galley.Faults.of_spec "serve-kill=2");
          };
      })
    (fun sock _ ->
      ignore (rpc_ok sock (P.encode_bind_random ~name:"E" spec_e));
      ignore (rpc_ok sock (P.encode_bind_random ~name:"x" spec_x));
      let r1 = rpc_ok sock (P.encode_query ~id:"1" soak_src) in
      let r2 = rpc_ok sock (P.encode_query ~id:"2" soak_src) in
      let r3 = rpc_ok sock (P.encode_query ~id:"3" soak_src) in
      check_bool "query 1 ok" true (is_ok r1);
      check_bool "query 2 killed" true (not (is_ok r2));
      check_string "query 2 kind" "injected_fault"
        (Option.value ~default:"?" (error_kind r2));
      check_bool "query 3 unaffected" true (is_ok r3);
      check_bool "daemon healthy" true (is_ok (rpc_ok sock (P.encode_health ()))))

let test_accept_fault_isolation () =
  with_server
    ~cfg:(fun c ->
      {
        c with
        driver =
          {
            D.default_config with
            faults =
              Result.get_ok (Galley.Faults.of_spec "serve-accept-fail=1");
          };
      })
    (fun sock _ ->
      (* First connection is dropped by the injected accept failure... *)
      (match C.rpc ~retries:5 ~socket:sock (P.encode_health ()) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "first connection should have been dropped");
      (* ...and the daemon keeps serving later connections. *)
      check_bool "second connection serves" true
        (is_ok (rpc_ok sock (P.encode_health ()))))

let test_drain_completes_inflight () =
  let sock = temp_socket () in
  let server =
    S.create
      {
        (S.default_config ~socket_path:sock) with
        S.driver =
          {
            D.default_config with
            faults = Result.get_ok (Galley.Faults.of_spec "opt-delay=0.01");
          };
      }
  in
  S.start server;
  ignore (rpc_ok sock (P.encode_bind_random ~name:"E" spec_e));
  ignore (rpc_ok sock (P.encode_bind_random ~name:"x" spec_x));
  let inflight_resp = ref None in
  let inflight =
    Thread.create
      (fun () ->
        inflight_resp := Some (rpc_ok sock (P.encode_query ~id:"inflight" soak_src)))
      ()
  in
  Thread.delay 0.005;
  S.request_drain server;
  S.wait server;
  Thread.join inflight;
  (match !inflight_resp with
  | Some json -> check_bool "in-flight request completed ok" true (is_ok json)
  | None -> Alcotest.fail "in-flight request got no response");
  check_bool "socket unlinked after drain" true (not (Sys.file_exists sock));
  (* new connections are refused once drained *)
  match C.rpc ~socket:sock (P.encode_health ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "drained server accepted a connection"

let test_shutdown_request_drains () =
  let sock = temp_socket () in
  let server = S.create (S.default_config ~socket_path:sock) in
  S.start server;
  let ack = rpc_ok sock (P.encode_shutdown ~id:"bye" ()) in
  check_bool "shutdown acked" true (is_ok ack);
  S.wait server;
  check_bool "socket unlinked" true (not (Sys.file_exists sock))

let test_health_and_metrics () =
  with_server (fun sock _ ->
      ignore (rpc_ok sock (P.encode_bind_random ~name:"E" spec_e));
      let h = rpc_ok sock (P.encode_health ()) in
      check_bool "health ok" true (is_ok h);
      check_string "serving" "serving"
        (Option.value ~default:"?"
           (Option.bind (Json.member "status" h) Json.to_string));
      check_int "one resident tensor" 1
        (Option.get
           (Option.map int_of_float
              (Option.bind (Json.member "resident_tensors" h) Json.to_float)));
      let m = rpc_ok sock (P.encode_metrics ()) in
      check_bool "metrics ok" true (is_ok m);
      (* the latency histogram percentiles are part of the dump *)
      match Json.member "metrics" m with
      | Some metrics ->
          check_bool "latency p99 present" true
            (Json.member "serve.request_latency_us.p99" metrics <> None)
      | None -> Alcotest.fail "metrics response has no registry dump")

(* ------------------------------------------------------------------ *)
(* Observability over the wire (PR 9)                                   *)
(* ------------------------------------------------------------------ *)

let test_prometheus_over_wire () =
  with_server (fun sock _ ->
      ignore (rpc_ok sock (P.encode_bind_random ~name:"E" spec_e));
      ignore (rpc_ok sock (P.encode_bind_random ~name:"x" spec_x));
      ignore (rpc_ok sock (P.encode_query ~id:"warm" soak_src));
      let m = rpc_ok sock (P.encode_metrics ~prometheus:true ()) in
      check_bool "prometheus metrics ok" true (is_ok m);
      check_string "format tagged" "prometheus"
        (Option.value ~default:"?"
           (Option.bind (Json.member "format" m) Json.to_string));
      let text =
        match Option.bind (Json.member "metrics" m) Json.to_string with
        | Some t -> t
        | None -> Alcotest.fail "metrics field is not a string"
      in
      let has needle =
        let n = String.length needle and l = String.length text in
        let rec go i =
          i + n <= l && (String.sub text i n = needle || go (i + 1))
        in
        go 0
      in
      check_bool "latency histogram exported" true
        (has "# TYPE galley_serve_request_latency_us histogram");
      check_bool "cumulative +Inf bucket present" true
        (has "galley_serve_request_latency_us_bucket{le=\"+Inf\"}");
      check_bool "flight records counter exported" true
        (has "galley_flight_records");
      (* exposition text, not JSON: no unescaped braces-as-objects *)
      check_bool "nonempty" true (String.length text > 100))

let test_shed_requests_not_in_latency () =
  let module M = Galley_obs.Metrics in
  with_server
    ~cfg:(fun c ->
      {
        c with
        driver =
          {
            D.default_config with
            faults =
              Result.get_ok (Galley.Faults.of_spec "opt-delay=0.02");
          };
      })
    (fun sock _ ->
      ignore (rpc_ok sock (P.encode_bind_random ~name:"E" spec_e));
      ignore (rpc_ok sock (P.encode_bind_random ~name:"x" spec_x));
      let h_ok = M.histogram "serve.request_latency_us" in
      let h_rej = M.histogram "serve.rejection_latency_us" in
      let ok_before = M.histogram_count h_ok in
      let rej_before = M.histogram_count h_rej in
      (* occupy the executor, then submit a request whose 1ms budget is
         certain to be spent queueing *)
      let slow =
        Thread.create
          (fun () -> ignore (rpc_ok sock (P.encode_query ~id:"long" soak_src)))
          ()
      in
      Thread.delay 0.005;
      let json =
        rpc_ok sock (P.encode_query ~id:"tight" ~budget_ms:1.0 soak_src)
      in
      Thread.join slow;
      check_bool "tight rejected" true (not (is_ok json));
      (* survivorship: the shed request lands in the rejection
         histogram, and only the served one in request_latency *)
      check_int "one rejection recorded" (rej_before + 1)
        (M.histogram_count h_rej);
      check_int "shed request absent from request_latency" (ok_before + 1)
        (M.histogram_count h_ok);
      (* the flight recorder kept the shed outcome, visible via debug *)
      let dbg = rpc_ok sock (P.encode_debug ()) in
      check_bool "debug ok" true (is_ok dbg);
      let records =
        Option.value ~default:[]
          (Option.bind (Json.member "records" dbg) Json.to_list)
      in
      let outcome_of id =
        List.find_map
          (fun r ->
            if Option.bind (Json.member "id" r) Json.to_string = Some id then
              Option.bind (Json.member "outcome" r) Json.to_string
            else None)
          records
      in
      check_bool "shed outcome recorded" true
        (outcome_of "tight" = Some "shed:deadline");
      check_bool "served outcome recorded" true (outcome_of "long" = Some "ok"))

let test_debug_fixpoint_over_wire () =
  with_server (fun sock _ ->
      ignore (rpc_ok sock (P.encode_bind_random ~name:"E" spec_e));
      ignore (rpc_ok sock (P.encode_bind_random ~name:"p" spec_x));
      let q =
        rpc_ok sock
          (P.encode_query ~id:"fx" ~values:false
             "p = iterate 3 { p[i] := sum[j](E[i,j] * p[j]) }")
      in
      check_bool "fixpoint query ok" true (is_ok q);
      let dbg = rpc_ok sock (P.encode_debug ~last:2 ()) in
      check_bool "debug ok" true (is_ok dbg);
      let records =
        Option.value ~default:[]
          (Option.bind (Json.member "records" dbg) Json.to_list)
      in
      check_int "last=2 limits the dump" 2 (List.length records);
      let fx =
        match
          List.find_opt
            (fun r ->
              Option.bind (Json.member "id" r) Json.to_string = Some "fx")
            records
        with
        | Some r -> r
        | None -> Alcotest.fail "debug dump has no record for id fx"
      in
      let num k =
        Option.map int_of_float (Option.bind (Json.member k fx) Json.to_float)
      in
      let str k =
        Option.value ~default:"?"
          (Option.bind (Json.member k fx) Json.to_string)
      in
      check_bool "iterations captured" true (num "iterations" = Some 3);
      check_bool "no replans for a fixed-count loop" true
        (num "replans" = Some 0);
      check_string "outcome" "ok" (str "outcome");
      check_int "program digest present" 12 (String.length (str "program"));
      check_int "plan digest present" 12 (String.length (str "plan"));
      check_bool "total latency positive" true
        (match num "total_us" with Some t -> t > 0 | None -> false);
      (* the total lifetime count is also reported *)
      check_bool "total >= 3 requests" true
        (match
           Option.map int_of_float
             (Option.bind (Json.member "total" dbg) Json.to_float)
         with
        | Some t -> t >= 3
        | None -> false))

let test_bind_queue_wait () =
  let module M = Galley_obs.Metrics in
  with_server (fun sock _ ->
      let waits = M.histogram "serve.queue_wait_us" in
      List.iteri
        (fun i (name, spec) ->
          let before = M.histogram_count waits in
          check_bool ("bind " ^ name ^ " ok") true
            (is_ok (rpc_ok sock (P.encode_bind_random ~name spec)));
          check_int
            (Printf.sprintf "bind %d observes its queue wait" (i + 1))
            (before + 1) (M.histogram_count waits))
        [ ("E", spec_e); ("x", spec_x) ])

(* `explain <digest>` answers from the flight ring: provenance lives on
   the records of the last [flight_capacity] requests, so it follows
   them out of the window, and a repeated plan answers with its newest
   request. *)
let test_explain_flight_window () =
  with_server
    ~cfg:(fun c -> { c with S.flight_capacity = 2; provenance = true })
    (fun sock _ ->
      ignore (rpc_ok sock (P.encode_bind_random ~name:"E" spec_e));
      ignore (rpc_ok sock (P.encode_bind_random ~name:"x" spec_x));
      let query id src =
        check_bool ("query " ^ id ^ " ok") true
          (is_ok (rpc_ok sock (P.encode_query ~id ~values:false src)));
        let records =
          Option.value ~default:[]
            (Option.bind
               (Json.member "records" (rpc_ok sock (P.encode_debug ())))
               Json.to_list)
        in
        match
          List.find_map
            (fun r ->
              if Option.bind (Json.member "id" r) Json.to_string = Some id then
                Option.bind (Json.member "plan" r) Json.to_string
              else None)
            records
        with
        | Some plan -> plan
        | None -> Alcotest.failf "no flight record with a plan for %s" id
      in
      let explain digest = rpc_ok sock (P.encode_explain ~digest ()) in
      let rid_of json =
        Option.bind (Json.member "provenance" json) (fun p ->
            Option.bind (Json.member "rid" p) Json.to_string)
      in
      let src_b = "z[j] = sum[i](E[i,j] * x[i])" in
      let pa = query "a" soak_src in
      let pb = query "b" src_b in
      check_bool "b's provenance answers" true (rid_of (explain pb) = Some "b");
      let pc = query "c" "s = sum[i,j](E[i,j])" in
      check_bool "three distinct plans" true (pa <> pb && pb <> pc && pa <> pc);
      let miss = explain pa in
      check_bool "first plan left the window" true
        (error_kind miss = Some "not_found");
      check_bool "c answers" true (rid_of (explain pc) = Some "c");
      check_string "a repeated program repeats its plan" pb (query "b2" src_b);
      check_bool "a repeated plan answers with its newest request" true
        (rid_of (explain pb) = Some "b2"));
  Galley_plan.Provenance.disable ()

let () =
  Alcotest.run "serve"
    [
      ( "units",
        [
          Alcotest.test_case "lru eviction order and counter" `Quick
            test_lru_eviction;
          Alcotest.test_case "budget to tier mapping" `Quick
            test_tier_of_budget;
          Alcotest.test_case "protocol round-trip" `Quick
            test_protocol_roundtrip;
          Alcotest.test_case "non-finite and subnormal floats round-trip"
            `Quick test_float_wire_roundtrip;
          QCheck_alcotest.to_alcotest prop_float_text_roundtrip;
          Alcotest.test_case "result entries match the to_coo encoder" `Quick
            test_result_encoder_differential;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "bind+query matches batch bit-identically"
            `Quick test_bind_query_roundtrip;
          Alcotest.test_case "warm cache replays without compiling" `Quick
            test_warm_cache_replay;
          Alcotest.test_case "concurrent soak, 4 clients" `Quick
            test_concurrent_soak;
          Alcotest.test_case "queue-full load shedding" `Quick
            test_queue_full_shed;
          Alcotest.test_case "deadline spent queueing rejects" `Quick
            test_deadline_reject;
          Alcotest.test_case "injected kill isolates to its request" `Quick
            test_fault_isolation;
          Alcotest.test_case "injected accept failure isolates" `Quick
            test_accept_fault_isolation;
          Alcotest.test_case "drain completes in-flight work" `Quick
            test_drain_completes_inflight;
          Alcotest.test_case "shutdown request drains" `Quick
            test_shutdown_request_drains;
          Alcotest.test_case "health and metrics commands" `Quick
            test_health_and_metrics;
          Alcotest.test_case "served Bellman-Ford matches batch bit-identically"
            `Quick test_bellman_ford_serve_matches_batch;
        ] );
      ( "observability",
        [
          Alcotest.test_case "prometheus exposition over the wire" `Quick
            test_prometheus_over_wire;
          Alcotest.test_case "shed requests use the rejection histogram"
            `Quick test_shed_requests_not_in_latency;
          Alcotest.test_case "debug op reports fixpoint flight records"
            `Quick test_debug_fixpoint_over_wire;
          Alcotest.test_case "bind requests feed the queue-wait histogram"
            `Quick test_bind_queue_wait;
          Alcotest.test_case "explain reads the flight window" `Quick
            test_explain_flight_window;
        ] );
    ]
