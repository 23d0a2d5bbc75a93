(* Wire protocol for `galley serve`: line-delimited JSON over a Unix
   domain socket.  One request object per line in, one response object
   per line out, strictly in order per connection.

   The protocol reuses the repo's dependency-free JSON reader
   ([Galley_obs.Json]) for decoding and hand-built writers (via
   [Metrics.json_escape]) for encoding, mirroring every other
   serialization seam in the tree.  Floats print with
   [Galley_tensor.Float_text], a Grisu2 printer whose text reads back
   to the same double, so values round-trip bit-identically through the
   socket: the soak test compares served results against batch
   [Driver.run] outputs for float equality, not approximate equality.
   JSON has no number for inf or NaN, so non-finite values travel as the
   strings "inf", "-inf" and "nan" (a NaN other than [Float.nan] as
   "nan:0x<64-bit pattern>"); entry values and fills accept them.
   Result entries are written straight from the output tensor, one
   scratch line per entry, with no coordinate/value pair built.

   Requests:
     {"op":"query","src":"<program>","id"?,"budget_ms"?,"values"?,
      "max_entries"?}
     {"op":"bind","name":"E","random":"100x100:0.01:42"}         — or —
     {"op":"bind","name":"E","path":"data.coo"}                  — or —
     {"op":"bind","name":"E","dims":[2,2],"fill"?,"entries":[[i,j,v],..]}
     {"op":"health"} | {"op":"metrics","prometheus"?} | {"op":"shutdown"}
     {"op":"debug","last"?}   — flight-recorder dump (newest [last] records)

   Responses always carry "ok" plus the echoed "id" (when sent), and on
   failure an "error" object {"kind","message","phase"?} whose kinds
   cover both the driver taxonomy (parse_error, plan_invalid,
   optimizer_deadline, budget_exceeded, kernel_failure) and the serving
   layer (bad_request, queue_full, draining, deadline, injected_fault,
   internal). *)

module Json = Galley_obs.Json
module Metrics = Galley_obs.Metrics
module T = Galley_tensor.Tensor
module D = Galley.Driver
module Fix = Galley_fixpoint.Fixpoint
module Float_text = Galley_tensor.Float_text

type bind_spec =
  | From_file of string
  | From_random of string (* DIMSxDIMS:density:seed *)
  | From_entries of {
      dims : int array;
      fill : float;
      entries : (int array * float) array;
    }

type request =
  | Query of {
      src : string;
      budget_ms : float option;
      want_values : bool;
      max_entries : int option;
    }
  | Bind of { name : string; spec : bind_spec }
  | Health
  | Metrics_req of { prometheus : bool }
  | Debug_req of { last : int option }
  | Explain_req of { digest : string }
  | Shutdown

type parsed = { req_id : string option; req : request }

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let opt_member key json conv =
  match Json.member key json with
  | None | Some Json.Null -> Ok None
  | Some v -> (
      match conv v with
      | Some x -> Ok (Some x)
      | None -> Error (Printf.sprintf "field %S has the wrong type" key))

let req_member key json conv =
  match opt_member key json conv with
  | Ok (Some x) -> Ok x
  | Ok None -> Error (Printf.sprintf "missing required field %S" key)
  | Error e -> Error e

let ( let* ) = Result.bind

(* A float value on the wire: a JSON number, or one of the strings that
   [buf_float] writes for non-finite values. *)
let float_of_json (v : Json.t) : float option =
  match v with
  | Json.Num f -> Some f
  | Json.Str s -> Float_text.special_of_string s
  | _ -> None

(* Rows [coord, ..., coord, value], in one pass over each row. *)
let decode_entries ~ndims (v : Json.t) :
    ((int array * float) array, string) result =
  match Json.to_list v with
  | None -> Error "field \"entries\" must be an array"
  | Some rows ->
      let out = Array.make (List.length rows) ([||], 0.0) in
      let rec go i = function
        | [] -> Ok out
        | row :: rest -> (
            let coords = Array.make ndims 0 in
            let rec cells k = function
              | [ v ] when k = ndims -> (
                  match float_of_json v with
                  | Some v -> Ok v
                  | None -> Error (Printf.sprintf "entry %d: non-numeric cell" i))
              | Json.Num c :: more when k < ndims ->
                  coords.(k) <- int_of_float c;
                  cells (k + 1) more
              | (Json.Null | Json.Bool _ | Json.Str _) :: _ when k < ndims ->
                  Error (Printf.sprintf "entry %d: non-numeric cell" i)
              | _ ->
                  Error
                    (Printf.sprintf "entry %d: expected [coord × %d, value]" i
                       ndims)
            in
            match Option.map (cells 0) (Json.to_list row) with
            | Some (Ok v) ->
                out.(i) <- (coords, v);
                go (i + 1) rest
            | Some (Error e) -> Error e
            | None ->
                Error
                  (Printf.sprintf "entry %d: expected [coord × %d, value]" i
                     ndims))
      in
      go 0 rows

let decode_bind json =
  let* name = req_member "name" json Json.to_string in
  let path = Json.member "path" json in
  let random = Json.member "random" json in
  let dims = Json.member "dims" json in
  match (path, random, dims) with
  | Some p, None, None -> (
      match Json.to_string p with
      | Some p -> Ok (Bind { name; spec = From_file p })
      | None -> Error "field \"path\" must be a string")
  | None, Some r, None -> (
      match Json.to_string r with
      | Some r -> Ok (Bind { name; spec = From_random r })
      | None -> Error "field \"random\" must be a string")
  | None, None, Some d -> (
      match
        Option.map (List.map Json.to_float) (Json.to_list d)
      with
      | Some dims when dims <> [] && List.for_all Option.is_some dims ->
          let dims =
            Array.of_list (List.map int_of_float (List.filter_map Fun.id dims))
          in
          let* fill =
            Result.map (Option.value ~default:0.0)
              (opt_member "fill" json float_of_json)
          in
          let* entries =
            match Json.member "entries" json with
            | None -> Ok [||]
            | Some e -> decode_entries ~ndims:(Array.length dims) e
          in
          Ok (Bind { name; spec = From_entries { dims; fill; entries } })
      | _ -> Error "field \"dims\" must be a non-empty array of numbers")
  | _ ->
      Error
        "bind needs exactly one of \"path\", \"random\", or \"dims\"(+\"entries\")"

let decode_request (line : string) : (parsed, string) result =
  let* json = Json.parse line in
  let* op = req_member "op" json Json.to_string in
  let* req_id = opt_member "id" json Json.to_string in
  let* req =
    match op with
    | "query" ->
        let* src = req_member "src" json Json.to_string in
        let* budget_ms = opt_member "budget_ms" json Json.to_float in
        let* values = opt_member "values" json Json.to_bool in
        let* max_entries = opt_member "max_entries" json Json.to_float in
        Ok
          (Query
             {
               src;
               budget_ms;
               want_values = Option.value ~default:true values;
               max_entries = Option.map int_of_float max_entries;
             })
    | "bind" -> decode_bind json
    | "health" -> Ok Health
    | "metrics" ->
        let* prometheus = opt_member "prometheus" json Json.to_bool in
        Ok (Metrics_req { prometheus = Option.value ~default:false prometheus })
    | "debug" ->
        let* last = opt_member "last" json Json.to_float in
        Ok (Debug_req { last = Option.map int_of_float last })
    | "explain" ->
        let* digest = req_member "digest" json Json.to_string in
        Ok (Explain_req { digest })
    | "shutdown" -> Ok Shutdown
    | other -> Error (Printf.sprintf "unknown op %S" other)
  in
  Ok { req_id; req }

(* Materialize a bind spec into a tensor (first level dense, the rest
   sparse lists — the same default as the CLI's --random). *)
let default_formats dims =
  Array.init (Array.length dims) (fun k ->
      if k = 0 then T.Dense else T.Sparse_list)

let random_of_spec (spec : string) : (T.t, string) result =
  match String.split_on_char ':' spec with
  | [ dims_s; density_s; seed_s ] -> (
      match
        ( List.map int_of_string_opt (String.split_on_char 'x' dims_s),
          float_of_string_opt density_s,
          int_of_string_opt seed_s )
      with
      | dims, Some density, Some seed when List.for_all Option.is_some dims ->
          let dims = Array.of_list (List.filter_map Fun.id dims) in
          let prng = Galley_tensor.Prng.create seed in
          Ok (T.random ~prng ~dims ~formats:(default_formats dims) ~density ())
      | _ -> Error (Printf.sprintf "bad random spec %S" spec))
  | _ ->
      Error
        (Printf.sprintf "bad random spec %S (want DIMSxDIMS:density:seed)" spec)

let tensor_of_bind (spec : bind_spec) : (T.t, string) result =
  match spec with
  | From_random s -> random_of_spec s
  | From_file path -> (
      match Galley_tensor.Tensor_io.load path with
      | t -> Ok t
      | exception Sys_error m -> Error m
      | exception (Invalid_argument m | Failure m) -> Error m)
  | From_entries { dims; fill; entries } -> (
      match T.of_coo ~fill ~dims ~formats:(default_formats dims) entries with
      | t -> Ok t
      | exception (Invalid_argument m | Failure m) -> Error m)

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let buf_str b s =
  Buffer.add_char b '"';
  Buffer.add_string b (Metrics.json_escape s);
  Buffer.add_char b '"'

(* A float at [pos] of [buf]: a JSON number when finite, else the
   quoted string that [float_of_json] reads back bit for bit. *)
let write_float (buf : Bytes.t) (pos : int) (v : float) : int =
  if Float.is_finite v then Float_text.write buf pos v
  else begin
    Bytes.set buf pos '"';
    let p = Float_text.write buf (pos + 1) v in
    Bytes.set buf p '"';
    p + 1
  end

let buf_float b f =
  let scratch = Bytes.create (Float_text.max_length + 2) in
  Buffer.add_subbytes b scratch 0 (write_float scratch 0 f)

(* Entry rows [c0,...,v] joined by commas, each laid out in one scratch
   line and appended at once. *)
type entry_writer = { b : Buffer.t; line : Bytes.t; mutable count : int }

(* Longest row of [ndims] coordinates: 20 characters and a comma per
   coordinate, the float, brackets and the separating comma. *)
let line_length ndims = (ndims * 21) + Float_text.max_length + 8

let entry_writer b ~ndims =
  { b; line = Bytes.create (line_length ndims); count = 0 }

let add_entry (w : entry_writer) (coords : int array) (v : float) : unit =
  let line = w.line in
  let p = ref 0 in
  if w.count > 0 then begin
    Bytes.set line 0 ',';
    p := 1
  end;
  Bytes.set line !p '[';
  incr p;
  for d = 0 to Array.length coords - 1 do
    p := Float_text.write_int line !p (Array.unsafe_get coords d);
    Bytes.set line !p ',';
    incr p
  done;
  let p = write_float line !p v in
  Bytes.set line p ']';
  Buffer.add_subbytes w.b line 0 (p + 1);
  w.count <- w.count + 1

exception Entries_full

(* The first [max_entries] non-fill entries of [t], in [T.iter_nonfill]
   order. *)
let buf_entries b (t : T.t) ~max_entries : unit =
  let w = entry_writer b ~ndims:(T.ndims t) in
  (try
     T.iter_nonfill_in_place t (fun coords v ->
         if w.count >= max_entries then raise_notrace Entries_full;
         add_entry w coords v)
   with Entries_full -> ())

let add_id b id =
  match id with
  | Some id ->
      Buffer.add_string b ",\"id\":";
      buf_str b id
  | None -> ()

let error_json ?(id = None) ~kind ?phase ~message () : string =
  let b = Buffer.create 128 in
  Buffer.add_string b "{\"ok\":false";
  add_id b id;
  Buffer.add_string b ",\"error\":{\"kind\":";
  buf_str b kind;
  (match phase with
  | Some p ->
      Buffer.add_string b ",\"phase\":";
      buf_str b p
  | None -> ());
  Buffer.add_string b ",\"message\":";
  buf_str b message;
  Buffer.add_string b "}}";
  Buffer.contents b

(* Map the driver taxonomy onto wire error kinds: the client can branch
   on "kind" without parsing prose.  [kind_of_error] is also the flight
   recorder's "error:<kind>" outcome tag. *)
let kind_and_phase (e : Galley.Errors.t) : string * string option =
  let module E = Galley.Errors in
  match e with
  | E.Parse_error _ -> ("parse_error", Some "parse")
  | E.Plan_invalid { context; _ } ->
      ("plan_invalid", Some (E.phase_to_string context.E.phase))
  | E.Optimizer_deadline { context; _ } ->
      ("optimizer_deadline", Some (E.phase_to_string context.E.phase))
  | E.Budget_exceeded { context; _ } ->
      ("budget_exceeded", Some (E.phase_to_string context.E.phase))
  | E.Kernel_failure { context; _ } ->
      ("kernel_failure", Some (E.phase_to_string context.E.phase))
  | E.Fixpoint_diverged { context; _ } ->
      ("fixpoint_diverged", Some (E.phase_to_string context.E.phase))

let kind_of_error (e : Galley.Errors.t) : string = fst (kind_and_phase e)

let error_of ?(id = None) (e : Galley.Errors.t) : string =
  let kind, phase = kind_and_phase e in
  error_json ~id ~kind ?phase ~message:(Galley.Errors.to_string e) ()

(* Fixpoint execution summary (queries that used `iterate`): iteration
   count, plan switches, and the per-iteration convergence deltas. *)
let buf_fixpoints (b : Buffer.t) (reports : Fix.fix_report list) : unit =
  Buffer.add_string b ",\"fixpoints\":[";
  List.iteri
    (fun i (fr : Fix.fix_report) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"name\":";
      buf_str b fr.Fix.fr_name;
      Buffer.add_string b
        (Printf.sprintf ",\"iterations\":%d,\"converged\":%b,\"replans\":%d"
           fr.Fix.fr_iterations fr.Fix.fr_converged fr.Fix.fr_replans);
      Buffer.add_string b ",\"switch_iters\":[";
      List.iteri
        (fun j it ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b (string_of_int it))
        fr.Fix.fr_switch_iters;
      Buffer.add_string b "],\"deltas\":[";
      List.iteri
        (fun j (it : Fix.iter_stat) ->
          if j > 0 then Buffer.add_char b ',';
          match it.Fix.it_delta with
          | Some d -> buf_float b d
          | None -> Buffer.add_string b "null")
        fr.Fix.fr_iters;
      Buffer.add_string b "],\"switches\":[";
      let first = ref true in
      List.iteri
        (fun j (it : Fix.iter_stat) ->
          match it.Fix.it_switch with
          | None -> ()
          | Some s ->
              if not !first then Buffer.add_char b ',';
              first := false;
              Buffer.add_string b
                (Printf.sprintf "{\"iter\":%d,\"detail\":" (j + 1));
              buf_str b s;
              Buffer.add_char b '}')
        fr.Fix.fr_iters;
      Buffer.add_string b "]}")
    reports;
  Buffer.add_char b ']'

let result_json ?(id = None) ~want_values ~max_entries ?qos_tier ?fixpoints
    (r : D.result) : string =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\"ok\":true";
  add_id b id;
  (match qos_tier with
  | Some t ->
      Buffer.add_string b ",\"qos_tier\":";
      buf_str b (Galley_plan.Tier.to_string t)
  | None -> ());
  Buffer.add_string b ",\"outputs\":[";
  List.iteri
    (fun i (name, idxs, t) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"name\":";
      buf_str b name;
      Buffer.add_string b ",\"idxs\":[";
      List.iteri
        (fun j idx ->
          if j > 0 then Buffer.add_char b ',';
          buf_str b (idx : Galley_plan.Ir.idx))
        idxs;
      Buffer.add_string b "],\"dims\":[";
      Array.iteri
        (fun j d ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b (string_of_int d))
        (T.dims t);
      Buffer.add_string b (Printf.sprintf "],\"nnz\":%d,\"fill\":" (T.nnz t));
      buf_float b (T.fill t);
      if want_values then begin
        Buffer.add_string b ",\"entries\":[";
        buf_entries b t ~max_entries;
        Buffer.add_string b
          (Printf.sprintf "],\"truncated\":%b" (max_entries < T.nnz t))
      end;
      Buffer.add_char b '}')
    r.D.outputs;
  Buffer.add_char b ']';
  (match r.D.incomplete_outputs with
  | [] -> ()
  | missing ->
      Buffer.add_string b ",\"incomplete_outputs\":[";
      List.iteri
        (fun i n ->
          if i > 0 then Buffer.add_char b ',';
          buf_str b n)
        missing;
      Buffer.add_char b ']');
  let tier_list key tiers =
    Buffer.add_string b (Printf.sprintf ",%S:[" key);
    List.iteri
      (fun i (q, tier) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b "[";
        buf_str b q;
        Buffer.add_char b ',';
        buf_str b (Galley_plan.Tier.to_string tier);
        Buffer.add_char b ']')
      tiers;
    Buffer.add_char b ']'
  in
  tier_list "logical_tiers" r.D.logical_tiers;
  tier_list "physical_tiers" r.D.physical_tiers;
  let tm = r.D.timings in
  Buffer.add_string b
    (Printf.sprintf
       ",\"timings\":{\"total_s\":%.6f,\"logical_s\":%.6f,\"physical_s\":%.6f,\"compile_s\":%.6f,\"execute_s\":%.6f}"
       tm.D.total_seconds tm.D.logical_seconds tm.D.physical_seconds
       tm.D.compile_seconds tm.D.execute_seconds);
  Buffer.add_string b
    (Printf.sprintf
       ",\"cache\":{\"compile_count\":%d,\"kernel_count\":%d,\"cse_hits\":%d}"
       tm.D.compile_count tm.D.kernel_count tm.D.cse_hits);
  (match fixpoints with
  | Some (_ :: _ as reports) -> buf_fixpoints b reports
  | Some [] | None -> ());
  Buffer.add_string b (Printf.sprintf ",\"timed_out\":%b}" r.D.timed_out);
  Buffer.contents b

let bound_json ?(id = None) ~name (t : T.t) : string =
  let b = Buffer.create 96 in
  Buffer.add_string b "{\"ok\":true";
  add_id b id;
  Buffer.add_string b ",\"bound\":";
  buf_str b name;
  Buffer.add_string b ",\"dims\":[";
  Array.iteri
    (fun j d ->
      if j > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int d))
    (T.dims t);
  Buffer.add_string b (Printf.sprintf "],\"nnz\":%d}" (T.nnz t));
  Buffer.contents b

(* A small ok response from raw (key, already-encoded-value) pairs; used
   for health / shutdown acks where the values are built by the server. *)
let ok_json ?(id = None) (fields : (string * string) list) : string =
  let b = Buffer.create 128 in
  Buffer.add_string b "{\"ok\":true";
  add_id b id;
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ',';
      buf_str b k;
      Buffer.add_char b ':';
      Buffer.add_string b v)
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Request encoders (client side: CLI, tests, bench)                   *)
(* ------------------------------------------------------------------ *)

let enc_common b ~op ~id =
  Buffer.add_string b "{\"op\":";
  buf_str b op;
  match id with
  | Some id ->
      Buffer.add_string b ",\"id\":";
      buf_str b id
  | None -> ()

let encode_query ?id ?budget_ms ?(values = true) ?max_entries (src : string) :
    string =
  let b = Buffer.create 128 in
  enc_common b ~op:"query" ~id;
  Buffer.add_string b ",\"src\":";
  buf_str b src;
  (match budget_ms with
  | Some ms -> Buffer.add_string b (Printf.sprintf ",\"budget_ms\":%.6g" ms)
  | None -> ());
  if not values then Buffer.add_string b ",\"values\":false";
  (match max_entries with
  | Some n -> Buffer.add_string b (Printf.sprintf ",\"max_entries\":%d" n)
  | None -> ());
  Buffer.add_char b '}';
  Buffer.contents b

let encode_bind_random ?id ~name (spec : string) : string =
  let b = Buffer.create 96 in
  enc_common b ~op:"bind" ~id;
  Buffer.add_string b ",\"name\":";
  buf_str b name;
  Buffer.add_string b ",\"random\":";
  buf_str b spec;
  Buffer.add_char b '}';
  Buffer.contents b

let encode_bind_file ?id ~name (path : string) : string =
  let b = Buffer.create 96 in
  enc_common b ~op:"bind" ~id;
  Buffer.add_string b ",\"name\":";
  buf_str b name;
  Buffer.add_string b ",\"path\":";
  buf_str b path;
  Buffer.add_char b '}';
  Buffer.contents b

let encode_bind_entries ?id ~name ~dims ?(fill = 0.0)
    (entries : (int array * float) array) : string =
  let b = Buffer.create 256 in
  enc_common b ~op:"bind" ~id;
  Buffer.add_string b ",\"name\":";
  buf_str b name;
  Buffer.add_string b ",\"dims\":[";
  Array.iteri
    (fun j d ->
      if j > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int d))
    dims;
  Buffer.add_char b ']';
  if Int64.bits_of_float fill <> 0L then begin
    Buffer.add_string b ",\"fill\":";
    buf_float b fill
  end;
  Buffer.add_string b ",\"entries\":[";
  (* Sized for the widest row: a row of the wrong arity is the
     server's to reject. *)
  let ndims =
    Array.fold_left
      (fun m (coords, _) -> max m (Array.length coords))
      (Array.length dims) entries
  in
  let w = entry_writer b ~ndims in
  Array.iter (fun (coords, v) -> add_entry w coords v) entries;
  Buffer.add_string b "]}";
  Buffer.contents b

let encode_simple ?id (op : string) : string =
  let b = Buffer.create 32 in
  enc_common b ~op ~id;
  Buffer.add_char b '}';
  Buffer.contents b

let encode_health ?id () = encode_simple ?id "health"

let encode_metrics ?id ?(prometheus = false) () =
  if not prometheus then encode_simple ?id "metrics"
  else begin
    let b = Buffer.create 48 in
    enc_common b ~op:"metrics" ~id;
    Buffer.add_string b ",\"prometheus\":true}";
    Buffer.contents b
  end

let encode_debug ?id ?last () =
  let b = Buffer.create 48 in
  enc_common b ~op:"debug" ~id;
  (match last with
  | Some n -> Buffer.add_string b (Printf.sprintf ",\"last\":%d" n)
  | None -> ());
  Buffer.add_char b '}';
  Buffer.contents b

let encode_explain ?id ~digest () =
  let b = Buffer.create 64 in
  enc_common b ~op:"explain" ~id;
  Buffer.add_string b ",\"digest\":";
  buf_str b digest;
  Buffer.add_char b '}';
  Buffer.contents b

let encode_shutdown ?id () = encode_simple ?id "shutdown"
