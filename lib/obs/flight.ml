(* Flight recorder: a fixed-size ring buffer of structured per-request
   records (DESIGN.md "Continuous telemetry").

   Every request served by the daemon leaves one bounded-size record —
   request id, program/plan digests, QoS tier and the rung actually
   served, per-phase latency breakdown, cache hits, fixpoint
   iteration/replan counts, estimator q-errors, the outcome, and the
   request's optimizer provenance — so an operator can always answer
   "what were the last N queries and what did the optimizer do to
   them", even after the interesting request is long gone.  The daemon
   starts the record when it takes a request and fills it in as the
   request progresses; [note] seals it into the ring.  Recording is a
   record allocation plus a mutex-guarded array store; the ring never
   grows, so the recorder is safe to leave on in production.
   [write_jsonl] dumps the ring (oldest first) for incident files and
   the `galley debug` command. *)

type record = {
  mutable fl_seq : int;  (* monotonic per-recorder ordinal, assigned by [note] *)
  mutable fl_ts_us : int;  (* completion time, microseconds since process start *)
  fl_id : string;  (* request id (client-sent or server-assigned) *)
  fl_op : string;  (* "query" | "bind" | ... *)
  mutable fl_outcome : string;  (* "ok" | "error:<kind>" | "shed:<kind>" *)
  fl_program : string;  (* program source digest (md5 prefix) *)
  mutable fl_plan : string;  (* physical plan digest; "" when none was built *)
  mutable fl_qos : string;  (* requested tier ("batch" when unbudgeted) *)
  mutable fl_rung : string;  (* worst optimizer tier actually served; "" if none *)
  mutable fl_queue_us : int;  (* time spent in the admission queue *)
  mutable fl_logical_us : int;
  mutable fl_physical_us : int;
  mutable fl_compile_us : int;
  mutable fl_execute_us : int;
  mutable fl_total_us : int;  (* arrival-to-response latency *)
  mutable fl_compiles : int;  (* cold kernel compiles (0 = fully warm) *)
  mutable fl_kernels : int;  (* kernels run *)
  mutable fl_cse_hits : int;
  mutable fl_replans : int;  (* fixpoint plan switches in this request *)
  mutable fl_iterations : int;  (* fixpoint iterations (0 for straight-line) *)
  mutable fl_qerrors : (string * float) list;  (* estimator -> geo-mean q-error *)
  mutable fl_trace : string;  (* retained trace name ("" = trace sampled away) *)
  mutable fl_provenance : string;
      (* drained optimizer provenance as JSON ("" = none); served by
         `explain <plan digest>`, never written by [to_json] *)
}

let empty_record ~id ~op =
  {
    fl_seq = 0;
    fl_ts_us = 0;
    fl_id = id;
    fl_op = op;
    fl_outcome = "ok";
    fl_program = "";
    fl_plan = "";
    fl_qos = "batch";
    fl_rung = "";
    fl_queue_us = 0;
    fl_logical_us = 0;
    fl_physical_us = 0;
    fl_compile_us = 0;
    fl_execute_us = 0;
    fl_total_us = 0;
    fl_compiles = 0;
    fl_kernels = 0;
    fl_cse_hits = 0;
    fl_replans = 0;
    fl_iterations = 0;
    fl_qerrors = [];
    fl_trace = "";
    fl_provenance = "";
  }

(* A 12-hex-char content digest: long enough to correlate, short enough
   to read in a table. *)
let digest (s : string) : string = String.sub (Digest.to_hex (Digest.string s)) 0 12

type t = {
  ring : record option array;
  mutable head : int;  (* next write position *)
  mutable count : int;  (* total records ever noted *)
  mutex : Mutex.t;
}

let m_records = Metrics.counter "flight.records"

let create ~capacity () : t =
  if capacity <= 0 then invalid_arg "Flight.create: capacity must be positive";
  { ring = Array.make capacity None; head = 0; count = 0; mutex = Mutex.create () }

let capacity (t : t) = Array.length t.ring

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Seal one request's record into the ring; assigns the sequence number
   and timestamp.  The caller must not update [r] afterwards. *)
let note (t : t) (r : record) : record =
  locked t (fun () ->
      r.fl_seq <- t.count + 1;
      r.fl_ts_us <- Clock.now_us ();
      t.ring.(t.head) <- Some r;
      t.head <- (t.head + 1) mod Array.length t.ring;
      t.count <- t.count + 1;
      Metrics.incr m_records;
      r)

(* All retained records, oldest first. *)
let records (t : t) : record list =
  locked t (fun () ->
      let n = Array.length t.ring in
      let out = ref [] in
      for i = 1 to n do
        (* walk backwards from the newest slot, collecting into [out] *)
        match t.ring.((t.head - i + (2 * n)) mod n) with
        | Some r -> out := r :: !out
        | None -> ()
      done;
      !out)

let total (t : t) = locked t (fun () -> t.count)

let clear (t : t) =
  locked t (fun () ->
      Array.fill t.ring 0 (Array.length t.ring) None;
      t.head <- 0)

(* One record as a single-line JSON object (JSONL-friendly). *)
let to_json (r : record) : string =
  let b = Buffer.create 256 in
  let str k v =
    Buffer.add_string b (Printf.sprintf "\"%s\":\"%s\"" k (Metrics.json_escape v))
  in
  let int k v = Buffer.add_string b (Printf.sprintf "\"%s\":%d" k v) in
  let comma () = Buffer.add_char b ',' in
  Buffer.add_char b '{';
  int "seq" r.fl_seq;
  comma ();
  int "ts_us" r.fl_ts_us;
  comma ();
  str "id" r.fl_id;
  comma ();
  str "op" r.fl_op;
  comma ();
  str "outcome" r.fl_outcome;
  comma ();
  str "program" r.fl_program;
  comma ();
  str "plan" r.fl_plan;
  comma ();
  str "qos" r.fl_qos;
  comma ();
  str "rung" r.fl_rung;
  comma ();
  int "queue_us" r.fl_queue_us;
  comma ();
  int "logical_us" r.fl_logical_us;
  comma ();
  int "physical_us" r.fl_physical_us;
  comma ();
  int "compile_us" r.fl_compile_us;
  comma ();
  int "execute_us" r.fl_execute_us;
  comma ();
  int "total_us" r.fl_total_us;
  comma ();
  int "compiles" r.fl_compiles;
  comma ();
  int "kernels" r.fl_kernels;
  comma ();
  int "cse_hits" r.fl_cse_hits;
  comma ();
  int "replans" r.fl_replans;
  comma ();
  int "iterations" r.fl_iterations;
  comma ();
  Buffer.add_string b "\"qerrors\":{";
  List.iteri
    (fun i (est, q) ->
      if i > 0 then comma ();
      Buffer.add_string b
        (Printf.sprintf "\"%s\":%s" (Metrics.json_escape est)
           (if Float.is_finite q then Printf.sprintf "%.4g" q else "null")))
    r.fl_qerrors;
  Buffer.add_string b "},";
  str "trace" r.fl_trace;
  Buffer.add_char b '}';
  Buffer.contents b

(* Dump the ring as JSONL, oldest record first; returns the record count. *)
let write_jsonl (t : t) (path : string) : int =
  let rs = records t in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun r ->
          output_string oc (to_json r);
          output_char oc '\n')
        rs);
  List.length rs
