(* Plan execution (paper Sec. 4.3, 8.2, Fig. 9).

   The executor owns a tensor dictionary (inputs + intermediates), a kernel
   cache keyed by the kernel's structural signature (formats, protocols,
   fills — names stripped), and a common-sub-expression cache keyed by the
   physical step plus the lineage of the tensors it reads: an input by its
   name and binding version, a step's result by the key of the step that
   produced it, so a result recomputed under another name still hits.
   Compiling a kernel on a cache miss is timed separately from running it
   so the compilation-latency experiment (Fig. 9) can report cold vs warm
   costs.

   Steps run one after another on the calling domain, so the tables, the
   [timings] record and the kernel-invocation ordinal feeding
   [kernel_hook] are plain mutable state: cache hits, compile and kernel
   counts and fault ordinals are the same at every domain count.  The only
   parallelism is inside a kernel (DESIGN.md "Parallel runtime"): each
   executor owns a domain pool sized by [domains] ([1] = the exact serial
   path), over which the staged backend splits a kernel's outermost loop
   into morsels.  Morsel lanes read the kernel's input tensors and touch no
   engine table. *)

open Galley_plan
module T = Galley_tensor.Tensor
module Pool = Galley_parallel.Pool
module Obs = Galley_obs

exception Timeout = Kernel_exec.Timeout

(* Cache behaviour and kernel volume land in the metrics registry
   (DESIGN.md §9).  Counter bumps are single atomic adds and stay on
   unconditionally; nnz accounting walks tensors and is gated behind
   [Metrics.detailed] (enabled by [--metrics], bench, and tests). *)
let m_kernel_cache_hits = Obs.Metrics.counter "kernel_cache.hits"
let m_kernel_cache_misses = Obs.Metrics.counter "kernel_cache.misses"
let m_kernel_cache_evictions = Obs.Metrics.counter "kernel_cache.evictions"
let m_cse_hits = Obs.Metrics.counter "cse.hits"
let m_cse_misses = Obs.Metrics.counter "cse.misses"
let m_cse_cache_evictions = Obs.Metrics.counter "cse_cache.evictions"
let m_kernels_run = Obs.Metrics.counter "exec.kernels_run"
let m_transposes_run = Obs.Metrics.counter "exec.transposes_run"
let m_nnz_read = Obs.Metrics.counter "kernel.nnz_read"
let m_nnz_written = Obs.Metrics.counter "kernel.nnz_written"

(* Which kernel compiler backs the cache: the staged closure compiler
   (galley_compile; the production path) or the constraint-tree
   interpreter, a library-level differential oracle for tests.  Both
   produce size-generic closures keyed by the same structural signature,
   so cache accounting is identical. *)
type backend = Interp | Staged

let backend_to_string = function Interp -> "interp" | Staged -> "staged"

type timings = {
  mutable compile_time : float; (* seconds spent compiling kernels *)
  mutable compile_count : int; (* cache misses *)
  mutable kernel_count : int; (* kernel invocations *)
  mutable exec_time : float; (* seconds spent running kernels/transposes *)
  mutable cse_hits : int;
}

let fresh_timings () =
  {
    compile_time = 0.0;
    compile_count = 0;
    kernel_count = 0;
    exec_time = 0.0;
    cse_hits = 0;
  }

type t = {
  tensors : (string, T.t) Hashtbl.t;
  versions : (string, int) Hashtbl.t;
      (* bumped on every (re)bind: CSE keys name a specific binding, so
         rebinding a name (e.g. the BFS frontier each iteration) cannot hit
         a stale cached result *)
  kernel_cache : Kernel_exec.compiled Lru.t;
      (* LRU-bounded: a resident process (galley serve) must not grow
         without bound as query shapes churn; evictions are counted in
         [kernel_cache.evictions] *)
  cse_cache : T.t Lru.t;
      (* LRU-bounded for the same reason; stale version-keyed entries
         age out of the tail *)
  lineage : (string, string) Hashtbl.t;
      (* names bound by a step -> the digest of that step's CSE key, which
         stands in for the name in later keys (fixed length, so keys stay
         short however long the chain of steps) *)
  cse_enabled : bool;
  timings : timings;
  mutable deadline : float option;
  mutable kernel_hook : (int -> unit) option;
      (* called with the 1-based kernel invocation ordinal before each
         kernel runs (CSE hits skip it); a fault-injection seam *)
  backend : backend;
  pool : Pool.t;  (* intra-kernel morsel lanes *)
  mutable kernel_ordinal : int;  (* kernel invocations so far, for the hook *)
}

(* Default cache bounds: generous for batch runs, finite for a resident
   daemon.  Overridable per executor (and from `galley serve`). *)
let default_kernel_cache_cap = 1024
let default_cse_cache_cap = 1024

let create ?(cse = true) ?(backend = Staged) ?(domains = 1)
    ?(kernel_cache_cap = default_kernel_cache_cap)
    ?(cse_cache_cap = default_cse_cache_cap) () =
  {
    tensors = Hashtbl.create 32;
    versions = Hashtbl.create 32;
    kernel_cache =
      Lru.create ~capacity:kernel_cache_cap
        ~on_evict:(fun _ _ -> Obs.Metrics.incr m_kernel_cache_evictions)
        ();
    cse_cache =
      Lru.create ~capacity:cse_cache_cap
        ~on_evict:(fun _ _ -> Obs.Metrics.incr m_cse_cache_evictions)
        ();
    lineage = Hashtbl.create 32;
    cse_enabled = cse;
    timings = fresh_timings ();
    deadline = None;
    kernel_hook = None;
    backend;
    pool = Pool.create ~domains;
    kernel_ordinal = 0;
  }

(* Join the pool's worker domains (idempotent; the pool respawns lazily on
   the next parallel batch, so a session-held executor stays usable). *)
let shutdown (t : t) : unit = Pool.shutdown t.pool

let set_timeout (t : t) (seconds : float) : unit =
  t.deadline <- Some (Unix.gettimeofday () +. seconds)

let clear_timeout (t : t) : unit = t.deadline <- None

let set_kernel_hook (t : t) (hook : int -> unit) : unit =
  t.kernel_hook <- Some hook

let clear_kernel_hook (t : t) : unit = t.kernel_hook <- None

let bind_step (t : t) (name : string) (tensor : T.t) : unit =
  (* Morsel lanes share a kernel's inputs read-only: force the lazy caches
     (hash-level sort order, nnz) up front instead of letting worker
     domains race on first-use fills. *)
  if Pool.size t.pool > 1 then T.presort tensor;
  (* Rebinding the physically-same tensor (a CSE replay in a resident
     session) keeps the version: the value is unchanged, and bumping would
     spuriously invalidate every downstream CSE key, breaking whole-program
     warm replay across requests. *)
  match Hashtbl.find_opt t.tensors name with
  | Some existing when existing == tensor -> ()
  | Some _ | None ->
      let v =
        match Hashtbl.find_opt t.versions name with
        | Some v -> v + 1
        | None -> 0
      in
      Hashtbl.replace t.versions name v;
      Hashtbl.replace t.tensors name tensor

(* Bind an input: later CSE keys read it by name and version. *)
let bind (t : t) (name : string) (tensor : T.t) : unit =
  Hashtbl.remove t.lineage name;
  bind_step t name tensor

let version (t : t) (name : string) : int =
  match Hashtbl.find_opt t.versions name with Some v -> v | None -> 0

let lookup (t : t) (name : string) : T.t =
  match Hashtbl.find_opt t.tensors name with
  | Some tensor -> tensor
  | None -> invalid_arg ("Exec: unbound tensor " ^ name)

let lookup_opt (t : t) (name : string) : T.t option =
  Hashtbl.find_opt t.tensors name

(* Resident-footprint accessors for health/metrics reporting.  The daemon
   calls them from a connection thread while the executor thread runs
   requests, with no lock: each must stay a read of single int fields
   ([Hashtbl.length], [Lru.length], [Lru.evictions]), never a walk of a
   table that another thread may be resizing. *)
let bound_count (t : t) : int = Hashtbl.length t.tensors

let cache_occupancy (t : t) : int * int =
  (Lru.length t.kernel_cache, Lru.length t.cse_cache)

let cache_evictions (t : t) : int * int =
  (Lru.evictions t.kernel_cache, Lru.evictions t.cse_cache)

let now = Unix.gettimeofday

(* How a CSE key names a tensor a step reads: a step's result by its
   lineage ('$' and a fixed-length digest; no tensor name starts with '$'),
   anything else by name and binding version. *)
let add_read (t : t) (buf : Buffer.t) (name : string) : unit =
  match Hashtbl.find_opt t.lineage name with
  | Some d ->
      Buffer.add_char buf '$';
      Buffer.add_string buf d
  | None ->
      Buffer.add_string buf name;
      Buffer.add_char buf '@';
      Buffer.add_string buf (string_of_int (version t name))

(* CSE key: a physical step is a pure function of the tensors it reads, and
   tensor bindings are immutable within an execution, so step-signature plus
   what it reads identifies the result (paper Sec. 8.2). *)
let cse_key_kernel (t : t) (k : Physical.kernel) ~(signature : string) :
    string =
  let buf = Buffer.create (String.length signature + 32) in
  Buffer.add_string buf signature;
  Buffer.add_char buf '#';
  Array.iteri
    (fun i (a : Physical.access) ->
      if i > 0 then Buffer.add_char buf ',';
      add_read t buf a.Physical.tensor)
    k.Physical.accesses;
  Buffer.contents buf

let run_kernel (t : t) (k : Physical.kernel) : T.t * string =
  let tensors =
    Array.map (fun a -> lookup t a.Physical.tensor) k.Physical.accesses
  in
  let access_fills = Array.map T.fill tensors in
  let access_formats = Array.map T.formats tensors in
  let signature =
    Kernel_exec.cache_signature k ~access_formats ~access_fills
      ~facts:(fun a -> T.facts tensors.(a))
  in
  let cse_key = cse_key_kernel t k ~signature in
  match if t.cse_enabled then Lru.find t.cse_cache cse_key else None with
  | Some result ->
      Obs.Metrics.incr m_cse_hits;
      t.timings.cse_hits <- t.timings.cse_hits + 1;
      (result, cse_key)
  | None ->
      if t.cse_enabled then Obs.Metrics.incr m_cse_misses;
      let compiled =
        match Lru.find t.kernel_cache signature with
        | Some c ->
            Obs.Metrics.incr m_kernel_cache_hits;
            c
        | None ->
            Obs.Metrics.incr m_kernel_cache_misses;
            let t0 = now () in
            let c =
              Obs.span ~cat:"compile"
                ~name:("compile:" ^ k.Physical.name)
                ~attrs:(fun () -> [ ("backend", backend_to_string t.backend) ])
              @@ fun () ->
              match t.backend with
              | Interp ->
                  {
                    (Kernel_exec.compile k ~access_fills
                       ~facts:(fun a -> T.facts tensors.(a)))
                    with
                    signature;
                  }
              | Staged ->
                  let staged =
                    Galley_compile.Backend.compile k ~access_fills
                      ~facts:(fun a -> T.facts tensors.(a))
                      ~access_formats
                  in
                  let pool = t.pool in
                  (* Scheduling attribution rides on the merge string the
                     profiler's hot-kernel table joins: kernels that will
                     distribute over the pool say so. *)
                  let describe =
                    if Pool.size pool > 1 then
                      staged.Galley_compile.Backend.describe ^ " par:morsel"
                    else staged.Galley_compile.Backend.describe
                  in
                  {
                    Kernel_exec.signature;
                    describe;
                    run =
                      (fun ?deadline kc ts ->
                        try
                          staged.Galley_compile.Backend.run ?deadline ~pool kc
                            ts
                        with Galley_compile.Backend.Timeout ->
                          raise Kernel_exec.Timeout);
                  }
            in
            t.timings.compile_time <- t.timings.compile_time +. (now () -. t0);
            t.timings.compile_count <- t.timings.compile_count + 1;
            Lru.put t.kernel_cache signature c;
            c
      in
      (match t.kernel_hook with
      | Some hook ->
          t.kernel_ordinal <- t.kernel_ordinal + 1;
          hook t.kernel_ordinal
      | None -> ());
      Obs.Metrics.incr m_kernels_run;
      let t0 = now () in
      (* Measured output cardinality for the span: the attrs thunk runs
         after [f] returns, so a ref bridges the result out.  -1 = the
         kernel raised before producing a tensor. *)
      let out_nnz = ref (-1) in
      let result =
        Obs.span ~cat:"exec"
          ~name:("kernel:" ^ k.Physical.name)
          ~attrs:(fun () ->
            [
              ("out_nnz", string_of_int !out_nnz);
              ("backend", backend_to_string t.backend);
              ("accesses", string_of_int (Array.length k.Physical.accesses));
              (* Attribution attrs joined by the profiler's hot-kernel
                 table: loop order, per-level merge strategy, output
                 formats, and per-access iteration protocols. *)
              ("loop", String.concat "," k.Physical.loop_order);
              ("merge", compiled.Kernel_exec.describe);
              ( "out_formats",
                String.concat ","
                  (Array.to_list
                     (Array.map T.format_to_string k.Physical.output_formats))
              );
              ( "protocols",
                String.concat ";"
                  (Array.to_list
                     (Array.map
                        (fun (a : Physical.access) ->
                          a.Physical.tensor ^ ":"
                          ^ String.concat ","
                              (List.map Physical.protocol_to_string
                                 a.Physical.protocols))
                        k.Physical.accesses)) );
            ])
          (fun () ->
            let r = compiled.Kernel_exec.run ?deadline:t.deadline k tensors in
            out_nnz := T.nnz r;
            r)
      in
      if Obs.Metrics.detailed () then begin
        Array.iter (fun src -> Obs.Metrics.add m_nnz_read (T.nnz src)) tensors;
        Obs.Metrics.add m_nnz_written (T.nnz result)
      end;
      t.timings.exec_time <- t.timings.exec_time +. (now () -. t0);
      t.timings.kernel_count <- t.timings.kernel_count + 1;
      if t.cse_enabled then Lru.put t.cse_cache cse_key result;
      (result, cse_key)

let run_transpose (t : t) ~(source : string) ~(perm : int array)
    ~(formats : T.format array option) : T.t =
  let src = lookup t source in
  Obs.Metrics.incr m_transposes_run;
  let t0 = now () in
  let result =
    Obs.span ~cat:"exec" ~name:("transpose:" ^ source) (fun () ->
        T.transpose ?formats src perm)
  in
  t.timings.exec_time <- t.timings.exec_time +. (now () -. t0);
  result

(* Bind a step's result under its lineage. *)
let bind_result (t : t) (name : string) (result : T.t) ~(key : string) : unit =
  bind_step t name result;
  Hashtbl.replace t.lineage name (Digest.string key)

let run_step (t : t) (step : Physical.step) : string * T.t =
  match step with
  | Physical.Kernel k ->
      let result, key = run_kernel t k in
      bind_result t k.Physical.name result ~key;
      (k.Physical.name, result)
  | Physical.Transpose { name; source; perm; formats; _ } ->
      let key =
        let buf = Buffer.create 64 in
        Buffer.add_string buf "transpose:";
        add_read t buf source;
        Buffer.add_char buf ':';
        Buffer.add_string buf
          (String.concat "," (Array.to_list (Array.map string_of_int perm)));
        Buffer.contents buf
      in
      let result =
        match if t.cse_enabled then Lru.find t.cse_cache key else None with
        | Some r ->
            t.timings.cse_hits <- t.timings.cse_hits + 1;
            r
        | None ->
            let r = run_transpose t ~source ~perm ~formats:(Some formats) in
            if t.cse_enabled then Lru.put t.cse_cache key r;
            r
      in
      bind_result t name result ~key;
      (name, result)

let run_plan (t : t) (plan : Physical.plan) : unit =
  List.iter (fun step -> ignore (run_step t step)) plan
