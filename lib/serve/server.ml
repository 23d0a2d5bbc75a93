(* `galley serve`: a crash-isolated, admission-controlled query daemon.

   Threading model (threads.posix — no new dependency):

     - one ACCEPTOR thread polls the listening socket with a 250 ms
       [Unix.select] so it can notice a drain promptly;
     - one CONNECTION thread per client reads line-delimited JSON
       requests and writes the matching responses (a stalled client
       therefore blocks only its own connection, never the executor);
     - one EXECUTOR thread serially drains a bounded admission queue
       and runs query/bind requests against the shared resident
       [Driver.Session].

   Serial execution is the isolation boundary for shared state: the
   statistics context, resident tensors, and kernel/CSE caches are only
   ever touched from the executor thread, so a failed request can be
   caught and answered with a structured error while the next request
   sees consistent state.  The one exception is the inline [health]
   command, which reads the engine's resident counts from a connection
   thread; those accessors are single int-field reads.  Concurrency still
   comes from two places: connection threads overlap I/O and protocol
   work with execution, and each kernel splits its outermost loop into
   morsels over the executor's domain pool ([config.driver.domains]).

   Admission control: the queue is bounded at [queue_capacity]; a full
   queue sheds load with an immediate structured "queue_full" rejection
   (clients retry with backoff) instead of queueing unboundedly.
   health/metrics/shutdown bypass the queue entirely — observability
   must answer even when the daemon is saturated.

   QoS: a request's deadline budget picks its optimizer tier through
   {!Galley_plan.Tier.of_budget} — tight budgets run the naive rung
   directly, mid budgets the greedy ladder, batch (no budget) the exact
   search.  A request whose budget was already spent queueing is
   rejected with kind "deadline" without touching the optimizer.

   Lifecycle: SIGTERM/SIGINT set an atomic flag (no locking in signal
   context); {!wait} promotes it to a drain — stop accepting, finish
   queued work under [drain_timeout], flush, unlink the socket, exit
   clean.  Past the drain deadline remaining queued requests are
   answered "draining" rather than executed. *)

module D = Galley.Driver
module T = Galley_tensor.Tensor
module Faults = Galley.Faults
module Tier = Galley_plan.Tier
module Obs = Galley_obs
module Metrics = Galley_obs.Metrics

type config = {
  socket_path : string;
  queue_capacity : int;  (** admission queue bound; full = shed load *)
  drain_timeout : float;  (** seconds granted to in-flight work on drain *)
  default_budget_ms : float option;
      (** budget applied to requests that don't carry one; [None] = batch *)
  naive_below_ms : float;  (** budgets below this run the naive tier *)
  greedy_below_ms : float;  (** budgets below this run the greedy tier *)
  max_response_entries : int;
      (** per-output cap on entries serialized into a response *)
  driver : D.config;  (** base pipeline config (faults ride in here) *)
  flight_capacity : int;
      (** flight-recorder ring size (records); also bounds how many
          requests' provenance `explain` can answer from *)
  sampler_percentile : float;
      (** tail-sampling slow trigger: retain traces above this rolling
          percentile of recent request latencies *)
  telemetry_dir : string option;
      (** when set: rotating JSONL metrics/audit journal, retained
          traces, and incident/drain flight dumps land here *)
  telemetry_interval : float;  (** seconds between journal snapshots *)
  audit_requests : bool;
      (** run the estimator audit per request (q-errors in flight
          records and the audit journal) *)
  trace_all : bool;
      (** keep every request's spans (serve --trace FILE), not just the
          tail-sampled ones *)
  provenance : bool;
      (** record optimizer search provenance on each request's flight
          record for `client explain <digest>` *)
}

let default_config ~socket_path =
  {
    socket_path;
    queue_capacity = 64;
    drain_timeout = 10.0;
    default_budget_ms = None;
    naive_below_ms = 100.0;
    greedy_below_ms = 1000.0;
    max_response_entries = 100_000;
    driver = D.default_config;
    flight_capacity = 256;
    sampler_percentile = 0.90;
    telemetry_dir = None;
    telemetry_interval = 60.0;
    audit_requests = false;
    trace_all = false;
    provenance = false;
  }

(* -- metrics ------------------------------------------------------- *)

let m_requests =
  Metrics.counter "serve.requests" ~help:"Requests admitted to the daemon."

let m_requests_ok =
  Metrics.counter "serve.requests_ok" ~help:"Requests answered ok:true."

let m_requests_failed =
  Metrics.counter "serve.requests_failed"
    ~help:"Requests answered with a structured error."

let m_rejected_full =
  Metrics.counter "serve.rejected_queue_full"
    ~help:"Requests shed because the admission queue was full."

let m_rejected_draining =
  Metrics.counter "serve.rejected_draining"
    ~help:"Requests rejected while the daemon was draining."

let m_rejected_deadline =
  Metrics.counter "serve.rejected_deadline"
    ~help:"Requests whose deadline budget expired before execution."

let m_bad_requests =
  Metrics.counter "serve.bad_requests"
    ~help:"Lines that failed protocol decoding."

let m_connections =
  Metrics.counter "serve.connections" ~help:"Client connections accepted."

let m_active =
  Metrics.gauge "serve.active_connections"
    ~help:"Currently open client connections."

let m_queue_depth =
  Metrics.gauge "serve.queue_depth" ~help:"Admitted requests waiting to run."

let m_latency =
  Metrics.histogram "serve.request_latency_us"
    ~help:"End-to-end latency of admitted requests, microseconds."

(* Shed and deadline-rejected requests get their own histogram so the
   admitted-request latency series isn't survivorship-biased (and the
   rejection path's own latency — which should be ~0 — is visible). *)
let m_rejection_latency =
  Metrics.histogram "serve.rejection_latency_us"
    ~help:"Latency of rejected/shed requests, microseconds."

let m_queue_wait =
  Metrics.histogram "serve.queue_wait_us"
    ~help:"Time admitted requests spent queued, microseconds."

let m_accept_faults =
  Metrics.counter "faults.serve_accept_injected"
    ~help:"Injected accept-path faults (test harness)."

let m_kill_faults =
  Metrics.counter "faults.serve_kill_injected"
    ~help:"Injected executor-kill faults (test harness)."

(* -- server state -------------------------------------------------- *)

type phase = Serving | Draining | Stopped

(* An admitted request: the connection thread parks on [j_cond] until
   the executor publishes [j_response]. *)
type job = {
  j_parsed : Protocol.parsed;
  j_arrival : float;
  j_mutex : Mutex.t;
  j_cond : Condition.t;
  mutable j_response : string option;
}

type t = {
  cfg : config;
  session : D.Session.session;
  listen_fd : Unix.file_descr;
  queue : job Queue.t;
  q_mutex : Mutex.t;
  q_cond : Condition.t;
  mutable state : phase; (* guarded by q_mutex *)
  drain_requested : bool Atomic.t; (* set from signal handlers *)
  force_stop : bool Atomic.t; (* drain deadline passed *)
  exec_done : bool Atomic.t;
  conns : (Unix.file_descr, unit) Hashtbl.t; (* guarded by c_mutex *)
  c_mutex : Mutex.t;
  mutable acceptor : Thread.t option;
  mutable executor : Thread.t option;
  conn_threads : Thread.t Queue.t; (* guarded by c_mutex *)
  started : float;
  accept_seq : int Atomic.t; (* accepted-connection ordinal (faults) *)
  query_seq : int Atomic.t; (* admitted-query ordinal (faults) *)
  (* continuous telemetry (DESIGN.md §15) *)
  flight : Obs.Flight.t;
  sampler : Obs.Sampler.t;
  journal : Obs.Journal.t option;
  rid_seq : int Atomic.t; (* server-assigned request ids (r1, r2, ...) *)
  mutable last_snapshot : float; (* executor thread only *)
  mutable incident_seq : int; (* executor thread only *)
}

let state_of t =
  Mutex.lock t.q_mutex;
  let s = t.state in
  Mutex.unlock t.q_mutex;
  s

let queue_depth t =
  Mutex.lock t.q_mutex;
  let n = Queue.length t.queue in
  Mutex.unlock t.q_mutex;
  n

(* -- lifecycle ----------------------------------------------------- *)

let create (cfg : config) : t =
  if cfg.provenance then Galley_plan.Provenance.enable ();
  let session = D.Session.create ~config:cfg.driver () in
  (* A stale socket file from an unclean previous shutdown would make
     bind fail; serving sockets are single-owner here, so unlink it. *)
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen listen_fd 64
   with e ->
     (try Unix.close listen_fd with _ -> ());
     raise e);
  {
    cfg;
    session;
    listen_fd;
    queue = Queue.create ();
    q_mutex = Mutex.create ();
    q_cond = Condition.create ();
    state = Serving;
    drain_requested = Atomic.make false;
    force_stop = Atomic.make false;
    exec_done = Atomic.make false;
    conns = Hashtbl.create 16;
    c_mutex = Mutex.create ();
    acceptor = None;
    executor = None;
    conn_threads = Queue.create ();
    started = Unix.gettimeofday ();
    accept_seq = Atomic.make 0;
    query_seq = Atomic.make 0;
    flight = Obs.Flight.create ~capacity:cfg.flight_capacity ();
    sampler =
      Obs.Sampler.create ?dir:cfg.telemetry_dir
        ~percentile:cfg.sampler_percentile ~keep_all:cfg.trace_all ();
    journal =
      Option.map (fun dir -> Obs.Journal.create ~dir ()) cfg.telemetry_dir;
    rid_seq = Atomic.make 0;
    last_snapshot = Unix.gettimeofday ();
    incident_seq = 0;
  }

let initiate_drain t =
  Mutex.lock t.q_mutex;
  if t.state = Serving then begin
    t.state <- Draining;
    Obs.Log.info "serve: draining (queue depth %d)" (Queue.length t.queue)
  end;
  Condition.broadcast t.q_cond;
  Mutex.unlock t.q_mutex

let request_drain t = Atomic.set t.drain_requested true

(* -- per-request processing (executor thread) ---------------------- *)

exception Injected_kill of int

(* The request's one telemetry record, started with everything known
   before any work — request id, op, program digest, queue wait — for
   queries, binds and rejections alike.  The handlers fill in the rest;
   [Flight.note] seals it into the ring. *)
let start_record t (parsed : Protocol.parsed) ~(queue_us : int) :
    Obs.Flight.record =
  let rid =
    match parsed.Protocol.req_id with
    | Some i -> i
    | None -> Printf.sprintf "r%d" (Atomic.fetch_and_add t.rid_seq 1 + 1)
  in
  let op, program =
    match parsed.Protocol.req with
    | Protocol.Query { src; _ } -> ("query", Obs.Flight.digest src)
    | Protocol.Bind { name; _ } -> ("bind", Obs.Flight.digest name)
    | _ -> ("other", "")
  in
  {
    (Obs.Flight.empty_record ~id:rid ~op) with
    Obs.Flight.fl_program = program;
    fl_queue_us = queue_us;
  }

let outcome_is_shed o = String.length o >= 5 && String.sub o 0 5 = "shed:"
let outcome_is_error o = String.length o >= 6 && String.sub o 0 6 = "error:"

(* A batch request implicitly asks for the exact tier, so any ladder
   degradation on it counts as degraded too. *)
let degraded (r : Obs.Flight.record) : bool =
  match Tier.of_string r.Obs.Flight.fl_rung with
  | None -> false
  | Some rung ->
      let req =
        Option.value ~default:Tier.Exact (Tier.of_string r.Obs.Flight.fl_qos)
      in
      Tier.rank rung < Tier.rank req

(* The sampler's retention triggers, read off the finished record. *)
let triggers (r : Obs.Flight.record) : string list =
  let o = r.Obs.Flight.fl_outcome in
  (if outcome_is_error o || outcome_is_shed o then [ o ] else [])
  @ (if degraded r then [ "degraded" ] else [])
  @ if r.Obs.Flight.fl_replans > 0 then [ "replanned" ] else []

let worst_tier (res : D.result) : Tier.t option =
  List.fold_left
    (fun acc (_, tier) ->
      match acc with
      | None -> Some tier
      | Some w -> if Tier.rank tier < Tier.rank w then Some tier else acc)
    None
    (res.D.logical_tiers @ res.D.physical_tiers)

(* Fold one successful driver result (plus any fixpoint reports) into
   the request's record; audit rows go straight to the journal. *)
let note_result t (r : Obs.Flight.record)
    ?(reports : Galley_fixpoint.Fixpoint.fix_report list = [])
    (res : D.result) : unit =
  let us s = int_of_float (s *. 1e6) in
  let sum f = List.fold_left (fun a rep -> a + f rep) 0 reports in
  let tm = res.D.timings in
  r.Obs.Flight.fl_plan <-
    Obs.Flight.digest (Galley_plan.Physical.plan_to_string res.D.physical_plan);
  r.fl_rung <- Option.fold ~none:"" ~some:Tier.to_string (worst_tier res);
  r.fl_logical_us <- us tm.D.logical_seconds;
  r.fl_physical_us <- us tm.D.physical_seconds;
  r.fl_compile_us <- us tm.D.compile_seconds;
  r.fl_execute_us <- us tm.D.execute_seconds;
  r.fl_compiles <- tm.D.compile_count;
  r.fl_kernels <- tm.D.kernel_count;
  r.fl_cse_hits <- tm.D.cse_hits;
  r.fl_replans <- sum (fun rep -> rep.Galley_fixpoint.Fixpoint.fr_replans);
  r.fl_iterations <-
    sum (fun rep -> rep.Galley_fixpoint.Fixpoint.fr_iterations);
  match res.D.audit with
  | None -> ()
  | Some a ->
      r.fl_qerrors <-
        List.map
          (fun (s : Obs.Audit.summary) ->
            (s.Obs.Audit.s_estimator, s.Obs.Audit.s_mean_q))
          (Obs.Audit.summaries a);
      Option.iter
        (fun j -> Obs.Journal.audit_rows j ~id:r.fl_id (Obs.Audit.rows a))
        t.journal

(* Derive the per-request driver config from the deadline budget: tier
   selection via Tier.of_budget, the remaining budget as both the
   execution wall-clock limit and (halved) the optimizer budget. *)
let request_config t ~(remaining_s : float option) : D.config * Tier.t option
    =
  let base = t.cfg.driver in
  match remaining_s with
  | None -> ({ base with timeout = None }, None)
  | Some rem ->
      let tier =
        Tier.of_budget
          ~naive_below:(t.cfg.naive_below_ms /. 1000.0)
          ~greedy_below:(t.cfg.greedy_below_ms /. 1000.0)
          rem
      in
      let base =
        match tier with
        | Tier.Exact -> base
        | Tier.Greedy ->
            {
              base with
              logical =
                { base.D.logical with search = Galley_logical.Optimizer.Greedy };
              physical = { base.D.physical with exact = false };
            }
        | Tier.Naive ->
            (* A zero optimizer budget exhausts the ladder instantly,
               landing on the naive rung without searching. *)
            { base with optimizer_timeout = Some 0.0 }
      in
      let opt_budget =
        match tier with
        | Tier.Naive -> Some 0.0
        | _ -> Some (Float.max 0.005 (rem *. 0.5))
      in
      ( {
          base with
          timeout = Some rem;
          optimizer_timeout = opt_budget;
          degrade = true;
        },
        Some tier )

let handle_query t (job : job) (r : Obs.Flight.record) ~src ~budget_ms
    ~want_values ~max_entries =
  let id = job.j_parsed.Protocol.req_id in
  let budget_ms =
    match budget_ms with Some b -> Some b | None -> t.cfg.default_budget_ms
  in
  let waited = float_of_int r.Obs.Flight.fl_queue_us /. 1e6 in
  let remaining_s =
    Option.map (fun b -> (b /. 1000.0) -. waited) budget_ms
  in
  match remaining_s with
  | Some rem when rem <= 0.0 ->
      Metrics.incr m_rejected_deadline;
      r.fl_outcome <- "shed:deadline";
      Protocol.error_json ~id ~kind:"deadline"
        ~message:
          (Printf.sprintf
             "deadline budget of %gms exhausted after %.1fms in queue"
             (Option.get budget_ms) (waited *. 1000.0))
        ()
  | _ -> (
      let config, qos_tier = request_config t ~remaining_s in
      let config =
        if t.cfg.audit_requests then { config with D.audit = true } else config
      in
      Option.iter (fun q -> r.fl_qos <- Tier.to_string q) qos_tier;
      match Galley_fixpoint.Fixpoint.parse_checked src with
      | Error e ->
          Metrics.incr m_requests_failed;
          r.fl_outcome <- "error:" ^ Protocol.kind_of_error e;
          Protocol.error_of ~id e
      | Ok xprogram -> (
          (* serve-kill fires after parse, mid-request: the outer
             catch-all must turn it into a structured error and leave
             the daemon serving. *)
          let ordinal = Atomic.fetch_and_add t.query_seq 1 + 1 in
          (match t.cfg.driver.D.faults.Faults.serve_kill_on with
          | Some n when n = ordinal ->
              Metrics.incr m_kill_faults;
              raise (Injected_kill ordinal)
          | _ -> ());
          let max_entries =
            match max_entries with
            | Some n -> min n t.cfg.max_response_entries
            | None -> t.cfg.max_response_entries
          in
          (* Straight-line programs keep the established session path;
             programs with iterate statements run the fixpoint driver
             against the same resident session, so carried tensors,
             statistics, and warm kernels persist across requests. *)
          match Galley_plan.Ir.program_of_xprogram xprogram with
          | Some program -> (
              match
                D.Session.run_program_checked t.session ~config program
              with
              | Ok res ->
                  Metrics.incr m_requests_ok;
                  note_result t r res;
                  Protocol.result_json ~id ~want_values ~max_entries ?qos_tier
                    res
              | Error e ->
                  Metrics.incr m_requests_failed;
                  r.fl_outcome <- "error:" ^ Protocol.kind_of_error e;
                  Protocol.error_of ~id e)
          | None -> (
              match
                Galley_fixpoint.Fixpoint.run_session_checked t.session ~config
                  xprogram
              with
              | Ok (res, reports) ->
                  Metrics.incr m_requests_ok;
                  note_result t r ~reports res;
                  Protocol.result_json ~id ~want_values ~max_entries ?qos_tier
                    ~fixpoints:reports res
              | Error e ->
                  Metrics.incr m_requests_failed;
                  r.fl_outcome <- "error:" ^ Protocol.kind_of_error e;
                  Protocol.error_of ~id e)))

let handle_bind t (job : job) (r : Obs.Flight.record) ~name ~spec =
  let id = job.j_parsed.Protocol.req_id in
  match Protocol.tensor_of_bind spec with
  | Error msg ->
      Metrics.incr m_bad_requests;
      r.Obs.Flight.fl_outcome <- "error:bad_request";
      Protocol.error_json ~id ~kind:"bad_request" ~message:msg ()
  | Ok tensor -> (
      match D.Session.bind t.session name tensor with
      | () ->
          Metrics.incr m_requests_ok;
          Protocol.bound_json ~id ~name tensor
      | exception (Invalid_argument m | Failure m) ->
          Metrics.incr m_requests_failed;
          r.Obs.Flight.fl_outcome <- "error:bad_request";
          Protocol.error_json ~id ~kind:"bad_request" ~message:m ())

let handle_admitted t (job : job) (r : Obs.Flight.record) : string =
  match job.j_parsed.Protocol.req with
  | Protocol.Query { src; budget_ms; want_values; max_entries } ->
      handle_query t job r ~src ~budget_ms ~want_values ~max_entries
  | Protocol.Bind { name; spec } -> handle_bind t job r ~name ~spec
  | Protocol.Health | Protocol.Metrics_req _ | Protocol.Debug_req _
  | Protocol.Explain_req _ | Protocol.Shutdown ->
      (* Handled inline by the connection thread; never queued. *)
      assert false

let deliver (job : job) (resp : string) =
  Mutex.lock job.j_mutex;
  job.j_response <- Some resp;
  Condition.broadcast job.j_cond;
  Mutex.unlock job.j_mutex

(* The per-request isolation boundary: no exception escaping a request
   may kill the executor thread or leak to another request.

   Telemetry sequencing: the request's record is started and its id
   stamped on the log context and span attrs before any work; after
   delivery the record takes the request's optimizer provenance, the
   latency lands in the admitted or rejection histogram (never both),
   the sampler decides trace retention from the record (so the record
   can name the retained trace), the flight recorder seals it, and
   crash-shaped outcomes dump the whole ring to an incident file while
   the state is fresh. *)
let process_job t (job : job) =
  let id = job.j_parsed.Protocol.req_id in
  let queue_us =
    int_of_float ((Unix.gettimeofday () -. job.j_arrival) *. 1e6)
  in
  Metrics.observe m_queue_wait queue_us;
  let r = start_record t job.j_parsed ~queue_us in
  let rid = r.Obs.Flight.fl_id in
  Obs.Log.set_context (Some rid);
  Obs.Sampler.begin_request t.sampler;
  let resp =
    if Atomic.get t.force_stop then begin
      Metrics.incr m_rejected_draining;
      r.fl_outcome <- "shed:draining";
      Protocol.error_json ~id ~kind:"draining"
        ~message:"server drain deadline passed; request not executed" ()
    end
    else
      try
        Obs.span ~cat:"serve" ~name:"serve.request"
          ~attrs:(fun () ->
            (* forced at emission, after the handler: outcome is final *)
            [ ("rid", rid); ("op", r.fl_op); ("outcome", r.fl_outcome) ])
          (fun () -> handle_admitted t job r)
      with
      | Injected_kill n ->
          Metrics.incr m_requests_failed;
          r.fl_outcome <- "error:injected_fault";
          Protocol.error_json ~id ~kind:"injected_fault"
            ~message:
              (Printf.sprintf "injected mid-request kill (query %d)" n)
            ()
      | exn ->
          Metrics.incr m_requests_failed;
          r.fl_outcome <- "error:internal";
          Obs.Log.error "serve: request failed uncaught: %s"
            (Printexc.to_string exn);
          Protocol.error_json ~id ~kind:"internal"
            ~message:(Printexc.to_string exn) ()
  in
  deliver job resp;
  (* The executor is the only thread that plans, so the drain returns
     exactly this request's events; draining even without a plan keeps
     the recorder buffer bounded across failed requests. *)
  if Galley_plan.Provenance.enabled () then begin
    let evs = Galley_plan.Provenance.drain () in
    if r.fl_plan <> "" && evs <> [] then
      r.fl_provenance <-
        Printf.sprintf {|{"plan":"%s","rid":"%s","events":%s}|} r.fl_plan
          (Metrics.json_escape rid)
          (Galley_plan.Provenance.events_to_json evs)
  end;
  r.fl_total_us <-
    int_of_float ((Unix.gettimeofday () -. job.j_arrival) *. 1e6);
  if outcome_is_shed r.fl_outcome then
    Metrics.observe m_rejection_latency r.fl_total_us
  else Metrics.observe m_latency r.fl_total_us;
  let decision =
    Obs.Sampler.end_request t.sampler ~id:rid ~duration_us:r.fl_total_us
      ~triggers:(triggers r)
  in
  r.fl_trace <- decision.Obs.Sampler.trace_name;
  ignore (Obs.Flight.note t.flight r);
  (match t.journal with
  | Some j ->
      let now = Unix.gettimeofday () in
      if now -. t.last_snapshot >= t.cfg.telemetry_interval then begin
        Obs.Journal.snapshot j;
        t.last_snapshot <- now
      end
  | None -> ());
  (match (t.cfg.telemetry_dir, r.fl_outcome) with
  | Some dir, ("error:injected_fault" | "error:internal") ->
      t.incident_seq <- t.incident_seq + 1;
      let file =
        Printf.sprintf "incident-%03d-%s.jsonl" t.incident_seq
          (Obs.Sampler.sanitize rid)
      in
      let n = Obs.Flight.write_jsonl t.flight (Filename.concat dir file) in
      Obs.Log.info "serve: incident dump %s (%d records, trace %s)" file n
        (if r.fl_trace = "" then "-" else r.fl_trace)
  | _ -> ());
  Obs.Log.set_context None

let executor_loop t =
  let rec loop () =
    Mutex.lock t.q_mutex;
    while Queue.is_empty t.queue && t.state = Serving do
      Condition.wait t.q_cond t.q_mutex
    done;
    let next =
      if Queue.is_empty t.queue then None else Some (Queue.pop t.queue)
    in
    Metrics.set_gauge m_queue_depth (float_of_int (Queue.length t.queue));
    Mutex.unlock t.q_mutex;
    match next with
    | Some job ->
        process_job t job;
        loop ()
    | None -> (* queue empty and draining/stopped: done *) ()
  in
  loop ();
  Atomic.set t.exec_done true

(* -- admission (connection threads) -------------------------------- *)

(* Requests rejected at admission never reach the executor; record them
   here so shedding is visible in both the rejection histogram and the
   flight ring (which is mutex-guarded, so connection threads may note
   records directly).  The sampler is executor-owned and stays out of
   this path — an unadmitted request has no spans to retain. *)
let note_rejection t (parsed : Protocol.parsed) ~(kind : string)
    ~(arrival : float) : unit =
  let r = start_record t parsed ~queue_us:0 in
  r.Obs.Flight.fl_outcome <- "shed:" ^ kind;
  r.fl_total_us <- int_of_float ((Unix.gettimeofday () -. arrival) *. 1e6);
  Metrics.observe m_rejection_latency r.fl_total_us;
  ignore (Obs.Flight.note t.flight r)

let submit t (parsed : Protocol.parsed) : string =
  let id = parsed.Protocol.req_id in
  let job =
    {
      j_parsed = parsed;
      j_arrival = Unix.gettimeofday ();
      j_mutex = Mutex.create ();
      j_cond = Condition.create ();
      j_response = None;
    }
  in
  Mutex.lock t.q_mutex;
  let verdict =
    if t.state <> Serving then `Draining
    else if Queue.length t.queue >= t.cfg.queue_capacity then `Full
    else begin
      Queue.push job t.queue;
      Metrics.set_gauge m_queue_depth (float_of_int (Queue.length t.queue));
      Condition.broadcast t.q_cond;
      `Queued
    end
  in
  Mutex.unlock t.q_mutex;
  match verdict with
  | `Draining ->
      Metrics.incr m_rejected_draining;
      note_rejection t parsed ~kind:"draining" ~arrival:job.j_arrival;
      Protocol.error_json ~id ~kind:"draining"
        ~message:"server is draining; no new requests admitted" ()
  | `Full ->
      Metrics.incr m_rejected_full;
      note_rejection t parsed ~kind:"queue_full" ~arrival:job.j_arrival;
      Protocol.error_json ~id ~kind:"queue_full"
        ~message:
          (Printf.sprintf
             "admission queue full (capacity %d); retry with backoff"
             t.cfg.queue_capacity)
        ()
  | `Queued ->
      Mutex.lock job.j_mutex;
      while job.j_response = None do
        Condition.wait job.j_cond job.j_mutex
      done;
      let r = Option.get job.j_response in
      Mutex.unlock job.j_mutex;
      r

(* -- inline (unqueued) commands ------------------------------------ *)

let health_json t id =
  let exec = D.Session.exec t.session in
  let kc, cc = Galley_engine.Exec.cache_occupancy exec in
  let ke, ce = Galley_engine.Exec.cache_evictions exec in
  Protocol.ok_json ~id
    [
      ("op", "\"health\"");
      ( "status",
        match state_of t with
        | Serving -> "\"serving\""
        | Draining -> "\"draining\""
        | Stopped -> "\"stopped\"" );
      ( "uptime_s",
        Printf.sprintf "%.3f" (Unix.gettimeofday () -. t.started) );
      ( "resident_tensors",
        string_of_int (Galley_engine.Exec.bound_count exec) );
      ("queue_depth", string_of_int (queue_depth t));
      ( "active_connections",
        string_of_int (int_of_float (Metrics.gauge_value m_active)) );
      ("requests_total", string_of_int (Metrics.value m_requests));
      ( "kernel_cache",
        Printf.sprintf "{\"entries\":%d,\"evictions\":%d}" kc ke );
      ("cse_cache", Printf.sprintf "{\"entries\":%d,\"evictions\":%d}" cc ce);
    ]

let metrics_json id ~prometheus =
  if prometheus then
    Protocol.ok_json ~id
      [
        ("op", "\"metrics\"");
        ("format", "\"prometheus\"");
        ( "metrics",
          "\"" ^ Metrics.json_escape (Metrics.dump_prometheus ()) ^ "\"" );
      ]
  else
    Protocol.ok_json ~id
      [ ("op", "\"metrics\""); ("metrics", Metrics.dump_json ()) ]

(* Flight-recorder dump: the newest [last] records (default: the whole
   ring), newest record last. *)
let debug_json t id ~last =
  let rs = Obs.Flight.records t.flight in
  let n = List.length rs in
  let keep = match last with Some k when k >= 0 && k < n -> k | _ -> n in
  let rs = List.filteri (fun i _ -> i >= n - keep) rs in
  Protocol.ok_json ~id
    [
      ("op", "\"debug\"");
      ("total", string_of_int (Obs.Flight.total t.flight));
      ("capacity", string_of_int (Obs.Flight.capacity t.flight));
      ( "records",
        "[" ^ String.concat "," (List.map Obs.Flight.to_json rs) ^ "]" );
    ]

(* Resident provenance lookup: the search trace of the newest request in
   the flight ring that built the plan with this digest (as stamped in
   flight records and `galley debug` output). *)
let explain_json t id ~digest =
  match
    List.find_opt
      (fun r -> r.Obs.Flight.fl_plan = digest && r.fl_provenance <> "")
      (List.rev (Obs.Flight.records t.flight))
  with
  | Some r ->
      Protocol.ok_json ~id
        [ ("op", "\"explain\""); ("provenance", r.Obs.Flight.fl_provenance) ]
  | None ->
      let message =
        if not (Galley_plan.Provenance.enabled ()) then
          "provenance recording is off; start the daemon with --provenance"
        else
          Printf.sprintf
            "no provenance retained for plan digest %s (evicted or never \
             planned here)"
            digest
      in
      Protocol.error_json ~id ~kind:"not_found" ~message ()

let handle_line t (line : string) : string option =
  if String.trim line = "" then None
  else begin
    Metrics.incr m_requests;
    match Protocol.decode_request line with
    | Error msg ->
        Metrics.incr m_bad_requests;
        Some (Protocol.error_json ~kind:"bad_request" ~message:msg ())
    | Ok parsed -> (
        let id = parsed.Protocol.req_id in
        match parsed.Protocol.req with
        | Protocol.Health -> Some (health_json t id)
        | Protocol.Metrics_req { prometheus } ->
            Some (metrics_json id ~prometheus)
        | Protocol.Debug_req { last } -> Some (debug_json t id ~last)
        | Protocol.Explain_req { digest } -> Some (explain_json t id ~digest)
        | Protocol.Shutdown ->
            request_drain t;
            Some (Protocol.ok_json ~id [ ("op", "\"shutdown\""); ("status", "\"draining\"") ])
        | Protocol.Query _ | Protocol.Bind _ -> Some (submit t parsed))
  end

(* -- connection handling ------------------------------------------- *)

let register_conn t fd =
  Mutex.lock t.c_mutex;
  Hashtbl.replace t.conns fd ();
  Mutex.unlock t.c_mutex

let unregister_conn t fd =
  Mutex.lock t.c_mutex;
  Hashtbl.remove t.conns fd;
  Mutex.unlock t.c_mutex

let connection_loop t fd =
  Metrics.incr m_connections;
  Metrics.set_gauge m_active (Metrics.gauge_value m_active +. 1.0);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let stall = t.cfg.driver.D.faults.Faults.serve_stall in
  Fun.protect
    ~finally:(fun () ->
      unregister_conn t fd;
      Metrics.set_gauge m_active (Metrics.gauge_value m_active -. 1.0);
      try Unix.close fd with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () ->
      let rec loop () =
        match input_line ic with
        | exception (End_of_file | Sys_error _) -> ()
        | exception Unix.Unix_error _ -> ()
        | line -> (
            match handle_line t line with
            | None -> loop ()
            | Some resp -> (
                if stall > 0.0 then Thread.delay stall;
                match
                  output_string oc resp;
                  output_char oc '\n';
                  flush oc
                with
                | () -> loop ()
                | exception (Sys_error _ | Unix.Unix_error _) -> ()))
      in
      loop ())

let acceptor_loop t =
  let rec loop () =
    if state_of t <> Serving then ()
    else begin
      (match Unix.select [ t.listen_fd ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept ~cloexec:true t.listen_fd with
          | fd, _ -> (
              let n = Atomic.fetch_and_add t.accept_seq 1 + 1 in
              match t.cfg.driver.D.faults.Faults.serve_accept_fail_on with
              | Some nth when nth = n ->
                  (* Injected accept failure: drop the connection as if
                     accept(2) had failed; the daemon keeps serving. *)
                  Metrics.incr m_accept_faults;
                  Obs.Log.warn
                    "serve: injected accept failure on connection %d" n;
                  (try Unix.close fd with Unix.Unix_error _ -> ())
              | _ ->
                  register_conn t fd;
                  let th = Thread.create (fun () -> connection_loop t fd) () in
                  Mutex.lock t.c_mutex;
                  Queue.push th t.conn_threads;
                  Mutex.unlock t.c_mutex)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | exception Unix.Unix_error (e, _, _) ->
              if state_of t = Serving then begin
                Obs.Log.warn "serve: accept failed: %s" (Unix.error_message e);
                Thread.delay 0.01
              end)
      | exception Unix.Unix_error _ -> ());
      loop ()
    end
  in
  loop ()

let start t =
  t.acceptor <- Some (Thread.create (fun () -> acceptor_loop t) ());
  t.executor <- Some (Thread.create (fun () -> executor_loop t) ());
  Obs.Log.info "serve: listening on %s (queue capacity %d, domains %d)"
    t.cfg.socket_path t.cfg.queue_capacity t.cfg.driver.D.domains

(* Block until a drain completes.  Signal handlers only set the atomic
   [drain_requested] flag (taking a mutex in signal context could
   deadlock); this loop promotes it. *)
let wait t =
  while state_of t = Serving do
    if Atomic.get t.drain_requested then initiate_drain t
    else Thread.delay 0.05
  done;
  (match t.acceptor with Some th -> Thread.join th | None -> ());
  (* Give queued + in-flight work the drain budget, then force the
     executor to answer the remainder with "draining" rejections. *)
  let deadline = Unix.gettimeofday () +. t.cfg.drain_timeout in
  while (not (Atomic.get t.exec_done)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  if not (Atomic.get t.exec_done) then begin
    Obs.Log.warn "serve: drain deadline (%gs) passed; shedding queued work"
      t.cfg.drain_timeout;
    Atomic.set t.force_stop true
  end;
  (match t.executor with Some th -> Thread.join th | None -> ());
  (* Wake connection threads blocked in input_line so they exit, then
     join them: responses already computed still get written. *)
  Mutex.lock t.c_mutex;
  Hashtbl.iter
    (fun fd () ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    t.conns;
  Mutex.unlock t.c_mutex;
  let rec join_conns () =
    Mutex.lock t.c_mutex;
    let th = if Queue.is_empty t.conn_threads then None else Some (Queue.pop t.conn_threads) in
    Mutex.unlock t.c_mutex;
    match th with
    | Some th ->
        Thread.join th;
        join_conns ()
    | None -> ()
  in
  join_conns ();
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
  Mutex.lock t.q_mutex;
  t.state <- Stopped;
  Mutex.unlock t.q_mutex;
  (* Telemetry drain dump: the flight ring and a final metrics snapshot
     always land on disk when a telemetry dir is configured, so even a
     clean shutdown leaves the last N requests inspectable. *)
  (match t.cfg.telemetry_dir with
  | Some dir ->
      (try
         let n =
           Obs.Flight.write_jsonl t.flight (Filename.concat dir "flight.jsonl")
         in
         (match t.journal with Some j -> Obs.Journal.snapshot j | None -> ());
         Obs.Log.info "serve: telemetry drain dump (%d flight records to %s)"
           n dir
       with Sys_error e -> Obs.Log.warn "serve: telemetry dump failed: %s" e)
  | None -> ());
  Obs.Log.info "serve: drained clean (%d requests served)"
    (Metrics.value m_requests)

(* One-call serving loop for the CLI: install signal-driven drain,
   serve until SIGTERM/SIGINT (or a shutdown request), drain, return. *)
let run ?(install_signals = true) (t : t) : unit =
  if install_signals then begin
    let handler = Sys.Signal_handle (fun _ -> request_drain t) in
    (try Sys.set_signal Sys.sigterm handler with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigint handler with Invalid_argument _ -> ())
  end;
  start t;
  wait t

(* Test/bench hook: the resident session (e.g. to preload tensors
   in-process before starting the listener). *)
let session t = t.session

(* Telemetry accessors: the CLI writes the keep-all trace on exit; tests
   inspect the ring directly. *)
let sampler t = t.sampler
let flight t = t.flight
