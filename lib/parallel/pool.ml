(* A reusable domain pool.

   The pool backs the runtime's one parallel layer: the staged backend
   splits a kernel's outermost loop into morsels and runs one lane per
   pool slot (lib/compile/backend.ml).  The design constraints, in order:

   - [size <= 1] must be *exactly* the serial path: tasks run in order on
     the calling domain, exceptions propagate untouched, no domain is ever
     spawned.  [domains = 1] therefore reproduces the pre-parallel runtime
     bit for bit, including exception timing.

   - Domains are expensive and capped (the OCaml runtime supports ~128
     live domains), so workers are spawned lazily on the first parallel
     batch and [shutdown] joins them and returns the pool to its empty
     reusable state.  Creating a pool is free; only running a batch
     spawns.  An [at_exit] backstop shuts down any pool still live so a
     process never exits with workers blocked on the condition variable.

   - The submitting domain is one of the lanes: while its batch is pending
     it pops and runs queued tasks, and blocks on the condition variable
     only when every task is already running elsewhere.  Tasks do not
     submit batches of their own.

   - A batch fails as a unit: the first exception (with its backtrace) is
     captured, tasks of that batch not yet started are skipped, and the
     exception is re-raised from [run_all] on the submitting domain once
     the batch drains.  Callers that want cross-task cancellation of
     *running* tasks share an [Atomic.t] flag in the tasks themselves (see
     the backend's deadline cadence). *)

type task = unit -> unit

(* One [run_all] call: tasks still outstanding plus the first failure. *)
type batch = {
  mutable pending : int;
  mutable failed : (exn * Printexc.raw_backtrace) option;
}

(* [enq_us = 0] means tracing was off at enqueue time: no wait/run spans
   are emitted for the entry, keeping the disabled path span-free. *)
type entry = { e_task : task; e_batch : batch; e_enq_us : int }

type t = {
  parallelism : int;  (* total lanes, counting the submitting domain *)
  mutex : Mutex.t;
  cond : Condition.t;  (* signals: queue non-empty, or a batch drained *)
  queue : entry Queue.t;
  mutable workers : unit Domain.t list;
  mutable n_workers : int;
  mutable stop : bool;
}

let create ~(domains : int) : t =
  {
    (* Leave headroom under the runtime's domain cap even if the caller
       asks for an absurd count; the capping never changes semantics,
       only how many lanes actually run. *)
    parallelism = max 1 (min domains 64);
    mutex = Mutex.create ();
    cond = Condition.create ();
    queue = Queue.create ();
    workers = [];
    n_workers = 0;
    stop = false;
  }

let size (t : t) : int = t.parallelism

let tasks_run = Galley_obs.Metrics.counter "pool.tasks_run"

(* Run one popped entry and retire it from its batch.  [skip] is decided
   under the pool mutex at pop time: once a batch has failed, its
   remaining tasks are dropped unrun. *)
let run_entry (t : t) (e : entry) ~(skip : bool) : unit =
  let b = e.e_batch in
  (* Queue-wait span: from enqueue to the moment a lane picked it up. *)
  if e.e_enq_us > 0 && Galley_obs.Trace.enabled () then
    Galley_obs.Trace.complete ~cat:"pool" ~name:"pool.wait" ~start_us:e.e_enq_us
      ~end_us:(Galley_obs.Clock.now_us ()) ();
  let failure =
    if skip then None
    else begin
      Galley_obs.Metrics.incr tasks_run;
      let run () =
        if e.e_enq_us > 0 then
          Galley_obs.Trace.span ~cat:"pool" ~name:"pool.task" e.e_task
        else e.e_task ()
      in
      try
        run ();
        None
      with ex -> Some (ex, Printexc.get_raw_backtrace ())
    end
  in
  Mutex.lock t.mutex;
  (match failure with
  | Some _ when b.failed = None -> b.failed <- failure
  | _ -> ());
  b.pending <- b.pending - 1;
  if b.pending = 0 then Condition.broadcast t.cond;
  Mutex.unlock t.mutex

let rec worker_loop (t : t) : unit =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.stop do
    Condition.wait t.cond t.mutex
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.mutex (* stop: exit *)
  else begin
    let entry = Queue.pop t.queue in
    let skip = entry.e_batch.failed <> None in
    Mutex.unlock t.mutex;
    run_entry t entry ~skip;
    worker_loop t
  end

(* Spawn up to [want] workers; called with the pool mutex held.  A failed
   spawn (domain cap reached elsewhere in the process) just leaves the
   pool with fewer lanes — the submitting domain still drains the queue. *)
let rec ensure_workers (t : t) (want : int) : unit =
  if t.n_workers < want then
    match Domain.spawn (fun () -> worker_loop t) with
    | d ->
        t.workers <- d :: t.workers;
        t.n_workers <- t.n_workers + 1;
        ensure_workers t want
    | exception _ -> ()

(* Pools with live workers, so [at_exit] can join them. *)
let live : t list ref = ref []
let live_mutex = Mutex.create ()

let register (t : t) : unit =
  Mutex.lock live_mutex;
  if not (List.memq t !live) then live := t :: !live;
  Mutex.unlock live_mutex

let unregister (t : t) : unit =
  Mutex.lock live_mutex;
  live := List.filter (fun p -> p != t) !live;
  Mutex.unlock live_mutex

(* Join all workers and return the pool to its empty reusable state: the
   next [run_all] spawns afresh.  Safe to call repeatedly; must not be
   called while a batch is in flight (the driver shuts down only after
   [run_all] has returned). *)
let shutdown (t : t) : unit =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.cond;
  let ws = t.workers in
  t.workers <- [];
  t.n_workers <- 0;
  Mutex.unlock t.mutex;
  List.iter Domain.join ws;
  Mutex.lock t.mutex;
  t.stop <- false;
  Mutex.unlock t.mutex;
  unregister t

let () = at_exit (fun () -> List.iter shutdown !live)

let run_all (t : t) (tasks : task array) : unit =
  let n = Array.length tasks in
  if n = 0 then ()
  else if t.parallelism <= 1 || n = 1 then
    (* The exact serial path: in order, on this domain, exceptions raw. *)
    Array.iter (fun task -> task ()) tasks
  else begin
    let b = { pending = n; failed = None } in
    let enq_us =
      if Galley_obs.Trace.enabled () then Galley_obs.Clock.now_us () else 0
    in
    Mutex.lock t.mutex;
    Array.iter
      (fun task -> Queue.push { e_task = task; e_batch = b; e_enq_us = enq_us } t.queue)
      tasks;
    ensure_workers t (min (t.parallelism - 1) (n - 1));
    if t.n_workers > 0 then register t;
    Condition.broadcast t.cond;
    (* Work as a lane until the batch drains: run queued tasks and block
       only when the queue is empty. *)
    while b.pending > 0 do
      if Queue.is_empty t.queue then Condition.wait t.cond t.mutex
      else begin
        let entry = Queue.pop t.queue in
        let skip = entry.e_batch.failed <> None in
        Mutex.unlock t.mutex;
        run_entry t entry ~skip;
        Mutex.lock t.mutex
      end
    done;
    let failed = b.failed in
    Mutex.unlock t.mutex;
    match failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end
