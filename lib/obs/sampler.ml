(* Tail-based trace sampling for the serve daemon.

   Spans are collected for *every* request (tracing stays enabled), but a
   request's events are only retained — as a `trace-<seq>-<id>.json`
   Chrome trace file when a directory is configured — when the finished
   request turns out to be interesting: an explicit trigger fired
   (error, shed, tier degradation, fixpoint replan) or the request was
   slow relative to a rolling percentile of recent durations.
   Everything else is drained and dropped, so in the common case tracing
   costs only the per-span buffer appends.

   The request lifecycle ([begin_request] / [end_request]) assumes a
   single executing thread per sampler — true in serve, where one
   executor thread runs all queries — so a [Trace.drain] at the request
   boundary captures exactly that request's spans.  [keep_all] mode
   accumulates every drained event instead (used by `serve --trace FILE`
   so the flag keeps its whole-run meaning). *)

type decision = {
  kept : bool;
  reason : string;  (* first trigger, or "slow", or "" when dropped *)
  trace_name : string;  (* trace file basename when kept (written only
                           when a dir is set), else "" *)
}

type t = {
  dir : string option;  (* write retained traces here as they happen *)
  percentile : float;  (* slow trigger: duration > pXX of recent window *)
  window : int array;  (* rolling window of recent durations, us *)
  mutable window_len : int;
  mutable window_pos : int;
  min_window : int;  (* no slow trigger until this many samples seen *)
  keep_all : bool;
  mutable all_events : Trace.event list;  (* keep_all accumulator, newest first *)
  mutable seq : int;
  mutable trace_was_on : bool;
  mutex : Mutex.t;
}

let m_retained = Metrics.counter "sampler.retained"
let m_dropped = Metrics.counter "sampler.dropped"

let create ?dir ?(percentile = 0.90) ?(window = 128) ?(min_window = 16)
    ?(keep_all = false) () : t =
  if window <= 0 then invalid_arg "Sampler.create: window must be positive";
  {
    dir;
    percentile = Float.max 0.0 (Float.min 1.0 percentile);
    window = Array.make window 0;
    window_len = 0;
    window_pos = 0;
    min_window = Stdlib.max 1 min_window;
    keep_all;
    all_events = [];
    seq = 0;
    trace_was_on = false;
    mutex = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Percentile of the rolling window (same nearest-rank convention as
   Metrics.percentile, but exact: the window is small enough to sort). *)
let slow_threshold (t : t) : int option =
  locked t (fun () ->
      if t.window_len < t.min_window then None
      else begin
        let a = Array.sub t.window 0 t.window_len in
        Array.sort compare a;
        let rank =
          Stdlib.max 1
            (int_of_float (Float.ceil (t.percentile *. float_of_int t.window_len)))
        in
        Some a.(rank - 1)
      end)

let push_duration t d =
  t.window.(t.window_pos) <- Stdlib.max 0 d;
  t.window_pos <- (t.window_pos + 1) mod Array.length t.window;
  t.window_len <- Stdlib.min (t.window_len + 1) (Array.length t.window)

(* Make a request id safe to embed in a filename. *)
let sanitize id =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    id

let write_trace_file path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Trace.to_chrome_json events))

(* Start collecting spans for one request: turn tracing on and flush any
   stray events recorded since the last boundary (kept in [keep_all]
   mode, dropped otherwise). *)
let begin_request (t : t) : unit =
  t.trace_was_on <- Trace.enabled ();
  Trace.enable ();
  let strays = Trace.drain () in
  if t.keep_all && strays <> [] then
    locked t (fun () -> t.all_events <- List.rev_append strays t.all_events)

(* Finish one request: decide retention from the caller's triggers plus
   the rolling-percentile slow check (against *previous* durations, so
   the first anomaly after a stable baseline is caught). *)
let end_request (t : t) ~id ~duration_us ~(triggers : string list) : decision =
  let events = Trace.drain () in
  if not t.trace_was_on then Trace.disable ();
  let threshold = slow_threshold t in
  let slow = match threshold with Some th -> duration_us > th | None -> false in
  let reason =
    match triggers with r :: _ -> r | [] -> if slow then "slow" else ""
  in
  locked t (fun () ->
      push_duration t duration_us;
      if t.keep_all then t.all_events <- List.rev_append events t.all_events;
      if reason = "" then begin
        Metrics.incr m_dropped;
        { kept = false; reason = ""; trace_name = "" }
      end
      else begin
        t.seq <- t.seq + 1;
        let name = Printf.sprintf "trace-%04d-%s.json" t.seq (sanitize id) in
        Metrics.incr m_retained;
        (match t.dir with
        | Some dir -> (
            try write_trace_file (Filename.concat dir name) events
            with Sys_error e -> Log.warn "sampler: cannot write %s: %s" name e)
        | None -> ());
        { kept = true; reason; trace_name = name }
      end)

(* [keep_all] mode: write everything accumulated (plus anything still in
   the live buffers) as one Chrome trace; returns the event count. *)
let write_all (t : t) (path : string) : int =
  let live = Trace.drain () in
  let events =
    locked t (fun () ->
        let evs = List.rev_append t.all_events live in
        t.all_events <- [];
        List.sort (fun a b -> compare a.Trace.ev_ts b.Trace.ev_ts) evs)
  in
  write_trace_file path events;
  List.length events
