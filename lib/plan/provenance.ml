(* Optimizer provenance: a search-trace recorder for the logical and
   physical plan searches (DESIGN.md §16).

   When enabled, the tier ladders and the per-rung searches record the
   candidates they enumerate, the estimated cost of each, prune and
   rejection tallies, and the per-operator cost predictions of the plan
   finally chosen.  The recorder follows the same discipline as
   [Galley_obs.Trace]: off by default ([GALLEY_PROVENANCE=1] or
   [enable] turns it on), one atomic read on the gated path, and the
   hooks only *observe* values the search already computed — enabling
   provenance never makes an extra estimator call, so the chosen plans
   are bit-identical with the recorder on or off.

   [drain] removes and returns everything recorded so far (oldest
   first); `galley explain --analyze` renders it directly, while
   `galley serve` keeps each request's drained events on its flight
   record, so `client explain <digest>` can replay the search for any
   request still in the flight ring. *)

type event = {
  pv_kind : string;  (* "rung" | "candidate" | "prune" | "operator" *)
  pv_phase : string;  (* "logical" | "physical" *)
  pv_query : string;  (* logical query name, "" when not per-query *)
  pv_tier : string;  (* rung ("exact" | "greedy" | "naive") *)
  pv_label : string;  (* rung outcome / candidate descr / prune reason
                         / kernel name *)
  pv_cost : float;  (* estimated cost; nan when not applicable *)
  pv_chosen : bool;  (* candidate won its step / rung served the query *)
  pv_attrs : (string * string) list;
}

let env_default () =
  match Sys.getenv_opt "GALLEY_PROVENANCE" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false

let on : bool Atomic.t = Atomic.make (env_default ())
let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false

(* The optimizers run on whichever thread planned the query (the CLI
   main thread, or the serve executor); a single mutex-guarded buffer
   is plenty and keeps [drain] trivially complete. *)
let buf : event list ref = ref []
let buf_mutex = Mutex.create ()

let record (ev : event) : unit =
  Mutex.lock buf_mutex;
  buf := ev :: !buf;
  Mutex.unlock buf_mutex

(* Emitters.  Call sites gate on [enabled ()] *before* building any
   description strings; the checks here are belt-and-braces so a stray
   unguarded call cannot record into a disabled buffer. *)

let rung ~phase ~query ~tier ~outcome ?(nodes = 0) ?(cost = Float.nan) () =
  if Atomic.get on then
    record
      {
        pv_kind = "rung";
        pv_phase = phase;
        pv_query = query;
        pv_tier = tier;
        pv_label = outcome;
        pv_cost = cost;
        pv_chosen = outcome = "served";
        pv_attrs = [ ("nodes", string_of_int nodes) ];
      }

let candidate ~phase ~query ~tier ~descr ~cost ~chosen ?(attrs = []) () =
  if Atomic.get on then
    record
      {
        pv_kind = "candidate";
        pv_phase = phase;
        pv_query = query;
        pv_tier = tier;
        pv_label = descr;
        pv_cost = cost;
        pv_chosen = chosen;
        pv_attrs = attrs;
      }

let prune ~phase ~query ~tier ~reason ?(count = 1) () =
  if Atomic.get on then
    record
      {
        pv_kind = "prune";
        pv_phase = phase;
        pv_query = query;
        pv_tier = tier;
        pv_label = reason;
        pv_cost = Float.nan;
        pv_chosen = false;
        pv_attrs = [ ("count", string_of_int count) ];
      }

(* One chosen physical operator with its predicted cost and output nnz
   — the prediction side of the `explain --analyze` join. *)
let operator ~query ~kernel ~cost ?(attrs = []) () =
  if Atomic.get on then
    record
      {
        pv_kind = "operator";
        pv_phase = "physical";
        pv_query = query;
        pv_tier = "";
        pv_label = kernel;
        pv_cost = cost;
        pv_chosen = true;
        pv_attrs = attrs;
      }

(* Remove and return all recorded events, oldest first. *)
let drain () : event list =
  Mutex.lock buf_mutex;
  let evs = !buf in
  buf := [];
  Mutex.unlock buf_mutex;
  List.rev evs

let reset () = ignore (drain ())

(* ------------------------------------------------------------------ *)
(* JSON rendering (single line per event, JSONL-friendly).              *)
(* ------------------------------------------------------------------ *)

let esc = Galley_obs.Metrics.json_escape

let event_to_json (ev : event) : string =
  let b = Buffer.create 160 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"kind\":\"%s\",\"phase\":\"%s\",\"query\":\"%s\",\"tier\":\"%s\",\"label\":\"%s\""
       (esc ev.pv_kind) (esc ev.pv_phase) (esc ev.pv_query) (esc ev.pv_tier)
       (esc ev.pv_label));
  if Float.is_finite ev.pv_cost then
    Buffer.add_string b (Printf.sprintf ",\"cost\":%.6g" ev.pv_cost);
  if ev.pv_chosen then Buffer.add_string b ",\"chosen\":true";
  (match ev.pv_attrs with
  | [] -> ()
  | attrs ->
      Buffer.add_string b ",\"attrs\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "\"%s\":\"%s\"" (esc k) (esc v)))
        attrs;
      Buffer.add_char b '}');
  Buffer.add_char b '}';
  Buffer.contents b

let events_to_json (evs : event list) : string =
  let b = Buffer.create 1024 in
  Buffer.add_char b '[';
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (event_to_json ev))
    evs;
  Buffer.add_char b ']';
  Buffer.contents b
