(* Degradation tiers and search budgets for the optimizers.

   Both the logical and the physical optimizer run a ladder of search
   strategies: exact branch-and-bound / DP first, greedy second, and a
   naive estimate-free fallback last.  A [budget] bounds one rung of the
   ladder by wall clock and/or expanded search nodes; exceeding it (or
   encountering a non-finite cost estimate) raises [Exhausted], which the
   ladder catches to fall to the next rung.  The fallback rung makes no
   estimator calls and checks no budget, so optimization itself can never
   fail a query. *)

type t = Exact | Greedy | Naive

let to_string = function
  | Exact -> "exact"
  | Greedy -> "greedy"
  | Naive -> "naive"

let of_string = function
  | "exact" -> Some Exact
  | "greedy" -> Some Greedy
  | "naive" -> Some Naive
  | _ -> None

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* The tier actually served is the requested one or a degradation of it. *)
let rank = function Exact -> 2 | Greedy -> 1 | Naive -> 0

exception Exhausted

type budget = {
  deadline : float option; (* absolute, Unix.gettimeofday scale *)
  max_nodes : int option;
  mutable nodes : int;
}

let budget ?deadline ?max_nodes () : budget = { deadline; max_nodes; nodes = 0 }

(* Candidates expanded across all budgeted searches, for the metrics
   report; [budget.nodes] remains the per-rung count. *)
let m_search_nodes = Galley_obs.Metrics.counter "optimizer.search_nodes"

(* Count one expanded search node; raise when the budget is gone. *)
let tick (b : budget) : unit =
  b.nodes <- b.nodes + 1;
  Galley_obs.Metrics.incr m_search_nodes;
  (match b.max_nodes with
  | Some m when b.nodes > m -> raise Exhausted
  | _ -> ());
  (* >= so a zero-second budget is exhausted even within the clock's
     resolution of its creation *)
  match b.deadline with
  | Some d when Unix.gettimeofday () >= d -> raise Exhausted
  | _ -> ()

let tick_opt (b : budget option) : unit =
  match b with Some b -> tick b | None -> ()

(* Cost estimates must be finite to steer a search; a NaN or overflowed
   estimate (e.g. from a faulty estimator) exhausts the rung instead of
   silently corrupting every comparison against it. *)
let finite (c : float) : float = if Float.is_finite c then c else raise Exhausted

(* QoS knob: map a per-request wall-clock budget (seconds) to the highest
   optimizer tier that can be afforded (DESIGN.md "Serving").  A tight
   budget cannot pay for plan search: under [naive_below] seconds the
   request gets the estimate-free naive rung; under [greedy_below] the
   greedy search; anything slower (or unbudgeted) gets the exact search.
   `galley serve` threads its thresholds through here, so a 50 ms
   interactive budget lands on [Naive] while a batch request keeps
   [Exact]. *)
let of_budget ?(naive_below = 0.1) ?(greedy_below = 1.0) (budget_s : float) : t
    =
  if budget_s < naive_below then Naive
  else if budget_s < greedy_below then Greedy
  else Exact

(* Per-tier count summary, e.g. for bench output. *)
let counts (tiers : (string * t) list) : int * int * int =
  List.fold_left
    (fun (e, g, n) (_, t) ->
      match t with
      | Exact -> (e + 1, g, n)
      | Greedy -> (e, g + 1, n)
      | Naive -> (e, g, n + 1))
    (0, 0, 0) tiers
