(* The logical optimizer (paper Sec. 5): converts each input query into a
   sequence of logical queries by searching for the cheapest variable
   elimination order, optionally comparing against the pointwise-distributed
   form of the expression.

   Two search strategies (paper Sec. 5.6):
   - [Greedy]: eliminate the cheapest available index at each step;
   - [Branch_and_bound]: seed a bound with the greedy plan, then run dynamic
     programming over *sets* of eliminated indices, pruning states whose
     cost exceeds the bound (costs increase monotonically).

   Both searches respect an optional [Tier.budget] (wall clock + node
   count); exhausting it raises [Tier.Exhausted] and the tiered entry
   points degrade: branch-and-bound → greedy → a naive estimate-free
   elimination that can always complete. *)

open Galley_plan

type search = Greedy | Branch_and_bound

type config = {
  search : search;
  try_distribute : bool;
  weights : Galley_stats.Cost.weights;
  max_bnb_indices : int; (* fall back to greedy past this many indices *)
  max_nodes : int option; (* search-node budget per rung; None = unbounded *)
}

let default_config =
  {
    search = Branch_and_bound;
    try_distribute = true;
    weights = Galley_stats.Cost.default_weights;
    max_bnb_indices = 12;
    max_nodes = None;
  }

type result = { queries : Logical_query.t list; cost : float }

(* Estimated cost of one logical query (paper Sec. 5.2).  A non-finite
   estimate cannot steer the search; it exhausts the current rung. *)
let query_cost (cfg : config) (ctx : Galley_stats.Ctx.t)
    ((q, body) : Elimination.query) : float =
  let nnz_body = ctx.Galley_stats.Ctx.estimate_node body in
  let nnz_out =
    ctx.Galley_stats.Ctx.estimate_node
      (Logical_query.output_node q body)
  in
  Tier.finite
    (Galley_stats.Cost.logical_query_cost ~weights:cfg.weights ~nnz_body
       ~nnz_out ())

(* Register a committed logical query's output as an alias for subsequent
   estimation: schema entry (dims in output order, fill, facts) and
   statistics.  [dims] binds every index of the searched expression. *)
let register_alias ~(dims : int Ir.Idx_map.t) (ctx : Galley_stats.Ctx.t)
    ((q, body) : Elimination.query) : unit =
  let out = Logical_query.output_node q body in
  let output_idxs = q.Logical_query.output_idxs in
  Schema.declare_query_output ~dims ctx.Galley_stats.Ctx.schema
    {
      Ir.name = q.Logical_query.name;
      expr = out.Intern.expr;
      out_order = Some output_idxs;
    }
    ~output_idxs;
  ctx.Galley_stats.Ctx.register_alias_node q.Logical_query.name ~output_idxs
    out

(* Wrap up: the remaining aggregate-free expression becomes the final
   logical query (or, when it is exactly the alias of the last emitted
   query in the right order, that query is renamed instead).  [cost_of]
   prices the final query: the estimator-backed [query_cost] on the smart
   rungs, a constant zero on the naive rung. *)
let finish ~(cost_of : Elimination.query -> float) ~dims (ctx : Galley_stats.Ctx.t)
    ~(name : string) ~(out_order : Ir.idx list option) (expr : Intern.node)
    (queries : Elimination.query list) : result * float =
  assert (not expr.Intern.has_agg);
  let output_idxs =
    match out_order with
    | Some o -> o
    | None -> Ir.Idx_set.elements expr.Intern.free
  in
  match (expr.Intern.view, List.rev queries) with
  | Intern.Alias (a, idxs), (last, body) :: earlier
    when a = last.Logical_query.name && idxs = output_idxs ->
      let renamed = { last with Logical_query.name } in
      register_alias ~dims ctx (renamed, body);
      ( { queries = List.rev (renamed :: List.map fst earlier); cost = 0.0 },
        0.0 )
  | _ ->
      let q =
        Logical_query.of_node ~output_idxs ~name ~agg_op:Op.Ident ~agg_idxs:[]
          expr
      in
      let c = cost_of (q, expr) in
      register_alias ~dims ctx (q, expr);
      ({ queries = List.map fst queries @ [ q ]; cost = c }, c)

(* ------------------------------------------------------------------ *)
(* Greedy search.                                                       *)
(* ------------------------------------------------------------------ *)

let greedy ?(budget : Tier.budget option) (cfg : config)
    (ctx : Galley_stats.Ctx.t) ~(fresh : unit -> string) ~(name : string)
    ~(out_order : Ir.idx list option) (expr : Intern.node) : result =
  let dims = Schema.index_dims ctx.Galley_stats.Ctx.schema expr.Intern.expr in
  let facts = Schema.expr_facts_or_top ctx.Galley_stats.Ctx.schema dims in
  let rec loop expr queries total =
    match Elimination.available_indices expr with
    | [] ->
        let r, final_cost =
          finish ~cost_of:(query_cost cfg ctx) ~dims ctx ~name ~out_order expr
            queries
        in
        { r with cost = total +. final_cost }
    | avail ->
        (* Pick the index whose minimal sub-queries are cheapest.  Trial
           extractions share [fresh]; only the chosen one is committed. *)
        let scored =
          List.map
            (fun v ->
              Tier.tick_opt budget;
              let ext = Elimination.eliminate ~dims ~facts ~fresh expr v in
              let cost =
                List.fold_left
                  (fun acc q -> acc +. query_cost cfg ctx q)
                  0.0 ext.Elimination.queries
              in
              (v, ext, cost))
            avail
        in
        let best_v, best_ext, best_cost =
          List.fold_left
            (fun (bv, be, bc) (v, e, c) ->
              if c < bc then (v, e, c) else (bv, be, bc))
            (List.hd scored |> fun (v, e, c) -> (v, e, c))
            (List.tl scored)
        in
        if Provenance.enabled () then
          List.iter
            (fun (v, _, c) ->
              Provenance.candidate ~phase:"logical" ~query:name ~tier:"greedy"
                ~descr:("eliminate " ^ v) ~cost:c ~chosen:(v = best_v) ())
            scored;
        List.iter (register_alias ~dims ctx) best_ext.Elimination.queries;
        loop best_ext.Elimination.rewritten
          (queries @ best_ext.Elimination.queries)
          (total +. best_cost)
  in
  loop expr [] 0.0

(* ------------------------------------------------------------------ *)
(* Branch-and-bound dynamic programming over eliminated-index sets.     *)
(* ------------------------------------------------------------------ *)

type dp_entry = {
  dp_expr : Intern.node;
  dp_queries : Elimination.query list;
  dp_cost : float;
  dp_ctx : Galley_stats.Ctx.t;
}

let branch_and_bound ?(budget : Tier.budget option) (cfg : config)
    (ctx : Galley_stats.Ctx.t) ~(fresh : unit -> string) ~(name : string)
    ~(out_order : Ir.idx list option) (expr : Intern.node) : result =
  (* Step 1: greedy upper bound (on a cloned context so trial alias
     statistics do not pollute the search). *)
  let greedy_result =
    greedy ?budget cfg
      (ctx.Galley_stats.Ctx.clone ())
      ~fresh ~name ~out_order expr
  in
  let all_indices = Elimination.remaining_agg_indices expr in
  let k = List.length all_indices in
  if k = 0 || k > cfg.max_bnb_indices then begin
    (* Re-run greedy against the real context to commit its aliases. *)
    greedy ?budget cfg ctx ~fresh ~name ~out_order expr
  end
  else begin
    let pv = Provenance.enabled () in
    if pv then
      Provenance.candidate ~phase:"logical" ~query:name ~tier:"exact"
        ~descr:"greedy upper bound" ~cost:greedy_result.cost ~chosen:false ();
    let pruned_bound = ref 0 and pruned_dominated = ref 0 in
    let improvements = ref 0 in
    let bound = ref greedy_result.cost in
    let dims = Schema.index_dims ctx.Galley_stats.Ctx.schema expr.Intern.expr in
    (* A DP state is the set of eliminated indices, as a mask whose bit b
       stands for [names.(b)] (ascending). *)
    let names = Array.of_list (List.sort_uniq String.compare all_indices) in
    let bit_of (v : Ir.idx) : int =
      let rec go b = if String.equal names.(b) v then 1 lsl b else go (b + 1) in
      go 0
    in
    let full = (1 lsl Array.length names) - 1 in
    (* The comma-joined names of a state.  A level's states are expanded in
       the order a [Hashtbl] keyed by these strings lists them: that order
       decides the fresh intermediate names and the tie-breaks, which
       test/fixtures/logical_plans.txt pins. *)
    let order_key (m : int) : string =
      String.concat ","
        (List.filteri (fun b _ -> m land (1 lsl b) <> 0) (Array.to_list names))
    in
    let init =
      {
        dp_expr = expr;
        dp_queries = [];
        dp_cost = 0.0;
        dp_ctx = ctx.Galley_stats.Ctx.clone ();
      }
    in
    let best_final : dp_entry option ref = ref None in
    (* Expand level by level: states at level L have eliminated L indices. *)
    let current = ref [ (0, init) ] in
    for _level = 1 to k do
      let next : (int, dp_entry) Hashtbl.t = Hashtbl.create 32 in
      let order : (string, int) Hashtbl.t = Hashtbl.create 32 in
      List.iter
        (fun (eliminated, entry) ->
          if entry.dp_cost > !bound then incr pruned_bound
          else
            List.iter
              (fun v ->
                Tier.tick_opt budget;
                let ext =
                  Elimination.eliminate ~dims
                    ~facts:
                      (Schema.expr_facts_or_top
                         entry.dp_ctx.Galley_stats.Ctx.schema dims)
                    ~fresh entry.dp_expr v
                in
                (* Score against the parent context: the new queries only
                   reference aliases registered along this path.  Clone and
                   register only for entries that survive the bound and
                   dominate their DP cell. *)
                let step_cost =
                  List.fold_left
                    (fun acc q -> acc +. query_cost cfg entry.dp_ctx q)
                    0.0 ext.Elimination.queries
                in
                let cost = entry.dp_cost +. step_cost in
                if cost > !bound then incr pruned_bound
                else begin
                  let eliminated' = eliminated lor bit_of v in
                  let better =
                    match Hashtbl.find_opt next eliminated' with
                    | Some old -> cost < old.dp_cost
                    | None ->
                        Hashtbl.replace order (order_key eliminated')
                          eliminated';
                        true
                  in
                  if not better then incr pruned_dominated;
                  if better then begin
                    let trial_ctx = entry.dp_ctx.Galley_stats.Ctx.clone () in
                    List.iter (register_alias ~dims trial_ctx)
                      ext.Elimination.queries;
                    let entry' =
                      {
                        dp_expr = ext.Elimination.rewritten;
                        dp_queries = entry.dp_queries @ ext.Elimination.queries;
                        dp_cost = cost;
                        dp_ctx = trial_ctx;
                      }
                    in
                    Hashtbl.replace next eliminated' entry';
                    if eliminated' = full then begin
                      best_final := Some entry';
                      bound := cost;
                      incr improvements
                    end
                  end
                end)
              (Elimination.available_indices entry.dp_expr))
        !current;
      current :=
        Hashtbl.fold
          (fun _ m acc -> (m, Hashtbl.find next m) :: acc)
          order []
    done;
    if pv then begin
      Provenance.prune ~phase:"logical" ~query:name ~tier:"exact"
        ~reason:"cost above bound" ~count:!pruned_bound ();
      Provenance.prune ~phase:"logical" ~query:name ~tier:"exact"
        ~reason:"dominated dp cell" ~count:!pruned_dominated ();
      Provenance.candidate ~phase:"logical" ~query:name ~tier:"exact"
        ~descr:
          (Printf.sprintf "dp best (bound improved %d time%s)" !improvements
             (if !improvements = 1 then "" else "s"))
        ~cost:!bound
        ~chosen:(Option.is_some !best_final)
        ()
    end;
    match !best_final with
    | None ->
        (* Greedy was optimal; replay it against the real context. *)
        greedy ?budget cfg ctx ~fresh ~name ~out_order expr
    | Some entry ->
        (* Replay the DP winner's queries against the real context. *)
        let replay_cost =
          List.fold_left
            (fun acc q ->
              let c = query_cost cfg ctx q in
              register_alias ~dims ctx q;
              acc +. c)
            0.0 entry.dp_queries
        in
        let r, final_cost =
          finish ~cost_of:(query_cost cfg ctx) ~dims ctx ~name ~out_order
            entry.dp_expr entry.dp_queries
        in
        { r with cost = replay_cost +. final_cost }
  end

(* ------------------------------------------------------------------ *)
(* Naive fallback: estimate-free elimination.                           *)
(* ------------------------------------------------------------------ *)

(* Eliminate the first available index at every step, pricing nothing.
   Makes zero estimator calls and checks no budget, so it completes under
   a 0-second deadline or a faulty estimator; the resulting plan is a
   valid (if unscored) left-to-right elimination order. *)
let naive (ctx : Galley_stats.Ctx.t) ~(fresh : unit -> string)
    ~(name : string) ~(out_order : Ir.idx list option) (expr : Intern.node) :
    result =
  let dims = Schema.index_dims ctx.Galley_stats.Ctx.schema expr.Intern.expr in
  let facts = Schema.expr_facts_or_top ctx.Galley_stats.Ctx.schema dims in
  let rec loop expr queries =
    match Elimination.available_indices expr with
    | [] ->
        let r, _ =
          finish ~cost_of:(fun _ -> 0.0) ~dims ctx ~name ~out_order expr queries
        in
        r
    | v :: _ ->
        let ext = Elimination.eliminate ~dims ~facts ~fresh expr v in
        List.iter (register_alias ~dims ctx) ext.Elimination.queries;
        loop ext.Elimination.rewritten (queries @ ext.Elimination.queries)
  in
  loop expr []

(* ------------------------------------------------------------------ *)
(* Per-query and per-program drivers.                                   *)
(* ------------------------------------------------------------------ *)

let optimize_expr ?(budget : Tier.budget option) (cfg : config)
    (ctx : Galley_stats.Ctx.t) ~(fresh : unit -> string)
    ~(binder : Ir.idx -> Ir.idx) ~(name : string)
    ~(out_order : Ir.idx list option) (expr : Ir.expr) : result =
  let run (ctx : Galley_stats.Ctx.t) expr =
    let expr = Intern.of_expr expr in
    match cfg.search with
    | Greedy -> greedy ?budget cfg ctx ~fresh ~name ~out_order expr
    | Branch_and_bound ->
        branch_and_bound ?budget cfg ctx ~fresh ~name ~out_order expr
  in
  let canon =
    Canonical.canonicalize ~binder ctx.Galley_stats.Ctx.schema expr
  in
  let variants =
    canon
    ::
    (if cfg.try_distribute then
       match
         Distribute.distributed_variant ~binder ctx.Galley_stats.Ctx.schema
           canon
       with
       | Some d -> [ d ]
       | None -> []
     else [])
  in
  (* Score every variant on a cloned context, then replay the winner on the
     real context so its alias statistics are committed. *)
  let scored =
    List.map
      (fun variant ->
        let r = run (ctx.Galley_stats.Ctx.clone ()) variant in
        (variant, r.cost))
      variants
  in
  let best_variant, _ =
    List.fold_left
      (fun (bv, bc) (v, c) -> if c < bc then (v, c) else (bv, bc))
      (List.hd scored) (List.tl scored)
  in
  if Provenance.enabled () then
    List.iteri
      (fun i (v, c) ->
        Provenance.candidate ~phase:"logical" ~query:name
          ~tier:(match cfg.search with Greedy -> "greedy" | Branch_and_bound -> "exact")
          ~descr:(if i = 0 then "variant canonical" else "variant distributed")
          ~cost:c
          ~chosen:(v == best_variant)
          ())
      scored;
  run ctx best_variant

(* Degradation ladder: run the configured search under a budget, falling
   from branch-and-bound to greedy to the naive elimination as rungs
   exhaust.  Returns the tier that actually served the plan.  With
   [degrade = false] exhaustion propagates as [Tier.Exhausted] instead of
   degrading (used to surface deadline errors when requested). *)
let optimize_expr_tiered ?(deadline : float option) ?(degrade = true)
    (cfg : config) (ctx : Galley_stats.Ctx.t) ~(fresh : unit -> string)
    ~(binder : Ir.idx -> Ir.idx) ~(name : string)
    ~(out_order : Ir.idx list option) (expr : Ir.expr) : result * Tier.t =
  let budget_for () =
    match (deadline, cfg.max_nodes) with
    | None, None -> None
    | _ -> Some (Tier.budget ?deadline ?max_nodes:cfg.max_nodes ())
  in
  let last_budget : Tier.budget option ref = ref None in
  let rung_nodes () =
    match !last_budget with Some b -> b.Tier.nodes | None -> 0
  in
  let attempt search =
    let budget = budget_for () in
    last_budget := budget;
    (* Charge rung entry so trivial (tick-free) searches still respect an
       already-expired deadline. *)
    Tier.tick_opt budget;
    optimize_expr ?budget { cfg with search } ctx ~fresh ~binder ~name
      ~out_order expr
  in
  let rungs =
    match cfg.search with
    | Branch_and_bound -> [ (Branch_and_bound, Tier.Exact); (Greedy, Tier.Greedy) ]
    | Greedy -> [ (Greedy, Tier.Greedy) ]
  in
  let rec go = function
    | [] ->
        let canon =
          Canonical.canonicalize ~binder ctx.Galley_stats.Ctx.schema expr
        in
        let r = (naive ctx ~fresh ~name ~out_order (Intern.of_expr canon), Tier.Naive) in
        if Provenance.enabled () then
          Provenance.rung ~phase:"logical" ~query:name ~tier:"naive"
            ~outcome:"served" ();
        r
    | (s, t) :: rest -> (
        try
          let r =
            Galley_obs.span ~cat:"optimize"
              ~name:("logical.rung:" ^ Tier.to_string t)
              ~attrs:(fun () -> [ ("query", name) ])
              (fun () -> attempt s)
          in
          if Provenance.enabled () then
            Provenance.rung ~phase:"logical" ~query:name
              ~tier:(Tier.to_string t) ~outcome:"served" ~nodes:(rung_nodes ())
              ~cost:r.cost ();
          (r, t)
        with Tier.Exhausted ->
          if degrade then begin
            Galley_obs.Metrics.incr_named "optimizer.logical.rung_exhausted";
            if Provenance.enabled () then
              Provenance.rung ~phase:"logical" ~query:name
                ~tier:(Tier.to_string t) ~outcome:"exhausted"
                ~nodes:(rung_nodes ()) ();
            go rest
          end
          else raise Tier.Exhausted)
  in
  let r, tier = go rungs in
  Galley_obs.Metrics.incr_named
    ("optimizer.logical.tier." ^ Tier.to_string tier);
  (r, tier)

let optimize_query_tiered ?deadline ?degrade (cfg : config)
    (ctx : Galley_stats.Ctx.t) ~(fresh : unit -> string)
    ~(binder : Ir.idx -> Ir.idx) (q : Ir.query) : result * Tier.t =
  optimize_expr_tiered ?deadline ?degrade cfg ctx ~fresh ~binder
    ~name:q.Ir.name ~out_order:q.Ir.out_order q.Ir.expr

(* Optimize a whole program: queries are processed in order; each query's
   output is registered as an alias usable by later queries.  [timeout] is
   a per-query wall-clock budget (seconds); the second component records
   which ladder tier served each input query. *)
let optimize_program_tiered ?(timeout : float option) ?degrade (cfg : config)
    (ctx : Galley_stats.Ctx.t) (p : Ir.program) :
    Logical_query.t list * (string * Tier.t) list =
  let counter = ref 0 in
  let fresh () =
    incr counter;
    "#t" ^ string_of_int !counter
  in
  let binder = Canonical.binder_namer () in
  let tiers = ref [] in
  let queries =
    List.concat_map
      (fun (q : Ir.query) ->
        let deadline =
          Option.map (fun s -> Unix.gettimeofday () +. s) timeout
        in
        let r, tier =
          optimize_query_tiered ?deadline ?degrade cfg ctx ~fresh ~binder q
        in
        tiers := (q.Ir.name, tier) :: !tiers;
        r.queries)
      p.Ir.queries
  in
  (queries, List.rev !tiers)

let optimize_program (cfg : config) (ctx : Galley_stats.Ctx.t)
    (p : Ir.program) : Logical_query.t list =
  fst (optimize_program_tiered cfg ctx p)
