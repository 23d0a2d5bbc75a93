(* The traced decomposition: the steps of [Driver.run] (statistics,
   logical optimization, then per logical query a JIT statistics refresh,
   physical planning and execution), re-driven from the benchmark through
   each layer's public functions with a span around every call.

   Compile and execute share one engine call, so they are split with a
   probe executor that runs the finished physical plan again outside the
   op's span, with CSE off: cold minus warm run is compile time.  A second
   probe at one domain per CPU gives the parallel runtime's overhead as
   its warm run minus the first probe's (at the configured domains, which
   the benchmark sets to 1). *)

module D = Galley.Driver
module T = Galley_tensor.Tensor
module Ctx = Galley_stats.Ctx
module Ir = Galley_plan.Ir
module Schema = Galley_plan.Schema
module LQ = Galley_plan.Logical_query
module Exec = Galley_engine.Exec

type t = {
  config : D.config;
  spans : Spans.t;
  ctx : Ctx.t;
  exec : Exec.t;  (** as [Driver.run] builds it: CSE on, configured domains *)
  probe : Exec.t;  (** CSE off, configured domains *)
  probe_par : Exec.t;  (** CSE off, one domain per CPU *)
  refreshed : (string, unit) Hashtbl.t;
}

let span t ~op name f = Spans.span t.spans ~op name f

(* A context and an executor holding [inputs]: statistics construction is
   the [stats.build] layer, binding into the engine the engine's.  The
   probe executors start empty (see [bind_probes]). *)
let create ~(config : D.config) ~(spans : Spans.t) ~(op : string)
    (inputs : (string * T.t) list) : t =
  let ctx =
    Spans.span spans ~op "stats.build" (fun () ->
        let schema = Schema.create () in
        List.iter (fun (n, x) -> Schema.declare_tensor schema n x) inputs;
        let ctx = Ctx.create ~kind:config.D.estimator schema in
        List.iter (fun (n, x) -> ctx.Ctx.register_input n x) inputs;
        ctx)
  in
  let mk ~cse ~domains =
    Exec.create ~cse ~backend:config.D.kernel_backend ~domains
      ~kernel_cache_cap:config.D.kernel_cache_cap
      ~cse_cache_cap:config.D.cse_cache_cap ()
  in
  let exec =
    Spans.span spans ~op "engine.run" (fun () ->
        let e = mk ~cse:config.D.cse ~domains:config.D.domains in
        List.iter (fun (n, x) -> Exec.bind e n x) inputs;
        e)
  in
  {
    config;
    spans;
    ctx;
    exec;
    probe = mk ~cse:false ~domains:config.D.domains;
    probe_par = mk ~cse:false ~domains:(Domain.recommended_domain_count ());
    refreshed = Hashtbl.create 16;
  }

let shutdown (t : t) : unit =
  List.iter Exec.shutdown [ t.exec; t.probe; t.probe_par ]

(* Rebind an input (a fixpoint's carried tensor, a served write): its
   statistics are recomputed under [layer].  Probes are bound separately,
   with [bind_probes]. *)
let rebind (t : t) ~(op : string) ~(layer : string) (name : string) (x : T.t)
    : unit =
  span t ~op layer (fun () ->
      Schema.declare_tensor t.ctx.Ctx.schema name x;
      t.ctx.Ctx.register_input name x);
  span t ~op "engine.run" (fun () -> Exec.bind t.exec name x);
  Hashtbl.remove t.refreshed name

(* Mirror bindings into the probe executors (outside any op span). *)
let bind_probes (t : t) (bindings : (string * T.t) list) : unit =
  List.iter
    (fun (n, x) ->
      Exec.bind t.probe n x;
      Exec.bind t.probe_par n x)
    bindings

(* Logical optimization, then per query: refresh statistics of the
   aliases it reads from their materialized tensors (JIT), plan it
   physically, execute it.  Returns the program's outputs and the
   concatenated physical plan. *)
let run_program (t : t) ~(op : string) (program : Ir.program) :
    (string * T.t) list * Galley_plan.Physical.plan =
  let program = D.resolve_names program in
  let logical, _ =
    span t ~op "logical.opt" (fun () ->
        Galley_logical.Optimizer.optimize_program_tiered t.config.D.logical
          t.ctx program)
  in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "#p%d" !counter
  in
  let steps =
    List.concat_map
      (fun (q : LQ.t) ->
        span t ~op "stats.refresh" (fun () ->
            List.iter
              (fun (name, kind) ->
                match (kind, Exec.lookup_opt t.exec name) with
                | `Alias, Some x when not (Hashtbl.mem t.refreshed name) ->
                    Hashtbl.replace t.refreshed name ();
                    Schema.declare_tensor t.ctx.Ctx.schema name x;
                    t.ctx.Ctx.register_alias_tensor name x
                | _ -> ())
              (Ir.referenced_names q.LQ.body));
        let plan, _ =
          span t ~op "physical.opt" (fun () ->
              Galley_physical.Optimizer.plan_query_tiered
                ~config:t.config.D.physical t.ctx ~fresh q)
        in
        span t ~op "engine.run" (fun () -> Exec.run_plan t.exec plan);
        plan)
      logical
  in
  (* A fresh run re-materializes every alias; their statistics are
     refreshed again on the next program. *)
  Hashtbl.reset t.refreshed;
  let outputs =
    List.filter_map
      (fun n -> Option.map (fun x -> (n, x)) (Exec.lookup_opt t.exec n))
      program.Ir.outputs
  in
  (outputs, steps)

(* Probe runs of a finished plan, recorded as root spans of [op] (outside
   its timed span). *)
let probe (t : t) ~(op : string) (plan : Galley_plan.Physical.plan) : unit =
  let timed name exec =
    let t0 = Spans.now () in
    Exec.run_plan exec plan;
    Spans.record t.spans ~op name ~t0 ~t1:(Spans.now ())
  in
  timed "probe.cold" t.probe;
  timed "probe.warm" t.probe;
  Exec.run_plan t.probe_par plan;
  timed "probe.warm_par" t.probe_par

(* One op instance's layer times, by metric name: self times of the
   layer spans, with the engine span split by the probes into compile and
   execute. *)
let layer_times (spans : Spans.span list) : (string * float) list =
  let self = Spans.self_time spans in
  let compile = self "probe.cold" -. self "probe.warm" in
  [
    ("lang.parse_s", self "lang.parse");
    ("stats.build_s", self "stats.build");
    ("stats.refresh_s", self "stats.refresh");
    ("logical.opt_s", self "logical.opt");
    ("physical.opt_s", self "physical.opt");
    ("compile.s", compile);
    ("engine.execute_s", self "engine.run" -. compile);
  ]

let parallel_overhead (spans : Spans.span list) : float =
  Spans.self_time spans "probe.warm_par" -. Spans.self_time spans "probe.warm"
