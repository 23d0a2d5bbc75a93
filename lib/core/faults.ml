(* Fault-injection harness for the resilience layer.

   A [t] describes which faults are active; [Driver] threads it through the
   pipeline.  Estimator faults are injected by wrapping the statistics
   context's estimate closures (so both optimizers see them, and clones of
   the context stay wrapped); kernel faults install an [Exec] kernel hook
   that raises on the configured invocation.  With [none] (the default)
   every seam is a no-op and the pipeline is byte-for-byte unchanged. *)

module Ctx = Galley_stats.Ctx

type t = {
  estimator_nan : bool; (* every estimate returns NaN *)
  estimator_inf : bool; (* every estimate returns +inf (overflow) *)
  estimator_scale : float; (* multiply every estimate; 1.0 = off *)
  optimizer_delay : float; (* seconds slept inside every estimate call *)
  kernel_fail_on : int option; (* fail the nth kernel invocation (1-based) *)
  (* Server-side injection points, consumed by `galley serve` (the chaos
     surface must cover the daemon, not just batch runs): *)
  serve_accept_fail_on : int option;
      (* drop the nth accepted connection as if accept(2) had failed *)
  serve_kill_on : int option;
      (* kill the nth admitted query request mid-flight, after parse *)
  serve_stall : float;
      (* seconds a connection stalls before draining each response
         (a slow-client simulation) *)
}

let none =
  {
    estimator_nan = false;
    estimator_inf = false;
    estimator_scale = 1.0;
    optimizer_delay = 0.0;
    kernel_fail_on = None;
    serve_accept_fail_on = None;
    serve_kill_on = None;
    serve_stall = 0.0;
  }

let is_none (f : t) : bool = f = none

let estimator_active (f : t) : bool =
  f.estimator_nan || f.estimator_inf || f.estimator_scale <> 1.0
  || f.optimizer_delay > 0.0

exception Injected_kernel_failure of int

(* Wrap the estimate closures of a context.  [clone] is re-wrapped
   recursively: the optimizers score candidates on cloned contexts, and the
   faults must survive into every search branch. *)
let m_estimator_faults =
  Galley_obs.Metrics.counter "faults.estimator_injected"

let m_kernel_faults = Galley_obs.Metrics.counter "faults.kernel_injected"

let rec wrap_ctx (f : t) (ctx : Ctx.t) : Ctx.t =
  if not (estimator_active f) then ctx
  else
    let inject v =
      Galley_obs.Metrics.incr m_estimator_faults;
      if f.optimizer_delay > 0.0 then Unix.sleepf f.optimizer_delay;
      if f.estimator_nan then Float.nan
      else if f.estimator_inf then Float.infinity
      else v *. f.estimator_scale
    in
    {
      ctx with
      Ctx.estimate_node = (fun n -> inject (ctx.Ctx.estimate_node n));
      Ctx.estimate_access_projected =
        (fun name idxs keep ->
          inject (ctx.Ctx.estimate_access_projected name idxs keep));
      Ctx.clone = (fun () -> wrap_ctx f (ctx.Ctx.clone ()));
    }

(* Install the kernel-failure hook (if configured) on an executor.  A
   [None] spec *clears* any previously installed hook: resident sessions
   (galley serve) reuse one executor across requests with differing fault
   configs, and a stale hook must not leak into the next request. *)
let install_exec (f : t) (exec : Galley_engine.Exec.t) : unit =
  match f.kernel_fail_on with
  | None -> Galley_engine.Exec.clear_kernel_hook exec
  | Some nth ->
      Galley_engine.Exec.set_kernel_hook exec (fun n ->
          if n = nth then begin
            Galley_obs.Metrics.incr m_kernel_faults;
            raise (Injected_kernel_failure n)
          end)

(* Parse a comma-separated fault spec, e.g.
   "estimator-nan,kernel-fail=3,opt-delay=0.05,estimator-scale=1e-6". *)
let of_spec (spec : string) : (t, string) result =
  let parts =
    List.filter
      (fun s -> s <> "")
      (List.map String.trim (String.split_on_char ',' spec))
  in
  let parse_float key v =
    match float_of_string_opt v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "bad value %S for fault %s" v key)
  in
  let parse_int key v =
    match int_of_string_opt v with
    | Some x when x >= 1 -> Ok x
    | _ -> Error (Printf.sprintf "bad value %S for fault %s" v key)
  in
  List.fold_left
    (fun acc part ->
      Result.bind acc (fun f ->
          match String.split_on_char '=' part with
          | [ "estimator-nan" ] -> Ok { f with estimator_nan = true }
          | [ "estimator-inf" ] -> Ok { f with estimator_inf = true }
          | [ "estimator-scale"; v ] ->
              Result.map
                (fun x -> { f with estimator_scale = x })
                (parse_float "estimator-scale" v)
          | [ "opt-delay"; v ] ->
              Result.map
                (fun x -> { f with optimizer_delay = x })
                (parse_float "opt-delay" v)
          | [ "kernel-fail"; v ] ->
              Result.map
                (fun n -> { f with kernel_fail_on = Some n })
                (parse_int "kernel-fail" v)
          | [ "serve-accept-fail"; v ] ->
              Result.map
                (fun n -> { f with serve_accept_fail_on = Some n })
                (parse_int "serve-accept-fail" v)
          | [ "serve-kill"; v ] ->
              Result.map
                (fun n -> { f with serve_kill_on = Some n })
                (parse_int "serve-kill" v)
          | [ "serve-stall"; v ] ->
              Result.map
                (fun x -> { f with serve_stall = x })
                (parse_float "serve-stall" v)
          | _ -> Error (Printf.sprintf "unknown fault %S" part)))
    (Ok none) parts

let to_string (f : t) : string =
  let parts =
    (if f.estimator_nan then [ "estimator-nan" ] else [])
    @ (if f.estimator_inf then [ "estimator-inf" ] else [])
    @ (if f.estimator_scale <> 1.0 then
         [ Printf.sprintf "estimator-scale=%g" f.estimator_scale ]
       else [])
    @ (if f.optimizer_delay > 0.0 then
         [ Printf.sprintf "opt-delay=%g" f.optimizer_delay ]
       else [])
    @ (match f.kernel_fail_on with
      | Some n -> [ Printf.sprintf "kernel-fail=%d" n ]
      | None -> [])
    @ (match f.serve_accept_fail_on with
      | Some n -> [ Printf.sprintf "serve-accept-fail=%d" n ]
      | None -> [])
    @ (match f.serve_kill_on with
      | Some n -> [ Printf.sprintf "serve-kill=%d" n ]
      | None -> [])
    @
    if f.serve_stall > 0.0 then
      [ Printf.sprintf "serve-stall=%g" f.serve_stall ]
    else []
  in
  match parts with [] -> "none" | parts -> String.concat "," parts
