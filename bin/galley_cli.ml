(* Command-line front end.

     galley_cli run prog.gly --input X=x.coo --random "E=100x100:0.01:42" \
       --show-plans --timings
     galley_cli demo

   Programs are written in textual tensor index notation (see
   lib/lang/parser.ml for the grammar); tensors load from plain-text COO
   files or are generated randomly.  Failures surface as classified Galley
   errors: parse errors exit with 2, everything else with 1. *)

module T = Galley_tensor.Tensor

let parse_random_spec (spec : string) : string * T.t =
  (* name=DIMSxDIMS:density:seed, e.g. E=100x100:0.01:42 *)
  match String.split_on_char '=' spec with
  | [ name; rest ] -> (
      match String.split_on_char ':' rest with
      | [ dims_s; density_s; seed_s ] ->
          let dims =
            Array.of_list
              (List.map int_of_string (String.split_on_char 'x' dims_s))
          in
          let formats =
            Array.init (Array.length dims) (fun k ->
                if k = 0 then T.Dense else T.Sparse_list)
          in
          let prng = Galley_tensor.Prng.create (int_of_string seed_s) in
          ( name,
            T.random ~prng ~dims ~formats ~density:(float_of_string density_s)
              () )
      | _ -> invalid_arg ("bad --random spec: " ^ spec))
  | _ -> invalid_arg ("bad --random spec: " ^ spec)

let parse_input_spec (spec : string) : string * T.t =
  match String.split_on_char '=' spec with
  | [ name; path ] -> (name, Galley_tensor.Tensor_io.load path)
  | _ -> invalid_arg ("bad --input spec: " ^ spec)

let pp_tier_summary label (tiers : (string * Galley_plan.Tier.t) list) =
  match tiers with
  | [] -> ()
  | _ ->
      let exact, greedy, naive = Galley_plan.Tier.counts tiers in
      Format.printf "%s tiers: exact=%d greedy=%d naive=%d%s@." label exact
        greedy naive
        (match
           List.filter (fun (_, t) -> t <> Galley_plan.Tier.Exact) tiers
         with
        | [] -> ""
        | degraded ->
            " ["
            ^ String.concat ", "
                (List.map
                   (fun (n, t) -> n ^ ":" ^ Galley_plan.Tier.to_string t)
                   degraded)
            ^ "]")

let print_result ~show_plans ~timings (res : Galley.Driver.result) =
  if show_plans then begin
    Format.printf "== logical plan ==@.";
    List.iter
      (fun q -> Format.printf "%a@." Galley_plan.Logical_query.pp q)
      res.Galley.Driver.logical_plan;
    Format.printf "== physical plan ==@.%a@." Galley_plan.Physical.pp_plan
      res.Galley.Driver.physical_plan
  end;
  List.iter
    (fun (name, idxs, t) ->
      Format.printf "== output %s[%s] ==@.%a@." name (String.concat "," idxs)
        T.pp t)
    res.Galley.Driver.outputs;
  if timings then begin
    let t = res.Galley.Driver.timings in
    Format.printf
      "timings: logical=%.4fs physical=%.4fs compile=%.4fs (%d kernels \
       compiled) execute=%.4fs cse_hits=%d@."
      t.Galley.Driver.logical_seconds t.Galley.Driver.physical_seconds
      t.Galley.Driver.compile_seconds t.Galley.Driver.compile_count
      t.Galley.Driver.execute_seconds t.Galley.Driver.cse_hits;
    pp_tier_summary "logical" res.Galley.Driver.logical_tiers;
    pp_tier_summary "physical" res.Galley.Driver.physical_tiers;
    if res.Galley.Driver.nnz_guard_retries > 0 then
      Format.printf "nnz guardrail: %d corrective re-optimization(s)@."
        res.Galley.Driver.nnz_guard_retries
  end;
  if res.Galley.Driver.timed_out then
    Format.printf "TIMED OUT (incomplete outputs: %s)@."
      (match res.Galley.Driver.incomplete_outputs with
      | [] -> "none"
      | inc -> String.concat ", " inc)

(* Fixpoint (iterate) execution summary: one line per loop, plus the
   per-iteration trajectory under --timings. *)
let print_fixpoint_reports ~timings (reports : Galley_fixpoint.Fixpoint.fix_report list) =
  let open Galley_fixpoint.Fixpoint in
  List.iter
    (fun fr ->
      Format.printf
        "fixpoint %s: %s after %d iteration(s), %d plan switch(es)%s@."
        fr.fr_name
        (if fr.fr_converged then "converged" else "stopped")
        fr.fr_iterations fr.fr_replans
        (match fr.fr_switch_iters with
        | [] -> ""
        | l ->
            " at ["
            ^ String.concat "," (List.map string_of_int l)
            ^ "]");
      if timings then
        List.iteri
          (fun k it ->
            Format.printf "  iter %d: %.4fs compiles=%d cse_hits=%d%s%s%s@."
              (k + 1) it.it_seconds it.it_compile_count it.it_cse_hits
              (match it.it_delta with
              | Some d -> Printf.sprintf " delta=%g" d
              | None -> "")
              (match it.it_nnz with
              | [] -> ""
              | l ->
                  " nnz="
                  ^ String.concat ","
                      (List.map (fun (n, z) -> Printf.sprintf "%s:%d" n z) l))
              (match (it.it_replanned, it.it_switch) with
              | true, Some s -> Printf.sprintf " [replanned: %s]" s
              | true, None -> " [replanned]"
              | false, _ -> ""))
          fr.fr_iters)
    reports

(* Exit codes: 0 ok, 1 classified Galley failure, 2 parse error. *)
let report_error (e : Galley.Errors.t) : int =
  Format.eprintf "galley: %s@." (Galley.Errors.to_string e);
  match e with Galley.Errors.Parse_error _ -> 2 | _ -> 1

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Flush observability sinks after a run (success or failure): the trace
   file should cover whatever phases did execute. *)
let finish_obs ~trace ~metrics =
  (match trace with
  | Some path ->
      let n = Galley_obs.Trace.write_file path in
      Format.printf "trace: %d events written to %s@." n path
  | None -> ());
  if metrics then Format.printf "%s" (Galley_obs.Metrics.dump ())

let run_cmd program_file inputs randoms outputs show_plans timings greedy
    uniform no_jit no_cse timeout opt_timeout faults_spec no_validate
    no_degrade nnz_guard domains trace metrics =
  let src = read_file program_file in
  if trace <> None then Galley_obs.Trace.enable ();
  if metrics then Galley_obs.Metrics.set_detailed true;
  let faults =
    match Galley.Faults.of_spec faults_spec with
    | Ok f -> f
    | Error msg ->
        Format.eprintf "galley: bad --faults spec: %s@." msg;
        exit 2
  in
  let config =
    {
      (if greedy then Galley.Driver.greedy_config
       else Galley.Driver.default_config)
      with
      estimator =
        (if uniform then Galley_stats.Ctx.Uniform_kind
         else Galley_stats.Ctx.Chain_kind);
      jit = not no_jit;
      cse = not no_cse;
      timeout;
      optimizer_timeout = opt_timeout;
      degrade = not no_degrade;
      validate = not no_validate;
      faults;
      nnz_guard;
      domains;
    }
  in
  match Galley_fixpoint.Fixpoint.parse_checked src with
  | Error e -> report_error e
  | Ok xprogram -> (
      let xprogram =
        match outputs with
        | [] -> xprogram
        | outs -> { xprogram with Galley_plan.Ir.xoutputs = outs }
      in
      let bound =
        List.map parse_input_spec inputs @ List.map parse_random_spec randoms
      in
      match
        Galley_fixpoint.Fixpoint.run_checked ~config ~inputs:bound xprogram
      with
      | Ok (res, reports) ->
          print_result ~show_plans ~timings res;
          print_fixpoint_reports ~timings reports;
          finish_obs ~trace ~metrics;
          0
      | Error e ->
          finish_obs ~trace ~metrics;
          report_error e)

(* explain: run the program with the estimator audit on and print what the
   optimizer decided (plans, loop orders, formats) next to how well its
   cardinality predictions matched reality. *)
let print_explain (config : Galley.Driver.config) (res : Galley.Driver.result) =
  let open Galley.Driver in
  Format.printf "== logical plan ==@.";
  List.iter
    (fun q -> Format.printf "%a@." Galley_plan.Logical_query.pp q)
    res.logical_plan;
  Format.printf "== physical plan (loop orders, formats, protocols) ==@.%a@."
    Galley_plan.Physical.pp_plan res.physical_plan;
  Format.printf "== estimator audit (predicted vs. actual nnz) ==@.";
  (match res.audit with
  | Some a -> Galley_obs.Audit.pp_rows Format.std_formatter a
  | None -> Format.printf "(no audit data)@.");
  Format.printf "== configuration ==@.";
  Format.printf
    "estimator=%s backend=%s domains=%d jit=%b cse=%b opt_timeout=%s@."
    (Galley_stats.Ctx.kind_to_string config.estimator)
    (Galley_engine.Exec.backend_to_string config.kernel_backend)
    config.domains config.jit config.cse
    (match config.optimizer_timeout with
    | Some s -> Printf.sprintf "%gs" s
    | None -> "none");
  pp_tier_summary "logical" res.logical_tiers;
  pp_tier_summary "physical" res.physical_tiers;
  if res.timed_out then
    Format.printf "TIMED OUT (incomplete outputs: %s)@."
      (match res.incomplete_outputs with
      | [] -> "none"
      | inc -> String.concat ", " inc)

(* The recorded search trace, in recording order: one line per ladder
   rung, indented lines for the candidates each rung scored and the
   prune tallies of the branch-and-bound searches. *)
let print_search_trace (evs : Galley_plan.Provenance.event list) =
  let open Galley_plan.Provenance in
  match evs with
  | [] ->
      Format.printf
        "== optimizer search trace: no events recorded ==@."
  | _ ->
      Format.printf "== optimizer search trace ==@.";
      List.iter
        (fun ev ->
          let cost =
            if Float.is_finite ev.pv_cost then
              Printf.sprintf " cost=%.4g" ev.pv_cost
            else ""
          in
          match ev.pv_kind with
          | "rung" ->
              Format.printf "%s %s: rung %s -> %s%s%s@." ev.pv_phase
                ev.pv_query ev.pv_tier ev.pv_label cost
                (match List.assoc_opt "nodes" ev.pv_attrs with
                | Some n when n <> "0" -> " nodes=" ^ n
                | _ -> "")
          | "candidate" ->
              Format.printf "  %s %s [%s] %s%s%s@." ev.pv_phase ev.pv_query
                ev.pv_tier ev.pv_label cost
                (if ev.pv_chosen then "  <-- chosen" else "")
          | "prune" ->
              Format.printf "  %s %s [%s] pruned %s: %s@." ev.pv_phase
                ev.pv_query ev.pv_tier
                (match List.assoc_opt "count" ev.pv_attrs with
                | Some c -> c
                | None -> "?")
                ev.pv_label
          | _ -> ())
        evs

(* Per-operator cost attribution: the optimizer's predicted loop cost
   for each chosen kernel (provenance "operator" events) joined by
   kernel name with the measured spans of the same run, and the audit's
   per-query nnz prediction (under the active estimator) joined with
   the measured output nnz.  Predicted cost is in abstract estimator
   units, so its q-error is computed after scaling by the run-wide
   us-per-cost-unit ratio. *)
let print_operator_analysis ~(estimator : string)
    (audit : Galley_obs.Audit.t option)
    (evs : Galley_plan.Provenance.event list)
    (forest : Galley_obs.Profile.node list) =
  let open Galley_plan.Provenance in
  let ops = List.filter (fun ev -> ev.pv_kind = "operator") evs in
  match ops with
  | [] ->
      Format.printf "== per-operator attribution: no operator events ==@."
  | _ ->
      let ks = Galley_obs.Profile.kernels forest in
      let find_k name =
        List.find_opt
          (fun (k : Galley_obs.Profile.kernel_row) -> k.k_kernel = name)
          ks
      in
      let audit_rows =
        match audit with Some a -> Galley_obs.Audit.rows a | None -> []
      in
      let find_audit query =
        List.find_opt
          (fun (r : Galley_obs.Audit.row) ->
            r.r_query = query && r.r_estimator = estimator)
          audit_rows
      in
      let tot_cost = ref 0.0 and tot_us = ref 0 in
      List.iter
        (fun ev ->
          match find_k ev.pv_label with
          | Some k when Float.is_finite ev.pv_cost ->
              tot_cost := !tot_cost +. ev.pv_cost;
              tot_us := !tot_us + k.k_excl_us
          | _ -> ())
        ops;
      let scale =
        if !tot_cost > 0.0 && !tot_us > 0 then
          float_of_int !tot_us /. !tot_cost
        else Float.nan
      in
      Format.printf
        "== per-operator attribution (predicted vs. measured) ==@.";
      Format.printf "%-14s %-8s %12s %10s %10s %10s %7s %7s  %s@." "kernel"
        "tier" "pred-cost" "pred-nnz" "meas-ms" "meas-nnz" "nnz-q" "cost-q"
        "merge";
      List.iter
        (fun ev ->
          let fmt_f = function
            | Some f when Float.is_finite f -> Printf.sprintf "%.4g" f
            | _ -> "-"
          in
          let pred_nnz =
            Option.map
              (fun (r : Galley_obs.Audit.row) -> r.r_predicted)
              (find_audit ev.pv_query)
          in
          let tier =
            Option.value ~default:"?" (List.assoc_opt "tier" ev.pv_attrs)
          in
          let meas = find_k ev.pv_label in
          let meas_ms =
            match meas with
            | Some k ->
                Printf.sprintf "%.3f" (float_of_int k.k_excl_us /. 1000.0)
            | None -> "-"
          in
          let meas_nnz =
            match meas with
            | Some k when k.k_out_nnz >= 0 -> Some (float_of_int k.k_out_nnz)
            | _ -> None
          in
          let nnz_q =
            match (pred_nnz, meas_nnz) with
            | Some p, Some a ->
                Some (Galley_obs.Audit.q_error ~predicted:p ~actual:a)
            | _ -> None
          in
          let cost_q =
            match meas with
            | Some k
              when Float.is_finite ev.pv_cost
                   && Float.is_finite scale && k.k_excl_us > 0 ->
                Some
                  (Galley_obs.Audit.q_error
                     ~predicted:(ev.pv_cost *. scale)
                     ~actual:(float_of_int k.k_excl_us))
            | _ -> None
          in
          Format.printf "%-14s %-8s %12s %10s %10s %10s %7s %7s  %s@."
            ev.pv_label tier
            (fmt_f
               (if Float.is_finite ev.pv_cost then Some ev.pv_cost else None))
            (fmt_f pred_nnz) meas_ms (fmt_f meas_nnz) (fmt_f nnz_q)
            (fmt_f cost_q)
            (match meas with Some k -> k.k_merge | None -> "-"))
        ops;
      if Float.is_finite scale then
        Format.printf
          "(cost q-errors use the run-wide scale of %.4g us per cost unit)@."
          scale

let explain_cmd program_file inputs randoms outputs greedy uniform no_jit
    no_cse opt_timeout domains analyze =
  let src = read_file program_file in
  let config =
    {
      (if greedy then Galley.Driver.greedy_config
       else Galley.Driver.default_config)
      with
      estimator =
        (if uniform then Galley_stats.Ctx.Uniform_kind
         else Galley_stats.Ctx.Chain_kind);
      jit = not no_jit;
      cse = not no_cse;
      optimizer_timeout = opt_timeout;
      domains;
      audit = true;
    }
  in
  if analyze then begin
    Galley_obs.Trace.enable ();
    Galley_obs.Trace.reset ();
    Galley_plan.Provenance.enable ();
    Galley_plan.Provenance.reset ()
  end;
  (* Parsed through the fixpoint front end so `iterate` blocks explain
     too; a straight-line program is the one-loop degenerate case. *)
  match Galley_fixpoint.Fixpoint.parse_checked src with
  | Error e -> report_error e
  | Ok xprogram -> (
      let xprogram =
        match outputs with
        | [] -> xprogram
        | outs -> { xprogram with Galley_plan.Ir.xoutputs = outs }
      in
      let bound =
        List.map parse_input_spec inputs @ List.map parse_random_spec randoms
      in
      match
        Galley_fixpoint.Fixpoint.run_checked ~config ~inputs:bound xprogram
      with
      | Ok (res, reports) ->
          print_explain config res;
          print_fixpoint_reports ~timings:true reports;
          if analyze then begin
            let evs = Galley_plan.Provenance.drain () in
            let forest =
              Galley_obs.Profile.build (Galley_obs.Trace.drain ())
            in
            print_search_trace evs;
            print_operator_analysis
              ~estimator:(Galley_stats.Ctx.kind_to_string config.estimator)
              res.Galley.Driver.audit evs forest
          end;
          0
      | Error e -> report_error e)

(* audit-report: offline estimator calibration over a serve telemetry
   directory (rotating audit.jsonl / metrics.jsonl journals). *)
let audit_report_cmd dir json_out =
  let module AR = Galley_obs.Audit_report in
  let samples = AR.load_dir dir in
  let metrics = AR.load_metrics dir in
  if samples = [] && metrics = None then begin
    Format.eprintf
      "galley audit-report: no audit.jsonl or metrics.jsonl under %s (run \
       serve with --audit --telemetry-dir)@."
      dir;
    1
  end
  else begin
    let gs = AR.groups samples in
    if json_out then print_endline (AR.to_json ?metrics gs)
    else begin
      print_string (AR.render gs);
      match metrics with
      | None -> ()
      | Some m ->
          Format.printf "metrics journal: %d snapshot(s) spanning %.1fs@."
            m.AR.ms_snapshots
            (float_of_int (m.AR.ms_last_ts - m.AR.ms_first_ts) /. 1e6);
          List.iter
            (fun (k, v) -> Format.printf "  %-40s +%g@." k v)
            m.AR.ms_deltas
    end;
    0
  end

(* profile: run a program with span tracing forced on, rebuild the call
   tree, and print per-phase rollups plus the hot-kernel table that joins
   kernel time with loop-order/merge-strategy/format attribution
   (DESIGN.md "Profiler").  Inputs not bound on the command line are
   auto-bound with seeded random tensors so `galley profile prog.gly`
   works standalone. *)

let rec collect_input_ranks (e : Galley_plan.Ir.expr)
    (acc : (string * int) list) : (string * int) list =
  match e with
  | Galley_plan.Ir.Input (n, idxs) ->
      if List.mem_assoc n acc then acc else (n, List.length idxs) :: acc
  | Galley_plan.Ir.Alias _ | Galley_plan.Ir.Literal _ -> acc
  | Galley_plan.Ir.Map (_, args) ->
      List.fold_left (fun acc a -> collect_input_ranks a acc) acc args
  | Galley_plan.Ir.Agg (_, _, body) -> collect_input_ranks body acc

let auto_bind_missing (program : Galley_plan.Ir.program)
    (bound : (string * T.t) list) : (string * T.t) list =
  let wanted =
    List.fold_left
      (fun acc (q : Galley_plan.Ir.query) ->
        collect_input_ranks q.Galley_plan.Ir.expr acc)
      [] program.Galley_plan.Ir.queries
  in
  let query_names =
    List.map (fun (q : Galley_plan.Ir.query) -> q.Galley_plan.Ir.name)
      program.Galley_plan.Ir.queries
  in
  List.rev wanted
  |> List.filter_map (fun (name, rank) ->
         if List.mem_assoc name bound || List.mem name query_names then None
         else begin
           let dim = 300 and density = 0.02 in
           let dims = Array.make (max 1 rank) dim in
           let formats =
             Array.init (Array.length dims) (fun k ->
                 if k = 0 then T.Dense else T.Sparse_list)
           in
           let prng = Galley_tensor.Prng.create (Hashtbl.hash name land 0xffff) in
           Format.eprintf "profile: auto-bound %s = random %s (density %g)@."
             name
             (String.concat "x"
                (Array.to_list (Array.map string_of_int dims)))
             density;
           Some (name, T.random ~prng ~dims ~formats ~density ())
         end)

let ms us = float_of_int us /. 1000.0

let print_profile_report (forest : Galley_obs.Profile.node list)
    (collapsed_out : string option) =
  let open Galley_obs.Profile in
  let total = total_incl_us forest in
  Format.printf "== profile: phases (by self time) ==@.";
  Format.printf "%-32s %6s %10s %10s %6s@." "span" "count" "incl(ms)"
    "self(ms)" "self%";
  List.iter
    (fun r ->
      Format.printf "%-32s %6d %10.3f %10.3f %5.1f%%@." r.r_name r.r_count
        (ms r.r_incl_us) (ms r.r_excl_us)
        (if total = 0 then 0.0
         else 100.0 *. float_of_int r.r_excl_us /. float_of_int total))
    (rollups forest);
  (match kernels forest with
  | [] -> Format.printf "== profile: no kernel spans recorded ==@."
  | ks ->
      Format.printf "== profile: hot kernels (by self time) ==@.";
      Format.printf "%-14s %5s %10s %8s  %s@." "kernel" "runs" "self(ms)"
        "backend" "loop-order / merge strategy";
      List.iter
        (fun k ->
          Format.printf "%-14s %5d %10.3f %8s  %s [out:%s]@." k.k_kernel
            k.k_count (ms k.k_excl_us) k.k_backend
            (if k.k_merge = "?" then "loop:" ^ k.k_loop else k.k_merge)
            k.k_formats)
        ks);
  let covered = total_excl_us forest in
  Format.printf "self-time coverage: %.1f%% of %.3fms wall@."
    (if total = 0 then 0.0
     else 100.0 *. float_of_int covered /. float_of_int total)
    (ms total);
  match collapsed_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (collapsed forest);
      close_out oc;
      Format.printf "collapsed stacks written to %s (flamegraph.pl / \
                     speedscope)@."
        path

let profile_cmd program_file inputs randoms outputs greedy uniform no_jit
    no_cse domains collapsed_out =
  let src = read_file program_file in
  let config =
    {
      (if greedy then Galley.Driver.greedy_config
       else Galley.Driver.default_config)
      with
      estimator =
        (if uniform then Galley_stats.Ctx.Uniform_kind
         else Galley_stats.Ctx.Chain_kind);
      jit = not no_jit;
      cse = not no_cse;
      domains;
    }
  in
  match Galley.Driver.parse_checked src with
  | Error e -> report_error e
  | Ok program -> (
      let program =
        match outputs with
        | [] -> program
        | outs -> { program with Galley_plan.Ir.outputs = outs }
      in
      let bound =
        List.map parse_input_spec inputs @ List.map parse_random_spec randoms
      in
      let bound = bound @ auto_bind_missing program bound in
      Galley_obs.Trace.enable ();
      Galley_obs.Trace.reset ();
      (* The wrapper span makes the forest single-rooted, so per-phase
         self times sum to wall time by construction. *)
      let result =
        Galley_obs.span ~cat:"cli" ~name:"total" (fun () ->
            Galley.Driver.run_checked ~config ~inputs:bound program)
      in
      let forest = Galley_obs.Profile.build (Galley_obs.Trace.drain ()) in
      print_profile_report forest collapsed_out;
      match result with Ok _ -> 0 | Error e -> report_error e)

(* serve: run the daemon on a Unix socket until SIGTERM/SIGINT (or a
   client "shutdown" request), then drain and exit clean.  Preloaded
   tensors (--input/--random) are bound into the resident session
   before the listener opens, so the first client sees a warm store. *)
let serve_cmd socket inputs randoms queue_capacity drain_timeout
    default_budget naive_below greedy_below max_entries faults_spec greedy
    uniform no_cse domains kernel_cache_cap cse_cache_cap
    telemetry_dir telemetry_interval flight_cap sample_percentile audit
    provenance trace metrics =
  if trace <> None then Galley_obs.Trace.enable ();
  if metrics then Galley_obs.Metrics.set_detailed true;
  let faults =
    match Galley.Faults.of_spec faults_spec with
    | Ok f -> f
    | Error msg ->
        Format.eprintf "galley: bad --faults spec: %s@." msg;
        exit 2
  in
  let driver =
    {
      (if greedy then Galley.Driver.greedy_config
       else Galley.Driver.default_config)
      with
      estimator =
        (if uniform then Galley_stats.Ctx.Uniform_kind
         else Galley_stats.Ctx.Chain_kind);
      cse = not no_cse;
      faults;
      domains;
      kernel_cache_cap;
      cse_cache_cap;
    }
  in
  let cfg =
    {
      (Galley_serve.Server.default_config ~socket_path:socket) with
      Galley_serve.Server.queue_capacity;
      drain_timeout;
      default_budget_ms = default_budget;
      naive_below_ms = naive_below;
      greedy_below_ms = greedy_below;
      max_response_entries = max_entries;
      driver;
      flight_capacity = flight_cap;
      sampler_percentile = sample_percentile;
      telemetry_dir;
      telemetry_interval;
      audit_requests = audit;
      provenance;
      (* --trace FILE keeps every request's spans instead of only the
         tail-sampled ones; the sampler accumulates them for the dump
         below. *)
      trace_all = trace <> None;
    }
  in
  match
    let server = Galley_serve.Server.create cfg in
    let session = Galley_serve.Server.session server in
    List.iter
      (fun (name, t) -> Galley.Driver.Session.bind session name t)
      (List.map parse_input_spec inputs @ List.map parse_random_spec randoms);
    Galley_serve.Server.run server;
    (match trace with
    | Some path ->
        let n =
          Galley_obs.Sampler.write_all (Galley_serve.Server.sampler server)
            path
        in
        Format.printf "trace: %d events written to %s@." n path
    | None -> ());
    finish_obs ~trace:None ~metrics
  with
  | () -> 0
  | exception Unix.Unix_error (e, fn, arg) ->
      Format.eprintf "galley serve: %s(%s): %s@." fn arg (Unix.error_message e);
      1
  | exception (Invalid_argument msg | Failure msg) ->
      Format.eprintf "galley serve: %s@." msg;
      1

(* client: one request against a running daemon; prints the raw JSON
   response line and exits 0 iff the server answered ok:true. *)
let client_cmd socket command arg1 src program_file budget values max_entries
    binds bind_randoms retries backoff req_id prometheus last =
  let id = req_id in
  let line =
    match command with
    | "health" -> Ok (Galley_serve.Protocol.encode_health ?id ())
    | "metrics" -> Ok (Galley_serve.Protocol.encode_metrics ?id ~prometheus ())
    | "debug" -> Ok (Galley_serve.Protocol.encode_debug ?id ?last ())
    | "explain" -> (
        match arg1 with
        | Some digest ->
            Ok (Galley_serve.Protocol.encode_explain ?id ~digest ())
        | None ->
            Error
              "explain needs a plan digest argument (see the plan column of \
               `galley debug`)")
    | "shutdown" -> Ok (Galley_serve.Protocol.encode_shutdown ?id ())
    | "query" -> (
        match (src, program_file) with
        | Some s, None ->
            Ok
              (Galley_serve.Protocol.encode_query ?id ?budget_ms:budget
                 ~values ?max_entries s)
        | None, Some f ->
            Ok
              (Galley_serve.Protocol.encode_query ?id ?budget_ms:budget
                 ~values ?max_entries (read_file f))
        | _ -> Error "query needs exactly one of --src or --program")
    | "bind" -> (
        match (binds, bind_randoms) with
        | [ spec ], [] -> (
            match String.index_opt spec '=' with
            | Some i ->
                let name = String.sub spec 0 i in
                let path =
                  String.sub spec (i + 1) (String.length spec - i - 1)
                in
                Ok (Galley_serve.Protocol.encode_bind_file ?id ~name path)
            | None -> Error ("bad --bind spec: " ^ spec))
        | [], [ spec ] -> (
            match String.index_opt spec '=' with
            | Some i ->
                let name = String.sub spec 0 i in
                let r = String.sub spec (i + 1) (String.length spec - i - 1) in
                Ok (Galley_serve.Protocol.encode_bind_random ?id ~name r)
            | None -> Error ("bad --bind-random spec: " ^ spec))
        | _ -> Error "bind needs exactly one of --bind or --bind-random")
    | other -> Error (Printf.sprintf "unknown command %S" other)
  in
  match line with
  | Error msg ->
      Format.eprintf "galley client: %s@." msg;
      2
  | Ok line -> (
      match Galley_serve.Client.rpc ~retries ~backoff ~socket line with
      | Error msg ->
          Format.eprintf "galley client: %s@." msg;
          1
      | Ok resp -> (
          (* --prometheus: print the exposition text itself, not the JSON
             envelope, so the output pipes straight into a scraper. *)
          let raw_metrics =
            if not prometheus then None
            else
              match Galley_obs.Json.parse resp with
              | Ok j ->
                  Option.bind
                    (Galley_obs.Json.member "metrics" j)
                    Galley_obs.Json.to_string
              | Error _ -> None
          in
          (match raw_metrics with
          | Some text -> print_string text
          | None -> print_endline resp);
          match Galley_serve.Client.decode resp with
          | Ok (true, _) -> 0
          | Ok (false, _) -> 1
          | Error msg ->
              Format.eprintf "galley client: malformed response: %s@." msg;
              1))

(* debug: dump the daemon's flight recorder as a human-readable table
   (use `client debug` for the raw JSON). *)
let debug_cmd socket last retries backoff =
  let module Json = Galley_obs.Json in
  let line = Galley_serve.Protocol.encode_debug ?last () in
  match Galley_serve.Client.rpc ~retries ~backoff ~socket line with
  | Error msg ->
      Format.eprintf "galley debug: %s@." msg;
      1
  | Ok resp -> (
      match Json.parse resp with
      | Error msg ->
          Format.eprintf "galley debug: malformed response: %s@." msg;
          1
      | Ok j -> (
          match Option.bind (Json.member "records" j) Json.to_list with
          | None ->
              (* server answered ok:false (or an old server): show it raw *)
              print_endline resp;
              1
          | Some records ->
              let num k r =
                match Option.bind (Json.member k r) Json.to_float with
                | Some f -> int_of_float f
                | None -> 0
              in
              let str k r =
                match Option.bind (Json.member k r) Json.to_string with
                | Some s -> s
                | None -> ""
              in
              let total =
                match Option.bind (Json.member "total" j) Json.to_float with
                | Some f -> int_of_float f
                | None -> List.length records
              in
              Format.printf "flight recorder: %d total requests, %d retained@."
                total (List.length records);
              Format.printf "%-5s %-10s %-6s %-22s %-12s %9s %8s %5s %5s %s@."
                "seq" "id" "op" "outcome" "qos->rung" "total_ms" "queue_ms"
                "iters" "repl" "trace";
              List.iter
                (fun r ->
                  let qos = str "qos" r and rung = str "rung" r in
                  Format.printf
                    "%-5d %-10s %-6s %-22s %-12s %9.2f %8.2f %5d %5d %s@."
                    (num "seq" r) (str "id" r) (str "op" r) (str "outcome" r)
                    (qos ^ "->" ^ if rung = "" then "-" else rung)
                    (float_of_int (num "total_us" r) /. 1000.0)
                    (float_of_int (num "queue_us" r) /. 1000.0)
                    (num "iterations" r) (num "replans" r)
                    (match str "trace" r with "" -> "-" | t -> t))
                records;
              0))

let demo_cmd () =
  Format.printf "Triangle counting demo: 200-vertex random graph@.";
  let g =
    Galley_workloads.Graphs.symmetrize
      (Galley_workloads.Graphs.erdos_renyi ~name:"demo" ~seed:42 ~n:200 ~m:800
         ())
  in
  let adj = Galley_workloads.Graphs.adjacency g in
  let src = "t = sum[i,j,k](E[i,j] * E[j,k] * E[i,k])" in
  Format.printf "program: %s@." src;
  match Galley.Driver.run_source_checked ~inputs:[ ("E", adj) ] src with
  | Ok res ->
      print_result ~show_plans:true ~timings:true res;
      0
  | Error e -> report_error e

open Cmdliner

let program_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"PROGRAM" ~doc:"Tensor program file (.gly)")

let inputs_arg =
  Arg.(
    value & opt_all string []
    & info [ "input"; "i" ] ~docv:"NAME=PATH" ~doc:"Bind a tensor from a COO file")

let randoms_arg =
  Arg.(
    value & opt_all string []
    & info [ "random"; "r" ] ~docv:"NAME=DIMS:DENSITY:SEED"
        ~doc:"Bind a random tensor, e.g. E=100x100:0.01:42")

let outputs_arg =
  Arg.(
    value & opt_all string []
    & info [ "output"; "o" ] ~docv:"NAME" ~doc:"Output tensors (default: all)")

let show_plans_arg =
  Arg.(value & flag & info [ "show-plans" ] ~doc:"Print logical and physical plans")

let timings_arg = Arg.(value & flag & info [ "timings" ] ~doc:"Print timing breakdown")
let greedy_arg = Arg.(value & flag & info [ "greedy" ] ~doc:"Greedy logical optimizer")

let uniform_arg =
  Arg.(value & flag & info [ "uniform" ] ~doc:"Uniform sparsity estimator (default: chain bound)")

let no_jit_arg = Arg.(value & flag & info [ "no-jit" ] ~doc:"Disable JIT physical optimization")
let no_cse_arg = Arg.(value & flag & info [ "no-cse" ] ~doc:"Disable common sub-expression elimination")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Execution timeout")

let opt_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "opt-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Per-query optimizer budget; past it the optimizer degrades \
           (exact, then greedy, then naive)")

let faults_arg =
  Arg.(
    value & opt string ""
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Fault injection, comma-separated: estimator-nan, estimator-inf, \
           estimator-scale=F, opt-delay=S, kernel-fail=N")

let no_validate_arg =
  Arg.(value & flag & info [ "no-validate" ] ~doc:"Skip inter-phase plan validation")

let no_degrade_arg =
  Arg.(
    value & flag
    & info [ "no-degrade" ]
        ~doc:"Treat an exhausted optimizer budget as an error instead of degrading")

(* Counts that must be at least 1: a zero or negative value is a usage
   error, not a silent fallback. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let domains_arg =
  Arg.(
    value
    & opt pos_int Galley.Driver.default_domains
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Engine parallelism: OCaml domains over which each kernel's \
           outermost loop is split into morsels; queries run one at a time \
           (1 = serial; outputs are bit-identical at every setting; \
           default: $(b,GALLEY_DOMAINS) or 1, since no measured workload \
           runs faster on the pool)")

let nnz_guard_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "nnz-guard" ] ~docv:"FACTOR"
        ~doc:
          "Flag intermediates whose materialized nnz exceeds FACTOR times \
           the estimate; re-optimize once with measured statistics")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record spans for every pipeline phase and kernel and write them \
           as Chrome trace_event JSON (load in Perfetto or chrome://tracing)")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the metrics registry (cache hits, estimator calls, \
           per-kernel nnz, deadline ticks, ...) after the run")

let run_term =
  Term.(
    const run_cmd $ program_arg $ inputs_arg $ randoms_arg $ outputs_arg
    $ show_plans_arg $ timings_arg $ greedy_arg $ uniform_arg $ no_jit_arg
    $ no_cse_arg $ timeout_arg $ opt_timeout_arg $ faults_arg
    $ no_validate_arg $ no_degrade_arg $ nnz_guard_arg $ domains_arg
    $ trace_arg $ metrics_arg)

let run_info = Cmd.info "run" ~doc:"Optimize and execute a tensor program"

let analyze_arg =
  Arg.(
    value & flag
    & info [ "analyze" ]
        ~doc:
          "Also record the optimizer's search trace (candidates, costs, \
           prune tallies per ladder rung) and print a per-operator table \
           joining each kernel's predicted cost and output nnz with its \
           measured runtime and nnz as q-errors")

let explain_term =
  Term.(
    const explain_cmd $ program_arg $ inputs_arg $ randoms_arg $ outputs_arg
    $ greedy_arg $ uniform_arg $ no_jit_arg $ no_cse_arg $ opt_timeout_arg
    $ domains_arg $ analyze_arg)

let audit_dir_arg =
  Arg.(
    required
    & pos 0 (some dir) None
    & info [] ~docv:"DIR"
        ~doc:"Telemetry directory (the --telemetry-dir of a serve run)")

let audit_json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the report as a single JSON object")

let audit_report_term =
  Term.(const audit_report_cmd $ audit_dir_arg $ audit_json_arg)

let audit_report_info =
  Cmd.info "audit-report"
    ~doc:
      "Summarize a telemetry directory's estimator-audit journal \
       (audit.jsonl and its rotation): per-tensor geometric-mean and \
       worst-case q-errors, early-vs-late drift, and suggested \
       correction factors, plus serve counter deltas from the metrics \
       journal"

let collapsed_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "collapsed" ] ~docv:"FILE"
        ~doc:
          "Also write collapsed stacks (one \"frame;frame;frame \
           self_us\" line per distinct stack), importable by \
           flamegraph.pl and speedscope")

let profile_term =
  Term.(
    const profile_cmd $ program_arg $ inputs_arg $ randoms_arg $ outputs_arg
    $ greedy_arg $ uniform_arg $ no_jit_arg $ no_cse_arg $ domains_arg
    $ collapsed_arg)

let profile_info =
  Cmd.info "profile"
    ~doc:
      "Run a program with span tracing on and print per-phase \
       inclusive/self times plus a hot-kernel table attributing kernel \
       time to loop orders, merge strategies, and output formats; \
       unbound inputs are auto-bound with seeded random tensors"

let explain_info =
  Cmd.info "explain"
    ~doc:
      "Run a program (including iterate blocks, with a per-iteration \
       plan-switch summary) with the estimator audit enabled and print \
       the chosen plans, loop orders and formats, and predicted vs. \
       actual cardinalities with q-errors; with $(b,--analyze), also the \
       recorded optimizer search trace and a per-operator \
       predicted-vs-measured cost attribution table"

let demo_term = Term.(const demo_cmd $ const ())
let demo_info = Cmd.info "demo" ~doc:"Run a built-in triangle-counting demo"

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket"; "s" ] ~docv:"PATH" ~doc:"Unix domain socket path")

let queue_arg =
  Arg.(
    value & opt int 64
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Admission queue capacity; a full queue sheds load with a \
           structured queue_full rejection")

let drain_timeout_arg =
  Arg.(
    value & opt float 10.0
    & info [ "drain-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Seconds granted to queued and in-flight requests after \
           SIGTERM/SIGINT before the remainder is shed")

let default_budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "default-budget" ] ~docv:"MS"
        ~doc:
          "Deadline budget (milliseconds) applied to requests that don't \
           carry one; default: none (batch, exact optimizer)")

let qos_naive_arg =
  Arg.(
    value & opt float 100.0
    & info [ "qos-naive-ms" ] ~docv:"MS"
        ~doc:"Budgets below MS run the naive optimizer tier directly")

let qos_greedy_arg =
  Arg.(
    value & opt float 1000.0
    & info [ "qos-greedy-ms" ] ~docv:"MS"
        ~doc:"Budgets below MS (and above --qos-naive-ms) run the greedy tier")

let max_entries_serve_arg =
  Arg.(
    value & opt int 100_000
    & info [ "max-entries" ] ~docv:"N"
        ~doc:"Per-output cap on entries serialized into a response")

let serve_faults_arg =
  Arg.(
    value & opt string ""
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Fault injection, comma-separated; serve-side points: \
           serve-accept-fail=N, serve-kill=N, serve-stall=S, plus the \
           batch faults (estimator-nan, kernel-fail=N, opt-delay=S, ...)")

let kernel_cache_cap_arg =
  Arg.(
    value
    & opt pos_int Galley_engine.Exec.default_kernel_cache_cap
    & info [ "kernel-cache-cap" ] ~docv:"N"
        ~doc:"LRU bound on the resident kernel cache (entries)")

let cse_cache_cap_arg =
  Arg.(
    value
    & opt pos_int Galley_engine.Exec.default_cse_cache_cap
    & info [ "cse-cache-cap" ] ~docv:"N"
        ~doc:"LRU bound on the resident CSE result cache (entries)")

let telemetry_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry-dir" ] ~docv:"DIR"
        ~doc:
          "Continuous telemetry directory: rotating JSONL metrics \
           snapshots and estimator-audit series, retained (tail-sampled) \
           Chrome traces, and incident/drain flight-recorder dumps")

let telemetry_interval_arg =
  Arg.(
    value & opt float 60.0
    & info [ "telemetry-interval" ] ~docv:"SECONDS"
        ~doc:"Seconds between metrics snapshots in the telemetry journal")

let flight_cap_arg =
  Arg.(
    value & opt int 256
    & info [ "flight-cap" ] ~docv:"N"
        ~doc:
          "Flight-recorder ring capacity (per-request records); also bounds \
           how many recent requests' provenance $(b,explain) can answer from")

let sample_percentile_arg =
  Arg.(
    value & opt float 0.90
    & info [ "sample-percentile" ] ~docv:"P"
        ~doc:
          "Tail-sampling slow trigger: keep a request's trace when its \
           latency exceeds this rolling percentile of recent requests \
           (errors, shedding, tier degradation, and replans are always \
           kept)")

let serve_audit_arg =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:
          "Run the estimator-accuracy audit on every request: per-query \
           q-errors land in flight records and (with --telemetry-dir) \
           the audit journal")

let serve_provenance_arg =
  Arg.(
    value & flag
    & info [ "provenance" ]
        ~doc:
          "Record the optimizer's search trace for every planned request \
           on its flight record (kept for the last $(b,--flight-cap) \
           requests); fetch with $(b,galley client explain DIGEST)")

let serve_term =
  Term.(
    const serve_cmd $ socket_arg $ inputs_arg $ randoms_arg $ queue_arg
    $ drain_timeout_arg $ default_budget_arg $ qos_naive_arg $ qos_greedy_arg
    $ max_entries_serve_arg $ serve_faults_arg $ greedy_arg $ uniform_arg
    $ no_cse_arg $ domains_arg $ kernel_cache_cap_arg
    $ cse_cache_cap_arg $ telemetry_dir_arg $ telemetry_interval_arg
    $ flight_cap_arg $ sample_percentile_arg $ serve_audit_arg
    $ serve_provenance_arg $ trace_arg $ metrics_arg)

let serve_info =
  Cmd.info "serve"
    ~doc:
      "Serve queries from a long-lived daemon on a Unix domain socket: \
       named tensors, statistics, and kernel/CSE caches stay resident \
       across requests; a bounded admission queue sheds load when full; \
       per-request deadline budgets pick the optimizer tier (exact, \
       greedy, naive); SIGTERM/SIGINT drains in-flight work and exits \
       clean"

let client_command_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"COMMAND"
        ~doc:"One of: query, bind, health, metrics, debug, explain, shutdown")

let client_arg1 =
  Arg.(
    value
    & pos 1 (some string) None
    & info [] ~docv:"ARG"
        ~doc:
          "Command argument; for explain, the plan digest to look up (the \
           plan column of $(b,galley debug))")

let client_src_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "src" ] ~docv:"PROGRAM" ~doc:"Inline program source for query")

let client_program_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "program" ] ~docv:"FILE" ~doc:"Program file for query")

let client_budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget" ] ~docv:"MS" ~doc:"Deadline budget in milliseconds")

let client_values_arg =
  Arg.(
    value & opt bool true
    & info [ "values" ] ~docv:"BOOL"
        ~doc:"Include output entries in the response (default true)")

let client_max_entries_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-entries" ] ~docv:"N" ~doc:"Per-output entry cap")

let client_bind_arg =
  Arg.(
    value & opt_all string []
    & info [ "bind" ] ~docv:"NAME=PATH" ~doc:"Bind a tensor from a COO file")

let client_bind_random_arg =
  Arg.(
    value & opt_all string []
    & info [ "bind-random" ] ~docv:"NAME=DIMS:DENSITY:SEED"
        ~doc:"Bind a server-side random tensor, e.g. E=100x100:0.01:42")

let client_retries_arg =
  Arg.(
    value & opt int 5
    & info [ "retries" ] ~docv:"N"
        ~doc:"Connect retries with exponential backoff")

let client_backoff_arg =
  Arg.(
    value & opt float 0.05
    & info [ "backoff" ] ~docv:"SECONDS" ~doc:"Initial retry backoff")

let client_id_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "id" ] ~docv:"ID" ~doc:"Request id echoed in the response")

let client_prometheus_arg =
  Arg.(
    value & flag
    & info [ "prometheus" ]
        ~doc:
          "With the metrics command: print the registry in Prometheus \
           text exposition format instead of JSON")

let client_last_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "last" ] ~docv:"N"
        ~doc:"With the debug command: only the newest N flight records")

let client_term =
  Term.(
    const client_cmd $ socket_arg $ client_command_arg $ client_arg1
    $ client_src_arg
    $ client_program_arg $ client_budget_arg $ client_values_arg
    $ client_max_entries_arg $ client_bind_arg $ client_bind_random_arg
    $ client_retries_arg $ client_backoff_arg $ client_id_arg
    $ client_prometheus_arg $ client_last_arg)

let client_info =
  Cmd.info "client"
    ~doc:
      "Send one request to a running galley serve daemon and print the \
       JSON response; exits 0 iff the server answered ok"

let debug_term =
  Term.(
    const debug_cmd $ socket_arg $ client_last_arg $ client_retries_arg
    $ client_backoff_arg)

let debug_info =
  Cmd.info "debug"
    ~doc:
      "Dump a running daemon's flight recorder — the last N requests \
       with outcome, QoS tier and served rung, plan digest, per-phase \
       latency, fixpoint iterations/replans, and retained trace names — \
       as a table"

let main =
  Cmd.group
    (Cmd.info "galley_cli" ~version:"1.0.0"
       ~doc:"Galley: declarative sparse tensor programming")
    [
      Cmd.v run_info run_term;
      Cmd.v explain_info explain_term;
      Cmd.v audit_report_info audit_report_term;
      Cmd.v profile_info profile_term;
      Cmd.v serve_info serve_term;
      Cmd.v client_info client_term;
      Cmd.v debug_info debug_term;
      Cmd.v demo_info demo_term;
    ]

let () = exit (Cmd.eval' main)
