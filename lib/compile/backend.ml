(* Staged kernel backend: the compiled counterpart of the constraint-tree
   interpreter in [lib/engine/kernel_exec.ml].

   [compile] runs once per kernel structure: the body is fused into one
   scalar closure ([Body_fuse]), and every per-level decision is resolved
   into a candidate generator and a binder ([Lowering]).  The returned
   [run] only walks the precompiled level array — like the interpreter's,
   it takes the (structurally identical) kernel of the call site, so one
   compiled closure serves every dimension size and the engine's
   signature-keyed kernel cache works unchanged.

   Aggregates are fill-corrected at freeze time exactly as in the
   interpreter: enumeration covers a superset of the body's non-fill
   coordinates, and each skipped coordinate contributes the body fill,
   folded in as g(body_fill, N_agg − count) per output cell (DESIGN.md).

   Parallel execution (DESIGN.md "Parallel runtime"): given a domain
   [?pool], [run] splits the *outermost* level's candidates into morsels
   across the pool.  Level-0 generators and probes depend only on the
   access root nodes (an access's first index binds at its index's loop
   level, and indices are concordant with the loop order, so a level-0
   binding is always an access's first), so the candidate base computed
   once on the submitting domain is shared read-only; each morsel walks
   levels 1.. on its lane's private [Lowering.state] and records its
   innermost accumulations — flattened output coordinates plus the fused body value
   — into a private log.  The logs are then replayed into the single
   output builder in morsel order, which reproduces the serial
   accumulation sequence *exactly*: same cells, same combine order, same
   sequential writes for sorted-list levels.  Results are therefore
   bit-identical to the serial path for every aggregate, format, and
   domain count, at the cost of making accumulation the serial tail. *)

open Galley_plan
module T = Galley_tensor.Tensor
module Bitset = Galley_tensor.Bitset
module Builder = Galley_tensor.Builder
module Vec = Galley_tensor.Vec
module Pool = Galley_parallel.Pool
module Morsel = Galley_parallel.Morsel
module Obs = Galley_obs

exception Timeout

(* Deadline-cadence observability (satellite of DESIGN.md §9): tick
   counts are flushed to metrics in coarse 8192-tick quanta from the
   same periodic branch that checks the clock, so the per-tick fast
   path stays a single increment.  [kernel.cancel_latency_ticks] is the
   number of (coarse) ticks the whole batch kept running after the
   first lane set the cancel flag — the wind-down cost of a timeout. *)
let m_deadline_ticks = Obs.Metrics.counter "kernel.deadline_ticks"
let m_cancel_latency = Obs.Metrics.gauge "kernel.cancel_latency_ticks"

(* Morsel-driven scheduling (DESIGN.md §14): total morsels dispensed,
   and morsels a lane processed beyond its fair share of the batch —
   the work stolen from slower lanes, so skew is observable. *)
let m_morsels = Obs.Metrics.counter "kernel.morsels"
let m_steals = Obs.Metrics.counter "kernel.steals"

(* How a row loop reads one load during a visit (see [make_go]). *)
type reader =
  | R_fill  (* absent subtree: the load reads fill all visit *)
  | R_dense  (* [Leaf_dense]: read by index *)
  | R_step  (* sparse or bytemap leaf: forward pointer *)
  | R_find  (* anything else: [find_value_or] *)

let domain_counter prefix =
  Obs.Metrics.counter
    (prefix ^ ".domain" ^ string_of_int (Domain.self () :> int))

type compiled = {
  run :
    ?deadline:float -> ?pool:Pool.t -> Physical.kernel -> T.t array -> T.t;
  describe : string;
      (* "idx:strategy" per level, e.g. "i:inter(sparse&hash) j:sparse" —
         the merge-algorithm attribution the profiler joins onto kernel
         spans *)
}

let compile (k : Physical.kernel) ~(access_fills : float array)
    ~(facts : int -> Galley_tensor.Facts.t)
    ~(access_formats : T.format array array) : compiled =
  let plan = Lowering.lower k ~access_fills ~facts ~access_formats in
  let describe =
    String.concat " "
      (List.mapi
         (fun l x -> x ^ ":" ^ plan.Lowering.p_desc.(l))
         k.Physical.loop_order)
  in
  let body = Body_fuse.stage k.Physical.body in
  let levels = plan.Lowering.p_levels in
  let n_levels = Array.length levels in
  let out_rank = plan.Lowering.p_out_rank in
  let agg_op = k.Physical.agg_op in
  let identity =
    match Op.identity agg_op with Some e -> e | None -> 0.0 (* Ident *)
  in
  let combine = if agg_op = Op.Ident then fun _ v -> v else Op.apply2 agg_op in
  let body_fill = k.Physical.body_fill in
  let run ?deadline ?pool (kc : Physical.kernel) (tensors : T.t array) : T.t =
    (* Size-dependent facts come from the caller's kernel. *)
    let n_agg = int_of_float kc.Physical.agg_space in
    let output_fill = kc.Physical.output_fill in
    let finalize =
      if agg_op = Op.Ident then fun v cnt -> if cnt = 0 then output_fill else v
      else
        fun v cnt ->
        Op.apply2 agg_op v (Op.repeat agg_op body_fill (n_agg - cnt))
    in
    Array.iteri
      (fun a (t : T.t) ->
        if Array.length (T.dims t) <> plan.Lowering.p_acc_arity.(a) then
          invalid_arg
            (Printf.sprintf "Kernel %s: access %d arity mismatch"
               k.Physical.name a))
      tensors;
    let builder =
      Builder.create ~dims:kc.Physical.output_dims
        ~formats:k.Physical.output_formats ~identity ()
    in
    let loop_dims = kc.Physical.loop_dims in
    (* Same deadline cadence as the interpreter: one budget tick per
       candidate and per accumulation, clock checked every 8192 ticks.
       Each lane carries its own counter; [cancel] folds a timeout (or
       any failure) raised by one lane into every other lane's cadence
       so the batch winds down promptly. *)
    let cancel = Atomic.make false in
    (* Coarse-tick value of [m_deadline_ticks] when cancel was first set;
       -1 while no lane has failed. *)
    let cancel_mark = Atomic.make (-1) in
    let make_check () =
      match deadline with
      | None -> fun () -> ()
      | Some d ->
          let iter_budget = ref 0 in
          fun () ->
            incr iter_budget;
            if !iter_budget land 8191 = 0 then begin
              Obs.Metrics.add m_deadline_ticks 8192;
              Obs.Metrics.add (domain_counter "kernel.deadline_ticks") 8192;
              if Atomic.get cancel || Unix.gettimeofday () > d then
                raise Timeout
            end
    in
    (* The loop nest from [level] down, parameterized over the innermost
       sink so the same walker serves direct accumulation (serial) and
       log recording (parallel morsels): [put v] accumulates [v] at the
       coordinates in [st_coords], and [new_row ()] is called at every
       visit of the innermost level, before its first [put].

       The innermost level runs, when the plan allows, as one of two
       fused loops that produce the generic walker's execution trace bit
       for bit; a visit whose sources do not have the planned shape runs
       the generic walker instead.

       - A dense microkernel ([p_micro]): each source is resolved once per
         level visit to its unboxed [Leaf_dense] value array and the inner
         loop reads floats straight out of those arrays — no per-element
         binder-closure dispatch, no [find_value] option allocation.
       - A row loop ([p_row]): the positional walk reads the driving
         sparse leaf by position, the in-step lookup runs the level's own
         candidates, and every other load reads through a reader resolved
         once per visit (a forward pointer into a sparse leaf, a dense
         array, or [find_value_or]).

       The tick cadence is the generic level's: one [check] per candidate
       plus one per accumulation. *)
    let make_go (st : Lowering.state) (check : unit -> unit)
        ~(new_row : unit -> unit) ~(put : float -> unit) : int -> unit =
      let values = st.Lowering.st_values in
      let coords = st.Lowering.st_coords in
      let last = n_levels - 1 in
      let micro = plan.Lowering.p_micro in
      let has_micro = Option.is_some micro in
      let micro_out = plan.Lowering.p_last_out in
      let micro_srcs =
        match micro with Some m -> m.Lowering.mi_srcs | None -> [||]
      in
      let micro_n_src = Array.length micro_srcs in
      let micro_accs = Array.map fst micro_srcs in
      let micro_arrs = Array.make micro_n_src [||] in
      let row = plan.Lowering.p_row in
      let has_row = Option.is_some row in
      let row_walk = match row with Some r -> r.Lowering.rw_walk | None -> None in
      let row_out =
        match plan.Lowering.p_last_out with Some q -> q | None -> -1
      in
      (* Per-visit readers of the row loop's loads. *)
      let loads = match row with Some r -> r.Lowering.rw_loads | None -> [||] in
      let n_loads = Array.length loads in
      let ld_acc = Array.map fst loads in
      let ld_fill = Array.map (fun a -> plan.Lowering.p_fills.(a)) ld_acc in
      let ld_kind = Array.make n_loads R_fill in
      let ld_crd = Array.make n_loads [||] in
      let ld_vals = Array.make n_loads [||] in
      let ld_ptr = Array.make n_loads 0 in
      let ld_node = Array.make n_loads (T.Scalar 0.0) in
      let resolve_loads () =
        for s = 0 to n_loads - 1 do
          let a, j = loads.(s) in
          ld_ptr.(s) <- 0;
          match Lowering.prev st a j with
          | None ->
              (* An absent subtree reads fill for the whole visit. *)
              ld_kind.(s) <- R_fill;
              values.(a) <- ld_fill.(s)
          | Some (T.Leaf_dense vs) ->
              ld_kind.(s) <- R_dense;
              ld_vals.(s) <- vs
          | Some (T.Leaf_sparse { crd; vals } | T.Leaf_bytemap { crd; vals; _ })
            ->
              ld_kind.(s) <- R_step;
              ld_crd.(s) <- crd;
              ld_vals.(s) <- vals
          | Some nd ->
              ld_kind.(s) <- R_find;
              ld_node.(s) <- nd
        done
      in
      (* Load every reader at candidate [i].  Candidates ascend within a
         visit, so a sparse reader's pointer only moves forward: one step
         when the next stored index is already [>= i] (the full-range
         case), else galloping and bisecting (a walk that skips ahead). *)
      let load_all i =
        for s = 0 to n_loads - 1 do
          match Array.unsafe_get ld_kind s with
          | R_step ->
              let crd = Array.unsafe_get ld_crd s in
              let n = Array.length crd in
              let p = Array.unsafe_get ld_ptr s in
              let p =
                if p < n && Array.unsafe_get crd p < i then begin
                  let lo = ref p and stride = ref 1 in
                  while
                    !lo + !stride < n
                    && Array.unsafe_get crd (!lo + !stride) < i
                  do
                    lo := !lo + !stride;
                    stride := 2 * !stride
                  done;
                  let hi = ref (min (!lo + !stride) n) in
                  while !hi - !lo > 1 do
                    let mid = (!lo + !hi) lsr 1 in
                    if Array.unsafe_get crd mid < i then lo := mid else hi := mid
                  done;
                  Array.unsafe_set ld_ptr s !hi;
                  !hi
                end
                else p
              in
              values.(ld_acc.(s)) <-
                (if p < n && Array.unsafe_get crd p = i then
                   Array.unsafe_get (Array.unsafe_get ld_vals s) p
                 else Array.unsafe_get ld_fill s)
          | R_dense ->
              let vs = Array.unsafe_get ld_vals s in
              values.(ld_acc.(s)) <-
                (if i < Array.length vs then Array.unsafe_get vs i
                 else ld_fill.(s))
          | R_find ->
              values.(ld_acc.(s)) <-
                T.Node.find_value_or ld_node.(s) i ld_fill.(s)
          | R_fill -> ()
        done
      in
      let rec go (level : int) : unit =
        if level = n_levels then begin
          check ();
          put (body values)
        end
        else if level = last then begin
          new_row ();
          if has_micro then begin
            if not (try_micro ()) then generic level
          end
          else if has_row then row_level ()
          else generic level
        end
        else generic level
      and generic (level : int) : unit =
        let lv = levels.(level) in
        let bind = lv.Lowering.lv_bind in
        match lv.Lowering.lv_gen st with
        | Lowering.G_full ->
            let n = loop_dims.(level) in
            for i = 0 to n - 1 do
              check ();
              bind st i;
              go (level + 1)
            done
        | Lowering.G_arr arr ->
            Array.iter
              (fun i ->
                check ();
                bind st i;
                go (level + 1))
              arr
        | Lowering.G_filter (arr, probe) ->
            Array.iter
              (fun i ->
                if probe i then begin
                  check ();
                  bind st i;
                  go (level + 1)
                end)
              arr
        | Lowering.G_bits w ->
            Bitset.iter_set w (fun i ->
                check ();
                bind st i;
                go (level + 1))
        | Lowering.G_cur c ->
            while c.Cursors.key <> Cursors.exhausted do
              check ();
              bind st c.Cursors.key;
              go (level + 1);
              c.Cursors.next ()
            done
      and row_level () : unit =
        match row_walk with
        | Some (la, lj, probe) -> (
            match Lowering.prev st la lj with
            | None -> () (* an absent leader has no candidates *)
            | Some (T.Leaf_sparse { crd; vals } | T.Leaf_bytemap { crd; vals; _ })
              ->
                resolve_loads ();
                (* One accumulation at candidate [i], leader position [p]. *)
                let emit p i =
                  check ();
                  values.(la) <- Array.unsafe_get vals p;
                  load_all i;
                  if row_out >= 0 then coords.(row_out) <- i;
                  check ();
                  put (body values)
                in
                let n = Array.length crd in
                (match probe with
                | None ->
                    for p = 0 to n - 1 do
                      emit p (Array.unsafe_get crd p)
                    done
                | Some pr ->
                    for p = 0 to n - 1 do
                      let i = Array.unsafe_get crd p in
                      if pr st i then emit p i
                    done)
            | Some _ -> generic last)
        | None -> (
            let g = levels.(last).Lowering.lv_gen st in
            resolve_loads ();
            let emit i =
              check ();
              load_all i;
              if row_out >= 0 then coords.(row_out) <- i;
              check ();
              put (body values)
            in
            match g with
            | Lowering.G_full ->
                for i = 0 to loop_dims.(last) - 1 do
                  emit i
                done
            | Lowering.G_arr arr -> Array.iter emit arr
            | Lowering.G_filter (arr, probe) ->
                Array.iter (fun i -> if probe i then emit i) arr
            | Lowering.G_bits w -> Bitset.iter_set w emit
            | Lowering.G_cur c ->
                while c.Cursors.key <> Cursors.exhausted do
                  emit c.Cursors.key;
                  c.Cursors.next ()
                done)
      and try_micro () : bool =
        let n = loop_dims.(last) in
        let ok = ref true in
        for s = 0 to micro_n_src - 1 do
          let a, j = micro_srcs.(s) in
          match Lowering.prev st a j with
          | Some (T.Leaf_dense vs) when Array.length vs >= n ->
              micro_arrs.(s) <- vs
          | _ -> ok := false
        done;
        !ok
        &&
        (* Specialized inner loops for the dominant shapes: one source
           (axpy/scale rows) and two sources (dot-product/elementwise
           rows), with and without an output coordinate at this level. *)
        ((match (micro_out, micro_n_src) with
         | Some p, 1 ->
             let a0 = micro_accs.(0) and v0 = micro_arrs.(0) in
             for i = 0 to n - 1 do
               check ();
               values.(a0) <- Array.unsafe_get v0 i;
               coords.(p) <- i;
               check ();
               put (body values)
             done
         | Some p, 2 ->
             let a0 = micro_accs.(0) and v0 = micro_arrs.(0) in
             let a1 = micro_accs.(1) and v1 = micro_arrs.(1) in
             for i = 0 to n - 1 do
               check ();
               values.(a0) <- Array.unsafe_get v0 i;
               values.(a1) <- Array.unsafe_get v1 i;
               coords.(p) <- i;
               check ();
               put (body values)
             done
         | Some p, _ ->
             for i = 0 to n - 1 do
               check ();
               for s = 0 to micro_n_src - 1 do
                 values.(micro_accs.(s)) <-
                   Array.unsafe_get micro_arrs.(s) i
               done;
               coords.(p) <- i;
               check ();
               put (body values)
             done
         | None, 1 ->
             let a0 = micro_accs.(0) and v0 = micro_arrs.(0) in
             for i = 0 to n - 1 do
               check ();
               values.(a0) <- Array.unsafe_get v0 i;
               check ();
               put (body values)
             done
         | None, 2 ->
             let a0 = micro_accs.(0) and v0 = micro_arrs.(0) in
             let a1 = micro_accs.(1) and v1 = micro_arrs.(1) in
             for i = 0 to n - 1 do
               check ();
               values.(a0) <- Array.unsafe_get v0 i;
               values.(a1) <- Array.unsafe_get v1 i;
               check ();
               put (body values)
             done
         | None, _ ->
             for i = 0 to n - 1 do
               check ();
               for s = 0 to micro_n_src - 1 do
                 values.(micro_accs.(s)) <-
                   Array.unsafe_get micro_arrs.(s) i
               done;
               check ();
               put (body values)
             done);
         true)
      in
      go
    in
    (* Serial sink: when every output coordinate but the last is fixed
       for a whole innermost visit (the innermost level binds the last
       output index, or none), the visit's leaf row is resolved once, at
       its first accumulation, and written in place — a dense row
       directly, with [Add], [Min] and [Max] inlined (the same float
       operations [Op.apply2] performs).  Otherwise [Builder.accum]. *)
    let serial () =
      let st = Lowering.fresh_state plan tensors in
      let coords = st.Lowering.st_coords in
      let row_ok =
        n_levels > 0
        &&
        match plan.Lowering.p_last_out with
        | None -> true
        | Some q -> q = out_rank - 1
      in
      let row = ref Builder.no_leaf in
      let new_row () = row := Builder.no_leaf in
      let put =
        if not row_ok then fun v -> Builder.accum builder coords v ~combine
        else fun v ->
          let leaf =
            let l = !row in
            if l != Builder.no_leaf then l
            else begin
              let l = Builder.leaf builder coords in
              row := l;
              l
            end
          in
          match leaf with
          | Builder.B_leaf_dense { vals; cnts } ->
              let i = coords.(out_rank - 1) in
              let x = vals.(i) in
              vals.(i) <-
                (match agg_op with
                | Op.Add -> x +. v
                | Op.Min -> Float.min x v
                | Op.Max -> Float.max x v
                | _ -> combine x v);
              cnts.(i) <- cnts.(i) + 1
          | l ->
              Builder.leaf_accum builder l
                (if out_rank = 0 then 0 else coords.(out_rank - 1))
                v ~combine
      in
      let go = make_go st (make_check ()) ~new_row ~put in
      go 0
    in
    (* Split level 0 across the pool; false = not profitable, run serial.

       The candidate range is cut into small fixed-size morsels behind an
       atomic dispenser, and one task per lane pulls morsels until the
       dispenser is dry — a lane stuck in a heavy fiber simply pulls
       fewer morsels, so skewed fibers do not leave lanes idle.  The
       range→log mapping is a pure function of the morsel id, so
       replaying logs in id order reproduces the serial accumulation
       sequence exactly: same cells, same combine order, bit-identical
       output at any domain count. *)
    let parallel (pool : Pool.t) : bool =
      if n_levels = 0 then false
      else begin
        let st0 = Lowering.fresh_state plan tensors in
        let check0 = make_check () in
        (* Candidate base of the outermost level, computed once and shared
           read-only (level-0 generators and probes read only the root
           nodes).  A cursor is stateful, so it is drained here first; a
           word-merged bitset is materialized the same way. *)
        let base, probe, n_cand =
          match levels.(0).Lowering.lv_gen st0 with
          | Lowering.G_full -> (None, None, loop_dims.(0))
          | Lowering.G_arr arr -> (Some arr, None, Array.length arr)
          | Lowering.G_filter (arr, pr) -> (Some arr, Some pr, Array.length arr)
          | Lowering.G_bits w ->
              let arr = Bitset.to_array w in
              (Some arr, None, Array.length arr)
          | Lowering.G_cur c ->
              let buf = Vec.Int.create ~capacity:64 () in
              while c.Cursors.key <> Cursors.exhausted do
                check0 ();
                Vec.Int.push buf c.Cursors.key;
                c.Cursors.next ()
              done;
              let arr = Vec.Int.to_array buf in
              (Some arr, None, Array.length arr)
        in
        if n_cand < 2 then false
        else begin
          let bind0 = levels.(0).Lowering.lv_bind in
          (* One lane's walk over the candidate range [lo, hi). *)
          let run_range st check go lo hi =
            let visit i =
              check ();
              bind0 st i;
              go 1
            in
            match (base, probe) with
            | None, _ ->
                for i = lo to hi - 1 do
                  visit i
                done
            | Some arr, None ->
                for p = lo to hi - 1 do
                  visit arr.(p)
                done
            | Some arr, Some pr ->
                for p = lo to hi - 1 do
                  let i = arr.(p) in
                  if pr i then visit i
                done
          in
          let log_put (lc, lv) (coords : int array) : float -> unit =
           fun v ->
            for d = 0 to out_rank - 1 do
              Vec.Int.push lc coords.(d)
            done;
            Vec.Float.push lv v
          in
          let on_failure e =
            if not (Atomic.exchange cancel true) then
              Atomic.set cancel_mark (Obs.Metrics.value m_deadline_ticks);
            raise e
          in
          let lanes = Pool.size pool in
          (* ~32 morsels per lane: enough granularity to rebalance skew,
             few enough that per-morsel log bookkeeping stays negligible. *)
          let msize = max 16 ((n_cand + (32 * lanes) - 1) / (32 * lanes)) in
          let disp = Morsel.create ~n_items:n_cand ~size:msize in
          let nm = Morsel.n_morsels disp in
          let logs =
            Array.init nm (fun _ ->
                ( Vec.Int.create ~capacity:16 (),
                  Vec.Float.create ~capacity:16 () ))
          in
          let n_tasks = max 1 (min lanes nm) in
          let pulls = Array.make n_tasks 0 in
          let lane_task lane : Pool.task =
           fun () ->
            try
              (* State and tick counter live per lane; every morsel
                 rebinds from level 0 down, so residue between morsels is
                 dead exactly as between candidates. *)
              let st = Lowering.fresh_state plan tensors in
              let check = make_check () in
              let coords = st.Lowering.st_coords in
              let rec drain () =
                match Morsel.take disp with
                | None -> ()
                | Some (mid, lo, hi) ->
                    Obs.Metrics.incr m_morsels;
                    Obs.Metrics.incr (domain_counter "kernel.morsels");
                    pulls.(lane) <- pulls.(lane) + 1;
                    let go =
                      make_go st check ~new_row:ignore
                        ~put:(log_put logs.(mid) coords)
                    in
                    run_range st check go lo hi;
                    drain ()
              in
              drain ()
            with e -> on_failure e
          in
          let record_cancel_latency () =
            let mark = Atomic.get cancel_mark in
            if mark >= 0 then
              Obs.Metrics.set_gauge m_cancel_latency
                (float_of_int (Obs.Metrics.value m_deadline_ticks - mark))
          in
          (try Pool.run_all pool (Array.init n_tasks lane_task)
           with e ->
             (* All lanes have drained by the time run_all re-raises, so
                the coarse-tick delta is the cancel-to-last-exit latency. *)
             record_cancel_latency ();
             raise e);
          record_cancel_latency ();
          (* Morsels a lane ran beyond its fair share = work it stole
             from slower lanes; zero means no skew. *)
          let fair = nm / n_tasks in
          Array.iter
            (fun c -> if c > fair then Obs.Metrics.add m_steals (c - fair))
            pulls;
          (* Ordered replay: logs concatenated in morsel id order
             are exactly the serial accumulation sequence. *)
          Obs.span ~cat:"exec" ~name:"kernel.replay"
            ~attrs:(fun () ->
              [ ("kernel", k.Physical.name);
                ("chunks", string_of_int (Array.length logs));
                ("sched", "morsel") ])
            (fun () ->
              let coords = Array.make out_rank 0 in
              Array.iter
                (fun (lc, lv) ->
                  let n = Vec.Float.length lv in
                  for p = 0 to n - 1 do
                    check0 ();
                    for d = 0 to out_rank - 1 do
                      coords.(d) <- Vec.Int.get lc ((p * out_rank) + d)
                    done;
                    Builder.accum builder coords (Vec.Float.get lv p) ~combine
                  done)
                logs);
          true
        end
      end
    in
    (match pool with
    | Some p when Pool.size p > 1 -> if not (parallel p) then serial ()
    | _ -> serial ());
    Builder.freeze builder ~finalize ~fill:output_fill
  in
  { run; describe }
