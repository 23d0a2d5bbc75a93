(* Staged kernel backend: the compiled counterpart of the constraint-tree
   interpreter in [lib/engine/kernel_exec.ml].

   [compile] runs once per kernel structure: the body is fused into
   straight-line slot code ([Body_fuse]), and every per-level decision is
   resolved into a candidate generator and its bindings ([Lowering]).
   The returned [run] only walks the precompiled level array — like the
   interpreter's, it takes the (structurally identical) kernel of the call
   site, so one compiled closure serves every dimension size and the
   engine's signature-keyed kernel cache works unchanged.

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
   innermost accumulations — flattened output coordinates plus the body's
   result slot — into a private log.  The logs are then replayed into the
   single output builder in morsel order, which reproduces the serial
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
  | R_hash  (* [Leaf_hash]: table lookup *)

(* Where a lane's innermost accumulations go.  The row sinks hold for a
   whole innermost visit, whose output cells share every coordinate but
   the last (see [serial]). *)
type sink =
  | S_dense  (* the visit's dense output row, written in place *)
  | S_leaf  (* the visit's output row in another format: [leaf_accum] *)
  | S_reduce
      (* the innermost index is aggregated, so the visit writes one cell:
         a local accumulator seeded from it, stored back once *)
  | S_accum  (* [Builder.accum] at the full coordinate *)
  | S_log  (* a morsel's log (parallel lanes) *)

let domain_counter prefix =
  Obs.Metrics.counter
    (prefix ^ ".domain" ^ string_of_int (Domain.self () :> int))

(* Deadline cadence of one lane: the interpreter's one tick per candidate
   and one per accumulation, the clock read at every 8192nd tick.  The
   counter runs with or without a deadline; only a timed lane flushes the
   tick metric and reads the clock.  [cancel] folds a failure raised by
   one lane into every other lane's cadence. *)
type clock = {
  mutable ticks : int;
  deadline : float option;
  cancel : bool Atomic.t;
}

let clock_check (c : clock) : unit =
  match c.deadline with
  | None -> ()
  | Some d ->
      Obs.Metrics.add m_deadline_ticks 8192;
      Obs.Metrics.add (domain_counter "kernel.deadline_ticks") 8192;
      if Atomic.get c.cancel || Unix.gettimeofday () > d then raise Timeout

(* Advance [c] by [n] (1 or 2) ticks: the check fires exactly when a
   multiple of 8192 is crossed, as [n] single ticks would fire it. *)
let[@inline] tick (c : clock) (n : int) : unit =
  let t = c.ticks + n in
  c.ticks <- t;
  if t land 8191 < n then clock_check c

(* The aggregate's float operation, inlined for the hot operators; the
   same operations [Op.apply2] performs, so accumulation stays bit for
   bit the interpreter's. *)
let[@inline] combine (op : Op.t) (x : float) (v : float) : float =
  match op with
  | Op.Add -> x +. v
  | Op.Min -> Float.min x v
  | Op.Max -> Float.max x v
  | Op.Mul -> x *. v
  | Op.Ident -> v
  | _ -> Op.apply2 op x v

(* Run the body's slot code ([Body_fuse]) over the value array [vs]. *)
let eval (code : Body_fuse.instr array) (vs : float array) : unit =
  for k = 0 to Array.length code - 1 do
    match Array.unsafe_get code k with
    | Body_fuse.Add (d, x, y) ->
        Array.unsafe_set vs d (Array.unsafe_get vs x +. Array.unsafe_get vs y)
    | Body_fuse.Mul (d, x, y) ->
        Array.unsafe_set vs d (Array.unsafe_get vs x *. Array.unsafe_get vs y)
    | Body_fuse.Sub (d, x, y) ->
        Array.unsafe_set vs d (Array.unsafe_get vs x -. Array.unsafe_get vs y)
    | Body_fuse.Div (d, x, y) ->
        Array.unsafe_set vs d (Array.unsafe_get vs x /. Array.unsafe_get vs y)
    | Body_fuse.Max (d, x, y) ->
        Array.unsafe_set vs d
          (Float.max (Array.unsafe_get vs x) (Array.unsafe_get vs y))
    | Body_fuse.Min (d, x, y) ->
        Array.unsafe_set vs d
          (Float.min (Array.unsafe_get vs x) (Array.unsafe_get vs y))
    | Body_fuse.Bin (op, d, x, y) ->
        Array.unsafe_set vs d
          (Op.apply2 op (Array.unsafe_get vs x) (Array.unsafe_get vs y))
    | Body_fuse.Neg (d, x) -> Array.unsafe_set vs d (-.Array.unsafe_get vs x)
    | Body_fuse.Square (d, x) ->
        let v = Array.unsafe_get vs x in
        Array.unsafe_set vs d (v *. v)
    | Body_fuse.Relu (d, x) ->
        Array.unsafe_set vs d (Float.max 0.0 (Array.unsafe_get vs x))
    | Body_fuse.Exp (d, x) ->
        Array.unsafe_set vs d (exp (Array.unsafe_get vs x))
    | Body_fuse.Sigmoid (d, x) ->
        Array.unsafe_set vs d (1.0 /. (1.0 +. exp (-.Array.unsafe_get vs x)))
    | Body_fuse.Un (op, d, x) ->
        Array.unsafe_set vs d (Op.apply1 op (Array.unsafe_get vs x))
    | Body_fuse.Apply (op, d, args) ->
        Array.unsafe_set vs d (Op.apply op (Array.map (fun s -> vs.(s)) args))
  done

(* [Lowering.prev]: the node access [a] has reached above its [j]-th
   index.  A copy: dune's default (dev) profile compiles modules
   opaquely, so a call into [Lowering] would be an indirect call per row
   where this one is inlined.  [eval] and [bind] live here for the same
   reason. *)
let[@inline] prev (st : Lowering.state) (a : int) (j : int) : T.node =
  if j = 0 then Array.unsafe_get st.Lowering.st_roots a
  else Array.unsafe_get (Array.unsafe_get st.Lowering.st_nodes a) (j - 1)

(* Apply a level's bindings at candidate [i]. *)
let bind (st : Lowering.state) (lv : Lowering.level) (i : int) : unit =
  let absent = Lowering.absent and values = st.Lowering.st_values in
  let out = lv.Lowering.lv_out in
  if out >= 0 then st.Lowering.st_coords.(out) <- i;
  let bs = lv.Lowering.lv_binds in
  for k = 0 to Array.length bs - 1 do
    let b = Array.unsafe_get bs k in
    let nd = prev st b.Lowering.b_acc b.b_slot in
    if b.b_last then
      if nd == absent then values.(b.b_acc) <- b.b_fill
      else T.Node.load_value nd i b.b_fill values b.b_acc
    else
      st.Lowering.st_nodes.(b.b_acc).(b.b_slot) <-
        (match nd with
        | T.Inner_dense cs ->
            if i >= 0 && i < Array.length cs then Array.unsafe_get cs i
            else absent
        | _ -> if nd == absent then absent else T.Node.find_or nd i absent)
  done

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
  let body = plan.Lowering.p_body in
  let res = body.Body_fuse.result in
  let code = body.Body_fuse.code in
  (* The row loops evaluate a one-instruction product or sum of two slots
     inline (kinds 1, 2), a bare access by reading it (0), and any other
     body through [eval] (3). *)
  let b_kind, b_x, b_y =
    match code with
    | [||] -> (0, 0, 0)
    | [| Body_fuse.Mul (_, x, y) |] -> (1, x, y)
    | [| Body_fuse.Add (_, x, y) |] -> (2, x, y)
    | _ -> (3, 0, 0)
  in
  let levels = plan.Lowering.p_levels in
  let n_levels = Array.length levels in
  let out_rank = plan.Lowering.p_out_rank in
  let agg_op = k.Physical.agg_op in
  let identity =
    match Op.identity agg_op with Some e -> e | None -> 0.0 (* Ident *)
  in
  let combine_fn =
    if agg_op = Op.Ident then fun _ v -> v else Op.apply2 agg_op
  in
  let body_fill = k.Physical.body_fill in
  (* The fill correction g(body_fill, N - count) changes no cell when the
     body fill is the aggregate's identity: min(v, +inf) and max(v, -inf)
     are v, and v + 0 is v because a sum started at +0 is never -0.
     [freeze] then keeps the cells as accumulated. *)
  let finalize_keeps =
    match agg_op with
    | Op.Add -> body_fill = 0.0
    | Op.Min -> body_fill = infinity
    | Op.Max -> body_fill = neg_infinity
    | _ -> false
  in
  (* The serial sink (see [serial]). *)
  let serial_sink =
    if n_levels = 0 then S_accum
    else
      match plan.Lowering.p_last_out with
      | None -> S_reduce
      | Some q when q = out_rank - 1 ->
          if k.Physical.output_formats.(q) = T.Dense then S_dense else S_leaf
      | Some _ -> S_accum
  in
  let run ?deadline ?pool (kc : Physical.kernel) (tensors : T.t array) : T.t =
    (* Size-dependent facts come from the caller's kernel. *)
    let n_agg = int_of_float kc.Physical.agg_space in
    let output_fill = kc.Physical.output_fill in
    let finalize =
      if agg_op = Op.Ident then
        Some (fun v cnt -> if cnt = 0 then output_fill else v)
      else if finalize_keeps then None
      else
        Some
          (fun v cnt ->
            Op.apply2 agg_op v (Op.repeat agg_op body_fill (n_agg - cnt)))
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
    let cancel = Atomic.make false in
    (* Coarse-tick value of [m_deadline_ticks] when cancel was first set;
       -1 while no lane has failed. *)
    let cancel_mark = Atomic.make (-1) in
    let make_clock () = { ticks = 0; deadline; cancel } in
    (* The loop nest from [level] down over one lane's state.

       The innermost level runs, when the plan allows ([p_row]), as one
       fused loop per visit ([row_run]).  Per candidate it reads the
       walked leaf's value by position and every other load through a
       reader resolved once per visit (a dense array, a forward pointer
       into a sparse leaf, or a hash table); evaluates the body into its
       slots, a one-instruction body inline and any other through
       [eval]; and accumulates the result into the lane's [sink] — the
       visit's dense output row and the reduction's local accumulator
       inline, the other sinks through [emit].  A visit whose sources do
       not have the planned shape runs the generic walker instead.
       Either way the candidates, the ticks (one per candidate plus one
       per accumulation) and the accumulations are the interpreter's, in
       its order. *)
    let make_go (st : Lowering.state) (clock : clock) (sink : sink)
        (log : (Vec.Int.t * Vec.Float.t) ref) : int -> unit =
      let values = st.Lowering.st_values in
      let coords = st.Lowering.st_coords in
      let last = n_levels - 1 in
      let row = plan.Lowering.p_row in
      let row_walk =
        match row with Some r -> r.Lowering.rw_walk | None -> None
      in
      let row_out =
        match plan.Lowering.p_last_out with Some q -> q | None -> -1
      in
      (* The current innermost visit: its output row (resolved at the
         first accumulation, so a visit that accumulates nothing creates
         no row), or its local accumulator and count. *)
      let row_ready = ref false and row_leaf = ref Builder.no_leaf in
      let row_vals = ref [||] and row_cnts = ref [||] in
      let acc = [| 0.0 |] and n_red = ref 0 in
      let cell () = if out_rank = 0 then 0 else coords.(out_rank - 1) in
      (* Consecutive visits often share their row (a reduction into one
         output vector): pointers are stored only when they change, which
         spares the write barrier. *)
      let resolve_row () =
        (* Below rank 2 every visit writes the root row. *)
        let l =
          if out_rank < 2 && !row_leaf != Builder.no_leaf then !row_leaf
          else Builder.leaf builder coords
        in
        row_ready := true;
        if l != !row_leaf then begin
          row_leaf := l;
          match l with
          | Builder.B_leaf_dense { vals; cnts } ->
              row_vals := vals;
              row_cnts := cnts
          | _ -> ()
        end
      in
      let seed () =
        resolve_row ();
        acc.(0) <-
          (match !row_leaf with
          | Builder.B_leaf_dense { vals; _ } -> vals.(cell ())
          | l -> Builder.cell_value builder l (cell ()))
      in
      let begin_row () =
        row_ready := false;
        n_red := 0
      in
      let end_row () =
        let n = !n_red in
        if n > 0 then
          match !row_leaf with
          | Builder.B_leaf_dense { vals; cnts } ->
              let c = cell () in
              vals.(c) <- acc.(0);
              cnts.(c) <- cnts.(c) + n
          | l -> Builder.cell_store l (cell ()) acc.(0) ~count:n
      in
      (* Accumulate the result slot at innermost candidate [i]: every
         accumulation of the generic walker, and those of the sinks a
         row loop does not write inline. *)
      let emit (i : int) : unit =
        match sink with
        | S_dense ->
            if not !row_ready then resolve_row ();
            let vals = !row_vals and cnts = !row_cnts in
            vals.(i) <- combine agg_op vals.(i) values.(res);
            cnts.(i) <- cnts.(i) + 1
        | S_reduce ->
            if !n_red = 0 then seed ();
            acc.(0) <- combine agg_op acc.(0) values.(res);
            incr n_red
        | S_leaf ->
            if not !row_ready then resolve_row ();
            Builder.leaf_accum builder !row_leaf i values.(res)
              ~combine:combine_fn
        | S_accum ->
            if row_out >= 0 then coords.(row_out) <- i;
            Builder.accum builder coords values.(res) ~combine:combine_fn
        | S_log ->
            if row_out >= 0 then coords.(row_out) <- i;
            let lc, lv = !log in
            for d = 0 to out_rank - 1 do
              Vec.Int.push lc coords.(d)
            done;
            Vec.Float.push lv values.(res)
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
      let ld_tbl = Array.make n_loads (Hashtbl.create 1) in
      let dense_loads = ref false in
      let resolve_loads () =
        dense_loads := true;
        for s = 0 to n_loads - 1 do
          let a, j = loads.(s) in
          ld_ptr.(s) <- 0;
          match prev st a j with
          | T.Leaf_dense vs ->
              ld_kind.(s) <- R_dense;
              if ld_vals.(s) != vs then ld_vals.(s) <- vs
          | T.Leaf_sparse { crd; vals } | T.Leaf_bytemap { crd; vals; _ } ->
              dense_loads := false;
              ld_kind.(s) <- R_step;
              if ld_crd.(s) != crd then ld_crd.(s) <- crd;
              if ld_vals.(s) != vals then ld_vals.(s) <- vals
          | T.Leaf_hash { tbl; _ } ->
              dense_loads := false;
              ld_kind.(s) <- R_hash;
              if ld_tbl.(s) != tbl then ld_tbl.(s) <- tbl
          | _ ->
              (* An absent subtree reads fill for the whole visit. *)
              dense_loads := false;
              ld_kind.(s) <- R_fill;
              values.(a) <- ld_fill.(s)
        done
      in
      (* Load every reader at candidate [i] when some load is not a dense
         array.  Candidates ascend within a visit, so a sparse reader's
         pointer only moves forward: one step when the next stored index
         is already [>= i] (the full-range case), else galloping and
         bisecting (a walk that skips ahead). *)
      let load_mixed i =
        for s = 0 to n_loads - 1 do
          match Array.unsafe_get ld_kind s with
          | R_dense ->
              let vs = Array.unsafe_get ld_vals s in
              Array.unsafe_set values (Array.unsafe_get ld_acc s)
                (if i < Array.length vs then Array.unsafe_get vs i
                 else Array.unsafe_get ld_fill s)
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
                    if Array.unsafe_get crd mid < i then lo := mid
                    else hi := mid
                  done;
                  Array.unsafe_set ld_ptr s !hi;
                  !hi
                end
                else p
      in
            Array.unsafe_set values (Array.unsafe_get ld_acc s)
              (if p < n && Array.unsafe_get crd p = i then
                 Array.unsafe_get (Array.unsafe_get ld_vals s) p
               else Array.unsafe_get ld_fill s)
        | R_hash ->
            Array.unsafe_set values (Array.unsafe_get ld_acc s)
              (try Hashtbl.find (Array.unsafe_get ld_tbl s) i
               with Not_found -> Array.unsafe_get ld_fill s)
        | R_fill -> ()
      done
      in
      (* One fused visit over [n] candidates: the range [0, n) when
         [range], else [crd.(0 .. n-1)].  [la >= 0] is a walked leader,
         whose value at candidate position [p] is [lvals.(p)].  Candidates
         pass when below [bound] and, with [has_pr], the probe [pr]. *)
      let row_run n crd range la lvals bound has_pr pr =
        (* The tick counter and a reduction's accumulator and count live
           in locals for the visit (registers, not memory), stored back
           before a clock check and at the end. *)
        let ticks = ref clock.ticks in
        let racc = ref acc.(0) and rcnt = ref 0 and seeded = ref (!n_red > 0) in
        for p = 0 to n - 1 do
          let i = if range then p else Array.unsafe_get crd p in
          if i < bound && ((not has_pr) || pr st i) then begin
            let t = !ticks + 2 in
            ticks := t;
            if t land 8191 < 2 then begin
              clock.ticks <- t;
              clock_check clock
            end;
            if la >= 0 then
              Array.unsafe_set values la (Array.unsafe_get lvals p);
            if !dense_loads then
              for s = 0 to n_loads - 1 do
                let vs = Array.unsafe_get ld_vals s in
                Array.unsafe_set values (Array.unsafe_get ld_acc s)
                  (if i < Array.length vs then Array.unsafe_get vs i
                   else Array.unsafe_get ld_fill s)
              done
            else load_mixed i;
            let v =
              if b_kind = 1 then
                Array.unsafe_get values b_x *. Array.unsafe_get values b_y
              else if b_kind = 2 then
                Array.unsafe_get values b_x +. Array.unsafe_get values b_y
              else begin
                if b_kind = 3 then eval code values;
                Array.unsafe_get values res
              end
            in
            match sink with
            | S_dense ->
                if not !row_ready then resolve_row ();
                let vals = !row_vals and cnts = !row_cnts in
                Array.unsafe_set vals i
                  (combine agg_op (Array.unsafe_get vals i) v);
                Array.unsafe_set cnts i (Array.unsafe_get cnts i + 1)
            | S_reduce ->
                if not !seeded then begin
                  seed ();
                  racc := acc.(0);
                  seeded := true
                end;
                racc := combine agg_op !racc v;
                incr rcnt
            | S_leaf | S_accum | S_log ->
                Array.unsafe_set values res v;
                emit i
          end
        done;
        clock.ticks <- !ticks;
        if !rcnt > 0 then begin
          acc.(0) <- !racc;
          n_red := !n_red + !rcnt
        end
      in
      let no_probe _ _ = false in
      (* Candidates of a step visit that come neither as a range nor as an
         array, buffered for [row_run]. *)
      let cand = Vec.Int.create ~capacity:64 () in
      let run_buffered () =
        row_run cand.Vec.Int.len cand.Vec.Int.data false (-1) [||] max_int
          false no_probe
      in
      let rec go (level : int) : unit =
        if level = n_levels then begin
          tick clock 1;
          eval code values;
          emit (if row_out >= 0 then coords.(row_out) else 0)
        end
        else if level = last then begin
          begin_row ();
          if Option.is_some row then row_level () else generic level;
          end_row ()
        end
        else generic level
      and generic (level : int) : unit =
        let lv = levels.(level) in
        let visit i =
          tick clock 1;
          bind st lv i;
          go (level + 1)
        in
        match lv.Lowering.lv_gen st with
        | Lowering.G_full ->
            for i = 0 to loop_dims.(level) - 1 do
              visit i
            done
        | Lowering.G_arr arr ->
            for p = 0 to Array.length arr - 1 do
              visit (Array.unsafe_get arr p)
            done
        | Lowering.G_filter (arr, probe) ->
            for p = 0 to Array.length arr - 1 do
              let i = Array.unsafe_get arr p in
              if probe i then visit i
            done
        | Lowering.G_bits w -> Bitset.iter_set w visit
        | Lowering.G_cur c ->
            while c.Cursors.key <> Cursors.exhausted do
              visit c.Cursors.key;
              c.Cursors.next ()
            done
      and row_level () : unit =
        match row_walk with
        | Some (la, lj, probe) -> (
            match prev st la lj with
            | T.Leaf_sparse { crd; vals } | T.Leaf_bytemap { crd; vals; _ } -> (
                match probe with
                | Lowering.P_none ->
                    resolve_loads ();
                    row_run (Array.length crd) crd false la vals max_int false
                      no_probe
                | Lowering.P_fn pr ->
                    resolve_loads ();
                    row_run (Array.length crd) crd false la vals max_int true pr
                | Lowering.P_dense (pa, pj) -> (
                    (* The dense member passes candidates below its length;
                       an absent one passes none. *)
                    let bound =
                      match prev st pa pj with
                      | T.Inner_dense cs -> Array.length cs
                      | T.Leaf_dense vs -> Array.length vs
                      | nd -> if nd == Lowering.absent then 0 else -1
                    in
                    if bound < 0 then generic last
                    else begin
                      resolve_loads ();
                      row_run (Array.length crd) crd false la vals bound false
                        no_probe
                    end))
            | nd ->
                (* An absent leader has no candidates. *)
                if nd != Lowering.absent then generic last)
        | None -> (
            let g = levels.(last).Lowering.lv_gen st in
            resolve_loads ();
            match g with
            | Lowering.G_full ->
                row_run loop_dims.(last) [||] true (-1) [||] max_int false
                  no_probe
            | Lowering.G_arr arr ->
                row_run (Array.length arr) arr false (-1) [||] max_int false
                  no_probe
            | Lowering.G_filter (arr, probe) ->
                Vec.Int.clear cand;
                Array.iter (fun i -> if probe i then Vec.Int.push cand i) arr;
                run_buffered ()
            | Lowering.G_bits w ->
                Vec.Int.clear cand;
                Bitset.iter_set w (Vec.Int.push cand);
                run_buffered ()
            | Lowering.G_cur c ->
                Vec.Int.clear cand;
                while c.Cursors.key <> Cursors.exhausted do
                  Vec.Int.push cand c.Cursors.key;
                  c.Cursors.next ()
                done;
                run_buffered ())
      in
      go
    in
    (* Serial sink: when every output coordinate but the last is fixed
       for a whole innermost visit (the innermost level binds the last
       output index, or none), the visit writes one leaf row, resolved at
       its first accumulation: a dense row in place, with the aggregate's
       float operation inlined ([combine]), another format through
       [Builder.leaf_accum] — or, when the innermost index is aggregated,
       one cell, folded in a local accumulator seeded from the cell and
       stored back once with its count ([S_reduce]).  Otherwise
       [Builder.accum]. *)
    let serial () =
      let st = Lowering.fresh_state plan tensors in
      let no_log = ref (Vec.Int.create (), Vec.Float.create ()) in
      let go = make_go st (make_clock ()) serial_sink no_log in
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
        let clock0 = make_clock () in
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
                tick clock0 1;
                Vec.Int.push buf c.Cursors.key;
                c.Cursors.next ()
              done;
              let arr = Vec.Int.to_array buf in
              (Some arr, None, Array.length arr)
        in
        if n_cand < 2 then false
        else begin
          let lv0 = levels.(0) in
          (* One lane's walk over the candidate range [lo, hi). *)
          let run_range st clock go lo hi =
            let visit i =
              tick clock 1;
              bind st lv0 i;
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
              let clock = make_clock () in
              let log = ref logs.(0) in
              let go = make_go st clock S_log log in
              let rec drain () =
                match Morsel.take disp with
                | None -> ()
                | Some (mid, lo, hi) ->
                    Obs.Metrics.incr m_morsels;
                    Obs.Metrics.incr (domain_counter "kernel.morsels");
                    pulls.(lane) <- pulls.(lane) + 1;
                    log := logs.(mid);
                    run_range st clock go lo hi;
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
                    tick clock0 1;
                    for d = 0 to out_rank - 1 do
                      coords.(d) <- Vec.Int.get lc ((p * out_rank) + d)
                    done;
                    Builder.accum builder coords (Vec.Float.get lv p)
                      ~combine:combine_fn
                  done)
                logs);
          true
        end
      end
    in
    (match pool with
    | Some p when Pool.size p > 1 -> if not (parallel p) then serial ()
    | _ -> serial ());
    Builder.freeze builder ?finalize ~fill:output_fill
  in
  { run; describe }
