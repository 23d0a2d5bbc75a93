(* The physical optimizer (paper Sec. 6): lowers one logical query to
   physical steps by deciding

   (1) the loop order — branch-and-bound + Selinger-style dynamic
       programming over (index-set, transposed-inputs) states, where the
       cost of a state is the estimated number of loop iterations incurred
       by each level plus a linear cost for every discordant input that must
       be transposed (Sec. 6.1);
   (2) the output format of every output dimension — by estimated sparsity
       cutoffs and the write pattern, sequential (output indices form a
       prefix of the loop order) vs random (Sec. 6.2);
   (3) the merge algorithm of every loop index — one input iterates, the
       others are probed, chosen by estimated conditional branching
       (Sec. 6.3). *)

open Galley_plan
module Ctx = Galley_stats.Ctx
module Cost = Galley_stats.Cost

type config = {
  weights : Cost.weights;
  dense_cutoff : float; (* estimated density above which a level is dense *)
  bytemap_cutoff : float; (* density above which random writes use bytemap *)
  max_dp_indices : int; (* loop orders: exact DP up to this many indices *)
  exact : bool; (* false = greedy loop order only *)
  max_nodes : int option; (* search-node budget per ladder rung *)
  format_override : string -> Galley_tensor.Tensor.format array option;
      (* pin the output formats of named queries (hand-coded baselines) *)
}

let default_config =
  {
    weights = Cost.default_weights;
    dense_cutoff = 0.25;
    bytemap_cutoff = 0.01;
    max_dp_indices = 10;
    exact = true;
    max_nodes = None;
    format_override = (fun _ -> None);
  }

(* ------------------------------------------------------------------ *)
(* Flattening the logical body into accesses + a physical expression.   *)
(* ------------------------------------------------------------------ *)

type flat = {
  accesses : Physical.access array; (* protocols not yet assigned *)
  pexpr : Physical.pexpr;
  fills : float array; (* fill of each access *)
  facts : Galley_tensor.Facts.t array; (* value facts of each access *)
}

let flatten (schema : Schema.t) (body : Ir.expr) : flat =
  let accs = ref [] and fills = ref [] and facts = ref [] and n = ref 0 in
  let add tensor kind idxs =
    let id = !n in
    incr n;
    accs :=
      { Physical.tensor; kind; idxs; protocols = List.map (fun _ -> Physical.Lookup) idxs }
      :: !accs;
    fills := Schema.fill_of schema tensor :: !fills;
    facts := Schema.facts_of schema tensor :: !facts;
    id
  in
  let rec go (e : Ir.expr) : Physical.pexpr =
    match e with
    | Ir.Input (name, idxs) -> Physical.P_access (add name `Input idxs)
    | Ir.Alias (name, idxs) -> Physical.P_access (add name `Alias idxs)
    | Ir.Literal v -> Physical.P_literal v
    | Ir.Map (op, args) -> Physical.P_map (op, List.map go args)
    | Ir.Agg _ -> invalid_arg "Physical.flatten: aggregate in logical body"
  in
  let pexpr = go body in
  {
    accesses = Array.of_list (List.rev !accs);
    pexpr;
    fills = Array.of_list (List.rev !fills);
    facts = Array.of_list (List.rev !facts);
  }

(* ------------------------------------------------------------------ *)
(* Loop-order search.                                                   *)
(* ------------------------------------------------------------------ *)

(* Estimated iterations of the loop level reached when the prefix set is
   [s]: the non-fill count of the body projected onto [s]. *)
let level_iters (ctx : Ctx.t) (body : Ir.expr) (all : Ir.Idx_set.t)
    (memo : (string, float) Hashtbl.t) (s : Ir.Idx_set.t) : float =
  let k = String.concat "," (Ir.Idx_set.elements s) in
  match Hashtbl.find_opt memo k with
  | Some v -> v
  | None ->
      let others = Ir.Idx_set.elements (Ir.Idx_set.diff all s) in
      let proj = if others = [] then body else Ir.Agg (Op.Max, others, body) in
      let v = Ctx.estimate_expr ctx proj in
      Hashtbl.replace memo k v;
      v

(* Estimated size of an access, for transposition costs. *)
let access_nnz (ctx : Ctx.t) (a : Physical.access) : float =
  match a.Physical.idxs with
  | [] -> 1.0
  | idxs ->
      ctx.Ctx.estimate_access_projected a.Physical.tensor idxs
        (Ir.Idx_set.of_list idxs)

(* Does access [a] remain concordant when [v] is appended to a prefix that
   contains [placed_of_a] of its indices (in order)?  Concordant accesses
   always have their first [placed_of_a] indices placed, so [v] must be the
   next one. *)
let stays_concordant (a : Physical.access) (placed : Ir.Idx_set.t)
    (v : Ir.idx) : bool =
  if not (List.mem v a.Physical.idxs) then true
  else begin
    let placed_count =
      List.length (List.filter (fun i -> Ir.Idx_set.mem i placed) a.Physical.idxs)
    in
    match List.nth_opt a.Physical.idxs placed_count with
    | Some next -> next = v
    | None -> false
  end

type order_state = {
  os_order : Ir.idx list; (* reversed *)
  os_set : Ir.Idx_set.t;
  os_broken : int list; (* sorted access ids needing transposition *)
  os_cost : float;
}

let order_step (cfg : config) (ctx : Ctx.t) (flat : flat) (iters : Ir.Idx_set.t -> float)
    (st : order_state) (v : Ir.idx) : order_state =
  let set' = Ir.Idx_set.add v st.os_set in
  let newly_broken =
    List.filter
      (fun a ->
        (not (List.mem a st.os_broken))
        && not (stays_concordant flat.accesses.(a) st.os_set v))
      (List.init (Array.length flat.accesses) (fun i -> i))
  in
  let transpose_cost =
    List.fold_left
      (fun acc a ->
        acc
        +. Cost.transpose_cost ~weights:cfg.weights
             ~nnz:(access_nnz ctx flat.accesses.(a))
             ())
      0.0 newly_broken
  in
  {
    os_order = v :: st.os_order;
    os_set = set';
    os_broken = List.sort compare (st.os_broken @ newly_broken);
    (* A non-finite level cost (faulty estimator, overflow) cannot steer
       the order search; exhaust the rung so the ladder degrades. *)
    os_cost = Tier.finite (st.os_cost +. iters set' +. transpose_cost);
  }

let greedy_order ?(budget : Tier.budget option) ?(query = "") (cfg : config)
    (ctx : Ctx.t) (flat : flat) (iters : Ir.Idx_set.t -> float)
    (all : Ir.idx list) : order_state =
  let init =
    { os_order = []; os_set = Ir.Idx_set.empty; os_broken = []; os_cost = 0.0 }
  in
  let rec loop st remaining =
    match remaining with
    | [] -> st
    | _ ->
        let scored =
          List.map
            (fun v ->
              Tier.tick_opt budget;
              (v, order_step cfg ctx flat iters st v))
            remaining
        in
        let v, st' =
          List.fold_left
            (fun (bv, b) (v, s) ->
              if s.os_cost < b.os_cost then (v, s) else (bv, b))
            (List.hd scored) (List.tl scored)
        in
        if Provenance.enabled () then
          List.iter
            (fun (cv, cs) ->
              Provenance.candidate ~phase:"physical" ~query ~tier:"greedy"
                ~descr:("loop " ^ String.concat "," (List.rev cs.os_order))
                ~cost:cs.os_cost ~chosen:(cv = v) ())
            scored;
        loop st' (List.filter (fun i -> i <> v) remaining)
  in
  loop init all

let dp_order ?(budget : Tier.budget option) ?(query = "") (cfg : config)
    (ctx : Ctx.t) (flat : flat) (iters : Ir.Idx_set.t -> float)
    (all : Ir.idx list) : order_state =
  let greedy = greedy_order ?budget ~query cfg ctx flat iters all in
  let k = List.length all in
  if (not cfg.exact) || k > cfg.max_dp_indices || k <= 1 then greedy
  else begin
    let pv = Provenance.enabled () in
    if pv then
      Provenance.candidate ~phase:"physical" ~query ~tier:"exact"
        ~descr:"greedy order bound" ~cost:greedy.os_cost ~chosen:false ();
    let pruned_bound = ref 0 and pruned_dominated = ref 0 in
    let improvements = ref 0 in
    let bound = ref greedy.os_cost in
    let best = ref greedy in
    let key st =
      String.concat "," (Ir.Idx_set.elements st.os_set)
      ^ "|"
      ^ String.concat "," (List.map string_of_int st.os_broken)
    in
    let init =
      { os_order = []; os_set = Ir.Idx_set.empty; os_broken = []; os_cost = 0.0 }
    in
    let current = ref [ init ] in
    for _level = 1 to k do
      let next : (string, order_state) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun st ->
          if st.os_cost > !bound then incr pruned_bound
          else
            List.iter
              (fun v ->
                if not (Ir.Idx_set.mem v st.os_set) then begin
                  Tier.tick_opt budget;
                  let st' = order_step cfg ctx flat iters st v in
                  if st'.os_cost > !bound then incr pruned_bound
                  else begin
                    let kk = key st' in
                    let better =
                      match Hashtbl.find_opt next kk with
                      | Some old -> st'.os_cost < old.os_cost
                      | None -> true
                    in
                    if not better then incr pruned_dominated;
                    if better then begin
                      Hashtbl.replace next kk st';
                      if Ir.Idx_set.cardinal st'.os_set = k
                         && st'.os_cost <= !bound
                      then begin
                        bound := st'.os_cost;
                        best := st';
                        incr improvements
                      end
                    end
                  end
                end)
              all)
        !current;
      current := Hashtbl.fold (fun _ st acc -> st :: acc) next []
    done;
    if pv then begin
      Provenance.prune ~phase:"physical" ~query ~tier:"exact"
        ~reason:"cost above bound" ~count:!pruned_bound ();
      Provenance.prune ~phase:"physical" ~query ~tier:"exact"
        ~reason:"dominated dp cell" ~count:!pruned_dominated ();
      Provenance.candidate ~phase:"physical" ~query ~tier:"exact"
        ~descr:
          (Printf.sprintf "dp order [%s] (bound improved %d time%s)"
             (String.concat "," (List.rev !best.os_order))
             !improvements
             (if !improvements = 1 then "" else "s"))
        ~cost:!best.os_cost ~chosen:true ()
    end;
    !best
  end

(* ------------------------------------------------------------------ *)
(* Output format selection (paper Sec. 6.2).                            *)
(* ------------------------------------------------------------------ *)

let choose_formats (cfg : config) (ctx : Ctx.t) (body : Ir.expr)
    ~(all : Ir.Idx_set.t) ~(output_idxs : Ir.idx list)
    ~(output_dims : int array) ~(sequential : bool) :
    Galley_tensor.Tensor.format array =
  let n_out = List.length output_idxs in
  (* Estimated number of non-fill prefixes at each level of the output's
     fiber tree. *)
  let prefix_est level =
    let prefix = List.filteri (fun k _ -> k < level) output_idxs in
    if prefix = [] then 1.0
    else begin
      let others =
        Ir.Idx_set.elements (Ir.Idx_set.diff all (Ir.Idx_set.of_list prefix))
      in
      let proj = if others = [] then body else Ir.Agg (Op.Max, others, body) in
      Tier.finite (Ctx.estimate_expr ctx proj)
    end
  in
  Array.init n_out (fun level ->
      (* Conditional density: children per parent node over the dimension —
         the sparsity "at this index level" of the fiber tree (Sec. 6.2). *)
      let parents = Float.max 1.0 (prefix_est level) in
      let here = prefix_est (level + 1) in
      let density = here /. (parents *. float_of_int output_dims.(level)) in
      let density = Float.min 1.0 density in
      if density >= cfg.dense_cutoff then Galley_tensor.Tensor.Dense
      else if sequential then Galley_tensor.Tensor.Sparse_list
      else if density >= cfg.bytemap_cutoff then Galley_tensor.Tensor.Bytemap
      else Galley_tensor.Tensor.Hash)

(* ------------------------------------------------------------------ *)
(* Protocol (merge algorithm) selection (paper Sec. 6.3).               *)
(* ------------------------------------------------------------------ *)

(* Expected branching of access [a] at loop index [x] given the indices
   already bound by outer loops. *)
let conditional_branching (ctx : Ctx.t) (a : Physical.access) ~(x : Ir.idx)
    ~(bound : Ir.Idx_set.t) : float =
  let idxs = a.Physical.idxs in
  let keep_with =
    Ir.Idx_set.inter (Ir.Idx_set.add x bound) (Ir.Idx_set.of_list idxs)
  in
  let keep_without = Ir.Idx_set.remove x keep_with in
  let with_x = ctx.Ctx.estimate_access_projected a.Physical.tensor idxs keep_with in
  let without_x =
    if Ir.Idx_set.is_empty keep_without then 1.0
    else ctx.Ctx.estimate_access_projected a.Physical.tensor idxs keep_without
  in
  Tier.finite (with_x /. Float.max 1.0 without_x)

(* [estimate = false] (the naive tier) skips branching estimation and lets
   the first intersection member lead. *)
let assign_protocols ?(estimate = true) (ctx : Ctx.t) (flat : flat)
    (loop_order : Ir.idx list) : Physical.access array =
  let n = Array.length flat.accesses in
  let protocols = Array.map (fun a -> Array.of_list a.Physical.protocols) flat.accesses in
  let bound = ref Ir.Idx_set.empty in
  List.iter
    (fun x ->
      let tree =
        Constraints.derive ~accesses:flat.accesses
          ~fills:(fun a -> flat.fills.(a))
          ~facts:(fun a -> flat.facts.(a))
          ~idx:x flat.pexpr
      in
      let binding =
        List.filter
          (fun a -> List.mem x flat.accesses.(a).Physical.idxs)
          (List.init n (fun i -> i))
      in
      let set_protocol a p =
        let pos =
          let rec find k = function
            | [] -> invalid_arg "assign_protocols: index not in access"
            | i :: rest -> if i = x then k else find (k + 1) rest
          in
          find 0 flat.accesses.(a).Physical.idxs
        in
        protocols.(a).(pos) <- p
      in
      (match Constraints.and_members tree with
      | _ :: _ as members ->
          (* Intersection: the access with the smallest expected branching
             iterates; everything else is probed. *)
          let leader =
            if not estimate then List.hd members
            else
              List.fold_left
                (fun (bl, bc) a ->
                  let c =
                    conditional_branching ctx flat.accesses.(a) ~x ~bound:!bound
                  in
                  if c < bc then (a, c) else (bl, bc))
                (List.hd members |> fun a ->
                 (a, conditional_branching ctx flat.accesses.(a) ~x ~bound:!bound))
                (List.tl members)
              |> fst
          in
          List.iter
            (fun a ->
              set_protocol a (if a = leader then Physical.Iterate else Physical.Lookup))
            binding
      | [] ->
          (* Union (or unconstrained): every constrained access iterates so
             the merge can enumerate the union; the rest are probed. *)
          let constrained = Constraints.all_accesses tree in
          List.iter
            (fun a ->
              set_protocol a
                (if List.mem a constrained then Physical.Iterate
                 else Physical.Lookup))
            binding);
      bound := Ir.Idx_set.add x !bound)
    loop_order;
  Array.mapi
    (fun i a -> { a with Physical.protocols = Array.to_list protocols.(i) })
    flat.accesses

(* ------------------------------------------------------------------ *)
(* Driver: logical query -> physical steps.                             *)
(* ------------------------------------------------------------------ *)

(* One rung of the degradation ladder.  [tier] selects the loop-order
   strategy and whether estimates drive formats and protocols:

   - [Exact]  — branch-and-bound DP over loop orders (Sec. 6.1);
   - [Greedy] — greedy loop order;
   - [Naive]  — left-deep order with the output indices leading (so writes
     are sequential, every output level can be a sorted sparse list, and no
     final transpose is needed), first intersection member iterates.  The
     naive rung makes zero estimator calls and checks no budget, so it can
     always complete. *)
let plan_query_rung ~(tier : Tier.t) ?(budget : Tier.budget option)
    ~(config : config) (ctx : Ctx.t) ~(fresh : unit -> string)
    (q : Logical_query.t) : Physical.plan =
  let schema = ctx.Ctx.schema in
  let body = q.Logical_query.body in
  let dims = Schema.index_dims schema body in
  let flat = flatten schema body in
  let all_list =
    Ir.Idx_set.elements (Ir.free_indices body)
  in
  let all = Ir.Idx_set.of_list all_list in
  let memo = Hashtbl.create 64 in
  let iters = level_iters ctx body all memo in
  (* (1) Loop order. *)
  let order_cost = ref Float.nan in
  let loop_order =
    match tier with
    | Tier.Exact ->
        let st =
          dp_order ?budget ~query:q.Logical_query.name config ctx flat iters
            all_list
        in
        order_cost := st.os_cost;
        List.rev st.os_order
    | Tier.Greedy ->
        let st =
          greedy_order ?budget ~query:q.Logical_query.name config ctx flat
            iters all_list
        in
        order_cost := st.os_cost;
        List.rev st.os_order
    | Tier.Naive ->
        q.Logical_query.output_idxs
        @ List.filter
            (fun x -> not (List.mem x q.Logical_query.output_idxs))
            all_list
  in
  (* (2) Transposition steps for discordant accesses. *)
  let transposes = Hashtbl.create 4 in
  let steps = ref [] in
  let accesses =
    Array.map
      (fun (a : Physical.access) ->
        if Physical.is_subsequence a.Physical.idxs loop_order then a
        else begin
          (* Reorder this access's indices to follow the loop order. *)
          let sorted_idxs =
            List.filter (fun x -> List.mem x a.Physical.idxs) loop_order
          in
          let perm =
            Array.of_list
              (List.map
                 (fun x ->
                   let rec find k = function
                     | [] -> assert false
                     | i :: rest -> if i = x then k else find (k + 1) rest
                   in
                   find 0 a.Physical.idxs)
                 sorted_idxs)
          in
          let key =
            a.Physical.tensor ^ "/"
            ^ String.concat "," (Array.to_list (Array.map string_of_int perm))
          in
          let name =
            match Hashtbl.find_opt transposes key with
            | Some name -> name
            | None ->
                let name = fresh () in
                Hashtbl.replace transposes key name;
                let src_info = Schema.info_exn schema a.Physical.tensor in
                let formats =
                  Array.map (fun _ -> Galley_tensor.Tensor.Sparse_list) perm
                in
                steps :=
                  Physical.Transpose
                    {
                      name;
                      source = a.Physical.tensor;
                      source_kind = a.Physical.kind;
                      perm;
                      formats;
                    }
                  :: !steps;
                (* Make the transposed tensor known to the schema and give
                   it the source's statistics under the permuted order. *)
                Schema.declare schema name
                  ~dims:(Array.map (fun k -> src_info.Schema.dims.(k)) perm)
                  ~fill:src_info.Schema.fill ~facts:src_info.Schema.facts;
                Ctx.register_alias_estimated ctx name ~output_idxs:sorted_idxs
                  (Ir.Alias (a.Physical.tensor, a.Physical.idxs));
                name
          in
          { a with Physical.tensor = name; kind = `Alias; idxs = sorted_idxs }
        end)
      flat.accesses
  in
  let flat = { flat with accesses } in
  (* (3) Output order, formats, protocols. *)
  let kernel_out_idxs =
    List.filter (fun x -> List.mem x q.Logical_query.output_idxs) loop_order
  in
  let output_dims =
    Array.of_list (List.map (fun i -> Schema.dim_of_idx dims i) kernel_out_idxs)
  in
  let sequential =
    (* Sequential construction iff the output indices are the leading loops. *)
    let rec prefix out loops =
      match (out, loops) with
      | [], _ -> true
      | o :: out', l :: loops' -> o = l && prefix out' loops'
      | _ -> false
    in
    prefix kernel_out_idxs loop_order
  in
  let output_formats =
    match config.format_override q.Logical_query.name with
    | Some formats ->
        if Array.length formats <> List.length kernel_out_idxs then
          invalid_arg ("format_override arity mismatch for " ^ q.Logical_query.name);
        (* A pinned sorted-list format is only valid for sequential writes;
           fall back to hash otherwise. *)
        Array.map
          (fun f ->
            if f = Galley_tensor.Tensor.Sparse_list && not sequential then
              Galley_tensor.Tensor.Hash
            else f)
          formats
    | None ->
        if tier = Tier.Naive then
          (* Writes are sequential by construction: sorted sparse lists are
             always legal and need no density estimates. *)
          Array.map (fun _ -> Galley_tensor.Tensor.Sparse_list) output_dims
        else
          choose_formats config ctx body ~all ~output_idxs:kernel_out_idxs
            ~output_dims ~sequential
  in
  let accesses =
    assign_protocols ~estimate:(tier <> Tier.Naive) ctx flat loop_order
  in
  let body_fill, body_facts =
    Constraints.pexpr_info
      ~fills:(fun a -> flat.fills.(a))
      ~facts:(fun a -> flat.facts.(a))
      flat.pexpr
  in
  let agg_space = Schema.space dims q.Logical_query.agg_idxs in
  let output_fill =
    if q.Logical_query.agg_op = Op.Ident then body_fill
    else Op.repeat q.Logical_query.agg_op body_fill (int_of_float agg_space)
  in
  let needs_final_transpose = kernel_out_idxs <> q.Logical_query.output_idxs in
  let kernel_name =
    if needs_final_transpose then fresh () else q.Logical_query.name
  in
  let kernel =
    {
      Physical.name = kernel_name;
      loop_order;
      agg_op = q.Logical_query.agg_op;
      agg_idxs = q.Logical_query.agg_idxs;
      output_idxs = kernel_out_idxs;
      output_dims;
      output_formats;
      loop_dims =
        Array.of_list (List.map (fun i -> Schema.dim_of_idx dims i) loop_order);
      body = flat.pexpr;
      accesses;
      body_fill;
      output_fill;
      agg_space;
    }
  in
  Physical.validate_kernel kernel;
  (* Record the chosen operator's predictions — only values the search
     already computed (order cost, kernel fills), never a fresh
     estimator call, so provenance cannot perturb the plan. *)
  if Provenance.enabled () then
    Provenance.operator ~query:q.Logical_query.name ~kernel:kernel_name
      ~cost:!order_cost
      ~attrs:
        [
          ("loop", String.concat "," loop_order);
          ( "formats",
            String.concat ","
              (Array.to_list
                 (Array.map Galley_tensor.Tensor.format_to_string
                    output_formats)) );
          ("tier", Tier.to_string tier);
        ]
      ();
  let final_steps =
    if needs_final_transpose then begin
      Schema.declare schema kernel_name ~dims:output_dims ~fill:output_fill
        ~facts:
          (Op.agg_facts q.Logical_query.agg_op agg_space
             (Lazy.force body_facts));
      let perm =
        Array.of_list
          (List.map
             (fun x ->
               let rec find k = function
                 | [] -> assert false
                 | i :: rest -> if i = x then k else find (k + 1) rest
               in
               find 0 kernel_out_idxs)
             q.Logical_query.output_idxs)
      in
      (* The transposed copy gets formats chosen for *its* dimension order:
         permuting the kernel's formats can nest dense levels under sparse
         parents, multiplying explicit storage.  Transposes build bottom-up
         from sorted coordinates, so sequential formats are always valid. *)
      let transpose_formats =
        match config.format_override q.Logical_query.name with
        | Some formats -> formats
        | None ->
            if tier = Tier.Naive then
              Array.map (fun _ -> Galley_tensor.Tensor.Sparse_list) perm
            else
              choose_formats config ctx body ~all
                ~output_idxs:q.Logical_query.output_idxs
                ~output_dims:(Array.map (fun k -> output_dims.(k)) perm)
                ~sequential:true
      in
      [
        Physical.Kernel kernel;
        Physical.Transpose
          {
            name = q.Logical_query.name;
            source = kernel_name;
            source_kind = `Alias;
            perm;
            formats = transpose_formats;
          };
      ]
    end
    else [ Physical.Kernel kernel ]
  in
  List.rev !steps @ final_steps

(* Degradation ladder: exact DP → greedy order → naive left-deep plan.
   Returns the tier that actually produced the plan.  With
   [degrade = false] exhaustion propagates as [Tier.Exhausted]. *)
let plan_query_tiered ?(deadline : float option) ?(degrade = true)
    ?(config = default_config) (ctx : Ctx.t) ~(fresh : unit -> string)
    (q : Logical_query.t) : Physical.plan * Tier.t =
  let budget_for () =
    match (deadline, config.max_nodes) with
    | None, None -> None
    | _ -> Some (Tier.budget ?deadline ?max_nodes:config.max_nodes ())
  in
  let rungs = if config.exact then [ Tier.Exact; Tier.Greedy ] else [ Tier.Greedy ] in
  let last_budget : Tier.budget option ref = ref None in
  let rung_nodes () =
    match !last_budget with Some b -> b.Tier.nodes | None -> 0
  in
  let rec go = function
    | [] ->
        let r = (plan_query_rung ~tier:Tier.Naive ~config ctx ~fresh q, Tier.Naive) in
        if Provenance.enabled () then
          Provenance.rung ~phase:"physical" ~query:q.Logical_query.name
            ~tier:"naive" ~outcome:"served" ();
        r
    | tier :: rest -> (
        try
          let plan =
            Galley_obs.span ~cat:"optimize"
              ~name:("physical.rung:" ^ Tier.to_string tier)
              ~attrs:(fun () -> [ ("query", q.Logical_query.name) ])
              (fun () ->
                let budget = budget_for () in
                last_budget := budget;
                (* Charge rung entry so trivial (tick-free) plans still
                   respect an already-expired deadline. *)
                Tier.tick_opt budget;
                plan_query_rung ~tier ?budget ~config ctx ~fresh q)
          in
          if Provenance.enabled () then
            Provenance.rung ~phase:"physical" ~query:q.Logical_query.name
              ~tier:(Tier.to_string tier) ~outcome:"served"
              ~nodes:(rung_nodes ()) ();
          (plan, tier)
        with Tier.Exhausted ->
          if degrade then begin
            Galley_obs.Metrics.incr_named "optimizer.physical.rung_exhausted";
            if Provenance.enabled () then
              Provenance.rung ~phase:"physical" ~query:q.Logical_query.name
                ~tier:(Tier.to_string tier) ~outcome:"exhausted"
                ~nodes:(rung_nodes ()) ();
            go rest
          end
          else raise Tier.Exhausted)
  in
  let plan, tier = go rungs in
  Galley_obs.Metrics.incr_named
    ("optimizer.physical.tier." ^ Tier.to_string tier);
  (plan, tier)

let plan_query ?config (ctx : Ctx.t) ~(fresh : unit -> string)
    (q : Logical_query.t) : Physical.plan =
  fst (plan_query_tiered ?config ctx ~fresh q)
