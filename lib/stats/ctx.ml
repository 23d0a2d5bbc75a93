(* Estimation context: the bridge between the optimizers and a concrete
   sparsity estimator.

   The context annotates expressions bottom-up with statistics objects
   (paper Sec. 7.2): Input/Alias leaves look up cached per-tensor statistics
   (renamed to the access's index variables), Map nodes dispatch to the
   annihilating merge when every child's fill absorbs the others' values
   ([Op.absorbing_children] over fills and value facts) and to the
   non-annihilating merge otherwise, and Agg nodes project.

   Alias statistics can come from two sources: *inferred* (annotating the
   defining expression, used during logical optimization) or *measured*
   (constructed from the materialized tensor, used by just-in-time physical
   optimization, paper Sec. 8.1). *)

open Galley_plan

type kind = Uniform_kind | Chain_kind

let kind_to_string = function
  | Uniform_kind -> "uniform"
  | Chain_kind -> "chain"

type t = {
  kind : kind;
  schema : Schema.t;
  register_input : string -> Galley_tensor.Tensor.t -> unit;
  register_alias_node : string -> output_idxs:Ir.idx list -> Intern.node -> unit;
  register_alias_tensor : string -> Galley_tensor.Tensor.t -> unit;
  estimate_node : Intern.node -> float;
  estimate_access_projected : string -> Ir.idx list -> Ir.Idx_set.t -> float;
  has_stats : string -> bool;
  clone : unit -> t; (* snapshot of the alias-statistics state for search *)
  class_of : Intern.node -> int; (* the estimate memo's class of a node *)
  resolve : string -> string; (* an alias's definition id, else the name *)
  table_sizes : unit -> int; (* entries held by the tables reset together *)
}

(* Canonical positional index names used for cached per-tensor stats. *)
let canon_idx k = "%" ^ string_of_int k

let canon_names = Array.init 32 canon_idx
let canon k = if k < Array.length canon_names then canon_names.(k) else canon_idx k

(* The position [k] of a canonical name [canon_idx k], or -1. *)
let canon_pos (i : string) : int =
  let n = String.length i in
  if n < 2 || i.[0] <> '%' then -1
  else begin
    let k = ref 0 and ok = ref true in
    for p = 1 to n - 1 do
      match i.[p] with
      | '0' .. '9' as c -> k := (!k * 10) + (Char.code c - 48)
      | _ -> ok := false
    done;
    if !ok then !k else -1
  end

(* Estimator traffic, per context kind, for the metrics report.  Memo
   hits count too — the counters measure how hard the optimizers lean on
   the estimator, not estimator-internal cost. *)
let m_calls_uniform = Galley_obs.Metrics.counter "estimator.calls.uniform"
let m_calls_chain = Galley_obs.Metrics.counter "estimator.calls.chain"

let calls_counter = function
  | Uniform_kind -> m_calls_uniform
  | Chain_kind -> m_calls_chain

module Build (E : Estimator_sig.S) = struct
  type annotation = E.t * float * Galley_tensor.Facts.t Lazy.t

  (* An estimated alias: its definition's id, and its binding, which also
     fixes the statistics and schema entry it was registered with. *)
  type alias_def = { def : string; binding : string }

  (* Estimates are memoized per class.  A class is one canonical key
     ([Canonical.canonical_key]) with every alias name resolved to its
     definition's id, so sub-queries equal up to index renaming,
     commutative child order and alias naming share one entry, and the
     first value computed for a class is the one every member gets.

     A search node is interned in [ir] with every alias name replaced by
     its binding (the node caches the result while its names bind alike).
     A binding fixes what [annotate] reads for the alias, so annotations
     are kept per interned value, and it fixes the definition, so an
     interned value builds its key once.  Every table below except [cache]
     and [def_keys] is shared by clones and reset, with [ir], when a name
     that keys read by name is registered again: an input rebound or a
     tensor measured (the JIT refresh, once per executed query).  Stale
     estimates go, and a resident session stays bounded. *)
  type state = {
    schema : Schema.t;
    cache : (string, E.t) Hashtbl.t; (* canonical positional names *)
    ir : Intern.table; (* expressions with their alias names bound *)
    classes : (string, int) Hashtbl.t; (* resolved canonical key -> class *)
    memo : (int, float) Hashtbl.t; (* class -> estimate *)
    annotations : (int, annotation) Hashtbl.t; (* interned id -> *)
    def_keys : (string, alias_def) Hashtbl.t;
        (* per clone, since search branches register different aliases *)
    key_ids : (int, string) Hashtbl.t;
        (* defining class -> id: an alias's key names its definition by
           this id, so keys stay short however deep the aliases go *)
    bindings : (string * Ir.idx list * int64 * int64 * int64 * bool, string) Hashtbl.t;
        (* (definition id, output order, fill and facts bits) -> binding *)
    defs : int ref;
    binds : int ref;
        (* number definition ids ("D:n") and bindings ("B:n") without
           reuse across resets; both contain ':', which no tensor name
           does, so neither equals an unresolved alias name *)
    stats_memo : (int * Ir.idx list, E.t) Hashtbl.t;
        (* inferred alias statistics per (defining class, output order) *)
  }

  let bind (st : state) (name : string) : string =
    match Hashtbl.find st.def_keys name with
    | d -> d.binding
    | exception Not_found -> name

  let reset (st : state) : unit =
    Intern.reset st.ir;
    Hashtbl.reset st.classes;
    Hashtbl.reset st.memo;
    Hashtbl.reset st.annotations;
    Hashtbl.reset st.key_ids;
    Hashtbl.reset st.bindings;
    Hashtbl.reset st.stats_memo

  (* Do [names] still bind to [bs]? *)
  let rec bind_as (st : state) (names : string list) (bs : string list) : bool
      =
    match (names, bs) with
    | [], [] -> true
    | n :: names, b :: bs -> String.equal (bind st n) b && bind_as st names bs
    | _ -> false

  let rec bound (st : state) (n : Intern.node) : Intern.interned =
    if
      n.Intern.res_epoch = st.ir.Intern.epoch
      && bind_as st n.Intern.aliases n.Intern.res_names
    then n.Intern.res
    else begin
      let r =
        match n.Intern.view with
        | Intern.Input (name, idxs) -> Intern.intern st.ir (Intern.I_input (name, idxs))
        | Intern.Alias (name, idxs) ->
            let binding, def =
              match Hashtbl.find st.def_keys name with
              | d -> (d.binding, d.def)
              | exception Not_found -> (name, name)
            in
            Intern.intern st.ir (Intern.I_alias (binding, def, idxs))
        | Intern.Literal v -> Intern.intern st.ir (Intern.I_literal v)
        | Intern.Map (op, args) ->
            Intern.intern st.ir (Intern.I_map (op, List.map (bound st) args))
        | Intern.Agg (op, idxs, body) ->
            Intern.intern st.ir (Intern.I_agg (op, idxs, bound st body))
      in
      n.Intern.res <- r;
      n.Intern.res_epoch <- st.ir.Intern.epoch;
      n.Intern.res_names <- List.map (bind st) n.Intern.aliases;
      r
    end

  let class_of (st : state) (n : Intern.node) : int =
    let v = bound st n in
    if v.Intern.cls >= 0 then v.Intern.cls
    else begin
      let key = Intern.key v in
      let c =
        match Hashtbl.find_opt st.classes key with
        | Some c -> c
        | None ->
            let c = Hashtbl.length st.classes in
            Hashtbl.add st.classes key c;
            c
      in
      v.Intern.cls <- c;
      c
    end

  let lookup (st : state) (name : string) (access_idxs : Ir.idx list) : E.t =
    match Hashtbl.find_opt st.cache name with
    | None -> invalid_arg ("Stats.Ctx: no statistics registered for " ^ name)
    | Some stats ->
        let n = List.length access_idxs in
        E.rename stats (fun i ->
            let k = canon_pos i in
            if k >= 0 && k < n then List.nth access_idxs k else i)

  (* Annotate an expression, returning its statistics, fill value and
     value facts.  Facts are forced only where an annihilation decision
     reads them. *)
  let rec annotate (st : state) (dims : int Ir.Idx_map.t) (n : Intern.node) :
      annotation =
    let r = bound st n in
    match Hashtbl.find_opt st.annotations r.Intern.id with
    | Some a -> a
    | None ->
        let a =
          match n.Intern.view with
          | Intern.Input (name, idxs) | Intern.Alias (name, idxs) ->
              let info = Schema.info_exn st.schema name in
              ( lookup st name idxs,
                info.Schema.fill,
                Lazy.from_val info.Schema.facts )
          | Intern.Literal v ->
              (E.of_literal v, v, Lazy.from_val (Galley_tensor.Facts.of_value v))
          | Intern.Map (op, args) ->
              let annotated = List.map (annotate st dims) args in
              let stats = List.map (fun (s, _, _) -> s) annotated in
              let fills = List.map (fun (_, f, _) -> f) annotated in
              let facts = List.map (fun (_, _, f) -> f) annotated in
              let fill = Op.apply op (Array.of_list fills) in
              let annihilating =
                List.for_all Fun.id
                  (Op.absorbing_children op (List.combine fills facts))
              in
              let merged =
                if annihilating then E.map_annihilating ~dims stats
                else E.map_non_annihilating ~dims stats
              in
              (merged, fill, lazy (Op.map_facts op (List.map Lazy.force facts)))
          | Intern.Agg (op, idxs, body) ->
              let body_stats, body_fill, body_facts = annotate st dims body in
              let space = Schema.space dims idxs in
              ( E.aggregate ~dims body_stats ~over:idxs,
                Op.repeat op body_fill (int_of_float space),
                lazy (Op.agg_facts op space (Lazy.force body_facts)) )
        in
        Hashtbl.replace st.annotations r.Intern.id a;
        a

  let stats_of (st : state) (n : Intern.node) : E.t =
    let stats, _, _ =
      annotate st (Schema.index_dims st.schema n.Intern.expr) n
    in
    stats

  let estimate (st : state) (n : Intern.node) : float =
    let c = class_of st n in
    match Hashtbl.find_opt st.memo c with
    | Some v -> v
    | None ->
        let v = E.estimate (stats_of st n) in
        Hashtbl.replace st.memo c v;
        v

  let rec make_with (st : state) (kind : kind) : t =
    let register_tensor ?cheap name tensor =
      let nd = Array.length (Galley_tensor.Tensor.dims tensor) in
      let idxs = List.init nd canon in
      if Hashtbl.mem st.cache name then begin
        (* Re-registration (JIT refresh): cached estimates may be stale. *)
        reset st;
        Hashtbl.remove st.def_keys name
      end;
      Hashtbl.replace st.cache name (E.of_tensor ?cheap tensor ~idxs)
    in
    let schema = st.schema in
    let register_alias_node name ~output_idxs (n : Intern.node) =
      let c = class_of st n in
      let def =
        match Hashtbl.find_opt st.key_ids c with
        | Some id -> id
        | None ->
            let id = "D:" ^ string_of_int !(st.defs) in
            incr st.defs;
            Hashtbl.add st.key_ids c id;
            id
      in
      let stats =
        match Hashtbl.find_opt st.stats_memo (c, output_idxs) with
        | Some stats -> stats
        | None ->
            (* Store under canonical positional names following the
               alias's output dimension order. *)
            let rec last_pos i k found = function
              | [] -> found
              | j :: rest ->
                  last_pos i (k + 1) (if String.equal i j then k else found) rest
            in
            let stats =
              E.rename (stats_of st n) (fun i ->
                  let k = last_pos i 0 (-1) output_idxs in
                  if k >= 0 then canon k else i)
            in
            Hashtbl.replace st.stats_memo (c, output_idxs) stats;
            stats
      in
      (* Keys and bindings name an estimated alias by its definition, so
         re-defining one leaves nothing stale; an input or a measured
         tensor is named by its name, and replacing it resets. *)
      if Hashtbl.mem st.cache name && not (Hashtbl.mem st.def_keys name) then
        reset st;
      (* Callers declare the alias's schema entry first. *)
      let fill, facts =
        match Schema.find schema name with
        | Some info -> (info.Schema.fill, info.Schema.facts)
        | None -> (Float.nan, Galley_tensor.Facts.top)
      in
      let key =
        ( def,
          output_idxs,
          Int64.bits_of_float fill,
          Int64.bits_of_float facts.Galley_tensor.Facts.lo,
          Int64.bits_of_float facts.Galley_tensor.Facts.hi,
          facts.Galley_tensor.Facts.nan )
      in
      let binding =
        match Hashtbl.find_opt st.bindings key with
        | Some b -> b
        | None ->
            let b = "B:" ^ string_of_int !(st.binds) in
            incr st.binds;
            Hashtbl.add st.bindings key b;
            b
      in
      Hashtbl.replace st.def_keys name { def; binding };
      Hashtbl.replace st.cache name stats
    in
    {
      kind;
      schema;
      register_input = register_tensor ~cheap:false;
      register_alias_node;
      register_alias_tensor = register_tensor ~cheap:true;
      estimate_node =
        (fun n ->
          Galley_obs.Metrics.incr (calls_counter kind);
          estimate st n);
      estimate_access_projected =
        (fun name idxs keep ->
          Galley_obs.Metrics.incr (calls_counter kind);
          let stats = lookup st name idxs in
          let over = List.filter (fun i -> not (Ir.Idx_set.mem i keep)) idxs in
          (* Each index's size is that of its first position in the access. *)
          let dims = ref Ir.Idx_map.empty in
          (match Schema.find schema name with
          | Some info ->
              List.iteri
                (fun k i ->
                  if not (Ir.Idx_map.mem i !dims) then
                    dims := Ir.Idx_map.add i info.Schema.dims.(k) !dims)
                idxs
          | None -> ());
          let dims = !dims in
          E.estimate (E.aggregate ~dims stats ~over));
      has_stats = (fun name -> Hashtbl.mem st.cache name);
      clone =
        (fun () ->
          make_with
            {
              st with
              schema = Schema.copy st.schema;
              cache = Hashtbl.copy st.cache;
              def_keys = Hashtbl.copy st.def_keys;
            }
            kind);
      class_of = class_of st;
      resolve =
        (fun name ->
          match Hashtbl.find st.def_keys name with
          | d -> d.def
          | exception Not_found -> name);
      table_sizes =
        (fun () ->
          Intern.length st.ir
          + Hashtbl.length st.classes + Hashtbl.length st.memo
          + Hashtbl.length st.annotations + Hashtbl.length st.key_ids
          + Hashtbl.length st.bindings + Hashtbl.length st.stats_memo);
    }

  let make (schema : Schema.t) (kind : kind) : t =
    make_with
      {
        schema;
        cache = Hashtbl.create 32;
        ir = Intern.create ();
        classes = Hashtbl.create 1024;
        memo = Hashtbl.create 1024;
        annotations = Hashtbl.create 1024;
        def_keys = Hashtbl.create 64;
        key_ids = Hashtbl.create 256;
        bindings = Hashtbl.create 256;
        defs = ref 0;
        binds = ref 0;
        stats_memo = Hashtbl.create 256;
      }
      kind
end

(* The node entry points for an expression, as the physical optimizer and
   the driver hold one. *)
let estimate_expr (ctx : t) (e : Ir.expr) : float =
  ctx.estimate_node (Intern.of_expr e)

let register_alias_estimated (ctx : t) (name : string)
    ~(output_idxs : Ir.idx list) (e : Ir.expr) : unit =
  ctx.register_alias_node name ~output_idxs (Intern.of_expr e)

module Uniform_ctx = Build (Uniform)
module Chain_ctx = Build (Chain)

let create ?(kind = Chain_kind) (schema : Schema.t) : t =
  match kind with
  | Uniform_kind -> Uniform_ctx.make schema kind
  | Chain_kind -> Chain_ctx.make schema kind
