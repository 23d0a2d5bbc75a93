(* Lowering: resolve every per-level decision of a [Physical.kernel] —
   binding slots, constraint-tree shape, leader/prober roles, output
   coordinate slots — into composed closures, once, at compile time.

   The result mirrors the interpreter in [lib/engine/kernel_exec.ml]
   decision for decision (the interpreter is the differential oracle), but
   the runtime loop nest walks no trees, scans no binding lists, and
   materializes no candidate arrays: each level is a staged candidate
   *generator* closure plus its resolved bindings, which [bind] applies
   over a flat mutable [state] record with no closure call.

   Candidate generation follows the constraint tree's superset contract:

   - a bare access yields its level's explicit indices directly ([G_arr],
     sharing the fiber tree's own sorted array — no copy) or the full
     dimension range for a dense level ([G_full]);
   - an intersection puts Iterate-protocol members first (the optimizer's
     leader choice); the first constrained member drives the level and the
     rest become O(1)/O(log) membership probes ([Tensor.Node.mem]: hash
     lookup, bytemap mask test, binary search) fused over the driving
     stream ([G_filter]) — the interpreter's leader-iterate /
     probe-the-rest split without the materialized candidate array;
   - a union becomes a k-way merge cursor, and a union or nested
     intersection inside a wider intersection joins it as a leapfrog
     cursor ([Cursors.inter]), probes riding along.

   Every generator yields strictly ascending, duplicate-free candidates,
   exactly the sequence the interpreter produces, which both preserves the
   sequential-write contract of sorted-list output builders and makes the
   two backends bit-for-bit comparable. *)

open Galley_plan
module T = Galley_tensor.Tensor
module Bitset = Galley_tensor.Bitset
module C = Galley_physical.Constraints

(* Flat runtime state of one kernel invocation. *)
type state = {
  st_roots : T.node array;  (* root node per access *)
  st_nodes : T.node array array;
      (* st_nodes.(a).(j): node of access [a] after binding its j-th index
         ([absent] = subtree at fill) *)
  st_values : float array;
      (* the body's slots: current scalar per access, then its
         temporaries and literals ([Body_fuse]) *)
  st_coords : int array;  (* output coordinate under construction *)
}

(* The node of a subtree at fill, compared physically: binding through it
   stores it again, so a row loop finds an absent operand with one
   pointer test and no option is allocated per bound node. *)
let absent : T.node = T.Scalar (Sys.opaque_identity Float.nan)

(* Candidates of one level visit. *)
type gen =
  | G_full  (* the full dimension range *)
  | G_arr of int array  (* a borrowed sorted explicit-index array *)
  | G_filter of int array * (int -> bool)
      (* a borrowed sorted array restricted by a membership probe: one
         iterating member plus probes, streamed without materializing the
         interpreter's filtered candidate array *)
  | G_cur of Cursors.t  (* a composed co-iteration cursor *)
  | G_bits of int array
      (* a freshly word-merged presence bitset (bytemap∧bytemap /
         bytemap∨bytemap fast path): the backend walks its set bits —
         ascending, duplicate-free, so the candidate sequence is exactly
         the filtered/cursor sequence it replaces *)

(* A constraint-tree access with its binding resolved at compile time. *)
type source = { s_acc : int; s_slot : int; s_fmt : T.format }

type ltree =
  | L_all
  | L_empty
  | L_access of source
  | L_and of ltree list  (* leaders first, as reordered below *)
  | L_or of ltree list

(* One binding of a level's index: descend access [b_acc] at its
   [b_slot]-th index, or load its value when that index is its last. *)
type binding = { b_acc : int; b_slot : int; b_last : bool; b_fill : float }

type level = {
  lv_gen : state -> gen;
  lv_binds : binding array;  (* in access order, so A[i,i] descends twice *)
  lv_out : int;  (* output-coordinate position bound here, or -1 *)
}

(* How a row loop's walk tests the members it does not walk. *)
type probe =
  | P_none
  | P_dense of int * int
      (* (access, slot) of one dense member: an inline bounds check *)
  | P_fn of (state -> int -> bool)

(* Row loop: compile-time shape of an innermost level whose bindings are
   all last-index value loads, run as one fused loop (DESIGN.md §14 "row
   loops").  Two input cases:

   - positional walk ([rw_walk]): the level is driven by one bare
     [Sparse_list]/[Bytemap] leaf access (alone, or leading an
     intersection whose other members probe); the backend walks that
     leaf's [crd]/[vals] by position, so the leader's value load is
     [vals.(p)] — no binary search, no option;
   - in-step lookup: any other such level; the level's own generator
     yields the candidates (the whole range for [G_full]), and since
     they ascend, every sparse leaf is read through a forward pointer
     that advances with the index.  A level whose constraint tree and
     loads are all dense (a dense microkernel, named "micro") is this
     case with every load read by index.

   The remaining loads ([rw_loads]) read in step in both cases.  A walk
   visit whose leader is not a sparse leaf runs the generic level, so
   candidate and accumulation sequences stay those of the interpreter. *)
type row = {
  rw_walk : (int * int * probe) option;
      (* (access, slot) of the walked leaf, and the probe of the
         intersection's other members *)
  rw_loads : (int * int) array;  (* (access, slot) of every other load *)
}

type plan = {
  p_levels : level array;
  p_body : Body_fuse.prog;
  p_acc_arity : int array;
  p_fills : float array;  (* fill value per access *)
  p_out_rank : int;
  p_n_acc : int;
  p_row : row option;  (* innermost row loop, if eligible *)
  p_last_out : int option;
      (* output-coordinate position bound by the innermost level, if any *)
  p_desc : string array;
      (* per-level merge-strategy descriptor, e.g. "inter(sparse&hash)";
         static attribution for the profiler's hot-kernel table *)
}

(* All members of an and/or are bare bytemap accesses — the shape the
   word-level merge handles. *)
let bytemap_sources (members : ltree list) : source array option =
  let rec go acc = function
    | [] -> Some (Array.of_list (List.rev acc))
    | L_access ({ s_fmt = T.Bytemap; _ } as s) :: rest -> go (s :: acc) rest
    | _ -> None
  in
  if List.compare_length_with members 2 < 0 then None else go [] members

(* Static description of a level's merge strategy, mirroring gen_of's
   classification: bare accesses show their storage format, intersections
   list members leader-first with '&', unions with '|'; the word-level
   bytemap merges name themselves bitand/bitor. *)
let rec describe_ltree (t : ltree) : string =
  let bits_name op members =
    Option.map
      (fun srcs ->
        op ^ "("
        ^ String.concat "&"
            (Array.to_list (Array.map (fun _ -> "bytemap") srcs))
        ^ ")")
      (bytemap_sources members)
  in
  match t with
  | L_all -> "full"
  | L_empty -> "empty"
  | L_access { s_fmt; _ } -> T.format_to_string s_fmt
  | L_and members -> (
      match bits_name "bitand" members with
      | Some s -> s
      | None ->
          "inter(" ^ String.concat "&" (List.map describe_ltree members) ^ ")")
  | L_or members -> (
      match bits_name "bitor" members with
      | Some s -> s
      | None ->
          "union(" ^ String.concat "|" (List.map describe_ltree members) ^ ")")

let prev (st : state) (a : int) (j : int) : T.node =
  if j = 0 then Array.unsafe_get st.st_roots a
  else Array.unsafe_get (Array.unsafe_get st.st_nodes a) (j - 1)

(* [T.Node.mem] with the dense cases inline; false on [absent]. *)
let mem (nd : T.node) (i : int) : bool =
  match nd with
  | T.Inner_dense cs -> i >= 0 && i < Array.length cs
  | T.Leaf_dense vs -> i >= 0 && i < Array.length vs
  | _ -> nd != absent && T.Node.mem nd i

(* Compile an ltree into its candidate generator and membership probe.
   [gen_of] first tries the word-level bytemap merge ([bits_gen_of]);
   [gen_of_base] is the generic classification, the runtime fallback
   when a word merge is not profitable for the fibers actually bound at
   a visit. *)
let rec gen_of (t : ltree) : state -> gen =
  match bits_gen_of t with Some g -> g | None -> gen_of_base t

and gen_of_base (t : ltree) : state -> gen =
  match t with
  | L_all -> fun _ -> G_full
  | L_empty -> fun _ -> G_arr [||]
  | L_access { s_acc = a; s_slot = j; _ } -> (
      fun st ->
        let nd = prev st a j in
        match nd with
        | T.Inner_dense _ | T.Leaf_dense _ -> G_full
        | T.Inner_sparse { crd; _ } | T.Leaf_sparse { crd; _ } -> G_arr crd
        | _ -> (
            if nd == absent then G_arr [||]
            else
              match T.Node.explicit_indices nd with
              | None -> G_full
              | Some arr -> G_arr arr))
  | L_and [ m1; m2 ] ->
      (* The dominant intersection shape, specialized so a level visit
         classifies its members with one match instead of the generic
         ref-and-list assembly below.  The first non-full member drives
         and the second probes; the rest-member's own candidates are
         never computed (measured: even between two sorted lists,
         per-candidate binary search beats per-visit cursor setup at
         realistic fiber sizes, so leapfrog is reserved for streams that
         are already cursors — unions and nested intersections). *)
      let g1 = gen_of m1 and g2 = gen_of m2 and p2 = probe_of m2 in
      fun st ->
        (match g1 st with
        | G_full -> ( match g2 st with G_full -> G_full | g -> g)
        | G_arr a -> G_filter (a, fun i -> p2 st i)
        | G_filter (a, pr0) -> G_filter (a, fun i -> pr0 i && p2 st i)
        | G_bits w -> G_filter (Bitset.to_array w, fun i -> p2 st i)
        | G_cur c -> G_cur (Cursors.inter [| c |] [| (fun i -> p2 st i) |]))
  | L_and [ m1; m2; m3 ] ->
      (* Three-way intersections (e.g. triangle-closing levels with a
         pendant edge) get the same static classification. *)
      let g1 = gen_of m1 and g2 = gen_of m2 and g3 = gen_of m3 in
      let p2 = probe_of m2 and p3 = probe_of m3 in
      fun st ->
        (match g1 st with
        | G_full -> (
            match g2 st with
            | G_full -> ( match g3 st with G_full -> G_full | g -> g)
            | G_arr a -> G_filter (a, fun i -> p3 st i)
            | G_filter (a, pr0) -> G_filter (a, fun i -> pr0 i && p3 st i)
            | G_bits w -> G_filter (Bitset.to_array w, fun i -> p3 st i)
            | G_cur c -> G_cur (Cursors.inter [| c |] [| (fun i -> p3 st i) |]))
        | G_arr a -> G_filter (a, fun i -> p2 st i && p3 st i)
        | G_filter (a, pr0) ->
            G_filter (a, fun i -> pr0 i && p2 st i && p3 st i)
        | G_bits w ->
            G_filter (Bitset.to_array w, fun i -> p2 st i && p3 st i)
        | G_cur c ->
            G_cur
              (Cursors.inter [| c |]
                 [| (fun i -> p2 st i); (fun i -> p3 st i) |]))
  | L_and members ->
      (* Members are already leader-first.  The first member that can
         drive iteration does so; everything else — hash, bytemap, dense,
         sorted-list, nested subtrees — probes ([Tensor.Node.mem]).  An
         unconstrained member ([G_full]) is dropped, like the interpreter
         recursing past a [`Full] leader. *)
      let ms =
        Array.of_list (List.map (fun m -> (gen_of m, probe_of m)) members)
      in
      fun st ->
        let gens = ref [] and probes = ref [] in
        Array.iter
          (fun (g, p) ->
            if !gens = [] then (
              match g st with G_full -> () | g -> gens := g :: !gens)
            else probes := (fun i -> p st i) :: !probes)
          ms;
        (match (List.rev !gens, !probes) with
        | [], _ -> G_full
        | [ g ], [] -> g
        | [ G_arr a ], [ pr ] -> G_filter (a, pr)
        | [ G_filter (a, pr0) ], ps ->
            let arr = Array.of_list (pr0 :: ps) in
            G_filter (a, fun i -> Array.for_all (fun pr -> pr i) arr)
        | [ G_arr a ], ps ->
            let arr = Array.of_list ps in
            G_filter (a, fun i -> Array.for_all (fun pr -> pr i) arr)
        | gs, ps ->
            (* A filtered member joining a wider leapfrog folds back into
               its array cursor, its probe joining the probe set. *)
            let ps = ref ps in
            let cs =
              List.map
                (function
                  | G_cur c -> c
                  | G_arr a -> Cursors.of_sorted a
                  | G_bits w -> Cursors.of_sorted (Bitset.to_array w)
                  | G_filter (a, pr) ->
                      ps := pr :: !ps;
                      Cursors.of_sorted a
                  | G_full -> assert false)
                gs
            in
            G_cur (Cursors.inter (Array.of_list cs) (Array.of_list !ps)))
  | L_or members ->
      let ms = Array.of_list (List.map gen_of members) in
      let n = Array.length ms in
      fun st ->
        let rec collect acc i =
          if i = n then
            match acc with
            | [] -> G_arr [||]
            | [ g ] -> g
            | gs ->
                let cs =
                  List.rev_map
                    (function
                      | G_cur c -> c
                      | G_arr a -> Cursors.of_sorted a
                      | G_bits w -> Cursors.of_sorted (Bitset.to_array w)
                      | G_filter (a, pr) ->
                          Cursors.filter (Cursors.of_sorted a) pr
                      | G_full -> assert false)
                    gs
                in
                G_cur (Cursors.union (Array.of_list cs))
          else
            match ms.(i) st with
            | G_full -> G_full (* one unconstrained member absorbs the union *)
            | G_arr [||] -> collect acc (i + 1)
            | g -> collect (g :: acc) (i + 1)
        in
        collect [] 0

(* Word-level bytemap merge (DESIGN.md §14): an intersection or union
   whose members are all bare bytemap accesses is computed by ANDing /
   ORing their word-packed presence masks ([Tensor.Node.bitmap_words]),
   skipping the per-candidate probe / cursor machinery entirely.  The
   set-bit walk yields the same ascending duplicate-free sequence as the
   generic path, so results stay bit-identical.  Word merging loses when
   the driving fibers hold fewer explicit indices than the level has
   words — then each visit falls back to the precompiled generic
   generator. *)
and bits_gen_of (t : ltree) : (state -> gen) option =
  match t with
  | L_and members -> (
      match bytemap_sources members with
      | None -> None
      | Some srcs ->
          let fallback = gen_of_base t in
          let n_src = Array.length srcs in
          Some
            (fun st ->
              let nds = Array.map (fun s -> prev st s.s_acc s.s_slot) srcs in
              (* An absent member empties the intersection. *)
              if Array.exists (fun nd -> nd == absent) nds then G_arr [||]
              else
                let words_of k = T.Node.bitmap_words nds.(k) in
                let count_of k = T.Node.explicit_count nds.(k) in
                match words_of 0 with
                | Some w0 when count_of 0 >= Array.length w0 ->
                    let out = Array.copy w0 in
                    let ok = ref true in
                    for k = 1 to n_src - 1 do
                      match words_of k with
                      | Some w when Array.length w = Array.length out ->
                          Bitset.inter_into out w
                      | _ -> ok := false
                    done;
                    if !ok then G_bits out else fallback st
                | _ -> fallback st))
  | L_or members -> (
      match bytemap_sources members with
      | None -> None
      | Some srcs ->
          let fallback = gen_of_base t in
          let n_src = Array.length srcs in
          Some
            (fun st ->
              let ws = Array.make n_src [||] in
              let n_present = ref 0 in
              let total = ref 0 and nw = ref (-1) and ok = ref true in
              for k = 0 to n_src - 1 do
                let nd = prev st srcs.(k).s_acc srcs.(k).s_slot in
                (* Absent members drop out of the union. *)
                if nd != absent then
                  match T.Node.bitmap_words nd with
                  | None -> ok := false
                  | Some w ->
                      if !nw = -1 then nw := Array.length w
                      else if Array.length w <> !nw then ok := false;
                      total := !total + T.Node.explicit_count nd;
                      ws.(!n_present) <- w;
                      incr n_present
              done;
              if not !ok then fallback st
              else if !n_present = 0 then G_arr [||]
              else if !total < !nw then fallback st
              else begin
                let out = Array.copy ws.(0) in
                for k = 1 to !n_present - 1 do
                  Bitset.union_into out ws.(k)
                done;
                G_bits out
              end))
  | _ -> None

and probe_of (t : ltree) : state -> int -> bool =
  match t with
  | L_all -> fun _ _ -> true
  | L_empty -> fun _ _ -> false
  | L_access { s_acc = a; s_slot = j; _ } -> fun st i -> mem (prev st a j) i
  | L_and members ->
      let ps = Array.of_list (List.map probe_of members) in
      fun st i -> Array.for_all (fun p -> p st i) ps
  | L_or members ->
      let ps = Array.of_list (List.map probe_of members) in
      fun st i -> Array.exists (fun p -> p st i) ps

let lower (k : Physical.kernel) ~(access_fills : float array)
    ~(facts : int -> Galley_tensor.Facts.t)
    ~(access_formats : T.format array array) : plan =
  let n_acc = Array.length k.Physical.accesses in
  let loop_order = Array.of_list k.Physical.loop_order in
  let n_levels = Array.length loop_order in
  let level_of_idx = Hashtbl.create 8 in
  Array.iteri (fun l x -> Hashtbl.replace level_of_idx x l) loop_order;
  let acc_arity =
    Array.map (fun a -> List.length a.Physical.idxs) k.Physical.accesses
  in
  (* Per level: bindings (access, j-th index of the access, is_last). *)
  let bindings_per_level = Array.make n_levels [] in
  Array.iteri
    (fun a (acc : Physical.access) ->
      List.iteri
        (fun j x ->
          let l = Hashtbl.find level_of_idx x in
          bindings_per_level.(l) <-
            (a, j, j = acc_arity.(a) - 1) :: bindings_per_level.(l))
        acc.Physical.idxs)
    k.Physical.accesses;
  (* Per level: access → slot, so constraint conversion resolves bindings
     once instead of the interpreter's per-probe scan. *)
  let slots_per_level =
    Array.map
      (fun bs ->
        let m = Array.make (max 1 n_acc) None in
        List.iter (fun (a, j, _) -> m.(a) <- Some j) bs;
        m)
      bindings_per_level
  in
  let protocol_of a x =
    let acc = k.Physical.accesses.(a) in
    let rec find idxs ps =
      match (idxs, ps) with
      | i :: _, p :: _ when i = x -> p
      | _ :: idxs', _ :: ps' -> find idxs' ps'
      | _ -> Physical.Lookup
    in
    find acc.Physical.idxs acc.Physical.protocols
  in
  (* Constraint tree → ltree: resolve access slots and put Iterate-protocol
     members of every intersection first (the interpreter's leader rule). *)
  let rec convert (level : int) (t : C.t) : ltree =
    match t with
    | C.C_all -> L_all
    | C.C_empty -> L_empty
    | C.C_access a -> (
        match slots_per_level.(level).(a) with
        | None -> invalid_arg "Kernel: constraint references non-binding access"
        | Some j ->
            L_access { s_acc = a; s_slot = j; s_fmt = access_formats.(a).(j) })
    | C.C_and members ->
        let x = loop_order.(level) in
        let is_leader = function
          | C.C_access a -> protocol_of a x = Physical.Iterate
          | _ -> false
        in
        let leaders, rest = List.partition is_leader members in
        L_and (List.map (convert level) (leaders @ rest))
    | C.C_or members -> L_or (List.map (convert level) members)
  in
  let out_pos_of_level =
    Array.map
      (fun x ->
        let rec find p = function
          | [] -> None
          | i :: rest -> if i = x then Some p else find (p + 1) rest
        in
        find 0 k.Physical.output_idxs)
      loop_order
  in
  let ltrees =
    Array.init n_levels (fun l ->
        convert l
          (C.derive ~accesses:k.Physical.accesses
             ~fills:(fun a -> access_fills.(a))
             ~facts ~idx:loop_order.(l) k.Physical.body))
  in
  let levels =
    Array.init n_levels (fun l ->
        {
          lv_gen = gen_of ltrees.(l);
          lv_binds =
            Array.of_list
              (List.rev_map
                 (fun (a, j, is_last) ->
                   { b_acc = a; b_slot = j; b_last = is_last; b_fill = access_fills.(a) })
                 bindings_per_level.(l));
          lv_out = Option.value ~default:(-1) out_pos_of_level.(l);
        })
  in
  let micro =
    n_levels > 0
    && begin
      let l = n_levels - 1 in
      let rec all_dense = function
        | L_all -> true
        | L_access { s_fmt = T.Dense; _ } -> true
        | L_and ms | L_or ms -> List.for_all all_dense ms
        | L_access _ | L_empty -> false
      in
      (* Every binding must be a last-index Dense access: a non-last
         binding (a repeated index, e.g. A[i,i]) descends the fiber tree
         instead of loading a value and disqualifies the level. *)
      all_dense ltrees.(l)
      && List.for_all
           (fun (a, j, is_last) -> is_last && access_formats.(a).(j) = T.Dense)
           bindings_per_level.(l)
    end
  in
  let p_row =
    if n_levels = 0 then None
    else begin
      let l = n_levels - 1 in
      let bs = bindings_per_level.(l) in
      let walk =
        (* A word-merged bytemap level keeps its merge ([bits_gen_of]). *)
        if Option.is_some (bits_gen_of ltrees.(l)) then None
        else
          match ltrees.(l) with
          | L_access ({ s_fmt = T.Sparse_list | T.Bytemap; _ } as s) ->
              Some (s, P_none)
          | L_and (L_access ({ s_fmt = T.Sparse_list | T.Bytemap; _ } as s) :: rest)
            ->
              let probe =
                match rest with
                | [] -> P_none
                | [ L_access { s_acc; s_slot; s_fmt = T.Dense } ] ->
                    P_dense (s_acc, s_slot)
                | [ m2 ] -> P_fn (probe_of m2)
                | _ -> P_fn (probe_of (L_and rest))
              in
              Some (s, probe)
          | _ -> None
      in
      if List.for_all (fun (_, _, is_last) -> is_last) bs then
        let loads =
          List.filter_map
            (fun (a, j, _) ->
              match walk with
              | Some (s, _) when s.s_acc = a -> None
              | _ -> Some (a, j))
            (List.rev bs)
        in
        Some
          {
            rw_walk = Option.map (fun (s, probe) -> (s.s_acc, s.s_slot, probe)) walk;
            rw_loads = Array.of_list loads;
          }
      else None
    end
  in
  let p_desc = Array.map describe_ltree ltrees in
  let name_last tag =
    p_desc.(n_levels - 1) <- tag ^ "(" ^ p_desc.(n_levels - 1) ^ ")"
  in
  (match p_row with
  | Some _ when micro -> name_last "micro"
  | Some { rw_walk = Some _; _ } -> name_last "walk"
  | Some { rw_walk = None; _ } -> name_last "step"
  | None -> ());
  {
    p_levels = levels;
    p_body = Body_fuse.compile ~n_acc k.Physical.body;
    p_acc_arity = acc_arity;
    p_fills = access_fills;
    p_out_rank = List.length k.Physical.output_idxs;
    p_n_acc = n_acc;
    p_row;
    p_last_out = (if n_levels = 0 then None else out_pos_of_level.(n_levels - 1));
    p_desc;
  }

let fresh_state (p : plan) (tensors : T.t array) : state =
  let values = Array.make p.p_body.Body_fuse.n_slots 0.0 in
  for a = 0 to p.p_n_acc - 1 do
    values.(a) <-
      (if p.p_acc_arity.(a) = 0 then T.scalar_value tensors.(a)
       else p.p_fills.(a))
  done;
  Body_fuse.init p.p_body values;
  {
    st_roots = Array.map T.root tensors;
    st_nodes =
      Array.init p.p_n_acc (fun a -> Array.make (max 1 p.p_acc_arity.(a)) absent);
    st_values = values;
    st_coords = Array.make p.p_out_rank 0;
  }
