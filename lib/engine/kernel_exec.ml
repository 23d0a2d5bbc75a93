(* Kernel execution: the sparse-tensor-compiler substitute.

   A physical kernel is "compiled" into a specialized closure that runs the
   loop nest: at every level the candidate indices come from evaluating the
   level's constraint tree (iterate the leader of an intersection and probe
   the rest; merge sorted streams for a union; fall back to the full
   dimension range when the body is cylindrical in the index), every access
   binding the index descends one fiber-tree level, and the innermost level
   evaluates the scalar body and accumulates into the output builder.

   Aggregates are fill-corrected at freeze time: enumeration covers a
   superset of the body's non-fill coordinates, so every skipped coordinate
   contributes exactly the body fill, folded in as
   g(body_fill, N_agg − count) per output cell (DESIGN.md). *)

open Galley_plan
module T = Galley_tensor.Tensor
module Node = Galley_tensor.Tensor.Node

exception Timeout

type compiled = {
  signature : string;
  run : ?deadline:float -> Physical.kernel -> T.t array -> T.t;
  describe : string;
      (* merge-strategy attribution attached to kernel spans; the staged
         backend reports its per-level plan, the interpreter resolves
         constraint trees at run time and reports itself opaquely *)
}
(* [run] takes the (structurally identical) kernel of the call site so that
   one compiled closure serves every dimension size, as a size-generic
   compiled kernel would: only the constraint structure, formats, and
   protocols are baked in. *)

(* Full cache signature of a kernel invocation: the structural signature
   ([Physical.signature]) extended with the access fills and the AND
   membership the bound tensors' value facts give every Map node
   ([Constraints.and_key]).  Together they determine the constraint trees
   and so are part of what [compile] bakes in: a kernel compiled as an
   intersection is never replayed on inputs whose values break the
   annihilation.  [facts] is consulted only for Map children whose fill is
   an annihilator candidate.  This key is rebuilt on *every* invocation,
   cache hits included, so it is assembled in one [Buffer] rather than by
   string concatenation. *)
let cache_signature (k : Physical.kernel)
    ~(access_formats : T.format array array) ~(access_fills : float array)
    ~(facts : int -> Galley_tensor.Facts.t) : string =
  let buf = Buffer.create 192 in
  Buffer.add_string buf (Physical.signature k ~access_formats);
  Buffer.add_string buf "|fills:";
  Array.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%h" f))
    access_fills;
  Buffer.add_string buf "|and:";
  Buffer.add_string buf
    (Galley_physical.Constraints.and_key
       ~fills:(fun a -> access_fills.(a))
       ~facts k.Physical.body);
  Buffer.contents buf

(* Merge of sorted candidate arrays (union). *)
let merge_sorted (arrays : int array list) : int array =
  match arrays with
  | [] -> [||]
  | [ a ] -> a
  | arrays ->
      let total = List.fold_left (fun acc a -> acc + Array.length a) 0 arrays in
      let out = Array.make total 0 in
      let arrs = Array.of_list arrays in
      let pos = Array.make (Array.length arrs) 0 in
      let n = ref 0 in
      let last = ref min_int in
      let continue = ref true in
      while !continue do
        let best = ref None in
        Array.iteri
          (fun k a ->
            if pos.(k) < Array.length a then
              let v = a.(pos.(k)) in
              match !best with
              | Some (_, bv) when bv <= v -> ()
              | _ -> best := Some (k, v))
          arrs;
        match !best with
        | None -> continue := false
        | Some (k, v) ->
            pos.(k) <- pos.(k) + 1;
            if v <> !last then begin
              out.(!n) <- v;
              incr n;
              last := v
            end
      done;
      Array.sub out 0 !n

(* Compile one kernel into an executable closure.  [access_fills] and
   [facts] describe the bound tensors (the cache key carries both, since
   they determine the constraint trees). *)
let compile (k : Physical.kernel) ~(access_fills : float array)
    ~(facts : int -> Galley_tensor.Facts.t) : compiled =
  let n_acc = Array.length k.Physical.accesses in
  let loop_order = Array.of_list k.Physical.loop_order in
  let n_levels = Array.length loop_order in
  (* Per access: which loop level binds its j-th index, and protocols. *)
  let level_of_idx = Hashtbl.create 8 in
  Array.iteri (fun l x -> Hashtbl.replace level_of_idx x l) loop_order;
  let acc_arity = Array.map (fun a -> List.length a.Physical.idxs) k.Physical.accesses in
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
  let bindings_per_level = Array.map Array.of_list bindings_per_level in
  (* Per level: access → (slot, is_last), precomputed once so constraint
     probes don't re-scan the binding list on every candidate. *)
  let slots_per_level =
    Array.map
      (fun bs ->
        let m = Array.make (max 1 n_acc) None in
        Array.iter (fun (a, j, is_last) -> m.(a) <- Some (j, is_last)) bs;
        m)
      bindings_per_level
  in
  let slot_of (level : int) (a : int) : int * bool =
    match slots_per_level.(level).(a) with
    | Some s -> s
    | None -> invalid_arg "Kernel: constraint references non-binding access"
  in
  (* Per level: constraint tree with intersection members reordered so the
     Iterate-protocol leader comes first. *)
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
  let trees =
    Array.map
      (fun x ->
        let tree =
          Galley_physical.Constraints.derive ~accesses:k.Physical.accesses
            ~fills:(fun a -> access_fills.(a))
            ~facts ~idx:x k.Physical.body
        in
        (* Reorder AND members: leader first. *)
        let rec reorder (t : Galley_physical.Constraints.t) : Galley_physical.Constraints.t =
          match t with
          | Galley_physical.Constraints.C_and members ->
              let members = List.map reorder members in
              let is_leader m =
                match m with
                | Galley_physical.Constraints.C_access a -> protocol_of a x = Physical.Iterate
                | _ -> false
              in
              let leaders, rest = List.partition is_leader members in
              Galley_physical.Constraints.C_and (leaders @ rest)
          | Galley_physical.Constraints.C_or members -> Galley_physical.Constraints.C_or (List.map reorder members)
          | t -> t
        in
        reorder tree)
      loop_order
  in
  (* Output coordinate slots. *)
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
  let agg_op = k.Physical.agg_op in
  let identity =
    match Op.identity agg_op with Some e -> e | None -> 0.0 (* Ident *)
  in
  let combine =
    if agg_op = Op.Ident then fun _ v -> v else Op.apply2 agg_op
  in
  let body_fill = k.Physical.body_fill in
  let signature = "" (* filled by the cache layer *) in
  let run ?deadline (kc : Physical.kernel) (tensors : T.t array) : T.t =
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
        if Array.length (T.dims t) <> acc_arity.(a) then
          invalid_arg
            (Printf.sprintf "Kernel %s: access %d arity mismatch"
               k.Physical.name a))
      tensors;
    let builder =
      Galley_tensor.Builder.create ~dims:kc.Physical.output_dims
        ~formats:k.Physical.output_formats ~identity ()
    in
    (* node_state.(a).(j): node of access [a] after binding its j-th index
       (None = the subtree is at fill). *)
    let node_state =
      Array.init n_acc (fun a -> Array.make (max 1 acc_arity.(a)) None)
    in
    let values =
      Array.init n_acc (fun a ->
          if acc_arity.(a) = 0 then T.scalar_value tensors.(a)
          else access_fills.(a))
    in
    let out_coords = Array.make (Array.length kc.Physical.output_dims) 0 in
    (* Pre-bind node of access [a] at the level binding its j-th index. *)
    let prev_node a j =
      if j = 0 then Some (T.root tensors.(a)) else node_state.(a).(j - 1)
    in
    (* Scalar evaluation of the body. *)
    let rec eval (e : Physical.pexpr) : float =
      match e with
      | Physical.P_access a -> values.(a)
      | Physical.P_literal v -> v
      | Physical.P_map (op, args) -> (
          match (op, args) with
          | _, [ x ] when Op.arity op = Op.Unary -> Op.apply1 op (eval x)
          | _, [ x; y ] -> Op.apply2 op (eval x) (eval y)
          | _, args ->
              Op.apply op (Array.of_list (List.map eval args)))
    in
    let iter_budget = ref 0 in
    let check_deadline () =
      match deadline with
      | None -> ()
      | Some d ->
          incr iter_budget;
          if !iter_budget land 8191 = 0 && Unix.gettimeofday () > d then
            raise Timeout
    in
    (* Candidate generation from the constraint tree at one level. *)
    let rec cands (level : int) (t : Galley_physical.Constraints.t) :
        [ `Full | `Arr of int array ] =
      match t with
      | Galley_physical.Constraints.C_all -> `Full
      | Galley_physical.Constraints.C_empty -> `Arr [||]
      | Galley_physical.Constraints.C_access a -> (
          let j, _ = slot_of level a in
          match prev_node a j with
          | None -> `Arr [||]
          | Some nd -> (
              match Node.explicit_indices nd with
              | None -> `Full
              | Some arr -> `Arr arr))
      | Galley_physical.Constraints.C_and (leader :: rest) -> (
          match cands level leader with
          | `Full ->
              (* Leader unconstrained: intersect the rest instead. *)
              if rest = [] then `Full else cands level (Galley_physical.Constraints.C_and rest)
          | `Arr arr ->
              let keep i = List.for_all (fun m -> contains level m i) rest in
              let out = Array.make (Array.length arr) 0 in
              let n = ref 0 in
              Array.iter
                (fun i ->
                  if keep i then begin
                    out.(!n) <- i;
                    incr n
                  end)
                arr;
              `Arr (Array.sub out 0 !n))
      | Galley_physical.Constraints.C_and [] -> `Full
      | Galley_physical.Constraints.C_or members ->
          let rec collect acc = function
            | [] -> `Arr (merge_sorted (List.rev acc))
            | m :: rest -> (
                match cands level m with
                | `Full -> `Full
                | `Arr a -> collect (a :: acc) rest)
          in
          collect [] members
    and contains (level : int) (t : Galley_physical.Constraints.t) (i : int) : bool =
      match t with
      | Galley_physical.Constraints.C_all -> true
      | Galley_physical.Constraints.C_empty -> false
      | Galley_physical.Constraints.C_access a -> (
          let j, _ = slot_of level a in
          match prev_node a j with
          | None -> false
          | Some nd -> Node.mem nd i)
      | Galley_physical.Constraints.C_and members -> List.for_all (fun m -> contains level m i) members
      | Galley_physical.Constraints.C_or members -> List.exists (fun m -> contains level m i) members
    in
    let bind (level : int) (i : int) : unit =
      Array.iter
        (fun (a, j, is_last) ->
          match prev_node a j with
          | None ->
              if is_last then values.(a) <- access_fills.(a)
              else node_state.(a).(j) <- None
          | Some nd ->
              if is_last then
                values.(a) <-
                  (match Node.find_value nd i with
                  | Some v -> v
                  | None -> access_fills.(a))
              else node_state.(a).(j) <- Node.find nd i)
        bindings_per_level.(level);
      match out_pos_of_level.(level) with
      | Some p -> out_coords.(p) <- i
      | None -> ()
    in
    let rec go (level : int) : unit =
      if level = n_levels then begin
        check_deadline ();
        Galley_tensor.Builder.accum builder out_coords (eval k.Physical.body)
          ~combine
      end
      else begin
        match cands level trees.(level) with
        | `Full ->
            let n = kc.Physical.loop_dims.(level) in
            for i = 0 to n - 1 do
              check_deadline ();
              bind level i;
              go (level + 1)
            done
        | `Arr arr ->
            Array.iter
              (fun i ->
                check_deadline ();
                bind level i;
                go (level + 1))
              arr
      end
    in
    go 0;
    Galley_tensor.Builder.freeze builder ~finalize ~fill:output_fill
  in
  { signature; run; describe = "interp" }
