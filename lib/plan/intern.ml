(* Interned (hash-consed) IR expressions for the logical search.

   The search builds [node]s: expressions that carry their free-index
   set, [contains_agg] and size, computed once when the node is made, so
   membership tests read a set and identity tests are [==].  Names are
   kept exactly, so a node's [expr] is the one expression it stands for.

   A [table] interns expressions as [interned] values: in a table, two
   interned expressions are structurally equal exactly when they are the
   same value, with one int [id].  The estimation context
   ({!Galley_stats.Ctx}) interns each search node with its alias names
   replaced by their bindings, so an alias's interned leaf stands for its
   definition, not its name.  It caches the result in the node's [res]
   (valid while the node's aliases have the bindings [res_names]).  An
   interned value builds its canonical key ({!Canonical.canonical_key},
   with each alias named by its definition's id) at most once, ordering
   commutative children by their own cached keys, and keeps the memo class
   the context gives it in [cls].

   Ids come from a process-wide counter and are never reused.  A [reset]
   starts a new [epoch]: values interned before it are no longer found by
   lookups, and a node's [res] from an older epoch is stale. *)

type interned = {
  id : int;
  shape : shape;
  mutable canon : (string Lazy.t * Canonical.sorted) option;
      (* the canonical key, and the tree it is written from *)
  mutable cls : int; (* memo class, or -1 *)
}

and shape =
  | I_input of string * Ir.idx list
  | I_alias of string * string * Ir.idx list
      (* the alias's binding, which fixes its definition's id (the second
         string); for an alias without one, its name twice *)
  | I_literal of float
  | I_map of Op.t * interned list
  | I_agg of Op.t * Ir.idx list * interned

type node = {
  expr : Ir.expr;
  view : view;
  free : Ir.Idx_set.t; (* [Ir.free_indices expr] *)
  has_agg : bool; (* [Ir.contains_agg expr] *)
  size : int; (* [Ir.size expr] *)
  aliases : string list; (* distinct alias names read, ascending *)
  mutable res : interned; (* this node interned with its aliases bound *)
  mutable res_epoch : int;
  mutable res_names : string list; (* the bindings of [aliases] behind [res] *)
}

and view =
  | Input of string * Ir.idx list
  | Alias of string * Ir.idx list
  | Literal of float
  | Map of Op.t * node list
  | Agg of Op.t * Ir.idx list * node

let rec merge_names (a : string list) (b : string list) : string list =
  match (a, b) with
  | [], l | l, [] -> l
  | _ when a == b -> a
  | x :: a', y :: b' ->
      let c = String.compare x y in
      if c = 0 then x :: merge_names a' b'
      else if c < 0 then x :: merge_names a' b
      else y :: merge_names a b'

let free_of (view : view) : Ir.Idx_set.t =
  match view with
  | Input (_, idxs) | Alias (_, idxs) -> Ir.Idx_set.of_list idxs
  | Literal _ -> Ir.Idx_set.empty
  | Map (_, args) ->
      List.fold_left
        (fun s a ->
          if Ir.Idx_set.subset a.free s then s else Ir.Idx_set.union s a.free)
        Ir.Idx_set.empty args
  | Agg (_, idxs, b) ->
      List.fold_left (fun s i -> Ir.Idx_set.remove i s) b.free idxs

let unset = { id = -1; shape = I_literal 0.0; canon = None; cls = -1 }

(* [free], when given, must be the free indices of [view]: a caller that
   knows them saves the set arithmetic. *)
let node ?free (view : view) : node =
  let free = match free with Some f -> f | None -> free_of view in
  let expr, has_agg, size, aliases =
    match view with
    | Input (n, idxs) -> (Ir.Input (n, idxs), false, 1, [])
    | Alias (n, idxs) -> (Ir.Alias (n, idxs), false, 1, [ n ])
    | Literal v -> (Ir.Literal v, false, 1, [])
    | Map (op, args) ->
        ( Ir.Map (op, List.map (fun a -> a.expr) args),
          List.exists (fun a -> a.has_agg) args,
          List.fold_left (fun s a -> s + a.size) 1 args,
          List.fold_left (fun l a -> merge_names l a.aliases) [] args )
    | Agg (op, idxs, b) -> (Ir.Agg (op, idxs, b.expr), true, 1 + b.size, b.aliases)
  in
  { expr; view; free; has_agg; size; aliases; res = unset; res_epoch = -1; res_names = [] }

let input name idxs = node (Input (name, idxs))
let alias ?free name idxs = node ?free (Alias (name, idxs))
let lit v = node (Literal v)
let map ?free op args = node ?free (Map (op, args))
let agg ?free op idxs body = node ?free (Agg (op, idxs, body))

(* [e] as a node; a subterm that is physically [sub]'s expression is
   [sub]. *)
let rec of_expr ?(sub : node option) (e : Ir.expr) : node =
  match (e, sub) with
  | _, Some s when e == s.expr -> s
  | Ir.Input (n, idxs), _ -> input n idxs
  | Ir.Alias (n, idxs), _ -> alias n idxs
  | Ir.Literal v, _ -> lit v
  | Ir.Map (op, args), _ -> map op (List.map (of_expr ?sub) args)
  | Ir.Agg (op, idxs, body), _ -> agg op idxs (of_expr ?sub body)

(* ------------------------------------------------------------------ *)
(* Interning.                                                           *)
(* ------------------------------------------------------------------ *)

module Key = struct
  type t = shape

  let equal (a : shape) (b : shape) : bool =
    match (a, b) with
    | I_input (n, i), I_input (n', i') | I_alias (n, _, i), I_alias (n', _, i') ->
        String.equal n n' && List.equal String.equal i i'
    | I_literal v, I_literal v' ->
        Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float v')
    | I_map (op, args), I_map (op', args') ->
        op = op' && List.equal ( == ) args args'
    | I_agg (op, i, b), I_agg (op', i', b') ->
        op = op' && b == b' && List.equal String.equal i i'
    | _ -> false

  let hash (s : shape) : int =
    match s with
    | I_input (n, i) -> ((Hashtbl.hash n * 65599) + Hashtbl.hash i) land max_int
    | I_alias (n, _, i) ->
        ((Hashtbl.hash n * 65599) + Hashtbl.hash i + 1) land max_int
    | I_literal v -> Hashtbl.hash (Int64.bits_of_float v)
    | I_map (op, args) ->
        List.fold_left (fun h a -> (h * 65599) + a.id) (Hashtbl.hash op + 3) args
        land max_int
    | I_agg (op, i, b) ->
        ((((Hashtbl.hash op * 65599) + Hashtbl.hash i) * 65599) + b.id + 4)
        land max_int
end

module H = Hashtbl.Make (Key)

type table = { values : interned H.t; mutable epoch : int }

let next_id = Atomic.make 0
let next_epoch = Atomic.make 0

let create () : table =
  { values = H.create 1024; epoch = Atomic.fetch_and_add next_epoch 1 }

(* Forget every interned value and start a new epoch, which makes every
   node's cached [res] stale. *)
let reset (t : table) : unit =
  H.reset t.values;
  t.epoch <- Atomic.fetch_and_add next_epoch 1

let length (t : table) : int = H.length t.values

(* The interned value of [shape], whose children must be interned in
   [t]. *)
let intern (t : table) (shape : shape) : interned =
  match H.find_opt t.values shape with
  | Some v -> v
  | None ->
      let v = { id = Atomic.fetch_and_add next_id 1; shape; canon = None; cls = -1 } in
      H.add t.values shape v;
      v

let rec canon (v : interned) : string Lazy.t * Canonical.sorted =
  match v.canon with
  | Some c -> c
  | None ->
      let sorted =
        match v.shape with
        | I_input (n, idxs) -> Canonical.S_leaf (Ir.Input (n, idxs))
        | I_alias (_, def, idxs) -> Canonical.S_leaf (Ir.Alias (def, idxs))
        | I_literal x -> Canonical.S_leaf (Ir.Literal x)
        | I_map (op, args) ->
            Canonical.S_map
              ( op,
                Canonical.order op
                  ~key:(fun a -> Lazy.force (fst (canon a)))
                  ~sorted:(fun a -> snd (canon a))
                  args )
        | I_agg (op, idxs, b) -> Canonical.S_agg (op, idxs, snd (canon b))
      in
      let c = (lazy (Canonical.key_of_sorted sorted), sorted) in
      v.canon <- Some c;
      c

(* [Canonical.canonical_key] of the expression [v] interns, with every
   alias named by its definition's id. *)
let key (v : interned) : string = Lazy.force (fst (canon v))

let mentions (n : node) (i : Ir.idx) : bool = Ir.Idx_set.mem i n.free

(* Replace every occurrence of [target] in [n] by [by], which must have
   the same free indices (so every rebuilt ancestor keeps its own).
   Subtrees no larger than [target] cannot hold it, and unchanged subtrees
   are returned as they are. *)
let rec replace ~(target : node) ~(by : node) (n : node) : node =
  if n == target then by
  else if n.size <= target.size then n
  else
    match n.view with
    | Input _ | Alias _ | Literal _ -> n
    | Map (op, args) ->
        let args' = List.map (replace ~target ~by) args in
        if List.for_all2 ( == ) args args' then n else map ~free:n.free op args'
    | Agg (op, idxs, b) ->
        let b' = replace ~target ~by b in
        if b' == b then n else agg ~free:n.free op idxs b'

