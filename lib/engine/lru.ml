(* String-keyed LRU cache backing the engine's resident caches.

   A resident `galley serve` process keeps the kernel and CSE caches
   alive for its whole lifetime, so unbounded hashtables would grow
   without bound as query shapes and tensor versions churn.  This is a
   classic hashtable + intrusive doubly-linked recency list: [find]
   touches (moves to the front), [put] inserts at the front and evicts
   from the tail past [capacity], reporting each eviction through
   [on_evict] so callers can keep counters.

   Not thread-safe: only the domain running the executor's steps touches
   it (kernel morsel lanes never do).  [length] and [evictions] read one
   int field each, so a monitoring thread may call them unlocked. *)

type 'v node = {
  n_key : string;
  mutable n_value : 'v;
  mutable n_prev : 'v node option; (* towards the head (more recent) *)
  mutable n_next : 'v node option; (* towards the tail (less recent) *)
}

type 'v t = {
  capacity : int; (* >= 1; [max_int] is effectively unbounded *)
  tbl : (string, 'v node) Hashtbl.t;
  mutable head : 'v node option; (* most recently used *)
  mutable tail : 'v node option; (* least recently used *)
  mutable evictions : int;
  on_evict : string -> 'v -> unit;
}

let create ?(on_evict = fun _ _ -> ()) ~capacity () : 'v t =
  {
    capacity = max 1 capacity;
    tbl = Hashtbl.create 64;
    head = None;
    tail = None;
    evictions = 0;
    on_evict;
  }

let length (t : 'v t) : int = Hashtbl.length t.tbl
let evictions (t : 'v t) : int = t.evictions
let capacity (t : 'v t) : int = t.capacity

let unlink (t : 'v t) (n : 'v node) : unit =
  (match n.n_prev with
  | Some p -> p.n_next <- n.n_next
  | None -> t.head <- n.n_next);
  (match n.n_next with
  | Some nx -> nx.n_prev <- n.n_prev
  | None -> t.tail <- n.n_prev);
  n.n_prev <- None;
  n.n_next <- None

let push_front (t : 'v t) (n : 'v node) : unit =
  n.n_next <- t.head;
  n.n_prev <- None;
  (match t.head with Some h -> h.n_prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch (t : 'v t) (n : 'v node) : unit =
  if t.head != Some n then begin
    unlink t n;
    push_front t n
  end

(* Lookup; a hit refreshes the entry's recency. *)
let find (t : 'v t) (key : string) : 'v option =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some n ->
      touch t n;
      Some n.n_value

let evict_tail (t : 'v t) : unit =
  match t.tail with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.tbl n.n_key;
      t.evictions <- t.evictions + 1;
      t.on_evict n.n_key n.n_value

(* Insert or overwrite; evicts least-recently-used entries past capacity. *)
let put (t : 'v t) (key : string) (value : 'v) : unit =
  (match Hashtbl.find_opt t.tbl key with
  | Some n ->
      n.n_value <- value;
      touch t n
  | None ->
      let n = { n_key = key; n_value = value; n_prev = None; n_next = None } in
      Hashtbl.replace t.tbl key n;
      push_front t n);
  while Hashtbl.length t.tbl > t.capacity do
    evict_tail t
  done

let clear (t : 'v t) : unit =
  Hashtbl.reset t.tbl;
  t.head <- None;
  t.tail <- None

(* Keys from most to least recently used (tests and diagnostics). *)
let keys_by_recency (t : 'v t) : string list =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go (n.n_key :: acc) n.n_next
  in
  go [] t.head
