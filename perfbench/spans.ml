(* In-memory spans recorded by the benchmark around its calls into each
   layer's public functions (the program's own tracer stays off).  Each
   span also carries the deltas of the program's always-on counters over
   its interval, so counts are measured where the work happens.  Spans
   are written out once, when the run ends. *)

module Metrics = Galley_obs.Metrics

(* The always-on counters read before and after every span. *)
let counter_names =
  [
    "estimator.calls.chain";
    "estimator.calls.uniform";
    "optimizer.search_nodes";
    "kernel_cache.hits";
    "kernel_cache.misses";
    "exec.kernels_run";
    "cse.hits";
    "cse.misses";
    "pool.tasks_run";
  ]

let read_counters () : int list =
  List.map
    (fun n -> Option.value ~default:0 (Metrics.counter_value n))
    counter_names

type span = {
  id : int;
  parent : int option;
  op : string;  (** op instance, e.g. ["linreg_star#3"] *)
  name : string;
  t0 : float;
  t1 : float;
  counts : int list;  (** deltas, in [counter_names] order *)
}

type t = {
  mutable closed : span list;  (** newest first *)
  mutable stack : int list;
  mutable next : int;
}

let create () = { closed = []; stack = []; next = 0 }
let now = Unix.gettimeofday

(* [span r ~op name f] runs [f] inside a span named after a layer; spans
   opened while [f] runs become its children. *)
let span (r : t) ~(op : string) (name : string) (f : unit -> 'a) : 'a =
  let id = r.next in
  r.next <- id + 1;
  let parent = match r.stack with p :: _ -> Some p | [] -> None in
  r.stack <- id :: r.stack;
  let c0 = read_counters () in
  let t0 = now () in
  let finish () =
    let t1 = now () in
    let counts = List.map2 ( - ) (read_counters ()) c0 in
    r.stack <- List.tl r.stack;
    r.closed <- { id; parent; op; name; t0; t1; counts } :: r.closed
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* Record an interval measured elsewhere (e.g. a probe run) as a root
   span of [op]. *)
let record (r : t) ~(op : string) (name : string) ~(t0 : float) ~(t1 : float)
    : unit =
  let id = r.next in
  r.next <- id + 1;
  r.closed <-
    {
      id;
      parent = None;
      op;
      name;
      t0;
      t1;
      counts = List.map (fun _ -> 0) counter_names;
    }
    :: r.closed

let duration (s : span) = s.t1 -. s.t0

let of_op (r : t) (op : string) : span list =
  List.rev (List.filter (fun s -> s.op = op) r.closed)

(* Self time per span name over one op instance: each span's duration
   minus the durations of its direct children, summed by name. *)
let self_times (spans : span list) : (string * float) list =
  let child_time = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
          Hashtbl.replace child_time p
            (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child_time p))
      | None -> ())
    spans;
  let acc = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      let self =
        duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)
      in
      (match Hashtbl.find_opt acc s.name with
      | None -> order := s.name :: !order
      | Some _ -> ());
      Hashtbl.replace acc s.name
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt acc s.name)))
    spans;
  List.rev_map (fun n -> (n, Hashtbl.find acc n)) !order

let self_time (spans : span list) (name : string) : float =
  Option.value ~default:0.0 (List.assoc_opt name (self_times spans))

(* Total duration of the root spans named [name]. *)
let root_time (spans : span list) (name : string) : float =
  List.fold_left
    (fun a s -> if s.parent = None && s.name = name then a +. duration s else a)
    0.0 spans

(* Counter deltas summed over the root spans named [name] (nested spans
   would double count). *)
let counts (spans : span list) (name : string) : (string * int) list =
  let roots = List.filter (fun s -> s.parent = None && s.name = name) spans in
  List.mapi
    (fun i c ->
      (c, List.fold_left (fun a s -> a + List.nth s.counts i) 0 roots))
    counter_names

let write_jsonl (r : t) (path : string) : unit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%s,\"op\":\"%s\",\"name\":\"%s\",\"start\":%.6f,\"end\":%.6f,\"counts\":{%s}}\n"
            s.id
            (match s.parent with Some p -> string_of_int p | None -> "null")
            (Metrics.json_escape s.op) (Metrics.json_escape s.name) s.t0 s.t1
            (String.concat ","
               (List.map2 (Printf.sprintf "\"%s\":%d") counter_names s.counts)))
        (List.rev r.closed))
