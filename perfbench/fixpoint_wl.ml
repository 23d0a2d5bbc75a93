(* fixpoint: PageRank, reachability, GCN and Bellman-Ford through
   [Fixpoint.run_source_checked], each op a fresh run (fresh session).
   Every iteration refreshes statistics, re-plans and replays warm
   kernels.  Outputs are checked against the dense oracles in
   [Iterative] and, for reachability, [Bfs.reference_visited]. *)

module D = Galley.Driver
module W = Galley_workloads
module I = Galley_workloads.Iterative
module T = Galley_tensor.Tensor
module Fix = Galley_fixpoint.Fixpoint

type scale = {
  pagerank_n : int;
  reach_n : int;
  gcn_n : int;
  gcn_features : int;
  bellman_n : int;  (** grows superlinearly: sized to cost like the others *)
}

let default_scale =
  { pagerank_n = 1000; reach_n = 5000; gcn_n = 1000; gcn_features = 16; bellman_n = 600 }

let gcn_layers = 3

type case = {
  name : string;
  inputs : (string * T.t) list;
  src : string;  (** the iterate program *)
  body : string;  (** one iteration as a straight-line program *)
  carried : string list;
  output : string;
  reference : unit Lazy.t;  (** forces what [check] compares with *)
  check : T.t -> string option;
}

(* The vertex with most out-edges: a source that reaches the graph. *)
let hub (g : W.Graphs.t) : int =
  let deg = Array.make g.W.Graphs.n 0 in
  Array.iter (fun (u, _) -> deg.(u) <- deg.(u) + 1) g.W.Graphs.edges;
  let best = ref 0 in
  Array.iteri (fun v d -> if d > deg.(!best) then best := v) deg;
  !best

let vector_check ~(what : string) (want : float array) (got : T.t) :
    string option =
  Check.against ~what got (fun c -> want.(c.(0)))

(* The oracles read through [T.get]; an all-dense copy keeps that O(1). *)
let densify (x : T.t) : T.t =
  T.of_coo ~fill:(T.fill x) ~dims:(T.dims x)
    ~formats:(Array.map (fun _ -> T.Dense) (T.dims x))
    (T.to_coo x)

(* Bellman-Ford runs to convergence, and its distances stop changing
   there; the oracle runs past any convergence point seen at this size. *)
let bellman_reference_iters = 64

(* PageRank for a fixed number of iterations: run to convergence, the
   count ranged from 17 to 66 across seeds, which made the workload's cost
   depend on the seed more than on the code. *)
let pagerank_iterations = 50

let pagerank_source =
  Printf.sprintf
    "R = iterate %d {\n  R[j] := B[j] + %.2f * sumof[i](M[i,j] * R[i])\n}\n"
    pagerank_iterations I.damping

let reach_body =
  "F_next[i] = orof[j](A[j,i] * F[j]) * (1 - V[i])\n\
   V_next[i] = V[i] + F_next[i]"

(* Every input derives from [seed]; distinct seeds give distinct graphs. *)
let cases ?(scale = default_scale) ~(seed : int) () : case list =
  let s k = (seed * 8) + k in
  let pr_g =
    W.Graphs.erdos_renyi ~seed:(s 1) ~n:scale.pagerank_n ~m:(6 * scale.pagerank_n) ()
  in
  let rc_g =
    W.Graphs.symmetrize
      (W.Graphs.power_law ~seed:(s 2) ~n:scale.reach_n ~m:(3 * scale.reach_n) ())
  in
  let gcn_g =
    W.Graphs.erdos_renyi ~seed:(s 3) ~n:scale.gcn_n ~m:(6 * scale.gcn_n) ()
  in
  let bf_g =
    W.Graphs.symmetrize
      (W.Graphs.power_law ~seed:(s 4) ~n:scale.bellman_n ~m:(4 * scale.bellman_n) ())
  in
  let pagerank =
    let inputs = I.pagerank_inputs pr_g in
    let get n = List.assoc n inputs in
    let want =
      lazy
        (I.pagerank_reference ~m:(densify (get "M")) ~b:(get "B") ~r0:(get "R")
           ~iters:pagerank_iterations)
    in
    {
      name = "pagerank";
      inputs;
      src = pagerank_source;
      body = I.pagerank_body;
      carried = [ "R" ];
      output = "R";
      reference = lazy (ignore (Lazy.force want));
      check = (fun got -> vector_check ~what:"pagerank.R" (Lazy.force want) got);
    }
  in
  let reach =
    let source = hub rc_g in
    let inputs = I.reach_inputs rc_g ~source in
    let want =
      lazy (W.Bfs.reference_visited ~adjacency:(List.assoc "A" inputs) ~source)
    in
    {
      name = "reachability";
      inputs;
      src = I.reach_source ();
      body = reach_body;
      carried = [ "F"; "V" ];
      output = "V";
      reference = lazy (ignore (Lazy.force want));
      check =
        (fun got ->
          let want = Lazy.force want in
          let ones = ref true in
          T.iter_nonfill got (fun _ v -> if v <> 1.0 then ones := false);
          if T.nnz got = want && !ones then None
          else
            Some
              (Printf.sprintf "reachability.V: %d visited vs reference %d"
                 (T.nnz got) want));
    }
  in
  let gcn =
    let inputs = I.gcn_inputs ~seed:(s 5) gcn_g ~features:scale.gcn_features in
    let get n = List.assoc n inputs in
    let want =
      lazy
        (I.gcn_reference ~a:(densify (get "A")) ~h0:(get "H") ~w:(get "W")
           ~layers:gcn_layers)
    in
    {
      name = "gcn";
      inputs;
      src = I.gcn_source ~layers:gcn_layers ();
      body = I.gcn_body;
      carried = [ "H" ];
      output = "H";
      reference = lazy (ignore (Lazy.force want));
      check =
        (fun got ->
          let want = Lazy.force want in
          Check.against ~what:"gcn.H" got (fun c -> want.(c.(0)).(c.(1))));
    }
  in
  let bellman =
    let source = hub bf_g in
    let inputs = I.bellman_inputs ~seed:(s 6) bf_g ~source in
    let want =
      lazy
        (I.bellman_reference ~w:(densify (List.assoc "W" inputs)) ~source
           ~iters:bellman_reference_iters)
    in
    {
      name = "bellman_ford";
      inputs;
      src = I.bellman_source ();
      body = I.bellman_body;
      carried = [ "D" ];
      output = "D";
      reference = lazy (ignore (Lazy.force want));
      check = (fun got -> vector_check ~what:"bellman_ford.D" (Lazy.force want) got);
    }
  in
  [ pagerank; reach; gcn; bellman ]

let iterations reports =
  List.fold_left (fun a r -> a + r.Fix.fr_iterations) 0 reports

let replans reports = List.fold_left (fun a r -> a + r.Fix.fr_replans) 0 reports

(* The op as a user runs it; the check is deferred. *)
let run_op ~config (c : case) =
  match Fix.run_source_checked ~config ~inputs:c.inputs c.src with
  | Ok (r, reports) ->
      let out = D.output_res r c.output in
      Ok
        ( reports,
          fun () -> match out with Ok x -> c.check x | Error msg -> Some msg )
  | Error e -> Error (Galley.Errors.to_string e)

(* The same iterations through the benchmark's traced pipeline: one
   context and executor for the whole op, carried tensors rebound (and
   their statistics refreshed) after every iteration. *)
let traced_iterations ~config spans ~op (c : case) ~(iters : int) =
  let p, per_iter =
    Spans.span spans ~op "op" (fun () ->
        let program =
          Spans.span spans ~op "lang.parse" (fun () ->
              Galley_lang.Parser.parse_program c.body)
        in
        let p = Pipeline.create ~config ~spans ~op c.inputs in
        let per_iter = ref [] in
        let bound = ref c.inputs in
        for _ = 1 to iters do
          let outputs, plan = Pipeline.run_program p ~op program in
          per_iter := (!bound, plan) :: !per_iter;
          bound :=
            List.map
              (fun x ->
                let v = List.assoc (x ^ "_next") outputs in
                Pipeline.rebind p ~op ~layer:"stats.refresh" x v;
                (x, v))
              c.carried
        done;
        (p, List.rev !per_iter))
  in
  List.iter
    (fun (bindings, plan) ->
      Pipeline.bind_probes p bindings;
      Pipeline.probe p ~op plan)
    per_iter;
  Pipeline.shutdown p

let ops ~(config : D.config) (cases : case list) : Batch.op list =
  List.map
    (fun c ->
      let run () = Result.map snd (run_op ~config c) in
      let trace spans ~op =
        let t0 = Batch.now () in
        let untraced = run_op ~config c in
        let op_s = Batch.now () -. t0 in
        match untraced with
        | Error msg ->
            {
              Batch.op_s;
              traced_s = op_s;
              layers = [];
              extra = [];
              counts = [];
              check = Some msg;
            }
        | Ok (reports, check) ->
            let iters = iterations reports in
            let t0 = Batch.now () in
            ignore
              (I.unrolled_run ~config ~inputs:c.inputs ~carried:c.carried
                 ~body_src:c.body ~iters ());
            let unrolled_s = Batch.now () -. t0 in
            traced_iterations ~config spans ~op c ~iters;
            let s = Spans.of_op spans op in
            {
              Batch.op_s;
              traced_s = Spans.root_time s "op";
              layers =
                Pipeline.layer_times s
                @ [ ("fixpoint.runner_self_s", op_s -. unrolled_s) ];
              extra =
                [
                  ("parallel.overhead_s", Pipeline.parallel_overhead s);
                  ("fixpoint.iterations", float_of_int iters);
                  ("fixpoint.replans", float_of_int (replans reports));
                ];
              counts = Spans.counts s "op";
              check = check ();
            }
      in
      {
        Batch.name = c.name;
        prepare = (fun () -> Lazy.force c.reference);
        run;
        trace;
      })
    cases

let describe (cases : case list) : unit =
  List.iter
    (fun c ->
      List.iter
        (fun (n, x) ->
          Report.info "input %s.%s dims=%s nnz=%d" c.name n
            (String.concat "x" (Array.to_list (Array.map string_of_int (T.dims x))))
            (T.nnz x))
        c.inputs)
    cases
