(* ml_joins: the Fig. 6 programs (ML over the TPC-H-like star join and
   self join), each op a fresh [Driver.run] over program text with cold
   caches, as a batch user pays.  Outputs are checked against the
   hand-written baseline plans ([Ml.baseline_plan] through
   [Driver.run_logical_plan]). *)

module D = Galley.Driver
module W = Galley_workloads
module T = Galley_tensor.Tensor
module Ir = Galley_plan.Ir

type scale = {
  star : W.Tpch.scale;  (** linreg, logreg, nn *)
  cov : W.Tpch.scale;  (** covariance: X twice, quadratic in row density *)
  self_join : W.Tpch.scale;  (** linreg, logreg over X[i1,i2,j] *)
}

let star_scale n =
  {
    W.Tpch.n_lineitems = n;
    n_suppliers = max 5 (n / 25);
    n_parts = max 6 (n / 10);
    n_orders = max 7 (n * 3 / 20);
    n_customers = max 5 (n * 3 / 100);
  }

let self_join_scale n =
  {
    W.Tpch.n_lineitems = n;
    n_suppliers = max 5 (n / 20);
    n_parts = max 6 (n / 5);
    n_orders = 1;
    n_customers = 1;
  }

let default_scale =
  { star = star_scale 1000; cov = star_scale 150; self_join = self_join_scale 400 }

(* The program as .gly source, so that every op pays for parsing like a
   user submitting text.  Covers the operators the Fig. 6 programs use. *)
let rec expr_source (e : Ir.expr) : string =
  let idxs l = "[" ^ String.concat "," l ^ "]" in
  match e with
  | Ir.Input (n, []) | Ir.Alias (n, []) -> n
  | Ir.Input (n, l) | Ir.Alias (n, l) -> n ^ idxs l
  | Ir.Literal v -> Printf.sprintf "%.17g" v
  | Ir.Map (Galley_plan.Op.Add, args) ->
      "(" ^ String.concat " + " (List.map expr_source args) ^ ")"
  | Ir.Map (Galley_plan.Op.Mul, args) ->
      "(" ^ String.concat " * " (List.map expr_source args) ^ ")"
  | Ir.Map (Galley_plan.Op.Sigmoid, [ a ]) -> "sigmoid(" ^ expr_source a ^ ")"
  | Ir.Map (Galley_plan.Op.Relu, [ a ]) -> "relu(" ^ expr_source a ^ ")"
  | Ir.Agg (Galley_plan.Op.Add, l, body) -> "sum" ^ idxs l ^ "(" ^ expr_source body ^ ")"
  | _ -> invalid_arg ("expr_source: " ^ Ir.expr_to_string e)

let program_source (p : Ir.program) : string =
  String.concat "\n"
    (List.map
       (fun (q : Ir.query) ->
         let lhs =
           match q.Ir.out_order with
           | Some l -> q.Ir.name ^ "[" ^ String.concat "," l ^ "]"
           | None -> q.Ir.name
         in
         lhs ^ " = " ^ expr_source q.Ir.expr)
       p.Ir.queries)

type case = {
  name : string;
  alg : W.Ml.algorithm;
  x : Ir.expr;
  pts : Ir.idx list;
  inputs : (string * T.t) list;
  src : string;  (** the program as text, parsed by every op *)
  output : string;
}

(* Every input derives from [seed]; distinct seeds give distinct data. *)
let cases ?(scale = default_scale) ~(seed : int) () : case list =
  let star = W.Tpch.star_instance ~scale:scale.star ~seed:((seed * 8) + 1) () in
  let cov = W.Tpch.star_instance ~scale:scale.cov ~seed:((seed * 8) + 2) () in
  let sj = W.Tpch.self_join_instance ~scale:scale.self_join ~seed:((seed * 8) + 3) () in
  let params ~d k = W.Ml.parameter_inputs ~seed:((seed * 8) + k) ~d ~hidden:16 in
  let star_inputs = star.W.Tpch.inputs @ params ~d:star.W.Tpch.d 4 in
  let cov_inputs = cov.W.Tpch.inputs @ params ~d:cov.W.Tpch.d 5 in
  let sj_inputs = sj.W.Tpch.sj_inputs @ params ~d:sj.W.Tpch.sj_d 6 in
  let case name alg ~x ~pts inputs =
    let program = W.Ml.program_of alg ~x ~pts in
    {
      name;
      alg;
      x;
      pts;
      inputs;
      src = program_source program;
      output = List.hd program.Ir.outputs;
    }
  in
  let star_x = star.W.Tpch.x_def and sj_x = sj.W.Tpch.sj_x_def in
  [
    case "linreg_star" W.Ml.Linreg ~x:star_x ~pts:[ "i" ] star_inputs;
    case "logreg_star" W.Ml.Logreg ~x:star_x ~pts:[ "i" ] star_inputs;
    case "nn_star" W.Ml.Nn ~x:star_x ~pts:[ "i" ] star_inputs;
    case "covariance_star" W.Ml.Covariance ~x:cov.W.Tpch.x_def ~pts:[ "i" ]
      cov_inputs;
    case "linreg_self_join" W.Ml.Linreg ~x:sj_x ~pts:[ "i1"; "i2" ] sj_inputs;
    case "logreg_self_join" W.Ml.Logreg ~x:sj_x ~pts:[ "i1"; "i2" ] sj_inputs;
  ]

(* The hand-written baseline's output, computed once per case. *)
let reference (c : case) : T.t Lazy.t =
  lazy
    (let plan, out = W.Ml.baseline_plan c.alg ~x:c.x ~pts:c.pts in
     let config =
       {
         D.default_config with
         physical =
           W.Ml.baseline_physical_config ~pts:(List.length c.pts) ~dense:false;
       }
     in
     D.output_of (D.run_logical_plan ~config ~inputs:c.inputs ~outputs:[ out ] plan) out)

let check (c : case) (want : T.t Lazy.t) (outputs : (string * T.t) list) :
    string option =
  match Check.output ~what:c.name outputs c.output with
  | Error msg -> Some msg
  | Ok got -> Check.tensors ~what:(c.name ^ "." ^ c.output) got (Lazy.force want)

let outputs_of (r : D.result) = List.map (fun (n, _, x) -> (n, x)) r.D.outputs

let ops ~(config : D.config) (cases : case list) : Batch.op list =
  List.map
    (fun c ->
      let want = reference c in
      let run () =
        match D.run_source_checked ~config ~inputs:c.inputs c.src with
        | Ok r ->
            let outputs = outputs_of r in
            Ok (fun () -> check c want outputs)
        | Error e -> Error (Galley.Errors.to_string e)
      in
      let trace spans ~op =
        let t0 = Batch.now () in
        let untraced = D.run_source_checked ~config ~inputs:c.inputs c.src in
        let op_s = Batch.now () -. t0 in
        let p, plan, traced_outputs =
          Spans.span spans ~op "op" (fun () ->
              let program =
                Spans.span spans ~op "lang.parse" (fun () ->
                    Galley_lang.Parser.parse_program c.src)
              in
              let p = Pipeline.create ~config ~spans ~op c.inputs in
              let outputs, plan = Pipeline.run_program p ~op program in
              (p, plan, outputs))
        in
        Pipeline.bind_probes p c.inputs;
        Pipeline.probe p ~op plan;
        Pipeline.shutdown p;
        let s = Spans.of_op spans op in
        {
          Batch.op_s;
          traced_s = Spans.root_time s "op";
          layers = Pipeline.layer_times s;
          extra = [ ("parallel.overhead_s", Pipeline.parallel_overhead s) ];
          counts = Spans.counts s "op";
          check =
            (match untraced with
            | Error e -> Some (Galley.Errors.to_string e)
            | Ok r -> (
                match check c want (outputs_of r) with
                | Some _ as bad -> bad
                | None -> check c want traced_outputs));
        }
      in
      { Batch.name = c.name; prepare = (fun () -> ignore (Lazy.force want)); run; trace })
    cases

(* Input sizes, each shared tensor once. *)
let describe (cases : case list) : unit =
  let seen = ref [] in
  List.iter
    (fun c ->
      List.iter
        (fun (n, x) ->
          if not (List.memq x !seen) then begin
            seen := x :: !seen;
            Report.info "input %s.%s dims=%s nnz=%d" c.name n
              (String.concat "x"
                 (Array.to_list (Array.map string_of_int (T.dims x))))
              (T.nnz x)
          end)
        c.inputs)
    cases
