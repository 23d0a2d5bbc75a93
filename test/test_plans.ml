(* Golden logical plans: the exact logical search must keep choosing the
   same plans at the same costs.  For the six Fig. 6 programs at the
   ml_joins benchmark's scales and the four fixpoint bodies (first
   iteration), seeds 1–3, under both estimators, the fixture
   [fixtures/logical_plans.txt] holds every logical query
   ([Logical_query.to_string]) and each input query's search cost at [%h].
   Costs are compared bit for bit; a changed intermediate name, index name
   or tie-break fails the test as well.

   To re-record after an intended plan change:
     dune exec test/test_plans.exe -- record > test/fixtures/logical_plans.txt *)

module D = Galley.Driver
module Ir = Galley_plan.Ir
module Schema = Galley_plan.Schema
module Canonical = Galley_plan.Canonical
module Tier = Galley_plan.Tier
module Logical_query = Galley_plan.Logical_query
module Ctx = Galley_stats.Ctx
module Optimizer = Galley_logical.Optimizer

(* The logical optimizer as [Driver.run] drives it, one input query at a
   time so each query's search cost is visible: one intermediate namer
   and one binder namer per program, shared by its queries. *)
let plan_block ~(label : string) ~(kind : Ctx.kind) inputs (src : string) :
    string =
  let program = D.resolve_names (Galley_lang.Parser.parse_program src) in
  let schema = Schema.create () in
  List.iter (fun (n, t) -> Schema.declare_tensor schema n t) inputs;
  let ctx = Ctx.create ~kind schema in
  List.iter (fun (n, t) -> ctx.Ctx.register_input n t) inputs;
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "#t%d" !counter
  in
  let binder = Canonical.binder_namer () in
  let b = Buffer.create 4096 in
  Printf.bprintf b "== %s %s\n" label (Ctx.kind_to_string kind);
  List.iter
    (fun (q : Ir.query) ->
      let r, tier =
        Optimizer.optimize_query_tiered Optimizer.default_config ctx ~fresh
          ~binder q
      in
      Printf.bprintf b "query %s tier=%s cost=%h\n" q.Ir.name
        (Tier.to_string tier) r.Optimizer.cost;
      List.iter
        (fun lq -> Printf.bprintf b "%s\n" (Logical_query.to_string lq))
        r.Optimizer.queries)
    program.Ir.queries;
  Buffer.contents b

let golden_text () : string =
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun seed ->
      let programs =
        List.map
          (fun (c : Perfbench.Ml_joins.case) ->
            (c.Perfbench.Ml_joins.name, c.Perfbench.Ml_joins.inputs,
             c.Perfbench.Ml_joins.src))
          (Perfbench.Ml_joins.cases ~seed ())
        @ List.map
            (fun (c : Perfbench.Fixpoint_wl.case) ->
              (c.Perfbench.Fixpoint_wl.name, c.Perfbench.Fixpoint_wl.inputs,
               c.Perfbench.Fixpoint_wl.body))
            (Perfbench.Fixpoint_wl.cases ~seed ())
      in
      List.iter
        (fun (name, inputs, src) ->
          List.iter
            (fun kind ->
              Buffer.add_string b
                (plan_block
                   ~label:(Printf.sprintf "%s seed=%d" name seed)
                   ~kind inputs src))
            [ Ctx.Chain_kind; Ctx.Uniform_kind ])
        programs)
    [ 1; 2; 3 ];
  Buffer.contents b

let fixture = "fixtures/logical_plans.txt"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let first_difference (want : string) (got : string) : string =
  let w = Array.of_list (String.split_on_char '\n' want)
  and g = Array.of_list (String.split_on_char '\n' got) in
  let n = min (Array.length w) (Array.length g) in
  let rec go k =
    if k >= n then
      Printf.sprintf "line counts differ: fixture %d, now %d" (Array.length w)
        (Array.length g)
    else if w.(k) <> g.(k) then
      Printf.sprintf "line %d:\n  fixture: %s\n  now:     %s" (k + 1) w.(k) g.(k)
    else go (k + 1)
  in
  go 0

let test_golden_plans () =
  let want = read_file fixture in
  let got = golden_text () in
  if want <> got then Alcotest.fail (first_difference want got)

(* Repeated cold runs in one process plan alike: binder names restart
   with every program instead of continuing a process-wide count. *)
let test_cold_runs_plan_alike () =
  let c =
    List.find
      (fun (c : Perfbench.Ml_joins.case) ->
        c.Perfbench.Ml_joins.name = "covariance_star")
      (Perfbench.Ml_joins.cases ~seed:1 ())
  in
  let plan () =
    match
      D.run_source_checked ~inputs:c.Perfbench.Ml_joins.inputs
        c.Perfbench.Ml_joins.src
    with
    | Ok r -> List.map Logical_query.to_string r.D.logical_plan
    | Error e -> Alcotest.fail (Galley.Errors.to_string e)
  in
  let first = plan () in
  for run = 2 to 6 do
    Alcotest.(check (list string))
      (Printf.sprintf "run %d plans as run 1" run)
      first (plan ())
  done

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "record" then
    print_string (golden_text ())
  else
    Alcotest.run "plans"
      [
        ( "golden",
          [
            Alcotest.test_case "fig6 and fixpoint logical plans" `Slow
              test_golden_plans;
            Alcotest.test_case "six cold covariance runs plan alike" `Slow
              test_cold_runs_plan_alike;
          ] );
      ]
