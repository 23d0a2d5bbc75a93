(* Optimizer provenance (DESIGN.md §16): recorder gating and drain
   semantics, structural plan diffing, the offline audit-report
   reduction over a committed journal fixture, and the property that
   recording the search leaves both the chosen plans and the program
   outputs bit-identical across kernel backends and domain counts.  The
   daemon's retention of provenance is tested in test_serve.ml. *)

module T = Galley_tensor.Tensor
module Prng = Galley_tensor.Prng
module Prov = Galley_plan.Provenance
module Diff = Galley_plan.Plan_diff
module Physical = Galley_plan.Physical
module Json = Galley_obs.Json
module Metrics = Galley_obs.Metrics
module AR = Galley_obs.Audit_report
module Exec = Galley_engine.Exec
module D = Galley.Driver

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let close what = Alcotest.(check (float 1e-9)) what

let contains (text : string) (needle : string) : bool =
  let n = String.length needle and l = String.length text in
  let rec go i = i + n <= l && (String.sub text i n = needle || go (i + 1)) in
  n = 0 || go 0

(* -------------------------------------------------------------- *)
(* Recorder.                                                        *)
(* -------------------------------------------------------------- *)

let test_recorder_gating () =
  Prov.disable ();
  Prov.reset ();
  Prov.candidate ~phase:"logical" ~query:"q" ~tier:"greedy" ~descr:"x"
    ~cost:1.0 ~chosen:true ();
  check_int "disabled records nothing" 0 (List.length (Prov.drain ()));
  Prov.enable ();
  Prov.rung ~phase:"logical" ~query:"q" ~tier:"exact" ~outcome:"served"
    ~nodes:7 ~cost:3.5 ();
  Prov.prune ~phase:"logical" ~query:"q" ~tier:"exact" ~reason:"bound"
    ~count:2 ();
  let evs = Prov.drain () in
  check_int "two events" 2 (List.length evs);
  (match evs with
  | [ r; p ] ->
      check_string "oldest first" "rung" r.Prov.pv_kind;
      check_bool "served rung is chosen" true r.Prov.pv_chosen;
      check_string "node count attr" "7"
        (List.assoc "nodes" r.Prov.pv_attrs);
      check_string "prune count attr" "2"
        (List.assoc "count" p.Prov.pv_attrs)
  | _ -> Alcotest.fail "expected exactly two events");
  check_int "drain empties the buffer" 0 (List.length (Prov.drain ()));
  Prov.disable ()

let test_event_json () =
  Prov.reset ();
  Prov.enable ();
  Prov.candidate ~phase:"physical" ~query:"q" ~tier:"greedy"
    ~descr:"loop i,j" ~cost:12.5 ~chosen:true ();
  Prov.prune ~phase:"physical" ~query:"q" ~tier:"exact" ~reason:"bound" ();
  let evs = Prov.drain () in
  Prov.disable ();
  let json = Prov.events_to_json evs in
  match Json.parse json with
  | Error msg -> Alcotest.failf "events_to_json not parseable: %s" msg
  | Ok j -> (
      match Json.to_list j with
      | Some [ cand; prune ] ->
          let str k e = Option.bind (Json.member k e) Json.to_string in
          check_bool "candidate kind" true (str "kind" cand = Some "candidate");
          check_bool "candidate cost" true
            (Option.bind (Json.member "cost" cand) Json.to_float = Some 12.5);
          check_bool "chosen flag" true
            (Json.member "chosen" cand <> None);
          (* prune has nan cost: the field must be omitted, not "nan" *)
          check_bool "nan cost omitted" true (Json.member "cost" prune = None)
      | _ -> Alcotest.fail "expected a two-element JSON array")

(* -------------------------------------------------------------- *)
(* Plan diff.                                                       *)
(* -------------------------------------------------------------- *)

let mk_kernel ?(name = "k") ?(loop = [ "i"; "j" ])
    ?(formats = [| T.Dense; T.Sparse_list |]) () : Physical.step =
  Physical.Kernel
    {
      Physical.name;
      loop_order = loop;
      agg_op = Galley_plan.Op.Ident;
      agg_idxs = [];
      output_idxs = loop;
      output_dims = Array.make (List.length loop) 4;
      output_formats = formats;
      loop_dims = Array.make (List.length loop) 4;
      body = Physical.P_literal 1.0;
      accesses = [||];
      body_fill = 0.0;
      output_fill = 0.0;
      agg_space = 1.0;
    }

let test_diff_identical () =
  let p = [ mk_kernel (); mk_kernel ~name:"m" ~loop:[ "x" ] () ] in
  check_int "no changes" 0 (List.length (Diff.diff p p));
  check_string "summary" "identical" (Diff.summary (Diff.diff p p))

let test_diff_loop_reorder () =
  let before = [ mk_kernel ~loop:[ "i"; "j" ] () ] in
  let after = [ mk_kernel ~loop:[ "j"; "i" ] () ] in
  match Diff.diff before after with
  | [ Diff.Loop_order { kernel; before = b; after = a } ] ->
      check_string "kernel" "k" kernel;
      check_string "before order" "i,j" b;
      check_string "after order" "j,i" a;
      check_bool "summary names the flip" true
        (contains (Diff.summary (Diff.diff before after)) "loops [i,j]->[j,i]")
  | cs ->
      Alcotest.failf "expected one Loop_order change, got: %s"
        (Diff.summary cs)

let test_diff_format_change () =
  let before = [ mk_kernel ~formats:[| T.Dense; T.Sparse_list |] () ] in
  let after = [ mk_kernel ~formats:[| T.Dense; T.Hash |] () ] in
  match Diff.diff before after with
  | [ Diff.Formats { name; before = b; after = a } ] ->
      check_string "kernel" "k" name;
      check_bool "before formats" true (contains b "sparse");
      check_bool "after formats" true (contains a "hash")
  | cs ->
      Alcotest.failf "expected one Formats change, got: %s" (Diff.summary cs)

let test_diff_steps_and_kind () =
  let a = mk_kernel ~name:"a" () and b = mk_kernel ~name:"b" () in
  (match Diff.diff [ a ] [ a; b ] with
  | [ Diff.Step_added "b" ] -> ()
  | cs -> Alcotest.failf "expected Step_added b, got: %s" (Diff.summary cs));
  (match Diff.diff [ a; b ] [ a ] with
  | [ Diff.Step_removed "b" ] -> ()
  | cs -> Alcotest.failf "expected Step_removed b, got: %s" (Diff.summary cs));
  let t =
    Physical.Transpose
      {
        name = "a";
        source = "s";
        source_kind = `Input;
        perm = [| 1; 0 |];
        formats = [| T.Sparse_list; T.Sparse_list |];
      }
  in
  match Diff.diff [ a ] [ t ] with
  | [ Diff.Kind_changed "a" ] -> ()
  | cs -> Alcotest.failf "expected Kind_changed a, got: %s" (Diff.summary cs)

(* -------------------------------------------------------------- *)
(* Audit-report reduction over the committed fixture journal.       *)
(* -------------------------------------------------------------- *)

let test_audit_report_golden () =
  let samples = AR.load_dir "fixtures" in
  (* 4 parseable rows; the garbage line is skipped, not fatal *)
  check_int "samples loaded" 4 (List.length samples);
  let gs = AR.groups samples in
  (* (A, uniform) has a prediction but no actual -> no q-errors -> the
     group is dropped; (A, chain) and (B, chain) remain, sorted *)
  check_int "two groups" 2 (List.length gs);
  (match gs with
  | [ a; b ] ->
      check_string "group order" "A" a.AR.ar_query;
      check_string "group order" "B" b.AR.ar_query;
      check_int "A count" 2 a.AR.ar_count;
      (* q-errors 2 and 4: geo-mean sqrt(8), max 4, early half [2],
         late half [4]; corrections 20/10 and 10/40: geo sqrt(1/2) *)
      close "A geo q" (sqrt 8.0) a.AR.ar_geo_q;
      close "A max q" 4.0 a.AR.ar_max_q;
      close "A early q" 2.0 a.AR.ar_early_q;
      close "A late q" 4.0 a.AR.ar_late_q;
      close "A correction" (sqrt 0.5) a.AR.ar_correction;
      check_int "B count" 1 b.AR.ar_count;
      close "B geo q" 1.0 b.AR.ar_geo_q;
      close "B correction" 1.0 b.AR.ar_correction
  | _ -> Alcotest.fail "expected groups for (A,chain) and (B,chain)");
  let text = AR.render gs in
  check_bool "render has header" true (contains text "correction");
  check_bool "render lists A" true (contains text "A");
  match Json.parse (AR.to_json gs) with
  | Error msg -> Alcotest.failf "to_json not parseable: %s" msg
  | Ok j -> (
      match Option.bind (Json.member "groups" j) Json.to_list with
      | Some l -> check_int "json groups" 2 (List.length l)
      | None -> Alcotest.fail "missing groups array")

(* -------------------------------------------------------------- *)
(* Prometheus HELP lines and the p99.9 snapshot column.              *)
(* -------------------------------------------------------------- *)

let test_prometheus_help_and_p999 () =
  let h =
    Metrics.histogram "provtest.latency_us" ~help:"Provenance test histogram."
  in
  Metrics.observe h 100;
  let snap = Metrics.snapshot () in
  check_bool "p999 column present" true
    (List.mem_assoc "provtest.latency_us.p999" snap);
  let text = Metrics.dump_prometheus () in
  check_bool "declared HELP text used" true
    (contains text
       "# HELP galley_provtest_latency_us Provenance test histogram.");
  check_bool "HELP precedes TYPE" true
    (contains text
       "# HELP galley_provtest_latency_us Provenance test histogram.\n\
        # TYPE galley_provtest_latency_us histogram")

(* -------------------------------------------------------------- *)
(* Recording must not perturb plans or results (bit-for-bit).        *)
(* -------------------------------------------------------------- *)

let bits_equal (a : T.t) (b : T.t) : bool =
  T.dims a = T.dims b
  && Int64.bits_of_float (T.fill a) = Int64.bits_of_float (T.fill b)
  &&
  let fa = T.to_flat_dense a and fb = T.to_flat_dense b in
  Array.for_all2
    (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
    fa fb

let prop_provenance_identical =
  QCheck.Test.make
    ~name:"provenance on = provenance off (plans and outputs bit-for-bit)"
    ~count:25
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let prng = Prng.create seed in
      let fmt () =
        match Prng.int prng 4 with
        | 0 -> T.Dense
        | 1 -> T.Sparse_list
        | 2 -> T.Bytemap
        | _ -> T.Hash
      in
      let n1 = 4 + Prng.int prng 8 and n2 = 4 + Prng.int prng 8 in
      let a =
        T.random ~prng ~dims:[| n1; n2 |]
          ~formats:[| fmt (); fmt () |]
          ~density:(Prng.float_range prng 0.15 0.6)
          ()
      in
      let v =
        T.random ~prng ~dims:[| n2 |] ~formats:[| fmt () |]
          ~density:(Prng.float_range prng 0.2 0.7)
          ()
      in
      let source =
        match Prng.int prng 3 with
        | 0 -> "out = sum[j](A[i,j] * v[j])"
        | 1 -> "out = sum[i,j](sigmoid(A[i,j]) * v[j])"
        | _ -> "w = sum[j](A[i,j] * v[j])\nout = sum[i](w[i] * w[i])"
      in
      let inputs = [ ("A", a); ("v", v) ] in
      List.iter
        (fun backend ->
          List.iter
            (fun domains ->
              let run () =
                match
                  D.run_source_checked
                    ~config:
                      {
                        D.default_config with
                        D.kernel_backend = backend;
                        domains;
                      }
                    ~inputs source
                with
                | Ok r ->
                    (Physical.plan_to_string r.D.physical_plan,
                     D.output_of r "out")
                | Error e ->
                    QCheck.Test.fail_reportf "run failed: %s"
                      (Galley.Errors.to_string e)
              in
              Prov.disable ();
              Prov.reset ();
              let plan_off, off = run () in
              Prov.enable ();
              let plan_on, on = run () in
              let events = List.length (Prov.drain ()) in
              Prov.disable ();
              if events = 0 then
                QCheck.Test.fail_reportf
                  "enabled recorder captured no events";
              if plan_off <> plan_on then
                QCheck.Test.fail_reportf
                  "provenance changed the plan (backend %s, domains %d):\n\
                   off:\n%s\non:\n%s"
                  (match backend with
                  | Exec.Staged -> "staged"
                  | Exec.Interp -> "interp")
                  domains plan_off plan_on;
              if not (bits_equal off on) then
                QCheck.Test.fail_reportf
                  "provenance perturbed outputs (backend %s, domains %d)"
                  (match backend with
                  | Exec.Staged -> "staged"
                  | Exec.Interp -> "interp")
                  domains)
            [ 1; 4 ])
        [ Exec.Staged; Exec.Interp ];
      true)

let () =
  Alcotest.run "provenance"
    [
      ( "recorder",
        [
          Alcotest.test_case "gating and drain" `Quick test_recorder_gating;
          Alcotest.test_case "event json shape" `Quick test_event_json;
        ] );
      ( "plan-diff",
        [
          Alcotest.test_case "identical plans" `Quick test_diff_identical;
          Alcotest.test_case "loop reorder" `Quick test_diff_loop_reorder;
          Alcotest.test_case "format change" `Quick test_diff_format_change;
          Alcotest.test_case "steps and kind" `Quick test_diff_steps_and_kind;
        ] );
      ( "audit-report",
        [
          Alcotest.test_case "fixture golden" `Quick test_audit_report_golden;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "prometheus help and p999" `Quick
            test_prometheus_help_and_p999;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_provenance_identical ] );
    ]
