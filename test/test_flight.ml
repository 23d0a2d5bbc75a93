(* Observability-for-serve layer (PR 9): the flight-recorder ring
   (wrap-around, sequencing, JSONL schema), tail-based trace sampling
   (trigger priority, rolling-percentile slow detection, on-disk trace
   files, keep_all mode), Prometheus text exposition, the rotating
   telemetry journal, request-id log context, fixpoint iteration span
   attributes, and the property that leaving the recorder + sampler on
   is bit-for-bit invisible to results. *)

module T = Galley_tensor.Tensor
module Prng = Galley_tensor.Prng
module Obs = Galley_obs
module Trace = Galley_obs.Trace
module Metrics = Galley_obs.Metrics
module Log = Galley_obs.Log
module Flight = Galley_obs.Flight
module Sampler = Galley_obs.Sampler
module Journal = Galley_obs.Journal
module Json = Galley_obs.Json
module Exec = Galley_engine.Exec
module D = Galley.Driver
module Fix = Galley_fixpoint.Fixpoint

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                      *)
(* ------------------------------------------------------------------ *)

let test_ring_wrap_and_seq () =
  let fl = Flight.create ~capacity:3 () in
  check_int "capacity" 3 (Flight.capacity fl);
  for i = 1 to 5 do
    let r =
      Flight.note fl
        { (Flight.empty_record ~id:(Printf.sprintf "r%d" i) ~op:"query") with
          Flight.fl_total_us = i * 100 }
    in
    check_int "note assigns monotonic seq" i r.Flight.fl_seq
  done;
  check_int "total counts evictions too" 5 (Flight.total fl);
  let rs = Flight.records fl in
  check_int "ring holds only capacity" 3 (List.length rs);
  check_bool "oldest first, newest retained" true
    (List.map (fun r -> r.Flight.fl_seq) rs = [ 3; 4; 5 ]);
  check_string "ids survive the wrap" "r5"
    (List.nth rs 2).Flight.fl_id;
  Flight.clear fl;
  check_int "clear empties the ring" 0 (List.length (Flight.records fl));
  check_int "clear keeps the lifetime count" 5 (Flight.total fl)

let test_record_json_schema () =
  let r =
    {
      (Flight.empty_record ~id:"q \"quoted\"" ~op:"query") with
      Flight.fl_outcome = "error:injected_fault";
      fl_program = Flight.digest "y = sum[j](E[i,j])";
      fl_plan = Flight.digest "plan";
      fl_qos = "interactive";
      fl_rung = "greedy";
      fl_total_us = 1234;
      fl_iterations = 7;
      fl_replans = 2;
      fl_qerrors = [ ("uniform", 3.5); ("chain", Float.nan) ];
      fl_trace = "trace-0001-q.json";
    }
  in
  let fl = Flight.create ~capacity:4 () in
  let r = Flight.note fl r in
  let line = Flight.to_json r in
  match Json.parse line with
  | Error e -> Alcotest.failf "flight record is not valid JSON: %s\n%s" e line
  | Ok json ->
      let str k =
        Option.value ~default:"?"
          (Option.bind (Json.member k json) Json.to_string)
      in
      let num k =
        Option.map int_of_float
          (Option.bind (Json.member k json) Json.to_float)
      in
      check_string "id round-trips through escaping" "q \"quoted\"" (str "id");
      check_string "outcome" "error:injected_fault" (str "outcome");
      check_string "rung" "greedy" (str "rung");
      check_int "program digest is 12 hex chars" 12
        (String.length (str "program"));
      check_bool "seq assigned" true (num "seq" = Some 1);
      check_bool "iterations" true (num "iterations" = Some 7);
      check_bool "replans" true (num "replans" = Some 2);
      check_string "trace name" "trace-0001-q.json" (str "trace");
      (match Json.member "qerrors" json with
      | None -> Alcotest.fail "qerrors object missing"
      | Some q ->
          check_bool "finite q-error kept" true
            (Option.bind (Json.member "uniform" q) Json.to_float = Some 3.5);
          check_bool "nan q-error rendered null" true
            (match Json.member "chain" q with
            | Some Json.Null -> true
            | _ -> false));
      (* every schema field documented in DESIGN.md §15 is present *)
      List.iter
        (fun k ->
          check_bool (k ^ " present") true (Json.member k json <> None))
        [
          "seq"; "ts_us"; "id"; "op"; "outcome"; "program"; "plan"; "qos";
          "rung"; "queue_us"; "logical_us"; "physical_us"; "compile_us";
          "execute_us"; "total_us"; "compiles"; "kernels"; "cse_hits";
          "replans"; "iterations"; "qerrors"; "trace";
        ]

let test_write_jsonl () =
  let fl = Flight.create ~capacity:8 () in
  for i = 1 to 5 do
    ignore
      (Flight.note fl (Flight.empty_record ~id:(string_of_int i) ~op:"bind"))
  done;
  let path = Filename.temp_file "flight" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      check_int "write_jsonl returns the record count" 5
        (Flight.write_jsonl fl path);
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      check_int "five lines" 5 (List.length lines);
      List.iter
        (fun l ->
          match Json.parse l with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "bad JSONL line: %s\n%s" e l)
        lines)

(* ------------------------------------------------------------------ *)
(* Sampler                                                              *)
(* ------------------------------------------------------------------ *)

(* Run one request through the sampler, emitting [spans] spans. *)
let one_request sm ~id ~duration_us ~triggers ~spans =
  Sampler.begin_request sm;
  for i = 1 to spans do
    Obs.span ~name:(Printf.sprintf "work%d" i) (fun () -> ())
  done;
  Sampler.end_request sm ~id ~duration_us ~triggers

(* A retained trace file's events. *)
let trace_events path : Json.t list =
  let s = In_channel.with_open_bin path In_channel.input_all in
  match Json.parse s with
  | Error e -> Alcotest.failf "%s: %s" path e
  | Ok json -> (
      match Option.bind (Json.member "traceEvents" json) Json.to_list with
      | Some evs -> evs
      | None -> Alcotest.failf "%s has no traceEvents" path)

let test_trigger_retention () =
  let was_on = Trace.enabled () in
  let dir = temp_dir "sampler" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sm = Sampler.create ~dir () in
  (* boring request below min_window: dropped *)
  let d = one_request sm ~id:"fine" ~duration_us:100 ~triggers:[] ~spans:2 in
  check_bool "uninteresting request dropped" false d.Sampler.kept;
  check_string "no reason" "" d.Sampler.reason;
  (* errored request: retained regardless of timing history *)
  let d =
    one_request sm ~id:"bad/id" ~duration_us:100
      ~triggers:[ "error"; "slow" ] ~spans:3
  in
  check_bool "errored request kept" true d.Sampler.kept;
  check_string "first trigger wins" "error" d.Sampler.reason;
  check_string "filename sanitized" "trace-0001-bad_id.json"
    d.Sampler.trace_name;
  check_bool "only the retained request was written" true
    (Sys.readdir dir = [| d.Sampler.trace_name |]);
  let evs = trace_events (Filename.concat dir d.Sampler.trace_name) in
  check_int "spans captured" 3 (List.length evs);
  check_bool "only this request's spans" true
    (List.for_all
       (fun e ->
         match Option.bind (Json.member "name" e) Json.to_string with
         | Some n -> String.length n >= 4 && String.sub n 0 4 = "work"
         | None -> false)
       evs);
  check_bool "sampler restores prior trace state" true
    (Trace.enabled () = was_on)

let test_slow_percentile () =
  let sm = Sampler.create ~min_window:8 ~percentile:0.9 () in
  (* a stable baseline of fast requests... *)
  for i = 1 to 20 do
    let d =
      one_request sm ~id:(Printf.sprintf "fast%d" i) ~duration_us:100
        ~triggers:[] ~spans:1
    in
    check_bool "baseline not retained" false d.Sampler.kept
  done;
  (match Sampler.slow_threshold sm with
  | None -> Alcotest.fail "threshold should exist after 20 samples"
  | Some th -> check_int "threshold is the baseline" 100 th);
  (* ...then one outlier: caught on its own completion, because the
     threshold is computed before the current duration enters the
     window *)
  let d =
    one_request sm ~id:"outlier" ~duration_us:50_000 ~triggers:[] ~spans:1
  in
  check_bool "outlier retained" true d.Sampler.kept;
  check_string "reason is slow" "slow" d.Sampler.reason

let test_retained_trace_files () =
  let dir = temp_dir "sampler" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let sm = Sampler.create ~dir () in
      for i = 1 to 4 do
        ignore
          (one_request sm ~id:(Printf.sprintf "e%d" i) ~duration_us:10
             ~triggers:[ "error" ] ~spans:1)
      done;
      (* every retained trace is written to the directory, named by its
         retention ordinal and request id, as a parseable Chrome trace *)
      let files =
        List.sort compare
          (List.filter
             (fun f -> Filename.check_suffix f ".json")
             (Array.to_list (Sys.readdir dir)))
      in
      Alcotest.(check (list string))
        "all four written to disk"
        [ "trace-0001-e1.json"; "trace-0002-e2.json"; "trace-0003-e3.json";
          "trace-0004-e4.json" ]
        files;
      List.iter
        (fun f ->
          check_int (f ^ " holds its request's span") 1
            (List.length (trace_events (Filename.concat dir f))))
        files)

let test_keep_all_mode () =
  let sm = Sampler.create ~keep_all:true () in
  ignore (one_request sm ~id:"a" ~duration_us:10 ~triggers:[] ~spans:2);
  ignore (one_request sm ~id:"b" ~duration_us:10 ~triggers:[ "error" ] ~spans:3);
  let path = Filename.temp_file "keepall" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* keep_all accumulates both the dropped and the retained request *)
      check_int "write_all sees every span" 5 (Sampler.write_all sm path);
      let ic = open_in path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check_bool "whole-run trace parses" true
        (match Json.parse s with Ok _ -> true | Error _ -> false))

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                                *)
(* ------------------------------------------------------------------ *)

let test_prometheus_text () =
  let c = Metrics.counter "test.prom.counter" in
  Metrics.add c 7;
  let g = Metrics.gauge "test.prom.gauge" in
  Metrics.set_gauge g 1.5;
  let h = Metrics.histogram "test.prom.hist" in
  List.iter (Metrics.observe h) [ 1; 1; 3; 200 ];
  let text = Metrics.dump_prometheus () in
  let has needle =
    let n = String.length needle and l = String.length text in
    let rec go i = i + n <= l && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  (* names are sanitized into the galley_ namespace *)
  check_bool "counter line" true (has "galley_test_prom_counter 7\n");
  check_bool "counter TYPE" true
    (has "# TYPE galley_test_prom_counter counter\n");
  check_bool "gauge line" true (has "galley_test_prom_gauge 1.5\n");
  (* power-of-two buckets are cumulative: 1,1 -> le=1 is 2; 3 -> le=3
     is 3; 200 lands in le=255 with cumulative 4 *)
  check_bool "bucket le=1" true (has "galley_test_prom_hist_bucket{le=\"1\"} 2\n");
  check_bool "bucket le=3" true (has "galley_test_prom_hist_bucket{le=\"3\"} 3\n");
  check_bool "bucket le=255" true
    (has "galley_test_prom_hist_bucket{le=\"255\"} 4\n");
  check_bool "+Inf equals count" true
    (has "galley_test_prom_hist_bucket{le=\"+Inf\"} 4\n");
  check_bool "sum" true (has "galley_test_prom_hist_sum 205\n");
  check_bool "count" true (has "galley_test_prom_hist_count 4\n");
  (* no raw dots escape the sanitizer *)
  check_bool "no unsanitized names" true (not (has "test.prom"))

(* ------------------------------------------------------------------ *)
(* Journal                                                              *)
(* ------------------------------------------------------------------ *)

let test_journal_rotation () =
  let dir = temp_dir "journal" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (* max_bytes clamps at 4096, so ~60 100-byte lines force at least
         one rotation *)
      let j = Journal.create ~dir ~max_bytes:1 () in
      let line = Printf.sprintf "{\"pad\":\"%s\"}" (String.make 88 'x') in
      for _ = 1 to 60 do
        Journal.append j ~file:"t.jsonl" line
      done;
      let path = Filename.concat dir "t.jsonl" in
      check_bool "live file exists" true (Sys.file_exists path);
      check_bool "rotated generation exists" true
        (Sys.file_exists (path ^ ".1"));
      check_bool "live file within cap" true
        ((Unix.stat path).Unix.st_size <= 4096);
      (* snapshot and audit_rows produce their conventional streams *)
      Journal.snapshot j;
      let ic = open_in (Filename.concat dir "metrics.jsonl") in
      let l = input_line ic in
      close_in ic;
      match Json.parse l with
      | Error e -> Alcotest.failf "snapshot line: %s" e
      | Ok json ->
          check_bool "snapshot has ts_us" true (Json.member "ts_us" json <> None);
          check_bool "snapshot embeds the registry" true
            (Json.member "metrics" json <> None))

(* ------------------------------------------------------------------ *)
(* Log context                                                          *)
(* ------------------------------------------------------------------ *)

let test_log_context_prefix () =
  let saved = Log.get_level () in
  let buf = ref [] in
  Log.set_sink (Some (fun _ m -> buf := m :: !buf));
  Log.set_level Log.Info;
  Log.set_context (Some "req-42");
  Log.info "with context";
  Log.set_context None;
  Log.info "without context";
  Log.set_level saved;
  Log.set_sink None;
  match List.rev !buf with
  | [ a; b ] ->
      check_bool "context prefixes the line" true
        (String.length a >= 9 && String.sub a 0 9 = "[req-42] ");
      check_bool "cleared context leaves lines bare" true
        (String.length b < 1 || b.[0] <> '[')
  | l -> Alcotest.failf "expected 2 sink messages, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Fixpoint iteration spans                                             *)
(* ------------------------------------------------------------------ *)

let test_fixpoint_iter_spans () =
  let was_on = Trace.enabled () in
  Trace.reset ();
  Trace.enable ();
  (match
     Fix.run_source_checked
       ~inputs:[ ("X", T.scalar 0.0) ]
       "X = iterate 3 { X := X + 1.0 }"
   with
  | Error e -> Alcotest.failf "fixpoint run failed: %s" (Galley.Errors.to_string e)
  | Ok _ -> ());
  let evs = Trace.drain () in
  if not was_on then Trace.disable ();
  let iters =
    List.filter (fun e -> e.Trace.ev_name = "fixpoint_iter:X") evs
  in
  check_int "one span per iteration" 3 (List.length iters);
  List.iter
    (fun e ->
      List.iter
        (fun k ->
          check_bool
            (Printf.sprintf "iteration span has %s attr" k)
            true
            (List.mem_assoc k e.Trace.ev_args))
        [ "iter"; "delta"; "replanned"; "compiles" ];
      check_string "straight 3-iteration loop never replans" "false"
        (List.assoc "replanned" e.Trace.ev_args))
    iters;
  let ord =
    List.sort compare
      (List.map (fun e -> List.assoc "iter" e.Trace.ev_args) iters)
  in
  check_bool "iterations numbered 1..3" true (ord = [ "1"; "2"; "3" ])

(* ------------------------------------------------------------------ *)
(* Recorder + sampler on must not perturb results                       *)
(* ------------------------------------------------------------------ *)

let bits_equal (a : T.t) (b : T.t) : bool =
  T.dims a = T.dims b
  && Int64.bits_of_float (T.fill a) = Int64.bits_of_float (T.fill b)
  &&
  let fa = T.to_flat_dense a and fb = T.to_flat_dense b in
  Array.for_all2
    (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
    fa fb

let prop_recorder_identical =
  QCheck.Test.make
    ~name:"recorder+sampler on = off (bit-for-bit)" ~count:20
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
                | Ok r -> D.output_of r "out"
                | Error e ->
                    QCheck.Test.fail_reportf "run failed: %s"
                      (Galley.Errors.to_string e)
              in
              (* plain run, no observability in the path *)
              let trace_was_on = Trace.enabled () in
              Trace.disable ();
              let off = run () in
              (* the serve-shaped path: sampler brackets the run (which
                 force-enables tracing), and a flight record is noted *)
              let fl = Flight.create ~capacity:4 () in
              let sm = Sampler.create () in
              Sampler.begin_request sm;
              let on = run () in
              let d =
                Sampler.end_request sm ~id:"prop" ~duration_us:10
                  ~triggers:[ "error" ]
              in
              ignore (Flight.note fl (Flight.empty_record ~id:"prop" ~op:"query"));
              if trace_was_on then Trace.enable ();
              if not d.Sampler.kept then
                QCheck.Test.fail_report "trigger should have retained";
              if not (bits_equal off on) then
                QCheck.Test.fail_reportf
                  "recorder+sampler perturbed outputs (backend %s, domains %d)"
                  (match backend with
                  | Exec.Staged -> "staged"
                  | Exec.Interp -> "interp")
                  domains)
            [ 1; 4 ])
        [ Exec.Staged; Exec.Interp ];
      true)

let () =
  Alcotest.run "flight"
    [
      ( "flight",
        [
          Alcotest.test_case "ring wrap and sequencing" `Quick
            test_ring_wrap_and_seq;
          Alcotest.test_case "record JSON schema" `Quick test_record_json_schema;
          Alcotest.test_case "write_jsonl dump" `Quick test_write_jsonl;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "trigger retention and priority" `Quick
            test_trigger_retention;
          Alcotest.test_case "rolling-percentile slow trigger" `Quick
            test_slow_percentile;
          Alcotest.test_case "retained traces written as files" `Quick
            test_retained_trace_files;
          Alcotest.test_case "keep_all whole-run mode" `Quick
            test_keep_all_mode;
        ] );
      ( "prometheus",
        [ Alcotest.test_case "text exposition" `Quick test_prometheus_text ] );
      ( "journal",
        [ Alcotest.test_case "rotation and streams" `Quick test_journal_rotation ]
      );
      ( "log",
        [ Alcotest.test_case "request-id context prefix" `Quick
            test_log_context_prefix ] );
      ( "fixpoint",
        [
          Alcotest.test_case "iteration spans carry attrs" `Quick
            test_fixpoint_iter_spans;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_recorder_identical ] );
    ]
