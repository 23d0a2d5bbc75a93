(* serve_mixed: a `galley serve` daemon in its own process, driven over its
   Unix socket by one closed-loop client connection with a seeded request
   stream over resident sparse matrices A, B, C and a vector x:

   - write:     bind a new version of x (bind-time statistics);
   - dependent: y = M x for M in {A, B, C}, each at most once per version
                of x (CSE miss, kernel-cache hit);
   - repeat:    a fixed scalar reduction over the matrices (CSE hit);
   - novel:     a three-matrix chain times x, scaled by a literal never
                sent before (cold plan and kernels, CSE miss).

   Writes and repeats (the sub-millisecond classes) are kept near 30% of
   requests, so p50 falls inside the dependent class and p90 inside the
   novel one.  The stream is a fixed pattern of requests drawn from the
   seed; every round re-instantiates it with fresh x versions and
   literals.  Responses are checked against an in-process driver session
   (CSE off) on tensors rebuilt from the same specs with
   [Protocol.random_of_spec]. *)

module D = Galley.Driver
module T = Galley_tensor.Tensor
module Prng = Galley_tensor.Prng
module P = Galley_serve.Protocol
module C = Galley_serve.Client
module Json = Galley_obs.Json

type scale = { n : int; density : float; x_density : float }

let default_scale = { n = 3000; density = 0.003; x_density = 0.5 }

type cls = Write | Dependent | Repeat | Novel

let classes = [ Write; Dependent; Repeat; Novel ]

let class_name = function
  | Write -> "write"
  | Dependent -> "dependent"
  | Repeat -> "repeat"
  | Novel -> "novel"

let matrices = [ "A"; "B"; "C" ]

let matrix_spec (sc : scale) ~(seed : int) (k : int) =
  Printf.sprintf "%dx%d:%g:%d" sc.n sc.n sc.density ((seed * 64) + k)

let x_spec (sc : scale) ~(seed : int) (version : int) =
  Printf.sprintf "%d:%g:%d" sc.n sc.x_density ((seed * 1_000_003) + 100 + version)

let dependent_src m = Printf.sprintf "y%s[i] = sum[j](%s[i,j] * x[j])" m m

let repeat_srcs = [ "r1 = sum[i,j](A[i,j] * B[i,j])"; "r2 = sum[i,j](C[i,j])" ]

let novel_src (m1, m2, m3) (c : float) =
  Printf.sprintf "n%s%s%s[i] = %.9f * sum[j,k,l](%s[i,j] * %s[j,k] * %s[k,l] * x[l])"
    m1 m2 m3 c m1 m2 m3

let novel_chains = [ ("A", "B", "C"); ("B", "C", "A"); ("C", "A", "B") ]

type slot =
  | S_write
  | S_dep of string
  | S_repeat of string
  | S_novel of (string * string * string)

(* One round: [episodes] writes, each followed by the three dependent
   queries in a seeded order (so every dependent query misses CSE), plus
   [repeats] repeat and [novels] novel queries; the units are shuffled by
   the seed.  The class shares are the same for every seed. *)
let episodes = 8
let repeats = 10
let novels = 18

let pattern ~(seed : int) : slot list =
  let prng = Prng.create ((seed * 7919) + 17) in
  let cycle l k = List.nth l (k mod List.length l) in
  let shuffle l =
    let a = Array.of_list l in
    Prng.shuffle prng a;
    Array.to_list a
  in
  let units =
    List.init episodes (fun _ -> S_write :: List.map (fun m -> S_dep m) (shuffle matrices))
    @ List.init repeats (fun k -> [ S_repeat (cycle repeat_srcs k) ])
    @ List.init novels (fun k -> [ S_novel (cycle novel_chains k) ])
  in
  List.concat (shuffle units)

type req = {
  cls : cls;
  line : string;  (** the protocol request *)
  src : string option;  (** query program *)
  x_version : string;  (** spec of the x in effect when it runs *)
}

(* Round [r] of the stream: fresh x versions and literals.  [x] holds
   the spec of the x in effect and is advanced by the round's writes. *)
let instantiate (sc : scale) ~(seed : int) ~(x : string ref) (pat : slot list)
    (r : int) : req list =
  List.mapi
    (fun k slot ->
      let ordinal = (r * List.length pat) + k in
      let query cls src =
        { cls; line = P.encode_query src; src = Some src; x_version = !x }
      in
      match slot with
      | S_write ->
          x := x_spec sc ~seed ordinal;
          {
            cls = Write;
            line = P.encode_bind_random ~name:"x" !x;
            src = None;
            x_version = !x;
          }
      | S_dep m -> query Dependent (dependent_src m)
      | S_repeat src -> query Repeat src
      | S_novel chain ->
          query Novel (novel_src chain (1.0 +. (float_of_int (ordinal + 1) *. 1e-7))))
    pat

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; conn : C.t }

let live : int list ref = ref []

(* Stop a daemon that is still running (error paths, exit). *)
let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_live

let request (d : daemon) (line : string) : string =
  match C.request d.conn line with
  | Ok resp -> resp
  | Error e -> failwith ("serve_mixed: request failed: " ^ e)

let start ~(galley : string) ~(socket : string) : daemon =
  (try Sys.remove socket with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process galley
      [| galley; "serve"; "--socket"; socket |]
      null null Unix.stderr
  in
  Unix.close null;
  live := pid :: !live;
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec connect () =
    match C.connect socket with
    | Ok conn -> conn
    | Error e ->
        if Unix.gettimeofday () > deadline then
          failwith ("serve_mixed: daemon did not come up: " ^ e);
        Unix.sleepf 0.005;
        connect ()
  in
  let d = { pid; conn = connect () } in
  (match C.decode (request d (P.encode_health ())) with
  | Ok (true, _) -> ()
  | _ -> failwith "serve_mixed: health check failed");
  d

let stop (d : daemon) : unit =
  ignore (C.request d.conn (P.encode_shutdown ()));
  C.close d.conn;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (( <> ) d.pid) !live

(* ------------------------------------------------------------------ *)
(* Running the stream                                                  *)
(* ------------------------------------------------------------------ *)

type sample = {
  req : req;
  round : int;
  rtt : float;  (** raw round trip *)
  response : string;
}

let ok_response (resp : string) =
  match C.decode resp with Ok (true, json) -> Some json | _ -> None

let run_req ?(round = -1) (d : daemon) (req : req) : sample =
  let t0 = Unix.gettimeofday () in
  let response = request d req.line in
  { req; round; rtt = Unix.gettimeofday () -. t0; response }

let bind (d : daemon) (name : string) (spec : string) =
  match ok_response (request d (P.encode_bind_random ~name spec)) with
  | Some _ -> ()
  | None -> failwith ("serve_mixed: bind failed: " ^ name)

(* Tensors rebuilt from their specs, as the daemon built them. *)
let tensor_of_spec (spec : string) : T.t =
  match P.random_of_spec spec with
  | Ok t -> t
  | Error e -> failwith ("serve_mixed: " ^ e)

let total_s (json : Json.t) : float option =
  Option.bind (Json.member "timings" json) (fun t ->
      Option.bind (Json.member "total_s" t) Json.to_float)

(* The reference: a driver session in this process, CSE off so that no
   result is replayed, over tensors rebuilt from the daemon's specs. *)
type reference = {
  session : D.Session.session;
  mutable x_bound : string;
  repeats : (string, T.t) Hashtbl.t;  (** repeat programs, computed once *)
}

let reference ~(residents : (string * T.t) list) : reference =
  let session = D.Session.create ~config:{ D.default_config with D.cse = false } () in
  List.iter (fun (n, x) -> D.Session.bind session n x) residents;
  { session; x_bound = ""; repeats = Hashtbl.create 4 }

let reference_output (r : reference) (s : sample) (src : string) : T.t =
  let run () =
    if r.x_bound <> s.req.x_version then begin
      D.Session.bind r.session "x" (tensor_of_spec s.req.x_version);
      r.x_bound <- s.req.x_version
    end;
    match (D.Session.run_program r.session (Galley_lang.Parser.parse_program src)).D.outputs with
    | (_, _, t) :: _ -> t
    | [] -> failwith ("serve_mixed: reference produced no output for " ^ src)
  in
  if s.req.cls <> Repeat then run ()
  else
    match Hashtbl.find_opt r.repeats src with
    | Some t -> t
    | None ->
        let t = run () in
        Hashtbl.replace r.repeats src t;
        t

(* A response against the reference: every returned entry matches and
   the entry count equals the reference's nnz. *)
let check_response (r : reference) (s : sample) : string option =
  match (ok_response s.response, s.req.src) with
  | None, _ -> Some ("error response: " ^ s.response)
  | Some _, None -> None
  | Some json, Some src -> (
      match reference_output r s src with
      | exception e -> Some ("reference run failed: " ^ Printexc.to_string e)
      | want -> (
          match Option.bind (Json.member "outputs" json) Json.to_list with
          | Some [ out ] -> (
              let entries =
                Option.value ~default:[]
                  (Option.bind (Json.member "entries" out) Json.to_list)
              in
              let bad = ref None in
              List.iter
                (fun e ->
                  match Option.map (List.map Json.to_float) (Json.to_list e) with
                  | Some vals when List.for_all Option.is_some vals ->
                      let vals = Array.of_list (List.map Option.get vals) in
                      let k = Array.length vals - 1 in
                      let c = Array.init k (fun i -> int_of_float vals.(i)) in
                      if !bad = None && not (Check.close vals.(k) (T.get want c))
                      then
                        bad :=
                          Some
                            (Printf.sprintf "%s: %.17g vs reference %.17g" src
                               vals.(k) (T.get want c))
                  | _ -> bad := Some (src ^ ": malformed entry"))
                entries;
              match !bad with
              | Some _ as b -> b
              | None ->
                  if List.length entries = T.nnz want then None
                  else
                    Some
                      (Printf.sprintf "%s: %d entries vs reference nnz %d" src
                         (List.length entries) (T.nnz want)))
          | _ -> Some (src ^ ": expected one output")))

type instance = {
  scale : scale;
  seed : int;
  pat : slot list;
  mutable round : int;  (** next round to instantiate *)
  x : string ref;  (** spec of the x in effect *)
}

let make ?(scale = default_scale) ~(seed : int) () : instance =
  { scale; seed; pat = pattern ~seed; round = 0; x = ref (x_spec scale ~seed (-1)) }

let next_round (i : instance) : req list =
  let reqs = instantiate i.scale ~seed:i.seed ~x:i.x i.pat i.round in
  i.round <- i.round + 1;
  reqs

(* Daemon start to first healthy reply, resident binds, one untimed
   round that sends every repeat program (so later repeats hit CSE). *)
let setup ~galley ~socket (i : instance) : daemon =
  let d = start ~galley ~socket in
  List.iteri (fun k m -> bind d m (matrix_spec i.scale ~seed:i.seed k)) matrices;
  bind d "x" !(i.x);
  List.iter (fun r -> ignore (run_req d r)) (next_round i);
  List.iter
    (fun src -> ignore (request d (P.encode_query src)))
    repeat_srcs;
  d

let shares (pat : slot list) : (string * float) list =
  let n = float_of_int (List.length pat) in
  List.map
    (fun c ->
      ( class_name c,
        float_of_int
          (List.length
             (List.filter
                (fun s ->
                  match (s, c) with
                  | S_write, Write | S_dep _, Dependent | S_repeat _, Repeat
                  | S_novel _, Novel ->
                      true
                  | _ -> false)
                pat))
        /. n ))
    classes

type stream = {
  samples : sample list;
  factors : float array;  (** per round; host probes run around each *)
  peaks : float list;  (** the daemon's peak RSS in each round, MB *)
}

(* Closed loop over whole rounds until [seconds] is spent.  A round is
   short next to the host's speed changes, so one pair of host probes
   around it suffices. *)
let run_stream ~(seconds : float) (d : daemon) (i : instance) : stream =
  let samples = ref [] and factors = ref [] and peaks = ref [] in
  let pid = string_of_int d.pid in
  Batch.until_spent ~seconds (fun round ->
      Report.reset_peak_rss ~pid ();
      let (), factor =
        Host.around (fun () ->
            List.iter (fun r -> samples := run_req ~round d r :: !samples) (next_round i))
      in
      peaks := Report.peak_rss_mb ~pid () :: !peaks;
      factors := factor :: !factors);
  {
    samples = List.rev !samples;
    factors = Array.of_list (List.rev !factors);
    peaks = !peaks;
  }

(* Check every response; returns (attempted, failed). *)
let check_all (i : instance) (samples : sample list) : int * int =
  let residents =
    List.mapi (fun k m -> (m, tensor_of_spec (matrix_spec i.scale ~seed:i.seed k))) matrices
  in
  let r = reference ~residents in
  let failed = ref 0 in
  List.iter
    (fun s ->
      match check_response r s with
      | None -> ()
      | Some msg ->
          incr failed;
          Printf.eprintf "serve_mixed %s: %s\n%!" (class_name s.req.cls) msg)
    samples;
  (List.length samples, !failed)

let by_class (samples : sample list) (c : cls) : sample list =
  List.filter (fun s -> s.req.cls = c) samples

(* End-to-end metrics from the timed stream, host-normalized.  A round's
   time is the sum of its round trips. *)
let end_to_end (st : stream) : (string * float) list =
  let samples = st.samples and factors = st.factors in
  let norm (s : sample) = s.rtt *. factors.(s.round) in
  let rtts = List.map norm samples in
  let rounds = Array.make (Array.length factors) 0.0 in
  let raw_rounds = Array.make (Array.length factors) 0.0 in
  List.iter
    (fun (s : sample) ->
      rounds.(s.round) <- rounds.(s.round) +. norm s;
      raw_rounds.(s.round) <- raw_rounds.(s.round) +. s.rtt)
    samples;
  let rounds = Array.to_list rounds and raw_rounds = Array.to_list raw_rounds in
  Batch.report_host (Array.to_list factors);
  let class_medians =
    List.map
      (fun c ->
        let xs = List.map norm (by_class samples c) in
        Report.info "class %s: n=%d median=%.6f s" (class_name c)
          (List.length xs) (Stats.median xs);
        Stats.median xs)
      classes
  in
  let p90 =
    match Stats.tail_percentile rtts 0.9 with
    | Ok v -> v
    | Error msg -> failwith ("latency_p90_s: " ^ msg)
  in
  Report.info "requests: n=%d p50=%.6f s p90=%.6f s (%d above p90)"
    (List.length rtts) (Stats.median rtts) p90 (Stats.count_above rtts p90);
  Report.info "rounds: n=%d median=%.6f s (raw %.6f s)" (List.length rounds)
    (Stats.median rounds) (Stats.median raw_rounds);
  Report.info "peak_rss_mb (daemon): median=%.1f MB max=%.1f MB (n=%d rounds)"
    (Stats.median st.peaks) (Stats.quantile st.peaks 1.0) (List.length st.peaks);
  [
    ("wall_s", Stats.median rounds);
    ("op_geomean_s", Stats.geomean class_medians);
    ("latency_p50_s", Stats.median rtts);
    ("latency_p90_s", p90);
  ]

(* The traced run: the timed samples' requests replayed in process
   through the traced pipeline, one op instance per request, paired with
   their untraced round trips.  Returns traced records per class. *)
let replay ~(config : D.config) (spans : Spans.t) (i : instance)
    (samples : sample list) : (string * Batch.traced list) list =
  let residents =
    List.mapi (fun k m -> (m, tensor_of_spec (matrix_spec i.scale ~seed:i.seed k))) matrices
  in
  let first_x =
    match samples with
    | s :: _ -> s.req.x_version
    | [] -> invalid_arg "serve_mixed: nothing to replay"
  in
  let inputs = ("x", tensor_of_spec first_x) :: residents in
  let p = Pipeline.create ~config ~spans ~op:"setup" inputs in
  Pipeline.bind_probes p inputs;
  (* Prime CSE with the repeat programs, as the daemon's set-up did. *)
  List.iter
    (fun src ->
      ignore (Pipeline.run_program p ~op:"setup" (Galley_lang.Parser.parse_program src)))
    repeat_srcs;
  let acc = Hashtbl.create 4 in
  List.iteri
    (fun k s ->
      let op = Printf.sprintf "%s#%d" (class_name s.req.cls) k in
      let pipeline_s =
        Option.bind (ok_response s.response) total_s
      in
      (match s.req.src with
      | None ->
          let x =
            Spans.span spans ~op "op" (fun () ->
                let x = tensor_of_spec s.req.x_version in
                Pipeline.rebind p ~op ~layer:"stats.build" "x" x;
                x)
          in
          Pipeline.bind_probes p [ ("x", x) ]
      | Some src ->
          let plan =
            Spans.span spans ~op "op" (fun () ->
                let program =
                  Spans.span spans ~op "lang.parse" (fun () ->
                      Galley_lang.Parser.parse_program src)
                in
                snd (Pipeline.run_program p ~op program))
          in
          Pipeline.probe p ~op plan);
      let sp = Spans.of_op spans op in
      let overhead =
        match pipeline_s with Some t -> [ ("serve.overhead_s", s.rtt -. t) ] | None -> []
      in
      let tr =
        {
          Batch.op_s = s.rtt;
          traced_s = Spans.root_time sp "op";
          layers = Pipeline.layer_times sp @ overhead;
          extra =
            ("parallel.overhead_s", Pipeline.parallel_overhead sp)
            :: (match pipeline_s with
               | Some t -> [ ("serve.pipeline_s", t) ]
               | None -> []);
          counts = Spans.counts sp "op";
          check = None;
        }
      in
      let name = class_name s.req.cls in
      Hashtbl.replace acc name
        (tr :: Option.value ~default:[] (Hashtbl.find_opt acc name)))
    samples;
  Pipeline.shutdown p;
  List.filter_map
    (fun c ->
      Option.map
        (fun trs -> (class_name c, List.rev trs))
        (Hashtbl.find_opt acc (class_name c)))
    classes
