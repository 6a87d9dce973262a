(* Telemetry (lib/obs) tests: span nesting, counter monotonicity,
   distribution percentiles, snapshot determinism across identical flow
   runs, and the paper's linear-complexity claim for slack passes
   (relaxation work = 2.E per analysis, vs the Bellman-Ford baseline's
   dynamic edge-scan count). *)

let lookup name snap = Option.value ~default:0 (List.assoc_opt name snap)

(* Counter deltas caused by [f], from the global cumulative snapshot. *)
let deltas f =
  let before = Obs.counters_snapshot () in
  let x = f () in
  let after = Obs.counters_snapshot () in
  let d =
    List.filter_map
      (fun (name, v) ->
        let dv = v - lookup name before in
        if dv <> 0 then Some (name, dv) else None)
      after
  in
  (x, d)

let test_counter_monotone () =
  let c = Obs.counter "test.obs.monotone" in
  let v0 = Obs.value c in
  Obs.incr c;
  Obs.add c 41;
  Alcotest.(check int) "incr/add accumulate" (v0 + 42) (Obs.value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Obs.add: counters are monotone") (fun () ->
      Obs.add c (-1));
  Alcotest.(check int) "value unchanged after rejected add" (v0 + 42)
    (Obs.value c);
  let c' = Obs.counter "test.obs.monotone" in
  Obs.incr c';
  Alcotest.(check int) "same name -> same interned counter" (v0 + 43)
    (Obs.value c)

let test_dist_percentiles () =
  let d = Obs.dist "test.obs.percentiles" in
  Alcotest.(check bool) "empty dist has no stats" true (Obs.dist_stats d = None);
  for i = 1 to 100 do
    Obs.observe d (float_of_int i)
  done;
  match Obs.dist_stats d with
  | None -> Alcotest.fail "stats expected after 100 observations"
  | Some s ->
    Alcotest.(check int) "n" 100 s.Obs.n;
    Alcotest.(check (float 1e-9)) "min" 1.0 s.Obs.dmin;
    Alcotest.(check (float 1e-9)) "max" 100.0 s.Obs.dmax;
    Alcotest.(check (float 1e-9)) "mean" 50.5 s.Obs.mean;
    Alcotest.(check (float 1e-9)) "p50" 50.0 s.Obs.p50;
    Alcotest.(check (float 1e-9)) "p95" 95.0 s.Obs.p95

let test_span_nesting () =
  Obs.enable_stats ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let v =
    Obs.span "test.outer" (fun () ->
        let a = Obs.span "test.inner" (fun () -> 20) in
        let b = Obs.span "test.inner" (fun () -> 1) in
        a + b + Obs.span "test.other" (fun () -> 21))
  in
  Alcotest.(check int) "span returns the body's value" 42 v;
  let rows = Obs.Prof.rows () in
  let count path =
    List.fold_left
      (fun acc r ->
        if String.equal r.Obs.Prof.path path then acc + r.Obs.Prof.calls else acc)
      0 rows
  in
  Alcotest.(check int) "outer span recorded" 1 (count "test.outer");
  Alcotest.(check int) "inner spans aggregate under their parent path" 2
    (count "test.outer/test.inner");
  Alcotest.(check int) "sibling path distinct" 1 (count "test.outer/test.other");
  Alcotest.(check int) "no bare inner path" 0 (count "test.inner")

let test_span_disabled () =
  Obs.disable ();
  Alcotest.(check bool) "not collecting by default" false (Obs.collecting ());
  let v = Obs.span "test.off" (fun () -> 7) in
  Alcotest.(check int) "disabled span still runs the body" 7 v

let idct_design () =
  let d = Idct.build ~latency:12 ~passes:1 () in
  Hls.design ~name:"idct" ~clock:2500.0 d.Idct.dfg

let test_snapshot_determinism () =
  let run () =
    match Hls.run Flows.Slack_based (idct_design ()) with
    | Ok r -> r
    | Error e -> Alcotest.fail (Flows.error_message e)
  in
  let r1, d1 = deltas run in
  let r2, d2 = deltas run in
  Alcotest.(check (float 1e-9))
    "identical runs produce identical areas" (Hls.total_area r1)
    (Hls.total_area r2);
  Alcotest.(check (list (pair string int)))
    "identical runs produce identical counter deltas" d1 d2;
  Alcotest.(check bool) "the run bumps slack.analyses" true
    (lookup "slack.analyses" d1 > 0);
  Alcotest.(check bool) "the run bumps sched.placements" true
    (lookup "sched.placements" d1 > 0)

(* Paper §IV-V: one slack analysis is two linear passes, each relaxing
   every timed-DFG edge exactly once — so the relaxation counter must grow
   as 2.E per analysis, at every design size.  The Bellman-Ford baseline's
   dynamically counted edge scans can only be >= that. *)
let test_slack_pass_linearity () =
  List.iter
    (fun n ->
      let profile =
        { Random_design.default_profile with min_ops = n; max_ops = n }
      in
      let d = Random_design.generate ~profile ~seed:(7 * n) () in
      let spans = Dfg.compute_spans d.Random_design.dfg in
      let tdfg = Timed_dfg.build d.Random_design.dfg ~spans in
      let e = Timed_dfg.edge_count tdfg in
      let del _ = 100.0 in
      let analyses = 3 in
      let (), dl =
        deltas (fun () ->
            for _ = 1 to analyses do
              ignore (Slack.analyze ~aligned:true tdfg ~clock:d.Random_design.suggested_clock ~del)
            done)
      in
      Alcotest.(check int)
        (Printf.sprintf "2.E relaxations per analysis at %d ops" n)
        (2 * e * analyses)
        (lookup "slack.edge_relaxations" dl);
      Alcotest.(check int)
        (Printf.sprintf "one forward pass per analysis at %d ops" n)
        analyses
        (lookup "slack.forward_passes" dl);
      let (), db =
        deltas (fun () ->
            ignore (Bf_timing.analyze tdfg ~clock:d.Random_design.suggested_clock ~del))
      in
      Alcotest.(check bool)
        (Printf.sprintf "BF baseline scans at least E edges at %d ops" n)
        true
        (lookup "graph.bf.edge_scans" db >= e))
    [ 16; 32; 64; 128 ]

(* Edge cases around the distribution percentile estimator: 0 samples has
   no stats at all, 1 sample pins every statistic to that sample. *)
let test_dist_degenerate () =
  let d0 = Obs.dist "test.obs.dist.empty" in
  Alcotest.(check bool) "0 samples -> None" true (Obs.dist_stats d0 = None);
  let d1 = Obs.dist "test.obs.dist.single" in
  Obs.observe d1 42.0;
  match Obs.dist_stats d1 with
  | None -> Alcotest.fail "stats expected after one observation"
  | Some s ->
    Alcotest.(check int) "n" 1 s.Obs.n;
    Alcotest.(check (float 1e-9)) "min" 42.0 s.Obs.dmin;
    Alcotest.(check (float 1e-9)) "max" 42.0 s.Obs.dmax;
    Alcotest.(check (float 1e-9)) "mean" 42.0 s.Obs.mean;
    Alcotest.(check (float 1e-9)) "p50" 42.0 s.Obs.p50;
    Alcotest.(check (float 1e-9)) "p95" 42.0 s.Obs.p95

(* Ring wraparound: capacity 8, 20 events emitted -> the 12 oldest drop
   (counted in obs.events.dropped), the survivors are the last 8 in seq
   order. *)
let test_events_wraparound () =
  let (), d =
    deltas (fun () ->
        Obs.Events.enable ~capacity:8 ();
        Fun.protect ~finally:Obs.Events.disable @@ fun () ->
        for k = 0 to 19 do
          Obs.Events.emit (Obs.Events.Budget_round { round = k; updates = k })
        done)
  in
  let evs = Obs.Events.events () in
  Alcotest.(check int) "ring holds capacity events" 8 (List.length evs);
  Alcotest.(check int) "dropped counter bumped per overwrite" 12
    (lookup "obs.events.dropped" d);
  Alcotest.(check (list int)) "oldest dropped, order kept"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map (fun e -> e.Obs.Events.seq) evs);
  (match (List.hd evs).Obs.Events.payload with
  | Obs.Events.Budget_round { round; _ } ->
    Alcotest.(check int) "payload survives the wrap" 12 round
  | _ -> Alcotest.fail "unexpected payload");
  Obs.Events.clear ();
  Alcotest.(check int) "clear empties the ring" 0
    (List.length (Obs.Events.events ()))

(* Every payload constructor round-trips through its JSONL line. *)
let test_events_roundtrip () =
  let open Obs.Events in
  let payloads =
    [
      Slack_computed { op = "m_x0c4"; phase = "budget"; round = 1; slack_ps = -12.5 };
      Delay_update
        { op = "e\"0"; phase = "rebudget"; round = 0; from_ps = 573.333; to_ps = 1220.0 };
      Budget_round { round = 3; updates = 17 };
      Edge_scheduled { edge = 4; step = 2; placed = 5; deferred = 1 };
      Op_picked { op = "h1s"; edge = 0; step = 0; priority = 24400.0; ready_set_size = 8 };
      Recovery_step { rung = "relax-budget"; outcome = "recovered" };
      Worker_sample
        {
          domain = 3;
          tasks_done = 7;
          utilization = 0.875;
          minor_words = 123456.0;
          major_words = 2048.0;
        };
    ]
  in
  List.iteri
    (fun i payload ->
      let e = { seq = i; payload } in
      let line = to_jsonl_line e in
      match Obs.Json.parse line with
      | Error m -> Alcotest.fail ("emitted line does not parse: " ^ m)
      | Ok j -> (
        match of_json j with
        | Error m -> Alcotest.fail ("parsed line does not decode: " ^ m)
        | Ok e' ->
          Alcotest.(check bool)
            (Printf.sprintf "payload %d round-trips" i)
            true (e = e')))
    payloads

(* JSONL sink validity under concurrency: 4 domains emitting into the
   shared ring; the file must be valid line-delimited JSON with every
   sequence number unique. *)
let test_events_concurrent_jsonl () =
  Obs.Events.enable ~capacity:8192 ();
  Fun.protect ~finally:Obs.Events.disable @@ fun () ->
  let per_domain = 500 in
  let emitter w () =
    for k = 1 to per_domain do
      Obs.Events.emit
        (Obs.Events.Worker_sample
           {
             domain = w;
             tasks_done = k;
             utilization = 0.5;
             minor_words = 0.0;
             major_words = 0.0;
           })
    done
  in
  let domains = Array.init 4 (fun w -> Domain.spawn (emitter w)) in
  Array.iter Domain.join domains;
  let path = Filename.temp_file "obs_events" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Events.write_jsonl ~path;
  (* Every line parses on its own... *)
  let ic = open_in path in
  let lines = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lines;
       match Obs.Json.parse line with
       | Ok (Obs.Json.Obj _) -> ()
       | Ok _ -> Alcotest.fail "line is not a JSON object"
       | Error m -> Alcotest.fail ("invalid JSONL line: " ^ m)
     done
   with End_of_file -> close_in ic);
  Alcotest.(check int) "all events written" (4 * per_domain) !lines;
  (* ...and the typed loader agrees: one untagged stream, with unique
     ordered seqs. *)
  match Obs.Events.load_tagged ~path with
  | Error m -> Alcotest.fail m
  | Ok tevs ->
    Alcotest.(check int) "loader sees every line" (4 * per_domain)
      (List.length tevs);
    Alcotest.(check bool) "every line untagged" true
      (List.for_all (fun te -> te.Obs.Events.stream = None) tevs);
    let seqs = List.map (fun te -> te.Obs.Events.event.seq) tevs in
    Alcotest.(check bool) "seqs strictly increasing" true
      (List.for_all2 (fun a b -> a < b)
         (List.filteri (fun i _ -> i < List.length seqs - 1) seqs)
         (List.tl seqs))

(* mark/since/renumber: the per-lease shipping window a worker daemon
   uses — events after the mark, deterministic ones only, re-stamped from
   0 so the stream is a pure function of the lease. *)
let test_events_mark_since_renumber () =
  Obs.Events.enable ~capacity:64 ();
  Fun.protect ~finally:Obs.Events.disable @@ fun () ->
  Obs.Events.clear ();
  for k = 0 to 2 do
    Obs.Events.emit (Obs.Events.Budget_round { round = k; updates = 0 })
  done;
  let mark = Obs.Events.mark () in
  Obs.Events.emit (Obs.Events.Budget_round { round = 99; updates = 1 });
  Obs.Events.emit
    (Obs.Events.Serve_sample
       { queue_depth = 1; inflight = 1; admitted = 1; shed = 0 });
  Obs.Events.emit (Obs.Events.Recovery_step { rung = "r"; outcome = "ok" });
  let window = Obs.Events.since ~mark in
  Alcotest.(check int) "window holds post-mark events" 3 (List.length window);
  let shipped =
    window |> List.filter Obs.Events.deterministic |> Obs.Events.renumber
  in
  Alcotest.(check (list int)) "renumbered from 0, samples excluded" [ 0; 1 ]
    (List.map (fun e -> e.Obs.Events.seq) shipped);
  (match (List.hd shipped).Obs.Events.payload with
  | Obs.Events.Budget_round { round; _ } ->
    Alcotest.(check int) "payload kept through renumbering" 99 round
  | _ -> Alcotest.fail "unexpected payload");
  Obs.Events.clear ()

(* Tagged multi-worker files: two interleaved streams load (per-stream
   monotonicity holds even though the global seq sequence restarts), and
   a violation names the offending stream. *)
let test_events_tagged_streams () =
  let open Obs.Events in
  let line stream seq round =
    tagged_to_jsonl_line ~stream { seq; payload = Budget_round { round; updates = 0 } }
  in
  let write lines =
    let path = Filename.temp_file "obs_tagged" ".jsonl" in
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    path
  in
  let good = write [ line "L0" 0 1; line "L1" 0 5; line "L0" 1 2; line "L1" 1 6 ] in
  Fun.protect ~finally:(fun () -> Sys.remove good) (fun () ->
      match load_tagged ~path:good with
      | Error m -> Alcotest.fail m
      | Ok tevs ->
        Alcotest.(check int) "all lines load" 4 (List.length tevs);
        Alcotest.(check (list string)) "stream tags kept"
          [ "L0"; "L1"; "L0"; "L1" ]
          (List.map
             (fun te -> Option.value ~default:"?" te.stream)
             tevs));
  let bad = write [ line "L0" 0 1; line "L1" 3 5; line "L1" 2 6 ] in
  Fun.protect ~finally:(fun () -> Sys.remove bad) (fun () ->
      match load_tagged ~path:bad with
      | Ok _ -> Alcotest.fail "non-monotone stream must be rejected"
      | Error m ->
        Alcotest.(check bool) "error names the offending stream" true
          (let nl = String.length "L1" and jl = String.length m in
           let rec go i =
             i + nl <= jl && (String.sub m i nl = "L1" || go (i + 1))
           in
           go 0))

(* The shippable snapshot round-trips through JSON with its counters,
   spans and event tail intact, and renders as a Chrome lane whose first
   record is the process_name metadata. *)
let test_telemetry_roundtrip () =
  Obs.enable_trace ();
  Obs.Events.enable ~capacity:64 ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.Events.disable ())
  @@ fun () ->
  ignore (Obs.span "tele.work" (fun () -> Obs.incr (Obs.counter "tele.test")));
  Obs.Events.emit (Obs.Events.Budget_round { round = 7; updates = 7 });
  let snap = Obs.Telemetry.capture () in
  Alcotest.(check bool) "pid present" true (snap.Obs.Telemetry.pid > 0);
  match Obs.Telemetry.of_json (Obs.Telemetry.to_json snap) with
  | Error m -> Alcotest.fail ("snapshot does not round-trip: " ^ m)
  | Ok snap' ->
    Alcotest.(check int) "pid survives" snap.Obs.Telemetry.pid
      snap'.Obs.Telemetry.pid;
    Alcotest.(check bool) "counter survives" true
      (List.mem_assoc "tele.test" (Obs.Telemetry.counters snap'));
    Alcotest.(check int) "event tail survives"
      (List.length snap.Obs.Telemetry.events)
      (List.length snap'.Obs.Telemetry.events);
    let lane =
      Obs.Telemetry.lane_events ~pid:42 ~offset_ns:1_000 ~process_name:"w0" snap'
    in
    (match lane with
    | Obs.Json.Obj fields :: _ ->
      Alcotest.(check bool) "lane leads with process_name metadata" true
        (List.assoc_opt "ph" fields = Some (Obs.Json.String "M"))
    | _ -> Alcotest.fail "lane must start with a metadata record");
    Alcotest.(check bool) "lane carries the span slice" true
      (List.exists
         (function
           | Obs.Json.Obj fields ->
             List.assoc_opt "name" fields = Some (Obs.Json.String "tele.work")
           | _ -> false)
         lane)

(* Prometheus exposition: sanitized metric names, counters as _total,
   distributions as quantile summaries. *)
let test_expo_render () =
  let body =
    Obs.Expo.render_into
      ~counters:[ ("serve.requests", 17); ("weird-name!", 1) ]
      ~dists:
        [
          ( "serve.latency.ping",
            { Obs.n = 4; dmin = 1.0; dmax = 9.0; mean = 4.0; p50 = 3.0; p95 = 9.0 }
          );
        ]
  in
  let has needle =
    let nl = String.length needle and jl = String.length body in
    let rec go i = i + nl <= jl && (String.sub body i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter rendered as _total" true
    (has "serve_requests_total 17");
  Alcotest.(check bool) "names sanitized" true (has "weird_name__total 1");
  Alcotest.(check bool) "dist p95 quantile" true
    (has "quantile=\"0.95\"");
  Alcotest.(check bool) "dist count" true (has "serve_latency_ping_count 4")

let test_trace_json_shape () =
  Obs.enable_trace ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  ignore (Obs.span "test.trace" ~attrs:[ ("k", "v\"q") ] (fun () -> 0));
  let j = Obs.trace_json () in
  let has needle =
    let nl = String.length needle and jl = String.length j in
    let rec go i = i + nl <= jl && (String.sub j i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "traceEvents key" true (has "\"traceEvents\"");
  Alcotest.(check bool) "complete event" true (has "\"ph\":\"X\"");
  Alcotest.(check bool) "span name present" true (has "\"test.trace\"");
  Alcotest.(check bool) "attr escaped" true (has "v\\\"q")

(* The Chrome trace's structure, key by key: key order is part of the
   bytes a viewer loads, and [trace_json] must render exactly the lane a
   telemetry capture renders at pid 1 and offset 0. *)
let test_trace_json_fields () =
  Obs.reset ();
  Obs.enable_trace ();
  Obs.Prof.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Prof.disable ();
      Obs.disable ();
      Obs.reset ())
  @@ fun () ->
  Obs.span "test.outer" ~attrs:[ ("a", "1"); ("b", "2") ] (fun () ->
      Obs.span "test.inner" ~attrs:[ ("c", "3") ] ignore);
  let t0 = Obs.now_ns () in
  Obs.note_span ~attrs:[ ("lease", "L7") ] ~name:"test.noted" ~t0_ns:t0
    ~t1_ns:(Int64.add t0 1_000L) ();
  let j = Obs.trace_json () in
  let snap = Obs.Telemetry.capture () in
  let fields = function
    | Obs.Json.Obj kvs -> kvs
    | _ -> Alcotest.fail "expected a JSON object"
  in
  let doc =
    match Obs.Json.parse j with Ok d -> fields d | Error m -> Alcotest.fail m
  in
  Alcotest.(check (list string)) "top-level keys"
    [ "traceEvents"; "displayTimeUnit" ] (List.map fst doc);
  let events =
    match List.assoc "traceEvents" doc with
    | Obs.Json.List l -> List.map fields l
    | _ -> Alcotest.fail "traceEvents is not a list"
  in
  let with_ph p = List.filter (fun e -> List.assoc "ph" e = Obs.Json.String p) events in
  let slices = with_ph "X" and heap = with_ph "C" in
  Alcotest.(check int) "only slices and heap samples"
    (List.length events) (List.length slices + List.length heap);
  List.iter
    (fun e ->
      Alcotest.(check (list string)) "slice keys"
        [ "name"; "cat"; "ph"; "ts"; "dur"; "pid"; "tid"; "args" ]
        (List.map fst e))
    slices;
  List.iter
    (fun e ->
      Alcotest.(check bool) "pid 1" true (List.assoc "pid" e = Obs.Json.Int 1))
    events;
  let args name =
    match
      List.find_opt (fun e -> List.assoc "name" e = Obs.Json.String name) slices
    with
    | None -> Alcotest.failf "no slice named %s" name
    | Some e ->
      List.map
        (function k, Obs.Json.String v -> (k, v) | k, _ -> (k, "<not a string>"))
        (fields (List.assoc "args" e))
  in
  Alcotest.(check (list (pair string string))) "outer args: path, then attrs"
    [ ("path", "test.outer"); ("a", "1"); ("b", "2") ]
    (args "test.outer");
  Alcotest.(check (list (pair string string))) "inner args: nested path"
    [ ("path", "test.outer/test.inner"); ("c", "3") ]
    (args "test.inner");
  Alcotest.(check (list (pair string string))) "noted args"
    [ ("path", "test.noted"); ("lease", "L7") ]
    (args "test.noted");
  Alcotest.(check int) "one heap sample per profiled span, none noted" 2
    (List.length heap);
  Alcotest.(check string) "traceEvents is the capture's lane at pid 1"
    (Obs.Json.to_string
       (Obs.Json.List (Obs.Telemetry.lane_events ~pid:1 ~offset_ns:0 snap)))
    (Obs.Json.to_string (List.assoc "traceEvents" doc))

let () =
  Alcotest.run "obs"
    [
      ( "obs",
        [
          Alcotest.test_case "counters are monotone and interned" `Quick
            test_counter_monotone;
          Alcotest.test_case "distribution percentiles" `Quick
            test_dist_percentiles;
          Alcotest.test_case "span nesting and aggregation" `Quick
            test_span_nesting;
          Alcotest.test_case "disabled spans are transparent" `Quick
            test_span_disabled;
          Alcotest.test_case "counter snapshots are deterministic" `Quick
            test_snapshot_determinism;
          Alcotest.test_case "slack passes are linear in edges" `Quick
            test_slack_pass_linearity;
          Alcotest.test_case "chrome trace JSON shape" `Quick
            test_trace_json_shape;
          Alcotest.test_case "distribution 0- and 1-sample edge cases" `Quick
            test_dist_degenerate;
          Alcotest.test_case "event ring wraparound drops oldest" `Quick
            test_events_wraparound;
          Alcotest.test_case "event payloads round-trip through JSONL" `Quick
            test_events_roundtrip;
          Alcotest.test_case "JSONL sink valid under 4 domains" `Quick
            test_events_concurrent_jsonl;
          Alcotest.test_case "mark/since/renumber shipping window" `Quick
            test_events_mark_since_renumber;
          Alcotest.test_case "tagged multi-worker streams load and verify" `Quick
            test_events_tagged_streams;
          Alcotest.test_case "telemetry snapshot round-trips and renders a lane"
            `Quick test_telemetry_roundtrip;
          Alcotest.test_case "prometheus exposition format" `Quick
            test_expo_render;
          Alcotest.test_case "chrome trace keys, args and heap samples" `Quick
            test_trace_json_fields;
        ] );
    ]
