(* Work-attribution profiler: GC/alloc deltas (Obs.Prof), per-span alloc
   aggregation, snapshot round-trips, cost-attribution counters on a
   hand-built DFG, and event-stream divergence localization. *)

(* Allocate [n] list cells the optimizer cannot discard. *)
let churn n = ignore (Sys.opaque_identity (List.init n (fun i -> i + 1)))

(* GC counters are cumulative and monotone: a delta over an allocating
   region is positive, over an empty region non-negative. *)
let test_gc_delta_monotone () =
  let a = Obs.Prof.sample () in
  let b = Obs.Prof.sample () in
  let empty = Obs.Prof.delta ~before:a ~after:b in
  Alcotest.(check bool) "empty delta minor >= 0" true (empty.Obs.Prof.minor_words >= 0.0);
  Alcotest.(check bool) "empty delta major >= 0" true (empty.Obs.Prof.major_words >= 0.0);
  let c = Obs.Prof.sample () in
  churn 50_000;
  let d = Obs.Prof.sample () in
  let dl = Obs.Prof.delta ~before:c ~after:d in
  (* 50k cons cells = at least 150k minor words. *)
  Alcotest.(check bool) "allocation shows up in the delta" true
    (dl.Obs.Prof.minor_words >= 100_000.0);
  Alcotest.(check bool) "collections delta non-negative" true
    (dl.Obs.Prof.minor_collections >= 0 && dl.Obs.Prof.major_collections >= 0)

(* With profiling on, a span's row carries the allocation of its body. *)
let test_span_alloc_aggregation () =
  Obs.reset ();
  Obs.enable_stats ();
  Obs.Prof.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Prof.disable ();
      Obs.disable ();
      Obs.reset ())
  @@ fun () ->
  Alcotest.(check bool) "profiling reports enabled" true (Obs.Prof.enabled ());
  Obs.span "prof_test" (fun () -> churn 50_000);
  Obs.span "prof_test" (fun () -> churn 50_000);
  match
    List.find_opt
      (fun (r : Obs.Prof.row) -> String.equal r.Obs.Prof.path "prof_test")
      (Obs.Prof.rows ())
  with
  | None -> Alcotest.fail "span row missing from Prof.rows"
  | Some r ->
    Alcotest.(check int) "both calls aggregated" 2 r.Obs.Prof.calls;
    Alcotest.(check bool) "row minor words cover the churn" true
      (r.Obs.Prof.minor_words >= 200_000.0);
    Alcotest.(check bool) "row wall clock is positive" true (r.Obs.Prof.total_ns > 0.0)

(* Profiling off (the default): rows still exist, alloc fields stay zero. *)
let test_span_alloc_off () =
  Obs.reset ();
  Obs.enable_stats ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
  @@ fun () ->
  Alcotest.(check bool) "profiling off by default" false (Obs.Prof.enabled ());
  Obs.span "prof_off" (fun () -> churn 50_000);
  match
    List.find_opt
      (fun (r : Obs.Prof.row) -> String.equal r.Obs.Prof.path "prof_off")
      (Obs.Prof.rows ())
  with
  | None -> Alcotest.fail "span row missing from Prof.rows"
  | Some r ->
    Alcotest.(check (float 0.0)) "minor words zero" 0.0 r.Obs.Prof.minor_words;
    Alcotest.(check (float 0.0)) "major words zero" 0.0 r.Obs.Prof.major_words

(* Snapshots round-trip exactly through their JSON document.  Values are
   chosen representable in the emitter's %.6g float format, so the
   serialize-parse-serialize chain is a fixed point. *)
let test_snapshot_roundtrip () =
  let s =
    {
      Obs.Prof.mode = "quick";
      sections =
        [
          {
            Obs.Prof.path = "bench.table1";
            calls = 3;
            total_ns = 125000.0;
            minor_words = 786432.0;
            major_words = 2048.0;
            minor_collections = 7;
            major_collections = 1;
          };
          {
            Obs.Prof.path = "bench.table2";
            calls = 1;
            total_ns = 50.0;
            minor_words = 0.0;
            major_words = 0.0;
            minor_collections = 0;
            major_collections = 0;
          };
        ];
      counters = [ ("budget.runs", 12); ("slack.analyses", 240) ];
    }
  in
  let str1 = Obs.Json.to_string (Obs.Prof.snapshot_to_json s) in
  match Obs.Json.parse str1 with
  | Error m -> Alcotest.fail ("snapshot JSON does not parse: " ^ m)
  | Ok doc -> (
    match Obs.Prof.snapshot_of_json doc with
    | Error m -> Alcotest.fail ("snapshot JSON does not decode: " ^ m)
    | Ok s' ->
      Alcotest.(check bool) "snapshot record round-trips" true (s = s');
      let str2 = Obs.Json.to_string (Obs.Prof.snapshot_to_json s') in
      Alcotest.(check string) "serialization is a fixed point" str1 str2)

(* Snapshots written before the profiler existed (no alloc fields) still
   load, with alloc fields defaulting to zero. *)
let test_snapshot_lenient () =
  let legacy =
    {|{"harness":"slackhls-bench","mode":"full","sections":[{"span":"bench.old","calls":2,"total_ns":1000}],"counters":{"budget.runs":4}}|}
  in
  match Obs.Json.parse legacy with
  | Error m -> Alcotest.fail ("legacy snapshot does not parse: " ^ m)
  | Ok doc -> (
    match Obs.Prof.snapshot_of_json doc with
    | Error m -> Alcotest.fail ("legacy snapshot does not decode: " ^ m)
    | Ok s ->
      Alcotest.(check string) "mode" "full" s.Obs.Prof.mode;
      (match s.Obs.Prof.sections with
      | [ r ] ->
        Alcotest.(check (float 0.0)) "minor defaults to 0" 0.0 r.Obs.Prof.minor_words;
        Alcotest.(check (float 0.0)) "major defaults to 0" 0.0 r.Obs.Prof.major_words;
        Alcotest.(check int) "collections default to 0" 0 r.Obs.Prof.minor_collections
      | rows -> Alcotest.failf "expected 1 section, got %d" (List.length rows)))

(* ------------------------------------------------------------------ *)
(* Attribution counters, exact on a hand-built 5-op chain.

   CFG: start --e0--> state --e1--> exit; five ops on e0 in a chain
   rd -> add -> mul -> sub -> wr.  The timed DFG then has 4 chain edges
   plus one sink edge per op: E = 9, so one full pass of the slack engine
   touches 2E = 18 directed relaxations. *)
let chain_tdfg () =
  let cfg = Cfg.create () in
  let st = Cfg.add_node cfg Cfg.State in
  let ex = Cfg.add_node cfg Cfg.Exit in
  let e0 = Cfg.add_edge cfg (Cfg.start cfg) st in
  let (_ : Cfg.Edge_id.t) = Cfg.add_edge cfg st ex in
  Cfg.seal cfg;
  let dfg = Dfg.create cfg in
  let op kind name = Dfg.add_op dfg ~kind ~width:16 ~birth:e0 ~name () in
  let rd = op (Dfg.Read "x") "rd" in
  let add = op Dfg.Add "add" in
  let mul = op Dfg.Mul "mul" in
  let sub = op Dfg.Sub "sub" in
  let wr = op (Dfg.Write "y") "wr" in
  List.iter
    (fun (src, dst) -> Dfg.add_dep dfg ~src ~dst ())
    [ (rd, add); (add, mul); (mul, sub); (sub, wr) ];
  let spans = Dfg.compute_spans dfg in
  (Timed_dfg.build dfg ~spans, mul)

let totals_check msg (expected : Attrib.totals) (got : Attrib.totals) =
  Alcotest.(check int) (msg ^ ": touched") expected.Attrib.touched got.Attrib.touched;
  Alcotest.(check int) (msg ^ ": cone") expected.Attrib.cone got.Attrib.cone

(* What [f] charged to the global counters. *)
let charged f =
  let before = Attrib.totals () in
  let x = f () in
  let after = Attrib.totals () in
  ( x,
    {
      Attrib.touched = after.Attrib.touched - before.Attrib.touched;
      cone = after.Attrib.cone - before.Attrib.cone;
    } )

let test_attrib_exact () =
  let tdfg, mul = chain_tdfg () in
  Alcotest.(check int) "timed DFG has 4 chain + 5 sink edges" 9
    (Timed_dfg.edge_count tdfg);
  let clock = 1000.0 in
  let del_flat _ = 100.0 in
  (* First pass: every value is new, so the cone is everything touched. *)
  let e, first = charged (fun () -> Slack.create tdfg ~clock ~del:del_flat) in
  totals_check "first pass" { Attrib.touched = 18; cone = 18 } first;
  (* Identical delays: nothing changed, the whole pass is waste. *)
  let (), again = charged (fun () -> Slack.reset e del_flat) in
  totals_check "identical reset" { Attrib.touched = 18; cone = 0 } again;
  Alcotest.(check (float 1e-9)) "wasted ratio = 1/2" 0.5
    (Attrib.wasted_ratio
       { Attrib.touched = first.Attrib.touched + again.Attrib.touched; cone = 18 });
  (* Slowing the middle op re-relaxes the in-edges of the five nodes
     downstream of it (sub, wr and three sinks) and the out-edges of mul,
     add and rd (2 each): 11 relaxations, every one moving a value. *)
  let (), bump = charged (fun () -> Slack.set_delay e mul 600.0) in
  totals_check "single-delay update" { Attrib.touched = 11; cone = 11 } bump;
  (* Undoing costs no relaxation. *)
  let (), undo = charged (fun () -> Slack.rollback e) in
  totals_check "rollback" { Attrib.touched = 0; cone = 0 } undo

(* ------------------------------------------------------------------ *)
(* Event-stream divergence localization. *)

(* Untagged streams, as a single-process run writes them. *)
let mk_events payloads =
  List.mapi
    (fun i p -> { Obs.Events.stream = None; event = { seq = i; payload = p } })
    payloads

let sample_payloads =
  [
    Obs.Events.Budget_round { round = 1; updates = 4 };
    Obs.Events.Slack_computed
      { op = "mul"; phase = "budget"; round = 1; slack_ps = 240.0 };
    Obs.Events.Budget_round { round = 2; updates = 0 };
    Obs.Events.Edge_scheduled { edge = 0; step = 1; placed = 3; deferred = 1 };
  ]

let test_diff_identical () =
  let a = mk_events sample_payloads in
  let b = mk_events sample_payloads in
  match Obs.Events.diff_tagged a b with
  | None -> ()
  | Some d -> Alcotest.failf "identical streams diverge at index %d" d.Obs.Events.index

let test_diff_truncated () =
  let a = mk_events sample_payloads in
  let b = List.filteri (fun i _ -> i < 2) a in
  match Obs.Events.diff_tagged a b with
  | None -> Alcotest.fail "truncation not detected"
  | Some d ->
    Alcotest.(check int) "divergence at the cut" 2 d.Obs.Events.index;
    Alcotest.(check bool) "A still has an event" true (d.Obs.Events.a <> None);
    Alcotest.(check bool) "B has ended" true (d.Obs.Events.b = None);
    Alcotest.(check int) "no field diff across an ended stream" 0
      (List.length d.Obs.Events.fields)

let test_diff_field_perturbation () =
  let a = mk_events sample_payloads in
  let b =
    mk_events
      (List.map
         (function
           | Obs.Events.Budget_round { round = 2; updates } ->
             Obs.Events.Budget_round { round = 9; updates }
           | p -> p)
         sample_payloads)
  in
  match Obs.Events.diff_tagged a b with
  | None -> Alcotest.fail "field perturbation not detected"
  | Some d ->
    Alcotest.(check int) "localized to the perturbed event" 2 d.Obs.Events.index;
    (match d.Obs.Events.fields with
    | [ f ] ->
      Alcotest.(check string) "the round field" "round" f.Obs.Events.field;
      Alcotest.(check string) "old value" "2" f.Obs.Events.a_val;
      Alcotest.(check string) "new value" "9" f.Obs.Events.b_val
    | fs -> Alcotest.failf "expected exactly 1 field diff, got %d" (List.length fs))

let test_diff_both_empty () =
  Alcotest.(check bool) "two empty streams are identical" true
    (Obs.Events.diff_tagged [] [] = None)

let () =
  Alcotest.run "prof"
    [
      ( "gc",
        [
          Alcotest.test_case "GC deltas are monotone" `Quick test_gc_delta_monotone;
          Alcotest.test_case "span rows carry alloc telemetry" `Quick
            test_span_alloc_aggregation;
          Alcotest.test_case "alloc fields zero with profiling off" `Quick
            test_span_alloc_off;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "snapshot JSON round-trip is exact" `Quick
            test_snapshot_roundtrip;
          Alcotest.test_case "legacy snapshots load with zero alloc" `Quick
            test_snapshot_lenient;
        ] );
      ( "attrib",
        [
          Alcotest.test_case "counters exact on a 5-op chain" `Quick
            test_attrib_exact;
        ] );
      ( "diff",
        [
          Alcotest.test_case "identical streams" `Quick test_diff_identical;
          Alcotest.test_case "truncated stream localized" `Quick test_diff_truncated;
          Alcotest.test_case "field perturbation localized" `Quick
            test_diff_field_perturbation;
          Alcotest.test_case "empty streams" `Quick test_diff_both_empty;
        ] );
    ]
