(* Per-layer metrics of a traced run.

   Two sources.  The ledger of the workload's own traced rounds (this
   process's spans and counters, or the daemons' through the telemetry op)
   gives per-run work counts and time shares — what each layer did for
   this workload.  A replay calls single layers' public functions on every
   kernel design and on one seeded corpus design per shape x class, timing
   each call in isolation. *)

open Common

let of_ledger (l : Ledger.t) =
  let runs = float_of_int (Ledger.span l "hls.run").Ledger.calls in
  let c = Ledger.counter l in
  let per_run name = ratio (c name) runs in
  let share name = ratio (Ledger.span l name).Ledger.ns (Ledger.span l "hls.run").Ledger.ns in
  [
    ("timing.analyses_per_run", per_run "slack.analyses");
    ("timing.edge_relaxations_per_run", per_run "slack.edge_relaxations");
    ( "timing.wasted_work_pct",
      100.0 *. (1.0 -. ratio (c "timing.wasted_work_ratio.cone") (c "timing.wasted_work_ratio.touched")) );
    ("budget.share", share "flow.budget");
    ("budget.rounds_per_run", per_run "budget.rounds");
    ("budget.delay_updates_per_run", per_run "budget.delay_updates");
    ("sched.schedule_share", share "flow.schedule");
    ("sched.attempts_per_run", per_run "flow.attempts");
    ("sched.discarded_frac", ratio (c "flow.relaxations") (c "flow.attempts"));
    ("sched.ready_ops_per_placement", ratio (c "sched.ready_ops") (c "sched.placements"));
    ("sched.defer_no_resource_per_run", per_run "sched.defer.no_resource");
    ("sched.rebudget_runs_per_run", per_run "sched.rebudget.runs");
    ("sched.recovery_share", share "flow.recovery");
    ("sched.regrades_per_run", per_run "recovery.regrades");
    ("core.minor_words_per_run", ratio (Ledger.span l "hls.run").Ledger.minor_words runs);
    ("bind.instances_per_run", per_run "bind.instances");
  ]

(* ------------------------------------------------------------------ *)
(* Replay *)

let reps = 5

(* Median wall time of [reps] calls, in microseconds, inside one
   [bench.<layer>.<fn>] span. *)
let time_us span f =
  Obs.span span (fun () ->
      median
        (List.init reps (fun _ ->
             let t = now () in
             ignore (Sys.opaque_identity (f ()));
             ms_since t *. 1000.0)))

let min_delay lib dfg o =
  let op = Dfg.op dfg o in
  match Library.op_curve lib op.Dfg.kind ~width:op.Dfg.width with
  | Some c -> Curve.min_delay c
  | None -> 0.0

(* The budgeting inputs Flows derives for the slack flow: each op's delay
   range (upper end clamped to the step budget) and area sensitivity. *)
let budget_inputs lib dfg budget =
  let curve o =
    let op = Dfg.op dfg o in
    Library.op_curve lib op.Dfg.kind ~width:op.Dfg.width
  in
  let ranges o =
    match curve o with
    | Some c ->
      let lo = Curve.min_delay c in
      Interval.make lo (Float.max lo (Float.min (Curve.max_delay c) budget))
    | None -> Interval.point 0.0
  in
  let sensitivity o d = match curve o with Some c -> Curve.sensitivity c d | None -> 0.0 in
  (ranges, sensitivity)

(* One corpus design per shape x class, drawn from the run's seed. *)
let corpus_designs ~seed =
  let rng = Splitmix.create seed in
  List.concat_map
    (fun shape ->
      List.map
        (fun k ->
          let r =
            Random_design.generate ~profile:(Corpus.profile_of_klass k) ~shape
              ~seed:(Splitmix.int rng 0xFFFFFF) ()
          in
          Hls.design ~name:r.Random_design.name ~clock:r.Random_design.suggested_clock
            r.Random_design.dfg)
        Corpus.all_klasses)
    Random_design.all_shapes

type per_design = {
  spans_us : float;
  digest_us : float;
  tdfg_us : float;
  slack_us : float;
  budget_us : float;
  netlist_us : float;
  area_us : float;
  validate_us : float;
  audit_us : float;
  run_us : float;
}

let replay_design (d : Hls.design) =
  let lib = Library.default in
  let dfg = d.Hls.dfg in
  let budget = d.Hls.clock -. Library.register_overhead lib in
  let spans = Dfg.compute_spans dfg in
  let tdfg = Timed_dfg.build dfg ~spans in
  let ranges, sensitivity = budget_inputs lib dfg budget in
  let run_us = time_us "bench.core.hls_run" (fun () -> Hls.run Flows.Slack_based d) in
  match Hls.run Flows.Slack_based d with
  | Error _ -> None
  | Ok r ->
    let sched = r.Hls.report.Flows.schedule in
    Some
      {
        spans_us = time_us "bench.dfg.compute_spans" (fun () -> Dfg.compute_spans dfg);
        digest_us = time_us "bench.dfg.digest" (fun () -> Dfg.digest dfg);
        tdfg_us = time_us "bench.timing.timed_dfg_build" (fun () -> Timed_dfg.build dfg ~spans);
        slack_us =
          time_us "bench.timing.slack_analyze" (fun () ->
              Slack.analyze ~aligned:true tdfg ~clock:budget ~del:(min_delay lib dfg));
        budget_us =
          time_us "bench.budget.run" (fun () -> Budget.run tdfg ~clock:budget ~ranges ~sensitivity);
        netlist_us = time_us "bench.rtl.netlist" (fun () -> Netlist.build sched);
        area_us = time_us "bench.rtl.area_model" (fun () -> Area_model.of_schedule sched);
        validate_us = time_us "bench.check.validate" (fun () -> Schedule.validate sched);
        audit_us =
          time_us "bench.check.audit" (fun () ->
              Audit.check_schedule sched @ Audit.check_netlist r.Hls.netlist
              @ Audit.check_area sched r.Hls.area);
        run_us;
      }

(* Timings (scaled by machine speed) and ratios. *)
let measure ~seed =
  let plans = List.init 3 (fun _ -> let t = now () in ignore (population ()); now () -. t) in
  let entries = take (Corpus_wl.selection Full) (population ()) in
  let build_ms =
    List.map
      (fun e -> median (List.init reps (fun _ -> let t = now () in ignore (build_of e ()); ms_since t)))
      entries
  in
  let designs = Kernels.designs () @ corpus_designs ~seed in
  let rows = List.filter_map replay_design designs in
  let mean f = ratio (List.fold_left (fun s r -> s +. f r) 0.0 rows) (float_of_int (List.length rows)) in
  let sum f = List.fold_left (fun s r -> s +. f r) 0.0 rows in
  (* Table 5 on D1: conventional vs slack scheduling time. *)
  let d1 = List.find (fun (d : Hls.design) -> d.Hls.design_name = "D1") designs in
  let t5 flow = median (List.init 11 (fun _ -> let t = now () in ignore (Hls.run flow d1); ms_since t)) in
  let conv = t5 Flows.Conventional and slack = t5 Flows.Slack_based in
  let table4 =
    List.filter
      (fun (d : Hls.design) ->
        List.exists (fun (p : Idct.design_point) -> p.Idct.id = d.Hls.design_name) Idct.table4_points)
      designs
  in
  let saving =
    Hls.average_saving (Hls.explore (List.map (fun (d : Hls.design) -> (d.Hls.design_name, d)) table4))
  in
  ( [
    ("corpus.plan_s", median plans);
    ("corpus.design_build_ms", ratio (List.fold_left ( +. ) 0.0 build_ms) (float_of_int (List.length build_ms)));
    ("dfg.spans_us", mean (fun r -> r.spans_us));
    ("dfg.digest_us", mean (fun r -> r.digest_us));
    ("timing.timed_dfg_build_us", mean (fun r -> r.tdfg_us));
    ("timing.slack_analyze_us", mean (fun r -> r.slack_us));
    ("budget.run_us", mean (fun r -> r.budget_us));
    ("rtl.netlist_us", mean (fun r -> r.netlist_us));
    ("rtl.area_model_us", mean (fun r -> r.area_us));
    ("check.validate_us", mean (fun r -> r.validate_us));
    ("check.audit_us", mean (fun r -> r.audit_us));
    ("core.hls_run_ms.conventional", conv);
    ("core.hls_run_ms.slack", slack);
  ],
  [
    ("check.audit_share", ratio (sum (fun r -> r.audit_us)) (sum (fun r -> r.run_us)));
    ("core.slack_conv_ratio", ratio slack conv);
    ("core.saving_pct", Option.value ~default:0.0 saving);
  ] )

let replay ~seed =
  let (times, ratios), _, speed = calibrated ~probe:(fun () -> Calib.speed ~windows:6) (fun () -> measure ~seed) in
  List.map (fun (name, v) -> (name, v *. speed)) times @ ratios
