(* Loop pipelining: initiation-interval resource folding and recurrence
   constraints. *)

let lib = Library.default

let run_ii ?ii latency =
  let d = Idct.build ~latency ~passes:1 () in
  Flows.run ?ii Flows.Slack_based d.Idct.dfg ~lib ~clock:2500.0

let test_pipelined_schedule_valid () =
  match run_ii ~ii:4 16 with
  | Error e -> Alcotest.fail (Flows.error_message e)
  | Ok r -> (
    match Schedule.validate r.Flows.schedule with
    | Ok () -> ()
    | Error es -> Alcotest.failf "invalid: %s" (String.concat "; " es))

let test_modulo_folding_conflicts () =
  (* Two ops in steps 0 and 4 with ii=4 overlap across iterations and must
     not share an instance; the validator must flag a hand-built
     violation. *)
  let d = Idct.build ~latency:8 ~passes:1 () in
  let alloc = Alloc.create lib in
  let sched = Schedule.create ~ii:4 d.Idct.dfg ~clock:2500.0 ~alloc in
  let inst = Alloc.add_instance alloc ~rk:Resource_kind.Multiplier ~width:16 ~delay:0.0 in
  (* Find two multiplications and place them in overlapping steps. *)
  let muls =
    List.filter
      (fun o -> (Dfg.op d.Idct.dfg o).Dfg.kind = Dfg.Mul)
      (Dfg.ops d.Idct.dfg)
  in
  (match muls with
  | m1 :: m2 :: _ ->
    let placed_at m k =
      Schedule.place sched m ~edge:d.Idct.step_edges.(k) ~start:0.0 ~eff_delay:500.0
        ~inst:(Some inst.Alloc.id);
      Option.get (Schedule.placement sched m)
    in
    let p0 = placed_at m1 0 in
    let on k = { p0 with Schedule.edge = d.Idct.step_edges.(k);
                         step = Cfg.state_of_edge (Dfg.cfg d.Idct.dfg) d.Idct.step_edges.(k) } in
    Alcotest.(check bool) "step 4 conflicts with step 0 at ii=4" true
      (Schedule.conflict sched p0 (on 4));
    Alcotest.(check bool) "step 5 is free" false (Schedule.conflict sched p0 (on 5));
    Alcotest.(check bool) "the rule is symmetric" true
      (Schedule.conflict sched (placed_at m2 4) p0)
  | _ -> Alcotest.fail "no muls")

let test_lc_step_ok () =
  let d = Idct.build ~latency:8 ~passes:1 () in
  let alloc = Alloc.create lib in
  let sched = Schedule.create ~ii:3 d.Idct.dfg ~clock:2500.0 ~alloc in
  Alcotest.(check bool) "producer early enough" true
    (Schedule.lc_step_ok sched ~producer_step:4 ~consumer_step:2);
  Alcotest.(check bool) "producer too late" false
    (Schedule.lc_step_ok sched ~producer_step:5 ~consumer_step:2);
  let unpiped = Schedule.create d.Idct.dfg ~clock:2500.0 ~alloc in
  Alcotest.(check bool) "no constraint without ii" true
    (Schedule.lc_step_ok unpiped ~producer_step:7 ~consumer_step:0)

let test_pressure_grows_as_ii_shrinks () =
  (* Fewer overlap-free step classes -> more instances -> more area. *)
  let area ii =
    match run_ii ?ii 16 with
    | Ok r -> (Area_model.of_schedule r.Flows.schedule).Area_model.total
    | Error e -> Alcotest.failf "ii failed: %s" (Flows.error_message e)
  in
  let a_none = area None and a4 = area (Some 4) and a2 = area (Some 2) in
  Alcotest.(check bool)
    (Printf.sprintf "area grows with throughput: %.0f <= %.0f <= %.0f" a_none a4 a2)
    true
    (a_none <= a4 +. 1e-6 && a4 <= a2 +. 1e-6)

let test_recurrence_limit () =
  (* The FIR shift line is a recurrence: with a sane ii it still schedules
     and validates. *)
  let f = Fir.build ~taps:4 ~latency:6 () in
  match Flows.run ~ii:2 Flows.Slack_based f.Fir.dfg ~lib ~clock:2500.0 with
  | Error e -> Alcotest.fail (Flows.error_message e)
  | Ok r -> (
    match Schedule.validate r.Flows.schedule with
    | Ok () -> ()
    | Error es -> Alcotest.failf "invalid: %s" (String.concat "; " es))

let test_invalid_ii_rejected () =
  (* Graceful degradation contract: configuration problems come back as
     [Error (Invalid _)], never as an exception. *)
  let d = Idct.build ~latency:8 ~passes:1 () in
  match Flows.run ~ii:0 Flows.Slack_based d.Idct.dfg ~lib ~clock:2500.0 with
  | Error (Flows.Invalid _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "ii=0 rejected"

let prop_pipelined_schedules_validate =
  QCheck.Test.make ~name:"pipelined schedules validate across II" ~count:6
    QCheck.(oneofl [ 2; 3; 4; 6; 8 ])
    (fun ii ->
      match run_ii ~ii 16 with
      | Error _ -> true (* tight IIs may legitimately fail *)
      | Ok r -> (
        match Schedule.validate r.Flows.schedule with Ok () -> true | Error _ -> false))

let suite =
  [
    Alcotest.test_case "pipelined schedule validates" `Quick test_pipelined_schedule_valid;
    Alcotest.test_case "modulo folding conflicts" `Quick test_modulo_folding_conflicts;
    Alcotest.test_case "loop-carried step window" `Quick test_lc_step_ok;
    Alcotest.test_case "pressure grows as II shrinks" `Quick test_pressure_grows_as_ii_shrinks;
    Alcotest.test_case "recurrence still schedules" `Quick test_recurrence_limit;
    Alcotest.test_case "invalid ii rejected" `Quick test_invalid_ii_rejected;
    QCheck_alcotest.to_alcotest prop_pipelined_schedules_validate;
  ]

let () = Alcotest.run "pipeline" [ ("pipeline", suite) ]
