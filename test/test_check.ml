(* The checked pipeline: phase-boundary validators, the fault-injection
   matrix (every corruption class caught by its intended validator family),
   and the self-healing recovery ladder in [Flows.run]. *)

let lib = Library.default

let interpolation () =
  let ip = Interpolation.unrolled () in
  ip.Interpolation.dfg

let prefixed prefix vs =
  List.for_all
    (fun v ->
      let p = String.length prefix in
      String.length v.Check.check >= p && String.sub v.Check.check 0 p = prefix)
    vs

let check_fires corruption vs =
  let prefix = Inject.intended_check_prefix corruption in
  Alcotest.(check bool)
    (Printf.sprintf "%s detected" (Inject.corruption_name corruption))
    true (vs <> []);
  Alcotest.(check bool)
    (Printf.sprintf "%s caught by %s* only" (Inject.corruption_name corruption) prefix)
    true (prefixed prefix vs)

let ranges_of dfg o =
  let op = Dfg.op dfg o in
  match Library.op_curve lib op.Dfg.kind ~width:op.Dfg.width with
  | Some c -> Interval.make (Curve.min_delay c) (Curve.max_delay c)
  | None -> Interval.point 0.0

let fastest_targets dfg =
  let n =
    1 + List.fold_left (fun m o -> max m (Dfg.Op_id.to_int o)) (-1) (Dfg.ops dfg)
  in
  let targets = Array.make n 0.0 in
  List.iter
    (fun o -> targets.(Dfg.Op_id.to_int o) <- Interval.lo (ranges_of dfg o))
    (Dfg.ops dfg);
  targets

let schedule_of ?config flow =
  match Flows.run ?config flow (interpolation ()) ~lib ~clock:Interpolation.clock with
  | Ok r -> r
  | Error e -> Alcotest.failf "flow failed: %s" (Flows.error_message e)

(* Healthy artifacts at every phase boundary pass their validators — the
   baseline that makes the injection matrix below meaningful. *)
let test_clean_pipeline () =
  let dfg = interpolation () in
  Alcotest.(check int) "dfg clean" 0 (List.length (Check.dfg dfg));
  let tdfg = Timed_dfg.build dfg ~spans:(Dfg.compute_spans dfg) in
  Alcotest.(check int) "timed dfg clean" 0 (List.length (Check.timed_dfg tdfg));
  let targets = fastest_targets dfg in
  Alcotest.(check int) "budget clean" 0
    (List.length (Check.budget dfg ~targets ~ranges:(ranges_of dfg)));
  let r = schedule_of Flows.Slack_based in
  let sched = r.Flows.schedule in
  Alcotest.(check int) "schedule clean" 0 (List.length (Audit.check_schedule sched));
  let nl = Netlist.build sched in
  Alcotest.(check int) "netlist clean" 0 (List.length (Audit.check_netlist nl));
  Alcotest.(check int) "area clean" 0
    (List.length (Audit.check_area sched (Area_model.of_schedule sched)))

(* Fault-injection matrix: one test per corruption class. *)

let test_inject_cycle () =
  let dfg = interpolation () in
  Alcotest.(check bool) "injected" true (Inject.cycle_dfg dfg);
  check_fires Inject.Cycle_dfg (Check.dfg dfg)

let test_inject_negative_latency () =
  let dfg = interpolation () in
  let tdfg = Timed_dfg.build dfg ~spans:(Dfg.compute_spans dfg) in
  match Inject.drop_edge_latency tdfg with
  | None -> Alcotest.fail "no injection site"
  | Some bad -> check_fires Inject.Drop_edge_latency (Check.timed_dfg bad)

let test_inject_budget_overshoot () =
  let dfg = interpolation () in
  let targets = fastest_targets dfg in
  let ranges = ranges_of dfg in
  match Inject.budget_overshoot dfg ~targets ~ranges with
  | None -> Alcotest.fail "no injection site"
  | Some bad -> check_fires Inject.Budget_overshoot (Check.budget dfg ~targets:bad ~ranges)

let test_inject_swap_placements () =
  let r = schedule_of Flows.Slack_based in
  match Inject.swap_placements r.Flows.schedule with
  | None -> Alcotest.fail "no injection site"
  | Some bad -> check_fires Inject.Swap_placements (Audit.check_schedule bad)

let test_inject_orphan_port () =
  let r = schedule_of Flows.Slack_based in
  let nl = Netlist.build r.Flows.schedule in
  check_fires Inject.Orphan_port (Audit.check_netlist (Inject.orphan_port nl))

let test_matrix_is_total () =
  (* Every enumerated corruption class has a test above (artifact classes)
     or below (supervision classes); a new class must extend this list (and
     the matrix) or this count trips. *)
  Alcotest.(check int) "corruption classes" 15 (List.length Inject.all_corruptions);
  let prefixes = List.map Inject.intended_check_prefix Inject.all_corruptions in
  Alcotest.(check int) "distinct validator families" 11
    (List.length (List.sort_uniq compare prefixes))

(* Supervision faults: each class bound to the machinery that must absorb
   it — a fired cancel token, a quarantined pool task, a torn journal. *)

let test_cancel_token () =
  let t = Cancel.manual () in
  Alcotest.(check bool) "fresh token not cancelled" false (Cancel.cancelled t);
  Cancel.trigger ~reason:"test" t;
  Alcotest.(check bool) "triggered token cancelled" true (Cancel.cancelled t);
  Alcotest.(check (option string)) "reason recorded" (Some "test") (Cancel.reason t);
  Cancel.trigger ~reason:"second" t;
  Alcotest.(check (option string)) "first reason wins" (Some "test") (Cancel.reason t);
  let d = Cancel.after ~seconds:0.0 in
  Alcotest.(check bool) "expired deadline cancelled" true (Cancel.cancelled d);
  Alcotest.(check (option string)) "deadline reason" (Some "deadline")
    (Cancel.reason d);
  let far = Cancel.after ~seconds:3600.0 in
  Alcotest.(check bool) "future deadline not cancelled" false (Cancel.cancelled far);
  Cancel.trigger far;
  Alcotest.(check bool) "deadline token also triggerable" true (Cancel.cancelled far);
  Cancel.trigger Cancel.never;
  Alcotest.(check bool) "never is inert" false (Cancel.cancelled Cancel.never)

let test_inject_stall_point () =
  (* A build that sleeps past the point deadline: the flow must come back
     as Timed_out (data), caught at the first cooperative poll. *)
  let build = Inject.stall_point ~seconds:0.02 (fun () -> interpolation ()) in
  let cancel = Cancel.after ~seconds:0.005 in
  let dfg = build () in
  match Flows.run ~cancel Flows.Slack_based dfg ~lib ~clock:Interpolation.clock with
  | Error (Flows.Timed_out _) -> ()
  | Ok _ -> Alcotest.fail "stalled point completed inside its deadline"
  | Error e -> Alcotest.failf "expected Timed_out: %s" (Flows.error_message e)

let test_inject_crash_task () =
  (* A raising task closure is quarantined as Crashed — the pool and its
     other tasks keep going. *)
  let tasks = Array.init 6 (fun i -> i) in
  let outcomes =
    Domain_pool.run ~jobs:3
      (fun i -> if i = 2 then raise (Inject.Injected_crash "task 2") else i * 10)
      tasks
  in
  Array.iteri
    (fun i o ->
      match o with
      | Domain_pool.Done v when i <> 2 ->
        Alcotest.(check int) (Printf.sprintf "task %d survives" i) (i * 10) v
      | Domain_pool.Crashed c when i = 2 ->
        Alcotest.(check int) "one attempt" 1 c.Domain_pool.attempts;
        Alcotest.(check bool) "message names the fault" true
          (c.Domain_pool.exn = Inject.Injected_crash "task 2")
      | _ -> Alcotest.failf "task %d: unexpected outcome" i)
    outcomes;
  (* With retries, a flaky closure recovers in place. *)
  let flaky = Inject.crash_task ~crash_on:(fun n -> n = 1) (fun () -> 42) in
  match Domain_pool.run ~jobs:1 ~retries:1 (fun () -> flaky ()) [| () |] with
  | [| Domain_pool.Done v |] -> Alcotest.(check int) "retry succeeds" 42 v
  | _ -> Alcotest.fail "retry did not recover the flaky task"

let test_inject_truncate_journal () =
  (* A mid-append crash tears the final record: load must salvage the
     valid prefix (counted on journal.salvaged, not quarantined) so resume
     re-evaluates only the lost tail point. *)
  let s area =
    {
      Eval_cache.status = Eval_cache.Success; area; steps = 3; delay_ps = area;
      relaxations = 0; regrades = 0; recoveries = 0; error = "";
    }
  in
  let path = Filename.temp_file "inject" ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = Eval_cache.start ~path ~fresh:true in
      Eval_cache.record w ~key:"k1" (s 10.0);
      Eval_cache.record w ~key:"k2" (s 20.0);
      Eval_cache.close w;
      Inject.truncate_journal ~bytes:5 path;
      let c_salvaged = Obs.counter "journal.salvaged" in
      let salvaged_before = Obs.value c_salvaged in
      (match Eval_cache.load_journal ~path with
      | Error m -> Alcotest.failf "torn journal rejected wholesale: %s" m
      | Ok (entries, quarantined) ->
        Alcotest.(check int) "valid prefix kept" 1 (List.length entries);
        Alcotest.(check int) "torn tail salvaged, not quarantined" 0 quarantined;
        Alcotest.(check int) "salvage counted" (salvaged_before + 1)
          (Obs.value c_salvaged);
        Alcotest.(check string) "surviving key" "k1" (fst (List.hd entries)));
      (* Re-opening for append must truncate the torn tail so the next
         record cannot splice onto it. *)
      let w2 = Eval_cache.start ~path ~fresh:false in
      Eval_cache.record w2 ~key:"k3" (s 30.0);
      Eval_cache.close w2;
      match Eval_cache.load_journal ~path with
      | Error m -> Alcotest.failf "salvaged journal unreadable: %s" m
      | Ok (entries, quarantined) ->
        Alcotest.(check int) "append after salvage is clean" 0 quarantined;
        Alcotest.(check (list string)) "records" [ "k1"; "k3" ]
          (List.map fst entries))

(* Recovery ladder. *)

let test_ladder_transcript_on_infeasible () =
  (* A clock far below what interpolation needs: the ladder must run its
     rungs, log each failed attempt, and surface the transcript. *)
  match Flows.run Flows.Slack_based (interpolation ()) ~lib ~clock:600.0 with
  | Ok _ -> Alcotest.fail "600 ps must be infeasible"
  | Error (Flows.Invalid m) -> Alcotest.failf "expected a ladder, got Invalid: %s" m
  | Error (Flows.Validation_failed _) | Error (Flows.Timed_out _) ->
    Alcotest.fail "expected Sched_failed"
  | Error (Flows.Sched_failed { recovery_log; _ }) ->
    Alcotest.(check bool) "at least one recovery attempt" true (recovery_log <> []);
    Alcotest.(check bool) "all attempts still failing" true
      (List.for_all
         (fun a ->
           match a.Flows.outcome with
           | Flows.Still_failing _ -> true
           | Flows.Recovered -> false)
         recovery_log)

let test_ladder_recovers () =
  (* With the relaxation loop disabled the first attempt fails; the
     relax-budget rung restores an allowance and the flow recovers.  The
     control run (ladder disabled) proves the first attempt really fails. *)
  let crippled = { Flows.default_config with Flows.max_relaxations = 0 } in
  (match
     Flows.run
       ~config:{ crippled with Flows.max_recoveries = 0 }
       Flows.Slowest_first (interpolation ()) ~lib ~clock:1100.0
   with
  | Error (Flows.Sched_failed { recovery_log = []; _ }) -> ()
  | Error e -> Alcotest.failf "control: expected a bare Sched_failed: %s" (Flows.error_message e)
  | Ok _ -> Alcotest.fail "control: crippled config must fail without the ladder");
  match Flows.run ~config:crippled Flows.Slowest_first (interpolation ()) ~lib ~clock:1100.0 with
  | Error e -> Alcotest.failf "ladder should recover: %s" (Flows.error_message e)
  | Ok r ->
    Alcotest.(check bool) "recovery attempts recorded" true (r.Flows.recovery_log <> []);
    Alcotest.(check bool) "last attempt recovered" true
      (List.exists (fun a -> a.Flows.outcome = Flows.Recovered) r.Flows.recovery_log)

let test_entry_validation_rejects_cyclic_dfg () =
  let dfg = interpolation () in
  ignore (Inject.cycle_dfg dfg);
  match Flows.run Flows.Conventional dfg ~lib ~clock:Interpolation.clock with
  | Error (Flows.Validation_failed { violations; recovery_log; _ }) ->
    Alcotest.(check bool) "dfg validator fired" true (prefixed "dfg." violations);
    Alcotest.(check int) "no ladder for structural corruption" 0
      (List.length recovery_log)
  | Ok _ -> Alcotest.fail "cyclic DFG accepted"
  | Error e -> Alcotest.failf "expected Validation_failed: %s" (Flows.error_message e)

(* Fuzz: seeded random designs through all three flows under paranoid
   validation.  Infeasible schedules are legitimate on random designs;
   invariant violations and crashes are not. *)
let test_fuzz_paranoid () =
  let config = { Flows.default_config with Flows.validate = Check.Paranoid } in
  let designs = Random_design.suite ~count:10 ~seed:42 () in
  List.iter
    (fun (d : Random_design.t) ->
      List.iter
        (fun flow ->
          let design =
            Hls.design ~name:d.Random_design.name
              ~clock:d.Random_design.suggested_clock d.Random_design.dfg
          in
          match Hls.run ~lib ~config flow design with
          | Ok r ->
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s: no error-severity violations"
                 d.Random_design.name (Flows.flow_name flow))
              false
              (Check.has_errors r.Hls.report.Flows.violations)
          | Error (Flows.Sched_failed _) -> ()
          | Error e ->
            Alcotest.failf "%s/%s: %s" d.Random_design.name (Flows.flow_name flow)
              (Flows.error_message e))
        [ Flows.Conventional; Flows.Slowest_first; Flows.Slack_based ])
    designs

(* Frontend diagnostics (located, exception-free). *)

let test_parse_diagnostic () =
  let src = "process p {\n  port in a : 16;\n  loop {\n    x = + ;\n  }\n}\n" in
  match Parser.parse_result src with
  | Ok _ -> Alcotest.fail "expected a syntax error"
  | Error d ->
    Alcotest.(check int) "line" 4 d.Parser.dline;
    Alcotest.(check int) "column" 9 d.Parser.dcol;
    Alcotest.(check bool) "message locates itself" true
      (String.length (Parser.diagnostic_message d) > 0)

let test_lexer_diagnostic () =
  match Parser.parse_result "process p {\n  @\n}" with
  | Ok _ -> Alcotest.fail "expected a lexer error"
  | Error d ->
    Alcotest.(check int) "line" 2 d.Parser.dline;
    Alcotest.(check int) "column" 3 d.Parser.dcol

(* Structured cycle witness from the graph layer. *)

let test_traverse_cycle_witness () =
  let g = Digraph.create () in
  let a = Digraph.add_node g in
  let b = Digraph.add_node g in
  let c = Digraph.add_node g in
  Digraph.add_edge g a b;
  Digraph.add_edge g b c;
  Digraph.add_edge g c a;
  (match Traverse.find_cycle g with
  | None -> Alcotest.fail "cycle not found"
  | Some path ->
    Alcotest.(check bool) "closed walk" true
      (match path with
      | [] -> false
      | v0 :: _ ->
        let rec ok = function
          | [ last ] -> Digraph.mem_edge g last v0
          | x :: (y :: _ as rest) -> Digraph.mem_edge g x y && ok rest
          | [] -> false
        in
        ok path));
  match Traverse.topo_sort_exn g with
  | exception Traverse.Cycle (_ :: _) -> ()
  | exception Traverse.Cycle [] -> Alcotest.fail "empty witness"
  | _ -> Alcotest.fail "topo_sort_exn accepted a cycle"

let suite =
  [
    Alcotest.test_case "clean pipeline validates" `Quick test_clean_pipeline;
    Alcotest.test_case "inject: dfg cycle" `Quick test_inject_cycle;
    Alcotest.test_case "inject: negative latency" `Quick test_inject_negative_latency;
    Alcotest.test_case "inject: budget overshoot" `Quick test_inject_budget_overshoot;
    Alcotest.test_case "inject: swapped placements" `Quick test_inject_swap_placements;
    Alcotest.test_case "inject: orphan port" `Quick test_inject_orphan_port;
    Alcotest.test_case "injection matrix is total" `Quick test_matrix_is_total;
    Alcotest.test_case "cancel token semantics" `Quick test_cancel_token;
    Alcotest.test_case "inject: stalled point times out" `Quick
      test_inject_stall_point;
    Alcotest.test_case "inject: crashing task quarantined" `Quick
      test_inject_crash_task;
    Alcotest.test_case "inject: torn journal record" `Quick
      test_inject_truncate_journal;
    Alcotest.test_case "ladder transcript on infeasible" `Quick
      test_ladder_transcript_on_infeasible;
    Alcotest.test_case "ladder recovers a crippled config" `Quick test_ladder_recovers;
    Alcotest.test_case "entry validation, no ladder" `Quick
      test_entry_validation_rejects_cyclic_dfg;
    Alcotest.test_case "fuzz: paranoid, 10 designs x 3 flows" `Quick test_fuzz_paranoid;
    Alcotest.test_case "parser diagnostic is located" `Quick test_parse_diagnostic;
    Alcotest.test_case "lexer diagnostic is located" `Quick test_lexer_diagnostic;
    Alcotest.test_case "traverse cycle witness" `Quick test_traverse_cycle_witness;
  ]

let () = Alcotest.run "check" [ ("check", suite) ]
