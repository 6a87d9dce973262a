(* Cross-module properties: random behavioral programs are generated,
   compiled through the whole pipeline, and checked against system-level
   invariants — the fuzzing counterpart to the per-module suites. *)

(* ------------------------------------------------------------------ *)
(* Random program generator. *)

let gen_program seed =
  let rng = Splitmix.create seed in
  let n_vars = 2 + Splitmix.int rng 3 in
  let vars = List.init n_vars (fun i -> Printf.sprintf "v%d" i) in
  let in_ports = [ "pa"; "pb" ] and out_ports = [ "qa"; "qb" ] in
  let rec gen_expr depth =
    if depth = 0 || Splitmix.int rng 4 = 0 then
      match Splitmix.int rng 3 with
      | 0 -> Ast.Int (Splitmix.int rng 200)
      | 1 -> Ast.Var (Splitmix.choose rng (Array.of_list vars))
      | _ -> Ast.Read (Splitmix.choose rng (Array.of_list in_ports))
    else begin
      let ops =
        [| Ast.Badd; Ast.Bsub; Ast.Bmul; Ast.Band; Ast.Bor; Ast.Bxor; Ast.Blt; Ast.Bgt;
           Ast.Bdiv |]
      in
      Ast.Binop (Splitmix.choose rng ops, gen_expr (depth - 1), gen_expr (depth - 1))
    end
  in
  let rec gen_stmts depth budget =
    if budget <= 0 then []
    else begin
      let s =
        match Splitmix.int rng (if depth > 0 then 6 else 4) with
        | 0 | 1 ->
          Ast.Assign (Splitmix.choose rng (Array.of_list vars), gen_expr 2)
        | 2 -> Ast.Write (Splitmix.choose rng (Array.of_list out_ports), gen_expr 2)
        | 3 -> Ast.Wait
        | 4 ->
          Ast.If
            ( gen_expr 1,
              Ast.Wait :: gen_stmts (depth - 1) (budget / 2),
              Ast.Wait :: gen_stmts (depth - 1) (budget / 2) )
        | _ ->
          Ast.For
            {
              index = "k";
              from_ = 0;
              below = 1 + Splitmix.int rng 2;
              body = gen_stmts (depth - 1) (budget / 2) @ [ Ast.Wait ];
            }
      in
      s :: gen_stmts depth (budget - 1)
    end
  in
  {
    Ast.proc_name = Printf.sprintf "fuzz%d" seed;
    ports =
      List.map (fun p -> { Ast.port = p; width = 12; is_input = true }) in_ports
      @ List.map (fun p -> { Ast.port = p; width = 16; is_input = false }) out_ports;
    vars = List.map (fun v -> { Ast.var = v; vwidth = 14 }) vars;
    (* Guarantee at least one state and one observable write per iteration. *)
    body =
      gen_stmts 2 (3 + Splitmix.int rng 6)
      @ [ Ast.Wait; Ast.Write ("qa", gen_expr 2) ];
  }

let try_elaborate p =
  match Elaborate.elaborate p with
  | e -> Some e
  | exception Elaborate.Error _ -> None (* e.g. constant division by zero *)

(* ------------------------------------------------------------------ *)
(* Properties. *)

let prop_fuzz_cosim =
  QCheck.Test.make ~name:"random programs: interpreter == elaborated design" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      match try_elaborate (gen_program seed) with
      | None -> true
      | Some e -> (Cosim.check ~iterations:24 ~seed e).Cosim.mismatches = [])

let prop_fuzz_schedule_cosim =
  QCheck.Test.make ~name:"random programs: schedules preserve semantics" ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      match try_elaborate (gen_program seed) with
      | None -> true
      | Some e -> (
        match Flows.run Flows.Slack_based e.Elaborate.dfg ~lib:Library.default ~clock:5000.0 with
        | Error _ -> true (* some fuzz programs are legitimately overconstrained *)
        | Ok r ->
          (Cosim.check ~schedule:r.Flows.schedule ~iterations:16 ~seed e).Cosim.mismatches = []))

let prop_fuzz_spans_well_formed =
  QCheck.Test.make ~name:"random programs: spans are consistent windows" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      match try_elaborate (gen_program seed) with
      | None -> true
      | Some e ->
        let cfg = e.Elaborate.cfg in
        let spans = Dfg.compute_spans e.Elaborate.dfg in
        Array.for_all
          (fun s ->
            Cfg.reaches cfg s.Dfg.early s.Dfg.late
            && (not (Cfg.is_backward cfg s.Dfg.early))
            && not (Cfg.is_backward cfg s.Dfg.late))
          spans)

let prop_fuzz_slack_bf_agree =
  QCheck.Test.make ~name:"random programs: two-pass == bellman-ford slack" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      match try_elaborate (gen_program seed) with
      | None -> true
      | Some e ->
        let spans = Dfg.compute_spans e.Elaborate.dfg in
        let tdfg = Timed_dfg.build e.Elaborate.dfg ~spans in
        let del o = float_of_int (50 + (Dfg.Op_id.to_int o * 7 mod 300)) in
        let a = Slack.analyze tdfg ~clock:1000.0 ~del in
        let b = Bf_timing.analyze tdfg ~clock:1000.0 ~del in
        List.for_all
          (fun o ->
            Float.abs (Slack.op_slack a o -. Slack.op_slack b o) < 1e-6)
          (Timed_dfg.active_ops tdfg))

let prop_fuzz_budget_verifies =
  QCheck.Test.make ~name:"random programs: budgets verify when feasible" ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      match try_elaborate (gen_program seed) with
      | None -> true
      | Some e ->
        let lib = Library.default in
        let dfg = e.Elaborate.dfg in
        let clock = 3000.0 in
        let spans = Dfg.compute_spans dfg in
        let tdfg = Timed_dfg.build dfg ~spans in
        let ranges o =
          let op = Dfg.op dfg o in
          match Library.op_curve lib op.Dfg.kind ~width:op.Dfg.width with
          | Some c ->
            let lo = Curve.min_delay c in
            Interval.make lo (Float.max lo (Float.min (Curve.max_delay c) clock))
          | None -> Interval.point 0.0
        in
        let sens o d =
          let op = Dfg.op dfg o in
          match Library.op_curve lib op.Dfg.kind ~width:op.Dfg.width with
          | Some c -> Curve.sensitivity c d
          | None -> 0.0
        in
        (match Budget.run tdfg ~clock ~ranges ~sensitivity:sens with
        | Budget.Infeasible _ -> true
        | Budget.Feasible delays ->
          Slack.feasible
            (Slack.analyze ~aligned:true tdfg ~clock ~del:(fun o ->
                 delays.(Dfg.Op_id.to_int o)))))

let prop_fuzz_area_recovery_monotone =
  QCheck.Test.make ~name:"random programs: area recovery never grows area" ~count:15
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      match try_elaborate (gen_program seed) with
      | None -> true
      | Some e -> (
        let config = { Flows.default_config with Flows.recover_area = false } in
        match Flows.run ~config Flows.Conventional e.Elaborate.dfg ~lib:Library.default ~clock:4000.0 with
        | Error _ -> true
        | Ok r ->
          let before = Alloc.fu_area r.Flows.schedule.Schedule.alloc in
          ignore (Area_recovery.run r.Flows.schedule);
          let after = Alloc.fu_area r.Flows.schedule.Schedule.alloc in
          after <= before +. 1e-6))

(* After area recovery a full retime accepts the schedule and moves no
   start or effective delay by a bit: recovery's per-regrade re-timing left
   exactly what a full retime computes. *)
let prop_fuzz_recovery_retime_identity =
  QCheck.Test.make ~name:"random programs: retime after recovery is a no-op" ~count:15
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      match try_elaborate (gen_program seed) with
      | None -> true
      | Some e ->
        let config = { Flows.default_config with Flows.recover_area = false } in
        List.for_all
          (fun flow ->
            match Flows.run ~config flow e.Elaborate.dfg ~lib:Library.default ~clock:3000.0 with
            | Error _ -> true
            | Ok r ->
              let sched = r.Flows.schedule in
              let bits () =
                Array.map
                  (Option.map (fun p ->
                       ( Int64.bits_of_float p.Schedule.start,
                         Int64.bits_of_float p.Schedule.eff_delay )))
                  sched.Schedule.placements
              in
              ignore (Area_recovery.run sched);
              let after = bits () in
              Result.is_ok (Schedule.retime sched) && bits () = after)
          Flows.all)

(* One slack engine reused across a sequence of budget runs — changing
   ranges, alignment and configuration, feasible and not — returns what a
   fresh run returns, bit for bit.  Call [k] pins every op whose index is
   below [k] sixths of the ops to 30% of its range, as per-edge
   re-budgeting pins placed ops; call 6 pins every op to its slowest
   delay, which a tight clock cannot meet. *)
let budget_outcome_bits = function
  | Budget.Feasible d -> `Feasible (Array.map Int64.bits_of_float d)
  | Budget.Infeasible { slack_at_min = r; critical } ->
    `Infeasible
      ( Array.map Int64.bits_of_float r.Slack.slack,
        Int64.bits_of_float r.Slack.min_slack,
        List.map Dfg.Op_id.to_int critical )

let budget_configs =
  [|
    Budget.default_config;
    { Budget.default_config with Budget.aligned = false };
    Budget.relax Budget.default_config;
  |]

let budget_engine_reuse_agrees dfg ~clock =
  let lib = Library.default in
  let tdfg = Timed_dfg.build dfg ~spans:(Dfg.compute_spans dfg) in
  let curve o =
    let op = Dfg.op dfg o in
    Library.op_curve lib op.Dfg.kind ~width:op.Dfg.width
  in
  let sensitivity o d = match curve o with Some c -> Curve.sensitivity c d | None -> 0.0 in
  let ranges k o =
    match curve o with
    | None -> Interval.point 0.0
    | Some c ->
      let lo = Curve.min_delay c in
      let hi = Float.max lo (Float.min (Curve.max_delay c) clock) in
      if k = 6 then Interval.point hi
      else if 6 * Dfg.Op_id.to_int o < k * Dfg.op_count dfg then
        Interval.point (lo +. (0.3 *. (hi -. lo)))
      else Interval.make lo hi
  in
  let engine = Slack.prepare tdfg ~clock in
  List.for_all
    (fun k ->
      let config = budget_configs.(k mod 3) and ranges = ranges k in
      budget_outcome_bits (Budget.run ~config ~engine tdfg ~clock ~ranges ~sensitivity)
      = budget_outcome_bits (Budget.run ~config tdfg ~clock ~ranges ~sensitivity))
    [ 0; 1; 2; 3; 4; 5; 6; 0 ]

let prop_fuzz_budget_engine_reuse =
  QCheck.Test.make ~name:"random programs: a reused budget engine equals a fresh one"
    ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      match try_elaborate (gen_program seed) with
      | None -> true
      | Some e ->
        List.for_all
          (fun clock -> budget_engine_reuse_agrees e.Elaborate.dfg ~clock)
          [ 900.0; 3000.0 ])

(* The same over the kernels, where alignment moves the budget (the
   interpolation example's 550 ps multipliers), and the first manifest
   designs at their clocks. *)
let test_budget_engine_reuse_designs () =
  let interp = (Interpolation.unrolled ()).Interpolation.dfg in
  let budget config =
    let tdfg = Timed_dfg.build interp ~spans:(Dfg.compute_spans interp) in
    budget_outcome_bits
      (Budget.run ~config tdfg ~clock:Interpolation.clock
         ~ranges:(fun o ->
           match
             Library.op_curve Library.default (Dfg.op interp o).Dfg.kind
               ~width:(Dfg.op interp o).Dfg.width
           with
           | Some c -> Interval.make (Curve.min_delay c) (Curve.max_delay c)
           | None -> Interval.point 0.0)
         ~sensitivity:(fun _ _ -> 1.0))
  in
  Alcotest.(check bool) "alignment changes the interpolation budget" true
    (budget budget_configs.(0) <> budget budget_configs.(1));
  List.iter
    (fun (name, dfg, clock) ->
      Alcotest.(check bool) name true (budget_engine_reuse_agrees dfg ~clock))
    ([
       ("interpolation", interp, Interpolation.clock);
       ("fir8", (Fir.build ~taps:8 ~latency:6 ()).Fir.dfg, 2500.0);
       ("idct", (Idct.build ~latency:12 ~passes:1 ()).Idct.dfg, 2500.0);
       ("resizer", (Resizer.full ()).Resizer.dfg, 4000.0);
     ]
    @ List.map
        (fun (e : Corpus.entry) ->
          (e.Corpus.name, (Corpus.design e).Random_design.dfg, e.Corpus.clock_ps))
        (Corpus.plan ~count:4 ~seed:42 ()))

let prop_fuzz_verilog_emits =
  QCheck.Test.make ~name:"random programs: verilog emission total" ~count:15
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      match try_elaborate (gen_program seed) with
      | None -> true
      | Some e -> (
        match Flows.run Flows.Slack_based e.Elaborate.dfg ~lib:Library.default ~clock:5000.0 with
        | Error _ -> true
        | Ok r ->
          let v = Verilog.emit (Netlist.build r.Flows.schedule) in
          String.length v > 100))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_fuzz_cosim;
    QCheck_alcotest.to_alcotest prop_fuzz_schedule_cosim;
    QCheck_alcotest.to_alcotest prop_fuzz_spans_well_formed;
    QCheck_alcotest.to_alcotest prop_fuzz_slack_bf_agree;
    QCheck_alcotest.to_alcotest prop_fuzz_budget_verifies;
    QCheck_alcotest.to_alcotest prop_fuzz_area_recovery_monotone;
    QCheck_alcotest.to_alcotest prop_fuzz_verilog_emits;
    QCheck_alcotest.to_alcotest prop_fuzz_recovery_retime_identity;
    QCheck_alcotest.to_alcotest prop_fuzz_budget_engine_reuse;
    Alcotest.test_case "a reused budget engine equals a fresh one on designs" `Quick
      test_budget_engine_reuse_designs;
  ]

let () = Alcotest.run "properties" [ ("properties", suite) ]
