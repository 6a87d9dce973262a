type flow = Conventional | Slowest_first | Slack_based

let flow_name = function
  | Conventional -> "conventional"
  | Slowest_first -> "slowest-first"
  | Slack_based -> "slack-based"

type recovery_step = Relax_budget | Force_fast_grades | Bump_ii

let recovery_step_name = function
  | Relax_budget -> "relax-budget"
  | Force_fast_grades -> "force-fast-grades"
  | Bump_ii -> "bump-ii"

type recovery_outcome = Recovered | Still_failing of string

type recovery_attempt = { step : recovery_step; outcome : recovery_outcome }

let pp_recovery_attempt ppf a =
  match a.outcome with
  | Recovered -> Format.fprintf ppf "%s: recovered" (recovery_step_name a.step)
  | Still_failing m ->
    Format.fprintf ppf "%s: still failing (%s)" (recovery_step_name a.step) m

type report = {
  flow : flow;
  schedule : Schedule.t;
  relaxations : int;
  regrades : int;
  targets : float array option;
  recovery_log : recovery_attempt list;
  violations : Check.violation list;
}

type error =
  | Invalid of string
  | Validation_failed of {
      failed_flow : flow;
      violations : Check.violation list;
      recovery_log : recovery_attempt list;
    }
  | Sched_failed of {
      failed_flow : flow;
      failure : Sched_core.failure;
      recovery_log : recovery_attempt list;
    }
  | Timed_out of {
      failed_flow : flow;
      phase : string;
      recovery_log : recovery_attempt list;
    }

let pp_recovery_log ppf = function
  | [] -> ()
  | log ->
    List.iter (fun a -> Format.fprintf ppf "@.  recovery %a" pp_recovery_attempt a) log

let pp_error ppf = function
  | Invalid m -> Format.pp_print_string ppf m
  | Validation_failed { failed_flow; violations; recovery_log } ->
    Format.fprintf ppf "%s: pipeline invariants violated:@.%s" (flow_name failed_flow)
      (Check.summary violations);
    pp_recovery_log ppf recovery_log
  | Sched_failed { failed_flow; failure; recovery_log } ->
    Format.fprintf ppf "%s: %a" (flow_name failed_flow) Sched_core.pp_failure failure;
    pp_recovery_log ppf recovery_log
  | Timed_out { failed_flow; phase; recovery_log } ->
    Format.fprintf ppf "%s: deadline exceeded (at %s)" (flow_name failed_flow) phase;
    pp_recovery_log ppf recovery_log

let error_message e = Format.asprintf "%a" pp_error e

(* Telemetry: the relaxation loop is the paper's "expert system"; its event
   counts say how hard the allocator had to fight for a feasible schedule. *)
let c_attempts = Obs.counter "flow.attempts"
let c_relaxations = Obs.counter "flow.relaxations"
let c_resource_adds = Obs.counter "flow.resource_additions"
let c_gamma_decays = Obs.counter "flow.gamma_decays"
let c_rebudget_runs = Obs.counter "sched.rebudget.runs"
let c_rebudget_infeasible = Obs.counter "sched.rebudget.infeasible"

(* Rebudget passes skipped because the pinned spans leave some dependency
   with undefined latency.  An unplaced consumer's early edge is searched
   only among edges dominating its birth edge; once its producer is placed
   below that birth edge no such edge is reachable from the producer, the
   span falls back to the birth edge, and the timed DFG cannot be built.
   A divergence from the paper's Fig. 8, which re-budgets after every
   edge. *)
let c_rebudget_unrealizable = Obs.counter "sched.rebudget.unrealizable"

let c_recoveries = Obs.counter "flow.recovery.attempts"

type sharing = {
  merge_add_sub : bool;
  width_buckets : bool;
}

type config = {
  grading : Alloc.grading;
  recover_area : bool;
  max_relaxations : int;
  budget_config : Budget.config;
  rebudget_config : Budget.config option;
  sharing : sharing;
  validate : Check.level;
  max_recoveries : int;
  allow_ii_bump : bool;
}

let default_config =
  {
    grading = Alloc.Continuous;
    recover_area = true;
    max_relaxations = 128;
    budget_config = Budget.default_config;
    rebudget_config =
      Some { Budget.default_config with max_rounds = 4; bisection_steps = 12 };
    sharing = { merge_add_sub = false; width_buckets = false };
    validate = Check.Boundary;
    max_recoveries = 3;
    allow_ii_bump = false;
  }

let rec next_pow2 n k = if k >= n then k else next_pow2 n (2 * k)

(* Delay range of an op's curve, upper end clamped to the step budget so
   scheduled operations can always fit a cycle. *)
let curve_range budget = function
  | Some c ->
    let lo = Curve.min_delay c in
    Interval.make lo (Float.max lo (Float.min (Curve.max_delay c) budget))
  | None -> Interval.point 0.0

let active_ops dfg =
  List.filter
    (fun o -> match (Dfg.op dfg o).Dfg.kind with Dfg.Const _ -> false | _ -> true)
    (Dfg.ops dfg)

let group_key sharing dfg o =
  let op = Dfg.op dfg o in
  match Resource_kind.of_op_kind op.Dfg.kind with
  | Some rk ->
    let rk =
      if
        sharing.merge_add_sub
        && (Resource_kind.equal rk Resource_kind.Adder
           || Resource_kind.equal rk Resource_kind.Subtractor)
      then Resource_kind.Add_sub
      else rk
    in
    let width = if sharing.width_buckets then next_pow2 op.Dfg.width 4 else op.Dfg.width in
    Some (rk, width)
  | None -> None

let groups sharing dfg ops =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun o ->
      match group_key sharing dfg o with
      | Some key ->
        Hashtbl.replace tbl key (o :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
      | None -> ())
    ops;
  Hashtbl.fold (fun key ops acc -> (key, List.rev ops) :: acc) tbl []
  |> List.sort compare

let median l =
  match List.sort Float.compare l with
  | [] -> 0.0
  | sorted -> List.nth sorted (List.length sorted / 2)

(* Peak-demand estimate for the initial allocation of the slack flow: the
   ops of a group spread over the steps their spans cover. *)
let slack_instance_count ?ii cfg spans ops =
  let span_steps o =
    let s = spans.(Dfg.Op_id.to_int o) in
    let a = Cfg.state_of_edge cfg s.Dfg.early and b = Cfg.state_of_edge cfg s.Dfg.late in
    let w = max 1 (b - a + 1) in
    match ii with Some k -> min w k | None -> w
  in
  let total = List.length ops in
  let mean_span =
    float_of_int (List.fold_left (fun acc o -> acc + span_steps o) 0 ops)
    /. float_of_int (max 1 total)
  in
  max 1 (int_of_float (ceil (float_of_int total /. Float.max 1.0 mean_span)))

(* Failures of one ladder attempt, before they are dressed up as {!error}
   (which additionally carries the ladder transcript). *)
type once_failure =
  | F_invalid of string
  | F_check of Check.violation list
  | F_sched of Sched_core.failure
  | F_timeout of string  (* phase at which the cancel token fired *)

exception Check_failed_exn of Check.violation list
exception Cancelled_exn of string

let run_once config ii flow dfg ~lib ~clock ~gamma0 ~cancel =
  let cfg = Dfg.cfg dfg in
  let ops = active_ops dfg in
  (* The resource groups depend only on the DFG and the sharing policy. *)
  let groups = groups config.sharing dfg ops in
  let n = Dfg.op_count dfg in
  (* Cooperative deadline polls at phase boundaries: a stuck attempt — a
     runaway budgeting loop, an endless relaxation spiral — surfaces as
     [F_timeout] instead of hanging the caller's worker domain. *)
  let poll phase = if Cancel.cancelled cancel then raise (Cancelled_exn phase) in
  (* Violations recorded this attempt; [Error]-severity ones abort the
     attempt through {!Check_failed_exn}, warnings ride on the report. *)
  let collected = ref [] in
  let guard ~at vs =
    poll "validate";
    if Check.ge config.validate at && vs <> [] then begin
      let vs = Check.record vs in
      collected := !collected @ vs;
      if Check.has_errors vs then raise (Check_failed_exn (Check.errors vs))
    end
  in
  let budget_clock = clock -. Library.register_overhead lib in
  if budget_clock <= 0.0 then Error (F_invalid "clock period below register overhead")
  else begin
    try
    (* Each op's curve and range, looked up once: neither changes within
       the call. *)
    let curves =
      Array.init n (fun i ->
          let op = Dfg.op dfg (Dfg.Op_id.of_int i) in
          Library.op_curve lib op.Dfg.kind ~width:op.Dfg.width)
    in
    let range = Array.map (curve_range budget_clock) curves in
    let ranges o = range.(Dfg.Op_id.to_int o) in
    let sensitivity o d =
      match curves.(Dfg.Op_id.to_int o) with
      | Some c -> Curve.sensitivity c d
      | None -> 0.0
    in
    (* Delay targets. *)
    let targets = Array.make n 0.0 in
    let priorities = Array.make n 0.0 in
    let set_targets_from del =
      List.iter (fun o -> targets.(Dfg.Op_id.to_int o) <- del o) ops
    in
    let set_priorities_slack tdfg =
      let e =
        Slack.create ~aligned:true tdfg ~clock:budget_clock ~del:(fun o ->
            targets.(Dfg.Op_id.to_int o))
      in
      List.iter (fun o -> priorities.(Dfg.Op_id.to_int o) <- Slack.slack e o) ops
    in
    let spans0 = Dfg.compute_spans dfg in
    let mobility o =
      let s = spans0.(Dfg.Op_id.to_int o) in
      float_of_int
        (Cfg.state_of_edge cfg s.Dfg.late - Cfg.state_of_edge cfg s.Dfg.early)
    in
    (match flow with
    | Conventional ->
      set_targets_from (fun o -> Interval.lo (ranges o));
      List.iter (fun o -> priorities.(Dfg.Op_id.to_int o) <- mobility o) ops
    | Slowest_first ->
      set_targets_from (fun o -> Interval.hi (ranges o));
      List.iter (fun o -> priorities.(Dfg.Op_id.to_int o) <- mobility o) ops
    | Slack_based -> (
      let tdfg = Timed_dfg.build dfg ~spans:spans0 in
      guard ~at:Check.Boundary (Check.timed_dfg tdfg);
      match
        Obs.span "flow.budget" (fun () ->
            Budget.run ~config:config.budget_config tdfg ~clock:budget_clock ~ranges
              ~sensitivity)
      with
      | Budget.Feasible delays ->
        guard ~at:Check.Boundary (Check.budget dfg ~targets:delays ~ranges);
        guard ~at:Check.Paranoid
          (Check.slack tdfg ~clock:budget_clock ~del:(fun o ->
               delays.(Dfg.Op_id.to_int o)));
        Array.blit delays 0 targets 0 n;
        set_priorities_slack tdfg
      | Budget.Infeasible _ ->
        (* Fall back to fastest targets; the schedule pass will tell the
           caller whether the design truly needs more states. *)
        set_targets_from (fun o -> Interval.lo (ranges o));
        List.iter (fun o -> priorities.(Dfg.Op_id.to_int o) <- mobility o) ops));
    (* Instance counts per (kind, width) group, learned across relaxation
       attempts; the allocation is rebuilt from them before every pass. *)
    let counts : (Resource_kind.t * int, int ref) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun ((rk, width), gops) ->
        let c =
          match flow with
          | Conventional | Slowest_first -> 1
          | Slack_based -> slack_instance_count ?ii cfg spans0 gops
        in
        Hashtbl.replace counts (rk, width) (ref c))
      groups;
    (* Grade-decay knob: when a pass fails on timing (a slow producer
       exhausted a consumer's window) and adding resources cannot help,
       every target is pulled toward the fast end and the pass restarts —
       for the slowest-first flow this is the paper's "reduce their delays
       on the fly" (§II Case 2); for the slack flow it is a last-resort
       fallback when sharing effects defeat the pre-schedule budget. *)
    let gamma = ref gamma0 in
    let eff_target o =
      let i = Dfg.Op_id.to_int o in
      let lo = Interval.lo (ranges o) in
      lo +. (!gamma *. (targets.(i) -. lo))
    in
    let refresh_slowest_targets () =
      set_targets_from (fun o -> Interval.hi (ranges o))
    in
    let build_alloc () =
      let alloc = Alloc.create ~grading:config.grading lib in
      List.iter
        (fun ((rk, width), gops) ->
          let grade =
            match flow with
            | Conventional -> 0.0
            | Slowest_first | Slack_based -> median (List.map eff_target gops)
          in
          let c = !(Hashtbl.find counts (rk, width)) in
          for _ = 1 to c do
            ignore (Alloc.add_instance alloc ~rk ~width ~delay:grade)
          done)
        groups;
      alloc
    in
    (* Per-edge re-budgeting hook (slack flow). *)
    let rebudget =
      match (flow, config.rebudget_config) with
      | Slack_based, Some bcfg ->
        Some
          (fun sched spans' ->
            if List.exists (fun o -> not (Schedule.is_placed sched o)) ops then begin
              poll "rebudget";
              match Timed_dfg.build dfg ~spans:spans' with
              | exception Timed_dfg.Unrealizable _ ->
                (* Skipped: see [c_rebudget_unrealizable]. *)
                Obs.incr c_rebudget_unrealizable
              | tdfg' ->
                let ranges' o =
                  match Schedule.placement sched o with
                  | Some p -> Interval.point p.Schedule.eff_delay
                  | None -> ranges o
                in
                let sens' o d = if Schedule.is_placed sched o then 0.0 else sensitivity o d in
                Obs.incr c_rebudget_runs;
                match
                  Budget.run ~config:bcfg ~event_phase:"rebudget" tdfg'
                    ~clock:budget_clock ~ranges:ranges' ~sensitivity:sens'
                with
                | Budget.Feasible delays ->
                  List.iter
                    (fun o ->
                      let i = Dfg.Op_id.to_int o in
                      if not (Schedule.is_placed sched o) then targets.(i) <- delays.(i))
                    ops;
                  set_priorities_slack tdfg'
                | Budget.Infeasible _ ->
                  (* Sharing created violations: demand the fastest grades
                     for what remains (paper: "fixed by decreasing the
                     delays of operations"). *)
                  Obs.incr c_rebudget_infeasible;
                  List.iter
                    (fun o ->
                      let i = Dfg.Op_id.to_int o in
                      if not (Schedule.is_placed sched o) then
                        targets.(i) <- Interval.lo (ranges o))
                    ops
            end)
      | (Conventional | Slowest_first | Slack_based), _ -> None
    in
    let params =
      {
        Sched_core.clock;
        ii;
        spans = spans0;
        priority = (fun o -> priorities.(Dfg.Op_id.to_int o));
        target = eff_target;
        upgrade_on_miss = (match flow with Conventional -> false | _ -> true);
        respan = (match flow with Slack_based -> true | _ -> false);
        rebudget;
      }
    in
    (* Relaxation loop (the paper's expert system, resource additions plus
       the slowest-first grade decay; adding states is the caller's
       decision). *)
    let rec attempt relaxations =
      poll "schedule";
      if flow = Slowest_first && relaxations = 0 then refresh_slowest_targets ();
      Obs.incr c_attempts;
      let alloc = build_alloc () in
      match Obs.span "flow.schedule" (fun () -> Sched_core.run dfg ~alloc params) with
      | Ok sched -> Ok (sched, relaxations)
      | Error f when relaxations < config.max_relaxations -> (
        Obs.incr c_relaxations;
        match f.Sched_core.reason with
        | Sched_core.No_resource { op; _ } -> (
          match group_key config.sharing dfg op with
          | Some key ->
            (match Hashtbl.find_opt counts key with
            | Some c -> incr c
            | None -> Hashtbl.replace counts key (ref 1));
            Obs.incr c_resource_adds;
            attempt (relaxations + 1)
          | None -> Error f)
        | Sched_core.Retime_failed _ ->
          (* Mux fan-in pushed a chain over the budget: widen every group
             by one instance to dilute sharing. *)
          Hashtbl.iter (fun _ c -> incr c) counts;
          Obs.incr c_resource_adds;
          attempt (relaxations + 1)
        | Sched_core.Too_slow { op; blame; _ } | Sched_core.No_time { op; blame } ->
          if flow = Slowest_first && !gamma > 0.02 then begin
            gamma := !gamma *. 0.8;
            Obs.incr c_gamma_decays;
            attempt (relaxations + 1)
          end
          else begin
            (* Timing starvation is displaced resource pressure: the op's
               producers were deferred until its window closed.  Widen the
               blamed group (the starved one several links upstream), or
               the op's own group when no blame was identified; once a
               group is saturated, fall back to decaying every delay
               target toward the fast end. *)
            let decay () =
              if !gamma > 0.1 then begin
                gamma := !gamma *. 0.75;
                Obs.incr c_gamma_decays;
                attempt (relaxations + 1)
              end
              else Error f
            in
            let key =
              match blame with
              | Some (rk, width) -> (
                (* Map the blamed natural kind through the sharing policy. *)
                match
                  List.find_opt
                    (fun ((_, _), gops) ->
                      List.exists
                        (fun o ->
                          let bop = Dfg.op dfg o in
                          bop.Dfg.width = width
                          && Resource_kind.of_op_kind bop.Dfg.kind = Some rk)
                        gops)
                    groups
                with
                | Some (key, _) -> Some key
                | None -> group_key config.sharing dfg op)
              | None -> group_key config.sharing dfg op
            in
            match key with
            | Some key ->
              let group_size =
                match List.assoc_opt key groups with Some gops -> List.length gops | None -> 0
              in
              let c =
                match Hashtbl.find_opt counts key with
                | Some c -> c
                | None ->
                  let c = ref 0 in
                  Hashtbl.replace counts key c;
                  c
              in
              if !c < group_size then begin
                incr c;
                Obs.incr c_resource_adds;
                attempt (relaxations + 1)
              end
              else decay ()
            | None -> decay ()
          end)
      | Error f -> Error f
    in
    match attempt 0 with
    | Error failure -> Error (F_sched failure)
    | Ok (schedule, relaxations) ->
      let regrades =
        if config.recover_area then
          Obs.span "flow.recovery" (fun () -> Area_recovery.run schedule)
        else 0
      in
      (if Check.ge config.validate Check.Paranoid then
         match Schedule.validate schedule with
         | Ok () -> ()
         | Error msgs ->
           guard ~at:Check.Paranoid
             (List.map (fun m -> Check.violation ~check:"schedule.legality" m) msgs));
      Ok
        {
          flow;
          schedule;
          relaxations;
          regrades;
          targets = (match flow with Slack_based -> Some (Array.copy targets) | _ -> None);
          recovery_log = [];
          violations = !collected;
        }
    with
    | Check_failed_exn vs -> Error (F_check vs)
    | Cancelled_exn phase -> Error (F_timeout phase)
    | Timed_dfg.Unrealizable m -> Error (F_invalid ("timed DFG unrealizable: " ^ m))
  end

(* The self-healing retry ladder.  Each rung is cumulative — a later rung
   keeps the earlier rungs' concessions — and bounded by [max_recoveries]:

   + {b relax-budget}: re-run with a more persistent budgeting
     configuration ({!Budget.relax}) and a relaxation allowance of at
     least 16 passes;
   + {b force-fast-grades}: pull every delay target to the fast end of its
     curve ([gamma0 = 0]), the strongest answer to timing starvation;
   + {b bump-ii} (opt-in, pipelined designs only): trade throughput for
     schedulability by raising the initiation interval by one. *)
let apply_rung (config, ii, gamma0) = function
  | Relax_budget ->
    ( {
        config with
        budget_config = Budget.relax config.budget_config;
        rebudget_config = Option.map Budget.relax config.rebudget_config;
        max_relaxations = max 16 (2 * config.max_relaxations);
      },
      ii,
      gamma0 )
  | Force_fast_grades -> (config, ii, 0.0)
  | Bump_ii -> (config, Option.map (fun k -> k + 1) ii, gamma0)

let once_failure_message = function
  | F_invalid m -> m
  | F_check vs -> Check.summary vs
  | F_sched f -> Format.asprintf "%a" Sched_core.pp_failure f
  | F_timeout phase -> "deadline exceeded (at " ^ phase ^ ")"

let run ?(config = default_config) ?(cancel = Cancel.never) ?ii flow dfg ~lib ~clock =
  match ii with
  | Some k when k <= 0 -> Error (Invalid "ii must be positive")
  | _ when Cancel.cancelled cancel ->
    (* The token can expire before we start (a sweep point whose builder
       overran the deadline): report the timeout, skip the work. *)
    Error (Timed_out { failed_flow = flow; phase = "entry"; recovery_log = [] })
  | _ -> (
    let entry =
      if Check.ge config.validate Check.Boundary then Check.record (Check.dfg dfg)
      else []
    in
    if Check.has_errors entry then
      (* Structural corruption of the input: no amount of re-scheduling
         repairs a cyclic or dangling DFG, so fail without the ladder. *)
      Error
        (Validation_failed
           { failed_flow = flow; violations = Check.errors entry; recovery_log = [] })
    else
      let ladder =
        let rungs =
          [ Relax_budget; Force_fast_grades ]
          @ (if config.allow_ii_bump && ii <> None then [ Bump_ii ] else [])
        in
        List.filteri (fun i _ -> i < config.max_recoveries) rungs
      in
      let fail last log =
        let recovery_log = List.rev log in
        match last with
        | F_invalid m -> Error (Invalid m)
        | F_check violations ->
          Error (Validation_failed { failed_flow = flow; violations; recovery_log })
        | F_sched failure ->
          Error (Sched_failed { failed_flow = flow; failure; recovery_log })
        | F_timeout phase -> Error (Timed_out { failed_flow = flow; phase; recovery_log })
      in
      let rec escalate state last log = function
        | [] -> fail last log
        | rung :: rest -> (
          match last with
          | F_invalid _ | F_timeout _ ->
            (* Config problems make retrying futile; an expired deadline
               makes it forbidden — every further rung would also time out
               at its first poll. *)
            fail last log
          | F_check _ | F_sched _ ->
            Obs.incr c_recoveries;
            let state = apply_rung state rung in
            let config', ii', gamma0 = state in
            let emit_rung outcome =
              if Obs.Events.enabled () then
                Obs.Events.emit
                  (Obs.Events.Recovery_step
                     { rung = recovery_step_name rung; outcome })
            in
            (match run_once config' ii' flow dfg ~lib ~clock ~gamma0 ~cancel with
            | Ok report ->
              emit_rung "recovered";
              Ok
                {
                  report with
                  recovery_log = List.rev ({ step = rung; outcome = Recovered } :: log);
                }
            | Error f ->
              emit_rung "still-failing";
              escalate state f
                ({ step = rung; outcome = Still_failing (once_failure_message f) }
                :: log)
                rest))
      in
      match run_once config ii flow dfg ~lib ~clock ~gamma0:1.0 ~cancel with
      | Ok report -> Ok report
      | Error (F_invalid m) -> Error (Invalid m)
      | Error f -> escalate (config, ii, 1.0) f [] ladder)
