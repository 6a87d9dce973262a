type flow = Conventional | Slowest_first | Slack_based

(* Each flow's short name and full name. *)
let names =
  [
    (Conventional, ("conv", "conventional"));
    (Slowest_first, ("slowest", "slowest-first"));
    (Slack_based, ("slack", "slack-based"));
  ]

let all = List.map fst names
let short_name flow = fst (List.assoc flow names)
let flow_name flow = snd (List.assoc flow names)

let of_name s =
  List.find_map
    (fun (flow, (short, full)) -> if s = short || s = full then Some flow else None)
    names

(* Where a flow's delay targets, priorities and starting allocation come
   from.  [Fastest] and [Slowest] put every target at its curve's fast or
   slow end, order ops by mobility and start each group at one instance,
   allocated at the fastest grade or at the group's median target.
   [Budgeted] takes the targets from slack budgeting (Fig. 7) and orders
   ops by slack, starts each group at its peak-demand estimate, and
   re-spans and re-budgets after every CFG edge (Fig. 8 steps c-d). *)
type start = Fastest | Slowest | Budgeted

type policy = {
  start : start;
  upgrade_on_miss : bool;  (* speed up a free instance when none fits *)
  decay_first : bool;
      (* on timing starvation, decay every target toward the fast end
         before widening the blamed group *)
}

(* The paper's three policies over one schedule pass: §II Case 1, §II
   Case 2, and the slack-budgeted flow. *)
let policy = function
  | Conventional -> { start = Fastest; upgrade_on_miss = false; decay_first = false }
  | Slowest_first -> { start = Slowest; upgrade_on_miss = true; decay_first = true }
  | Slack_based -> { start = Budgeted; upgrade_on_miss = true; decay_first = false }

type recovery_step = Relax_budget | Force_fast_grades

let recovery_step_name = function
  | Relax_budget -> "relax-budget"
  | Force_fast_grades -> "force-fast-grades"

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

let pp_recovery_log ppf log =
  List.iter (fun a -> Format.fprintf ppf "@.  recovery %a" pp_recovery_attempt a) log

(* An error without its flow name and transcript; a ladder rung records
   this of a failed attempt. *)
let cause = function
  | Invalid m -> m
  | Validation_failed { violations; _ } -> Check.summary violations
  | Sched_failed { failure; _ } -> Format.asprintf "%a" Sched_core.pp_failure failure
  | Timed_out { phase; _ } -> "deadline exceeded (at " ^ phase ^ ")"

let pp_error ppf e =
  match e with
  | Invalid m -> Format.pp_print_string ppf m
  | Validation_failed { failed_flow; recovery_log; _ } ->
    Format.fprintf ppf "%s: pipeline invariants violated:@.%s%a" (flow_name failed_flow)
      (cause e) pp_recovery_log recovery_log
  | Sched_failed { failed_flow; recovery_log; _ } | Timed_out { failed_flow; recovery_log; _ }
    ->
    Format.fprintf ppf "%s: %s%a" (flow_name failed_flow) (cause e) pp_recovery_log
      recovery_log

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
   span falls back to the birth edge, and re-weighting the timed DFG
   leaves that edge undefined.  A divergence from the paper's Fig. 8,
   which re-budgets after every edge. *)
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

(* The group that serves an op of natural kind [rk] and [width]. *)
let share sharing (rk, width) =
  let rk =
    if
      sharing.merge_add_sub
      && (Resource_kind.equal rk Resource_kind.Adder
         || Resource_kind.equal rk Resource_kind.Subtractor)
    then Resource_kind.Add_sub
    else rk
  in
  (rk, if sharing.width_buckets then next_pow2 width 4 else width)

(* The natural kind and width of an op; [None] for a constant. *)
let natural_kind dfg o =
  let op = Dfg.op dfg o in
  Option.map (fun rk -> (rk, op.Dfg.width)) (Resource_kind.of_op_kind op.Dfg.kind)

(* A resource group: the ops one kind and width of instance serves, and
   how many instances the next pass allocates for them, learned across
   relaxation attempts. *)
type group = { key : Resource_kind.t * int; ops : Dfg.Op_id.t list; mutable count : int }

(* Groups in key order, each starting at [count ops] instances. *)
let groups sharing dfg ops ~count =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun o ->
      match natural_kind dfg o with
      | Some kind ->
        let key = share sharing kind in
        Hashtbl.replace tbl key (o :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
      | None -> ())
    ops;
  Hashtbl.fold (fun key ops acc -> (key, List.rev ops) :: acc) tbl []
  |> List.sort compare
  |> List.map (fun (key, ops) -> { key; ops; count = count ops })

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

exception Check_failed_exn of Check.violation list
exception Cancelled_exn of string

let run_once config ii flow dfg ~lib ~clock ~gamma0 ~cancel =
  let policy = policy flow in
  let cfg = Dfg.cfg dfg in
  let ops = active_ops dfg in
  let n = Dfg.op_count dfg in
  (* Cooperative deadline polls at phase boundaries: a stuck attempt — a
     runaway budgeting loop, an endless relaxation spiral — surfaces as
     [Timed_out] instead of hanging the caller's worker domain. *)
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
  if budget_clock <= 0.0 then Error (Invalid "clock period below register overhead")
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
    let spans0 = Dfg.compute_spans dfg in
    (* The slack flow's one timed DFG: built from [spans0] for the initial
       budget, then re-weighted in place by the per-edge hook.  Two slack
       engines over it serve the whole call, one for budgeting and one for
       the slack priorities; each is reset, after any re-weighting, before
       it is read. *)
    let tdfg = lazy (Timed_dfg.build dfg ~spans:spans0) in
    let engine () = Slack.prepare (Lazy.force tdfg) ~clock:budget_clock in
    let budget_engine = lazy (engine ()) and priority_engine = lazy (engine ()) in
    let set_priorities_slack () =
      let e = Lazy.force priority_engine in
      Slack.reset ~aligned:true e (fun o -> targets.(Dfg.Op_id.to_int o));
      List.iter (fun o -> priorities.(Dfg.Op_id.to_int o) <- Slack.slack e o) ops
    in
    (* Targets from [del]; ops ordered by mobility. *)
    let by_mobility del =
      List.iter
        (fun o ->
          let i = Dfg.Op_id.to_int o in
          let s = spans0.(i) in
          targets.(i) <- del o;
          priorities.(i) <-
            float_of_int
              (Cfg.state_of_edge cfg s.Dfg.late - Cfg.state_of_edge cfg s.Dfg.early))
        ops
    in
    let fastest o = Interval.lo (ranges o) in
    (match policy.start with
    | Fastest -> by_mobility fastest
    | Slowest -> by_mobility (fun o -> Interval.hi (ranges o))
    | Budgeted -> (
      let tdfg = Lazy.force tdfg in
      guard ~at:Check.Boundary (Check.timed_dfg tdfg);
      match
        Obs.span "flow.budget" (fun () ->
            Budget.run ~config:config.budget_config ~engine:(Lazy.force budget_engine) tdfg
              ~clock:budget_clock ~ranges ~sensitivity)
      with
      | Budget.Feasible delays ->
        guard ~at:Check.Boundary (Check.budget dfg ~targets:delays ~ranges);
        guard ~at:Check.Paranoid
          (Check.slack tdfg ~clock:budget_clock ~del:(fun o ->
               delays.(Dfg.Op_id.to_int o)));
        Array.blit delays 0 targets 0 n;
        set_priorities_slack ()
      | Budget.Infeasible _ ->
        (* Fall back to fastest targets; the schedule pass will tell the
           caller whether the design truly needs more states. *)
        by_mobility fastest));
    (* The allocation is rebuilt from the group counts before every pass. *)
    let groups =
      groups config.sharing dfg ops
        ~count:
          (match policy.start with
          | Fastest | Slowest -> fun _ -> 1
          | Budgeted -> slack_instance_count ?ii cfg spans0)
    in
    let group_of kind =
      let key = share config.sharing kind in
      List.find_opt (fun g -> g.key = key) groups
    in
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
    let build_alloc () =
      let alloc = Alloc.create ~grading:config.grading lib in
      List.iter
        (fun { key = rk, width; ops = gops; count } ->
          let grade =
            match policy.start with
            | Fastest -> 0.0
            | Slowest | Budgeted -> median (List.map eff_target gops)
          in
          for _ = 1 to count do
            ignore (Alloc.add_instance alloc ~rk ~width ~delay:grade)
          done)
        groups;
      alloc
    in
    (* Per-edge re-budgeting hook. *)
    let rebudget =
      match (policy.start, config.rebudget_config) with
      | Budgeted, Some bcfg ->
        Some
          (fun sched spans' ->
            if List.exists (fun o -> not (Schedule.is_placed sched o)) ops then begin
              poll "rebudget";
              let tdfg = Lazy.force tdfg in
              if not (Timed_dfg.reweight tdfg ~spans:spans') then
                (* Skipped: see [c_rebudget_unrealizable]. *)
                Obs.incr c_rebudget_unrealizable
              else begin
                let ranges' o =
                  match Schedule.placement sched o with
                  | Some p -> Interval.point p.Schedule.eff_delay
                  | None -> ranges o
                in
                let sens' o d = if Schedule.is_placed sched o then 0.0 else sensitivity o d in
                let retarget del =
                  List.iter
                    (fun o ->
                      if not (Schedule.is_placed sched o) then
                        targets.(Dfg.Op_id.to_int o) <- del o)
                    ops
                in
                Obs.incr c_rebudget_runs;
                match
                  Budget.run ~config:bcfg ~event_phase:"rebudget"
                    ~engine:(Lazy.force budget_engine) tdfg ~clock:budget_clock
                    ~ranges:ranges' ~sensitivity:sens'
                with
                | Budget.Feasible delays ->
                  retarget (fun o -> delays.(Dfg.Op_id.to_int o));
                  set_priorities_slack ()
                | Budget.Infeasible _ ->
                  (* Sharing created violations: demand the fastest grades
                     for what remains (paper: "fixed by decreasing the
                     delays of operations"). *)
                  Obs.incr c_rebudget_infeasible;
                  retarget fastest
              end
            end)
      | (Fastest | Slowest | Budgeted), _ -> None
    in
    (* One plan for every attempt of this run. *)
    let plan = Sched_core.plan dfg ~spans:spans0 in
    let params =
      {
        Sched_core.clock;
        ii;
        priority = priorities;
        target = eff_target;
        upgrade_on_miss = policy.upgrade_on_miss;
        respan = policy.start = Budgeted;
        rebudget;
      }
    in
    (* Relaxation loop (the paper's expert system, resource additions plus
       the slowest-first grade decay; adding states is the caller's
       decision). *)
    let rec attempt relaxations =
      poll "schedule";
      Obs.incr c_attempts;
      let alloc = build_alloc () in
      match Obs.span "flow.schedule" (fun () -> Sched_core.run plan ~alloc params) with
      | Ok sched -> Ok (sched, relaxations)
      | Error f when relaxations < config.max_relaxations -> (
        Obs.incr c_relaxations;
        let widen gs =
          List.iter (fun g -> g.count <- g.count + 1) gs;
          Obs.incr c_resource_adds;
          attempt (relaxations + 1)
        in
        match f.Sched_core.reason with
        | Sched_core.No_resource { rk; width; _ } -> (
          match group_of (rk, width) with Some g -> widen [ g ] | None -> Error f)
        | Sched_core.Retime_failed _ ->
          (* Mux fan-in pushed a chain over the budget: widen every group
             by one instance to dilute sharing. *)
          widen groups
        | Sched_core.Too_slow { op; blame; _ } | Sched_core.No_time { op; blame } ->
          if policy.decay_first && !gamma > 0.02 then begin
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
            let blamed = match blame with Some _ -> blame | None -> natural_kind dfg op in
            match Option.bind blamed group_of with
            | Some g when g.count < List.length g.ops -> widen [ g ]
            | Some _ | None -> decay ()
          end)
      | Error f -> Error f
    in
    match attempt 0 with
    | Error failure -> Error (Sched_failed { failed_flow = flow; failure; recovery_log = [] })
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
          recovery_log = [];
          violations = !collected;
        }
    with
    | Check_failed_exn violations ->
      Error (Validation_failed { failed_flow = flow; violations; recovery_log = [] })
    | Cancelled_exn phase -> Error (Timed_out { failed_flow = flow; phase; recovery_log = [] })
    | Timed_dfg.Unrealizable m -> Error (Invalid ("timed DFG unrealizable: " ^ m))
  end

(* The self-healing retry ladder.  Each rung is cumulative — a later rung
   keeps the earlier rungs' concessions — and bounded by [max_recoveries]:

   + {b relax-budget}: re-run with a more persistent budgeting
     configuration ({!Budget.relax}) and a relaxation allowance of at
     least 16 passes;
   + {b force-fast-grades}: pull every delay target to the fast end of its
     curve ([gamma0 = 0]), the strongest answer to timing starvation. *)
let apply_rung (config, gamma0) = function
  | Relax_budget ->
    ( {
        config with
        budget_config = Budget.relax config.budget_config;
        rebudget_config = Option.map Budget.relax config.rebudget_config;
        max_relaxations = max 16 (2 * config.max_relaxations);
      },
      gamma0 )
  | Force_fast_grades -> (config, 0.0)

let with_recovery_log recovery_log = function
  | Invalid _ as e -> e
  | Validation_failed r -> Validation_failed { r with recovery_log }
  | Sched_failed r -> Sched_failed { r with recovery_log }
  | Timed_out r -> Timed_out { r with recovery_log }

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
        List.filteri
          (fun i _ -> i < config.max_recoveries)
          [ Relax_budget; Force_fast_grades ]
      in
      let fail last log = Error (with_recovery_log (List.rev log) last) in
      let rec escalate state last log = function
        | [] -> fail last log
        | rung :: rest -> (
          match last with
          | Invalid _ | Timed_out _ ->
            (* Config problems make retrying futile; an expired deadline
               makes it forbidden — every further rung would also time out
               at its first poll. *)
            fail last log
          | Validation_failed _ | Sched_failed _ ->
            Obs.incr c_recoveries;
            let ((config', gamma0) as state) = apply_rung state rung in
            let emit_rung outcome =
              if Obs.Events.enabled () then
                Obs.Events.emit
                  (Obs.Events.Recovery_step
                     { rung = recovery_step_name rung; outcome })
            in
            (match run_once config' ii flow dfg ~lib ~clock ~gamma0 ~cancel with
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
                ({ step = rung; outcome = Still_failing (cause f) }
                :: log)
                rest))
      in
      match run_once config ii flow dfg ~lib ~clock ~gamma0:1.0 ~cancel with
      | Ok _ as ok -> ok
      | Error e -> escalate (config, 1.0) e [] ladder)
