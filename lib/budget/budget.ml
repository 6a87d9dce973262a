type engine = Two_pass | Bellman_ford_baseline

type config = {
  margin_frac : float;
  aligned : bool;
  max_rounds : int;
  bisection_steps : int;
  engine : engine;
}

let default_config =
  {
    margin_frac = 0.05;
    aligned = true;
    max_rounds = 24;
    bisection_steps = 24;
    engine = Two_pass;
  }

(* The recovery ladder's "try budgeting harder" rung: a coarser slack bin
   (fewer, larger updates converge on stubborn designs), more refinement
   rounds and a finer bisection.  Idempotent enough to apply repeatedly. *)
let relax c =
  {
    c with
    margin_frac = Float.min 0.25 (c.margin_frac *. 2.0);
    max_rounds = max 8 (c.max_rounds * 2);
    bisection_steps = max 16 (c.bisection_steps + 8);
  }

type infeasible = {
  slack_at_min : Slack.result;
  critical : Dfg.Op_id.t list;
}

type outcome = Feasible of float array | Infeasible of infeasible

(* Telemetry (paper §V): phase-1 bisection steps repair negative slack,
   phase-2 rounds distribute positive slack as per-op delay updates;
   freezes bound the updates any op can trigger (the slack-binning
   argument for bounded budgeting work). *)
let c_runs = Obs.counter "budget.runs"
let c_infeasible = Obs.counter "budget.infeasible"
let c_probes = Obs.counter "budget.feasibility_probes"
let c_bisect = Obs.counter "budget.bisection_steps"
let c_rounds = Obs.counter "budget.rounds"
let c_updates = Obs.counter "budget.delay_updates"
let c_half = Obs.counter "budget.half_retries"
let c_freezes = Obs.counter "budget.freezes"

let knob ~lambda r = Interval.lo r +. (lambda *. Interval.width r)

let delays_at ~lambda tdfg ~ranges =
  Array.init (Dfg.op_count (Timed_dfg.dfg tdfg)) (fun i ->
      knob ~lambda (ranges (Dfg.Op_id.of_int i)))

let run ?(config = default_config) ?(event_phase = "budget") tdfg ~clock ~ranges
    ~sensitivity =
  let eps = 1e-6 in
  let margin = config.margin_frac *. clock in
  let dfg = Timed_dfg.dfg tdfg in
  let op_name o = (Dfg.op dfg o).Dfg.name in
  let ev_on () = Obs.Events.enabled () in
  Obs.incr c_runs;
  (* [ranges] is pure within a run: evaluate it once per op. *)
  let range = Array.init (Dfg.op_count dfg) (fun i -> ranges (Dfg.Op_id.of_int i)) in
  let range_of o = range.(Dfg.Op_id.to_int o) in
  let at lambda o = knob ~lambda (range_of o) in
  (* Every check — probe, bump or half-bump — prices the prior-work
     fixpoint under the Bellman–Ford baseline; its (unaligned) result is
     discarded in favour of the engine's aligned values. *)
  let price del =
    match config.engine with
    | Two_pass -> ()
    | Bellman_ford_baseline -> ignore (Bf_timing.analyze tdfg ~clock ~del)
  in
  (* One engine for the whole run, holding the delays at knob [held]
     through phase 1; a probe resets every delay. *)
  let e = Slack.create ~aligned:config.aligned tdfg ~clock ~del:(at 0.0) in
  let held = ref 0.0 in
  let hold lambda =
    if not (Float.equal !held lambda) then begin
      Slack.reset e (at lambda);
      held := lambda
    end
  in
  let feasible () = Slack.min_slack e >= -.eps in
  let probe lambda =
    Obs.incr c_probes;
    price (at lambda);
    hold lambda;
    feasible ()
  in
  (* Phase 1 (negative slack repair): find the largest uniform knob that is
     feasible.  Monotonicity: raising any delay can only lower slacks. *)
  if not (probe 0.0) then begin
    Obs.incr c_infeasible;
    let r = Slack.result e in
    Infeasible { slack_at_min = r; critical = Slack.critical_ops tdfg r }
  end
  else begin
    let lambda =
      if probe 1.0 then 1.0
      else begin
        let lo = ref 0.0 and hi = ref 1.0 in
        for _ = 1 to config.bisection_steps do
          Obs.incr c_bisect;
          let mid = 0.5 *. (!lo +. !hi) in
          if probe mid then lo := mid else hi := mid
        done;
        !lo
      end
    in
    hold lambda;
    let delays = delays_at ~lambda tdfg ~ranges:range_of in
    let ops = Timed_dfg.active_ops tdfg in
    (* The uniform raise is itself a per-op budget update for every op with
       a non-degenerate delay range. *)
    (if lambda > 0.0 then begin
       let raised = List.filter (fun o -> Interval.width (range_of o) > eps) ops in
       Obs.add c_updates (List.length raised);
       (* The uniform phase-1 raise reported as round 0. *)
       if ev_on () then
         List.iter
           (fun o ->
             let i = Dfg.Op_id.to_int o in
             Obs.Events.emit
               (Obs.Events.Delay_update
                  {
                    op = op_name o;
                    phase = event_phase;
                    round = 0;
                    from_ps = Interval.lo (range_of o);
                    to_ps = delays.(i);
                  }))
           raised
     end);
    (* Phase 2 (positive budgeting): raise individual delays up to their
       binned slack, most area-sensitive ops first, verifying after each
       tentative increase.  An op whose increase fails verification is
       frozen for the remaining rounds.  The engine holds the committed
       delays throughout; a failed increase is rolled back. *)
    let n = Array.length delays in
    let frozen = Array.make n false in
    let del o = delays.(Dfg.Op_id.to_int o) in
    let try_delay o d =
      delays.(Dfg.Op_id.to_int o) <- d;
      price del;
      Slack.set_delay e o d;
      feasible ()
    in
    let round_no = ref 0 in
    let round () =
      Obs.incr c_rounds;
      incr round_no;
      let rn = !round_no in
      let updates_this_round = ref 0 in
      if ev_on () then
        List.iter
          (fun o ->
            Obs.Events.emit
              (Obs.Events.Slack_computed
                 {
                   op = op_name o;
                   phase = event_phase;
                   round = rn;
                   slack_ps = Slack.slack e o;
                 }))
          ops;
      let by_gain =
        let gain o =
          let i = Dfg.Op_id.to_int o in
          let headroom = Interval.hi (range_of o) -. delays.(i) in
          let s = Slack.slack e o in
          if frozen.(i) || headroom <= eps || s <= margin then 0.0
          else sensitivity o delays.(i) *. Float.min s headroom
        in
        List.filter_map (fun o -> let g = gain o in if g > 0.0 then Some (g, o) else None) ops
        |> List.stable_sort (fun (a, _) (b, _) -> Float.compare b a)
        |> List.map snd
      in
      let changed = ref false in
      let accept o old =
        Slack.commit e;
        Obs.incr c_updates;
        incr updates_this_round;
        if ev_on () then
          Obs.Events.emit
            (Obs.Events.Delay_update
               {
                 op = op_name o;
                 phase = event_phase;
                 round = rn;
                 from_ps = old;
                 to_ps = del o;
               });
        changed := true
      in
      List.iter
        (fun o ->
          let i = Dfg.Op_id.to_int o in
          if not frozen.(i) then begin
            let s = Slack.slack e o in
            let headroom = Interval.hi (range_of o) -. delays.(i) in
            (* Fair-share stepping: never grab the whole slack at once, so
               ops sharing a path converge to similar delays instead of the
               first visitor consuming everything (which snaps poorly to
               discrete curve points later). *)
            let bump = Float.min (Float.min s headroom) (Float.max margin (s /. 3.0)) in
            if bump > margin +. eps || (bump > eps && Float.abs (bump -. headroom) < eps)
            then begin
              let old = delays.(i) in
              if try_delay o (old +. bump) then accept o old
              else begin
                (* Retry with half the bump before freezing: alignment makes
                   slack a conservative, not exact, headroom estimate. *)
                Slack.rollback e;
                Obs.incr c_half;
                if try_delay o (old +. (0.5 *. bump)) && 0.5 *. bump > margin then
                  accept o old
                else begin
                  Slack.rollback e;
                  delays.(i) <- old;
                  frozen.(i) <- true;
                  Obs.incr c_freezes
                end
              end
            end
          end)
        by_gain;
      if ev_on () then
        Obs.Events.emit
          (Obs.Events.Budget_round { round = rn; updates = !updates_this_round });
      !changed
    in
    let rec loop k = if k > 0 && round () then loop (k - 1) in
    loop config.max_rounds;
    Feasible delays
  end
