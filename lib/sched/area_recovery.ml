let eps = 1e-6

let latest_starts sched =
  let dfg = sched.Schedule.dfg in
  let budget = Schedule.step_budget sched in
  let n = Dfg.op_count dfg in
  let ls = Array.make n nan in
  let order = List.rev (Dfg.topo_order dfg) in
  List.iter
    (fun oid ->
      let i = Dfg.Op_id.to_int oid in
      match Schedule.placement sched oid with
      | None -> ()
      | Some p ->
        (match (Dfg.op dfg oid).Dfg.kind with
        | Dfg.Const _ -> ()
        | _ ->
          let bound = ref (budget -. p.Schedule.eff_delay) in
          List.iter
            (fun c ->
              match Schedule.placement sched c with
              | Some pc when pc.Schedule.step = p.Schedule.step ->
                let lc = ls.(Dfg.Op_id.to_int c) in
                if not (Float.is_nan lc) then
                  bound := Float.min !bound (lc -. p.Schedule.eff_delay)
              | Some _ | None -> ())
            (Dfg.succs dfg oid);
          ls.(i) <- !bound))
    order;
  ls

(* Telemetry: area-recovery slowdowns are the paper's "conventional flow"
   cost centre the slack budget tries to make unnecessary. *)
let c_sweeps = Obs.counter "recovery.sweeps"
let c_regrades = Obs.counter "recovery.regrades"
let c_rollbacks = Obs.counter "recovery.rollbacks"

let run ?(max_iters = 20) sched =
  let alloc = sched.Schedule.alloc in
  let dfg = sched.Schedule.dfg in
  let regrades = ref 0 in
  let frozen = Hashtbl.create 8 in
  (* Recovery re-grades instances but never moves a placement, so each
     instance's ops, and what a regrade can re-time, are fixed. *)
  let ops_of = Schedule.ops_by_inst sched in
  let retimer = Schedule.retimer sched in
  let sweep_no = ref 0 in
  let rec sweep k =
    if k <= 0 then ()
    else begin
      Obs.incr c_sweeps;
      incr sweep_no;
      (match Schedule.retime sched with
      | Ok () -> ()
      | Error v ->
        invalid_arg ("Area_recovery.run: infeasible input schedule: " ^ v.Schedule.detail));
      let ls = latest_starts sched in
      let changed = ref false in
      List.iter
        (fun inst ->
          let id = inst.Alloc.id in
          if not (Hashtbl.mem frozen id) then begin
            let ops = ops_of.(Alloc.Inst_id.to_int id) in
            if ops <> [] then begin
              let headroom =
                List.fold_left
                  (fun acc o ->
                    match Schedule.placement sched o with
                    | Some p ->
                      let l = ls.(Dfg.Op_id.to_int o) in
                      if Float.is_nan l then acc else Float.min acc (l -. p.Schedule.start)
                    | None -> acc)
                  infinity ops
              in
              if headroom > 1.0 && headroom < infinity then begin
                let old = inst.Alloc.point in
                Alloc.set_grade alloc id ~delay:(old.Curve.delay +. headroom);
                let now = (Alloc.instance alloc id).Alloc.point in
                if now.Curve.delay > old.Curve.delay +. eps then begin
                  (* Only this instance's ops changed delay, and only they
                     and the chains they feed within a step can move. *)
                  match Schedule.retime_ops retimer ops with
                  | Ok () ->
                    incr regrades;
                    Obs.incr c_regrades;
                    (* Every op bound to the regraded instance got slower. *)
                    if Obs.Events.enabled () then
                      List.iter
                        (fun o ->
                          Obs.Events.emit
                            (Obs.Events.Delay_update
                               {
                                 op = (Dfg.op dfg o).Dfg.name;
                                 phase = "recovery";
                                 round = !sweep_no;
                                 from_ps = old.Curve.delay;
                                 to_ps = now.Curve.delay;
                               }))
                        ops;
                    changed := true
                  | Error _ ->
                    (* [retime_ops] restored every start and effective
                       delay it had changed. *)
                    Obs.incr c_rollbacks;
                    Alloc.set_grade alloc id ~delay:old.Curve.delay;
                    Hashtbl.replace frozen id ()
                end
                else Alloc.set_grade alloc id ~delay:old.Curve.delay
              end
            end
          end)
        (Alloc.instances alloc);
      if !changed then sweep (k - 1)
    end
  in
  sweep max_iters;
  (match Schedule.retime sched with
  | Ok () -> ()
  | Error v -> invalid_arg ("Area_recovery.run: final retime failed: " ^ v.Schedule.detail));
  !regrades
