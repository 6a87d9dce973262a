type failure_reason =
  | No_resource of { op : Dfg.Op_id.t; rk : Resource_kind.t; width : int }
  | Too_slow of { op : Dfg.Op_id.t; window : float; blame : (Resource_kind.t * int) option }
  | No_time of { op : Dfg.Op_id.t; blame : (Resource_kind.t * int) option }
  | Retime_failed of string

type failure = { reason : failure_reason; message : string }

let pp_failure ppf f = Format.pp_print_string ppf f.message

type params = {
  clock : float;
  ii : int option;
  spans : Dfg.span array;
  priority : Dfg.Op_id.t -> float;
  target : Dfg.Op_id.t -> float;
  upgrade_on_miss : bool;
  respan : bool;
  rebudget : (Schedule.t -> Dfg.span array -> unit) option;
}

exception Fail of failure

let eps = 1e-6

type attempt = Placed | Defer of failure_reason

(* Telemetry (paper §VI, Fig. 8): per-CFG-edge scheduler events.  Deferral
   counters split by reason so a failing run's event stream shows whether
   the bottleneck was resources, windows, or ready-time starvation. *)
let c_runs = Obs.counter "sched.runs"
let c_edges = Obs.counter "sched.edges"
let c_sweeps = Obs.counter "sched.ready_sweeps"
let c_ready = Obs.counter "sched.ready_ops"
let c_ready_checks = Obs.counter "sched.ready_checks"
let c_placements = Obs.counter "sched.placements"
let c_defer_res = Obs.counter "sched.defer.no_resource"
let c_defer_slow = Obs.counter "sched.defer.too_slow"
let c_defer_time = Obs.counter "sched.defer.no_time"
let c_upgrades = Obs.counter "sched.upgrades_on_miss"
let c_respans = Obs.counter "sched.respans"
let c_failures = Obs.counter "sched.failures"
let c_retime_repairs = Obs.counter "sched.retime_repairs"

let count_defer = function
  | No_resource _ -> Obs.incr c_defer_res
  | Too_slow _ -> Obs.incr c_defer_slow
  | No_time _ -> Obs.incr c_defer_time
  | Retime_failed _ -> ()

let run dfg ~alloc params =
  Obs.incr c_runs;
  let cfg = Dfg.cfg dfg in
  let sched = Schedule.create ?ii:params.ii dfg ~clock:params.clock ~alloc in
  let budget = Schedule.step_budget sched in
  let pin o =
    Option.map (fun p -> p.Schedule.edge) (Schedule.placement sched o)
  in
  let spans = ref params.spans in
  let n = Dfg.op_count dfg in
  let is_active =
    Array.init n (fun i ->
        match (Dfg.op dfg (Dfg.Op_id.of_int i)).Dfg.kind with Dfg.Const _ -> false | _ -> true)
  in
  let active o = is_active.(Dfg.Op_id.to_int o) in
  let active_ops = Array.of_list (List.filter active (Dfg.ops dfg)) in
  (* Per-pass indexes over state that [sched] and [alloc] own.  No instance
     is added during a pass, so they are sized once; [Schedule.placements]
     stays the source of truth, and these die with the pass.

     [bookings] holds each instance's placements by step slot (the step,
     or the step modulo the II under pipelining): {!Schedule.conflict}
     only fires between placements of one slot, so the booking test walks
     that slot alone.  [fanin] is each instance's placement count. *)
  let n_inst = Alloc.count alloc in
  let n_slots = match params.ii with Some k -> k | None -> Cfg.max_state_index cfg + 1 in
  let slot_of step = match params.ii with Some k -> step mod k | None -> step in
  let bookings = Array.init n_inst (fun _ -> Array.make n_slots []) in
  let fanin = Array.make n_inst 0 in
  let fanin_of c = fanin.(Alloc.Inst_id.to_int c.Alloc.id) in
  (* Compatible instances of each op, in instance order; ops of one
     (kind, width) share one array. *)
  let compatible = Array.make n [||] in
  let by_kind = ref [] in
  let all_insts = Alloc.instances alloc in
  Array.iter
    (fun o ->
      let op = Dfg.op dfg o in
      let key = (op.Dfg.kind, op.Dfg.width) in
      compatible.(Dfg.Op_id.to_int o) <-
        (match List.assoc_opt key !by_kind with
        | Some insts -> insts
        | None ->
          let insts =
            Array.of_list
              (List.filter
                 (fun i -> Alloc.compatible i ~op_kind:op.Dfg.kind ~width:op.Dfg.width)
                 all_insts)
          in
          by_kind := (key, insts) :: !by_kind;
          insts))
    active_ops;
  (* The dependency frontier: the unplaced active ops whose forward
     predecessors are all placed, which every ready op is.  [waiting]
     counts each op's unplaced predecessor-list entries (a repeated
     dependency counts twice, as it appears twice in [Dfg.succs]); the
     frontier is an unordered array with O(1) insert and remove through
     [frontier_pos]. *)
  let waiting = Array.make n 0 in
  let frontier = Array.make n 0 in
  let frontier_size = ref 0 in
  let frontier_pos = Array.make n (-1) in
  let enter i =
    frontier_pos.(i) <- !frontier_size;
    frontier.(!frontier_size) <- i;
    incr frontier_size
  in
  let leave i =
    let k = frontier_pos.(i) in
    decr frontier_size;
    let last = frontier.(!frontier_size) in
    frontier.(k) <- last;
    frontier_pos.(last) <- k;
    frontier_pos.(i) <- -1
  in
  Array.iter
    (fun o ->
      let i = Dfg.Op_id.to_int o in
      List.iter
        (fun p -> if not (Schedule.is_placed sched p) then waiting.(i) <- waiting.(i) + 1)
        (Dfg.preds dfg o);
      if waiting.(i) = 0 then enter i)
    active_ops;
  let on_placed o =
    leave (Dfg.Op_id.to_int o);
    List.iter
      (fun s ->
        let j = Dfg.Op_id.to_int s in
        waiting.(j) <- waiting.(j) - 1;
        if waiting.(j) = 0 && is_active.(j) then enter j)
      (Dfg.succs dfg o)
  in
  (* Topological index of each active op's span-end edge, the first key of
     the ready order; refreshed after every respan. *)
  let late_idx = Array.make n 0 in
  let refresh_late_idx () =
    Array.iter
      (fun o ->
        let i = Dfg.Op_id.to_int o in
        late_idx.(i) <- Cfg.edge_topo_index cfg (!spans).(i).Dfg.late)
      active_ops
  in
  refresh_late_idx ();
  let span_of o = (!spans).(Dfg.Op_id.to_int o) in
  let mux_pen inputs = Library.mux_delay (Alloc.library alloc) ~inputs in
  (* When an operation starves (its producers finish too late for any
     window to remain), the actionable bottleneck is usually a resource
     group several chain links upstream.  Walk the latest-finishing
     producer chain: move to the latest pred while it shares the failing
     step or finishes late in its own step; blame where the walk stops. *)
  let blame_for o fail_step =
    let latest_pred o =
      List.fold_left
        (fun acc p ->
          match Schedule.placement sched p with
          | None -> acc
          | Some pp -> (
            let fin = pp.Schedule.start +. pp.Schedule.eff_delay in
            match acc with
            | Some (_, bs, bf) when (bs, bf) >= (pp.Schedule.step, fin) -> acc
            | Some _ | None -> Some (p, pp.Schedule.step, fin)))
        None (Dfg.preds dfg o)
    in
    let budget_late = 0.7 *. budget in
    let rec walk o step =
      match latest_pred o with
      | Some (p, ps, fin) when ps = step || fin > budget_late -> walk p ps
      | Some _ | None -> o
    in
    let culprit = walk o fail_step in
    let op = Dfg.op dfg culprit in
    match Resource_kind.of_op_kind op.Dfg.kind with
    | Some rk -> Some (rk, op.Dfg.width)
    | None -> None
  in
  (* Readiness of [o] on edge [e]: the edge lies in o's span, every
     forward predecessor is placed with its value available here, and
     under pipelining no already-placed loop-carried partner's recurrence
     window is violated by this step. *)
  let lc_ok o step =
    List.for_all
      (fun (p, lc) ->
        (not lc)
        ||
        match Schedule.placement sched p with
        | Some pp -> Schedule.lc_step_ok sched ~producer_step:pp.Schedule.step ~consumer_step:step
        | None -> true)
      (Dfg.all_preds dfg o)
    && List.for_all
         (fun (c, lc) ->
           (not lc)
           ||
           match Schedule.placement sched c with
           | Some pc -> Schedule.lc_step_ok sched ~producer_step:step ~consumer_step:pc.Schedule.step
           | None -> true)
         (Dfg.all_succs dfg o)
  in
  let ready_on o e step =
    let s = span_of o in
    Cfg.reaches cfg s.Dfg.early e
    && Cfg.reaches cfg e s.Dfg.late
    && List.for_all
         (fun p ->
           match Schedule.placement sched p with
           | None -> false
           | Some pp -> pp.Schedule.step < step || Cfg.reaches cfg pp.Schedule.edge e)
         (Dfg.preds dfg o)
    && lc_ok o step
  in
  let ready_time o step =
    List.fold_left
      (fun acc p ->
        match Schedule.placement sched p with
        | Some pp when pp.Schedule.step = step ->
          Float.max acc (pp.Schedule.start +. pp.Schedule.eff_delay)
        | Some _ | None -> acc)
      0.0 (Dfg.preds dfg o)
  in
  let rec booked here = function
    | [] -> false
    | p :: rest -> Schedule.conflict sched here p || booked here rest
  in
  (* By-grade order, the instance preference: cheapest (slowest) grade
     first; among equal grades the emptiest instance, so sharing — and its
     mux penalty — spreads; then instance order, which callers keep by
     scanning in it.  Grades and fan-ins change during a pass, so the
     order is evaluated at every try. *)
  let before a b =
    match Float.compare b.Alloc.point.Curve.delay a.Alloc.point.Curve.delay with
    | 0 -> fanin_of a < fanin_of b
    | c -> c < 0
  in
  let eff_of c = c.Alloc.point.Curve.delay +. mux_pen (fanin_of c + 1) in
  let try_place_raw o e step =
    let op = Dfg.op dfg o in
    let rt = ready_time o step in
    let window = budget -. rt in
    if window < -.eps then Defer (No_time { op = o; blame = blame_for o step })
    else begin
      let here = { Schedule.edge = e; step; start = rt; eff_delay = 0.0; inst = None } in
      let slot = slot_of step in
      let slot_bookings c = bookings.(Alloc.Inst_id.to_int c.Alloc.id).(slot) in
      let cands = compatible.(Dfg.Op_id.to_int o) in
      let do_place c =
        let eff = eff_of c in
        Schedule.place sched o ~edge:e ~start:rt ~eff_delay:eff ~inst:(Some c.Alloc.id);
        let k = Alloc.Inst_id.to_int c.Alloc.id in
        bookings.(k).(slot) <- Option.get (Schedule.placement sched o) :: bookings.(k).(slot);
        fanin.(k) <- fanin.(k) + 1;
        on_placed o;
        Placed
      in
      (* Among the free instances whose effective delay fits the window,
         prefer the first in by-grade order not slower than the budgeted
         target (cheapest honouring the plan); if every fitting instance is
         slower than the target, take the last, the fastest fitting one, to
         leave room for chained consumers. *)
      let target = params.target o in
      let any_free = ref false and near = ref (-1) and last = ref (-1) in
      for k = 0 to Array.length cands - 1 do
        let c = cands.(k) in
        if not (booked here (slot_bookings c)) then begin
          any_free := true;
          if eff_of c <= window +. eps then begin
            if
              c.Alloc.point.Curve.delay <= target +. 1.0
              && (!near < 0 || before c cands.(!near))
            then near := k;
            if !last < 0 || not (before c cands.(!last)) then last := k
          end
        end
      done;
      if !near >= 0 then do_place cands.(!near)
      else if !last >= 0 then do_place cands.(!last)
      else if not !any_free then begin
        match Resource_kind.of_op_kind op.Dfg.kind with
        | Some rk -> Defer (No_resource { op = o; rk; width = op.Dfg.width })
        | None -> assert false (* constants never reach try_place *)
      end
      else begin
        (* Nothing fits: optionally upgrade the free instance whose area
           damage is smallest, ties to the earlier in by-grade order. *)
        let best = ref (-1) and best_cost = ref 0.0 in
        if params.upgrade_on_miss then
          for k = 0 to Array.length cands - 1 do
            let c = cands.(k) in
            if
              (not (booked here (slot_bookings c)))
              && Curve.min_delay c.Alloc.curve +. mux_pen (fanin_of c + 1) <= window +. eps
            then begin
              let needed = window -. mux_pen (fanin_of c + 1) in
              let cost = Curve.area_at c.Alloc.curve needed -. c.Alloc.point.Curve.area in
              if
                !best < 0 || cost < !best_cost
                || (cost = !best_cost && before c cands.(!best))
              then begin
                best := k;
                best_cost := cost
              end
            end
          done;
        if !best >= 0 then begin
          let c = cands.(!best) in
          let needed = window -. mux_pen (fanin_of c + 1) in
          if Alloc.upgrade_to_fit alloc c.Alloc.id ~max_delay:needed then begin
            Obs.incr c_upgrades;
            do_place c
          end
          else Defer (Too_slow { op = o; window; blame = blame_for o step })
        end
        else if window <= eps then Defer (No_time { op = o; blame = blame_for o step })
        else Defer (Too_slow { op = o; window; blame = blame_for o step })
      end
    end
  in
  let try_place o e step =
    match try_place_raw o e step with
    | Placed ->
      Obs.incr c_placements;
      Placed
    | Defer reason as d ->
      count_defer reason;
      d
  in
  let fail op_name reason =
    let message =
      match reason with
      | No_resource { rk; width; _ } ->
        Printf.sprintf "op %s: no free %s (w%d) instance on its last span edge" op_name
          (Resource_kind.name rk) width
      | Too_slow { window; _ } ->
        Printf.sprintf "op %s: no instance fits the %.0f ps window on its last span edge"
          op_name window
      | No_time _ ->
        Printf.sprintf "op %s: ready time exhausts the step budget; more states needed"
          op_name
      | Retime_failed m -> m
    in
    Obs.incr c_failures;
    raise (Fail { reason; message })
  in
  (* Ops whose span ends here go first, then by priority, then by id. *)
  let ready_order a b =
    match Int.compare late_idx.(Dfg.Op_id.to_int a) late_idx.(Dfg.Op_id.to_int b) with
    | 0 -> (
      match Float.compare (params.priority a) (params.priority b) with
      | 0 -> Dfg.Op_id.compare a b
      | c -> c)
    | c -> c
  in
  let ev_on () = Obs.Events.enabled () in
  let emit_pick o e step ~ready_set_size =
    Obs.Events.emit
      (Obs.Events.Op_picked
         {
           op = (Dfg.op dfg o).Dfg.name;
           edge = Cfg.Edge_id.to_int e;
           step;
           priority = params.priority o;
           ready_set_size;
         })
  in
  try
    List.iter
      (fun e ->
        Obs.incr c_edges;
        let step = Cfg.state_of_edge cfg e in
        let placed_here = ref 0 in
        let deferred_here = ref 0 in
        let progress = ref true in
        while !progress do
          progress := false;
          Obs.incr c_sweeps;
          (* Only frontier ops can be ready; the ready order is total, so the
             frontier's own order does not matter. *)
          Obs.add c_ready_checks !frontier_size;
          let ready = ref [] in
          for k = 0 to !frontier_size - 1 do
            let o = Dfg.Op_id.of_int frontier.(k) in
            if ready_on o e step then ready := o :: !ready
          done;
          let ready = List.sort ready_order !ready in
          let nready = List.length ready in
          Obs.add c_ready nready;
          List.iter
            (fun o ->
              match try_place o e step with
              | Placed ->
                progress := true;
                incr placed_here;
                if ev_on () then emit_pick o e step ~ready_set_size:nready
              | Defer _ -> incr deferred_here)
            ready
        done;
        (* Paper step (b): an op whose span ends here must be placed.  The
           sweep follows dependency order so that when a chain is stuck the
           blocking producer reports its own (actionable) failure before a
           merely-waiting consumer reports a misleading one. *)
        List.iter
          (fun o ->
            if
              active o
              && (not (Schedule.is_placed sched o))
              && Cfg.Edge_id.equal (span_of o).Dfg.late e
            then begin
              match
                if ready_on o e step then try_place o e step
                else Defer (No_time { op = o; blame = blame_for o step })
              with
              | Placed ->
                incr placed_here;
                (* Span-end forced placement: the op was the only candidate. *)
                if ev_on () then emit_pick o e step ~ready_set_size:1
              | Defer reason -> fail (Dfg.op dfg o).Dfg.name reason
            end)
          (Dfg.topo_order dfg);
        if ev_on () then
          Obs.Events.emit
            (Obs.Events.Edge_scheduled
               {
                 edge = Cfg.Edge_id.to_int e;
                 step;
                 placed = !placed_here;
                 deferred = !deferred_here;
               });
        if params.respan then begin
          Obs.incr c_respans;
          spans := Dfg.compute_spans ~pin dfg;
          refresh_late_idx ()
        end;
        match params.rebudget with Some f -> f sched !spans | None -> ())
      (Cfg.forward_edges_topo cfg);
    (* Everything must be placed by now. *)
    Array.iter
      (fun o ->
        if not (Schedule.is_placed sched o) then
          fail (Dfg.op dfg o).Dfg.name (No_time { op = o; blame = None }))
      active_ops;
    (* Final retiming with exact mux fan-ins.  Binding charged each op a
       fan-in-at-bind-time penalty; later arrivals on the same instance can
       push earlier chains past the budget.  Repair by speeding up the
       slowest instance on the violating chain until the schedule verifies
       (a bounded, delay-decreasing loop). *)
    let chain_instances culprit =
      let seen = Hashtbl.create 8 in
      let insts = ref [] in
      let rec walk o =
        if not (Hashtbl.mem seen (Dfg.Op_id.to_int o)) then begin
          Hashtbl.replace seen (Dfg.Op_id.to_int o) ();
          match Schedule.placement sched o with
          | None -> ()
          | Some p ->
            (match p.Schedule.inst with
            | Some id -> insts := id :: !insts
            | None -> ());
            List.iter
              (fun pr ->
                match Schedule.placement sched pr with
                | Some pp when pp.Schedule.step = p.Schedule.step -> walk pr
                | Some _ | None -> ())
              (Dfg.preds dfg o)
        end
      in
      walk culprit;
      List.sort_uniq Alloc.Inst_id.compare !insts
    in
    let rec repair tries =
      match Schedule.retime sched with
      | Ok () -> Ok sched
      | Error v when tries > 0 -> (
        match v.Schedule.culprit with
        | None ->
          Error
            { reason = Retime_failed v.Schedule.detail;
              message = "final retiming failed: " ^ v.Schedule.detail }
        | Some culprit -> (
          let candidates =
            chain_instances culprit
            |> List.map (fun id -> Alloc.instance alloc id)
            |> List.filter (fun i ->
                   i.Alloc.point.Curve.delay > Curve.min_delay i.Alloc.curve +. eps)
            |> List.sort (fun a b ->
                   Float.compare b.Alloc.point.Curve.delay a.Alloc.point.Curve.delay)
          in
          match candidates with
          | [] ->
            Error
              { reason = Retime_failed v.Schedule.detail;
                message = "final retiming failed (chain already fastest): " ^ v.Schedule.detail }
          | i :: _ ->
            Obs.incr c_retime_repairs;
            let want = i.Alloc.point.Curve.delay -. v.Schedule.overshoot -. 1.0 in
            Alloc.set_grade alloc i.Alloc.id
              ~delay:(Float.max (Curve.min_delay i.Alloc.curve) want);
            repair (tries - 1)))
      | Error v ->
        Error
          { reason = Retime_failed v.Schedule.detail;
            message = "final retiming failed: " ^ v.Schedule.detail }
    in
    repair 200
  with Fail f -> Error f
