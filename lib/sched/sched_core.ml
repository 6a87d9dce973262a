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
  priority : float array;
  target : Dfg.Op_id.t -> float;
  upgrade_on_miss : bool;
  respan : bool;
  rebudget : (Schedule.t -> Dfg.span array -> unit) option;
}

exception Fail of failure

let eps = 1e-6

(* A placement try's outcome.  A deferral carries only its kind, which is
   all the counters and the ready loop read; [reason] builds the full
   failure reason only where a span-end try fails the pass. *)
type attempt = Placed | Defer_no_resource | Defer_too_slow | Defer_no_time

(* What every pass of a run re-derived from the graph and the unpinned
   spans, by op index.  The pass scratch below the split is reset by each
   pass before it is read, so the passes of one run, which are sequential,
   can share it; nothing above the split is written after [plan]. *)
type plan = {
  dfg : Dfg.t;
  spans : Dfg.span array;  (* unpinned, shared with the caller *)
  active : int array;  (* the non-constant ops, in index order *)
  is_active : bool array;
  preds : int array array;  (* Dfg's forward predecessors *)
  position : int array;  (* Dfg's topological positions *)
  lc_preds : int array array;  (* loop-carried predecessors *)
  lc_succs : int array array;  (* loop-carried successors *)
  keys : (Dfg.op_kind * int) array;  (* each (kind, width) once *)
  key_of : int array;  (* op -> index in [keys] *)
  waiting0 : int array;  (* unplaced predecessor entries at pass start *)
  frontier0 : int array;  (* the active ops with none *)
  late_idx0 : int array;  (* topological index of the span-end edge *)
  ends : int array array;
      (* forward edge index -> the active ops whose unpinned span ends
         there, in topological order *)
  (* Pass scratch. *)
  step_of : int array;  (* -1 while unplaced *)
  edge_of : Cfg.Edge_id.t array;
  finish : float array;  (* start + effective delay *)
  waiting : int array;
  frontier : int array;
  frontier_pos : int array;
  late_idx : int array;  (* the respanned [late_idx0] *)
  final : attempt array;  (* a final deferral on the current edge; [Placed] if none *)
  new_ends : int list array;  (* respanned ops, by their new span-end edge *)
}

let plan dfg ~spans =
  let cfg = Dfg.cfg dfg in
  let n = Dfg.op_count dfg in
  let op i = Dfg.op dfg (Dfg.Op_id.of_int i) in
  let is_active =
    Array.init n (fun i -> match (op i).Dfg.kind with Dfg.Const _ -> false | _ -> true)
  in
  let active = Array.of_list (List.filter (fun i -> is_active.(i)) (List.init n Fun.id)) in
  let preds = Dfg.pred_array dfg in
  let loop_carried adj =
    Array.init n (fun i ->
        Array.of_list
          (List.filter_map
             (fun (p, lc) -> if lc then Some (Dfg.Op_id.to_int p) else None)
             (adj dfg (Dfg.Op_id.of_int i))))
  in
  let index = Hashtbl.create 8 and keys = ref [] in
  let key_of = Array.make n (-1) in
  Array.iter
    (fun i ->
      let key = ((op i).Dfg.kind, (op i).Dfg.width) in
      key_of.(i) <-
        (match Hashtbl.find_opt index key with
        | Some k -> k
        | None ->
          let k = Hashtbl.length index in
          Hashtbl.add index key k;
          keys := key :: !keys;
          k))
    active;
  (* Constants are placed before a pass starts; a repeated dependency
     counts twice, as it appears twice in [Dfg.succs]. *)
  let waiting0 =
    Array.map
      (fun ps -> Array.fold_left (fun c p -> if is_active.(p) then c + 1 else c) 0 ps)
      preds
  in
  let late_idx0 = Array.make n 0 in
  Array.iter (fun i -> late_idx0.(i) <- Cfg.edge_topo_index cfg spans.(i).Dfg.late) active;
  let ends = Array.make (List.length (Cfg.forward_edges_topo cfg)) [] in
  let order = Dfg.topo_array dfg in
  for k = Array.length order - 1 downto 0 do
    let i = order.(k) in
    if is_active.(i) then ends.(late_idx0.(i)) <- i :: ends.(late_idx0.(i))
  done;
  {
    dfg;
    spans;
    active;
    is_active;
    preds;
    position = Dfg.topo_position dfg;
    lc_preds = loop_carried Dfg.all_preds;
    lc_succs = loop_carried Dfg.all_succs;
    keys = Array.of_list (List.rev !keys);
    key_of;
    waiting0;
    frontier0 =
      Array.of_list (List.filter (fun i -> waiting0.(i) = 0) (Array.to_list active));
    late_idx0;
    ends = Array.map Array.of_list ends;
    step_of =
      Array.init n (fun i ->
          if is_active.(i) then -1 else Cfg.state_of_edge cfg (op i).Dfg.birth);
    edge_of = Array.init n (fun i -> (op i).Dfg.birth);
    finish = Array.make n 0.0;
    waiting = Array.make n 0;
    frontier = Array.make n 0;
    frontier_pos = Array.make n (-1);
    late_idx = Array.make n 0;
    final = Array.make n Placed;
    new_ends = Array.make (Array.length ends) [];
  }

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
  | Defer_no_resource -> Obs.incr c_defer_res
  | Defer_too_slow -> Obs.incr c_defer_slow
  | Defer_no_time -> Obs.incr c_defer_time
  | Placed -> ()

let run plan ~alloc params =
  Obs.incr c_runs;
  let dfg = plan.dfg in
  let cfg = Dfg.cfg dfg in
  let sched = Schedule.create ?ii:params.ii dfg ~clock:params.clock ~alloc in
  let budget = Schedule.step_budget sched in
  let n = Dfg.op_count dfg in
  let { preds; step_of; edge_of; finish; waiting; frontier; frontier_pos; final; new_ends; _ } =
    plan
  in
  Array.iter (fun i -> step_of.(i) <- -1) plan.active;
  Array.blit plan.waiting0 0 waiting 0 n;
  Array.fill final 0 n Placed;
  Array.fill new_ends 0 (Array.length new_ends) [];
  (* With [respan] the pass owns a span state and pins what it places;
     the plan's spans, which every relaxation attempt shares, stay as
     they are. *)
  let span_state = if params.respan then Some (Dfg.span_state dfg) else None in
  let spans = match span_state with Some st -> Dfg.spans st | None -> plan.spans in
  (* Topological index of each unplaced op's span-end edge, the first key
     of the ready order; a respan updates the ops it moved. *)
  let late_idx =
    if params.respan then begin
      Array.blit plan.late_idx0 0 plan.late_idx 0 n;
      plan.late_idx
    end
    else plan.late_idx0
  in
  let placed_on_edge = ref [] in
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
  (* Compatible instances of each (kind, width), in instance order. *)
  let all_insts = Alloc.instances alloc in
  let compatible =
    Array.map
      (fun (op_kind, width) ->
        Array.of_list (List.filter (fun c -> Alloc.compatible c ~op_kind ~width) all_insts))
      plan.keys
  in
  (* The dependency frontier: the unplaced active ops whose forward
     predecessors are all placed, which every ready op is.  [waiting]
     counts each op's unplaced predecessor-list entries; the frontier is
     an unordered array with O(1) insert and remove through
     [frontier_pos]. *)
  let frontier_size = ref 0 in
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
  Array.iter enter plan.frontier0;
  (* The ops that joined the frontier since the current ready sweep
     began: the only ones a later sweep on the same edge has to test. *)
  let joined = ref [] in
  let on_placed i =
    leave i;
    List.iter
      (fun s ->
        let j = Dfg.Op_id.to_int s in
        waiting.(j) <- waiting.(j) - 1;
        if waiting.(j) = 0 && plan.is_active.(j) then begin
          enter j;
          joined := j :: !joined
        end)
      (Dfg.succs dfg (Dfg.Op_id.of_int i))
  in
  let lib = Alloc.library alloc in
  let mux_pen inputs = Library.mux_delay lib ~inputs in
  (* The candidate scan reads the mux penalty from the table inline, so
     that it calls nothing and boxes no float. *)
  let mux = Library.mux_table lib in
  let n_mux = Array.length mux in
  (* When an operation starves (its producers finish too late for any
     window to remain), the actionable bottleneck is usually a resource
     group several chain links upstream.  Walk the latest-finishing
     producer chain: move to the latest pred while it shares the failing
     step or finishes late in its own step; blame where the walk stops. *)
  let blame_for i fail_step =
    (* The placed pred of greatest (step, finish), the first of equals. *)
    let latest_pred i =
      Array.fold_left
        (fun best p ->
          if
            step_of.(p) >= 0
            && (best < 0
               || step_of.(p) > step_of.(best)
               || (step_of.(p) = step_of.(best) && finish.(p) > finish.(best)))
          then p
          else best)
        (-1) preds.(i)
    in
    let budget_late = 0.7 *. budget in
    let rec walk i step =
      let p = latest_pred i in
      if p >= 0 && (step_of.(p) = step || finish.(p) > budget_late) then walk p step_of.(p)
      else i
    in
    let op = Dfg.op dfg (Dfg.Op_id.of_int (walk i fail_step)) in
    match Resource_kind.of_op_kind op.Dfg.kind with
    | Some rk -> Some (rk, op.Dfg.width)
    | None -> None
  in
  (* Readiness of [i] on edge [e]: the edge lies in i's span, every
     forward predecessor is placed with its value available here, and
     under pipelining no already-placed loop-carried partner's recurrence
     window is violated by this step. *)
  let lc_ok i step =
    match params.ii with
    | None -> true
    | Some _ ->
      Array.for_all
        (fun p ->
          step_of.(p) < 0
          || Schedule.lc_step_ok sched ~producer_step:step_of.(p) ~consumer_step:step)
        plan.lc_preds.(i)
      && Array.for_all
           (fun c ->
             step_of.(c) < 0
             || Schedule.lc_step_ok sched ~producer_step:step ~consumer_step:step_of.(c))
           plan.lc_succs.(i)
  in
  let ready_on i e step =
    let s = spans.(i) in
    let ps = preds.(i) in
    let rec preds_ready j =
      j = Array.length ps
      ||
      let p = ps.(j) in
      step_of.(p) >= 0
      && (step_of.(p) < step || Cfg.reaches cfg edge_of.(p) e)
      && preds_ready (j + 1)
    in
    Cfg.reaches cfg s.Dfg.early e && Cfg.reaches cfg e s.Dfg.late && preds_ready 0
    && lc_ok i step
  in
  let ready_time i step =
    let ps = preds.(i) in
    let t = ref 0.0 in
    for j = 0 to Array.length ps - 1 do
      if step_of.(ps.(j)) = step then t := Float.max !t finish.(ps.(j))
    done;
    !t
  in
  let rec booked e step = function
    | [] -> false
    | p :: rest -> Schedule.conflict_at sched ~edge:e ~step p || booked e step rest
  in
  (* By-grade order, the instance preference: cheapest (slowest) grade
     first; among equal grades the emptiest instance, so sharing — and its
     mux penalty — spreads; then instance order, which callers keep by
     scanning in it.  Grades and fan-ins change during a pass, so the
     order is evaluated at every try. *)
  let before a b =
    match Float.compare b.Alloc.point.Curve.delay a.Alloc.point.Curve.delay with
    | 0 -> fanin.(Alloc.Inst_id.to_int a.Alloc.id) < fanin.(Alloc.Inst_id.to_int b.Alloc.id)
    | c -> c < 0
  in
  let do_place i e step rt c =
    let o = Dfg.Op_id.of_int i in
    let k = Alloc.Inst_id.to_int c.Alloc.id in
    let eff = c.Alloc.point.Curve.delay +. mux_pen (fanin.(k) + 1) in
    Schedule.place sched o ~edge:e ~start:rt ~eff_delay:eff ~inst:(Some c.Alloc.id);
    let slot = slot_of step in
    bookings.(k).(slot) <- Option.get (Schedule.placement sched o) :: bookings.(k).(slot);
    fanin.(k) <- fanin.(k) + 1;
    step_of.(i) <- step;
    edge_of.(i) <- e;
    finish.(i) <- rt +. eff;
    on_placed i;
    placed_on_edge := o :: !placed_on_edge;
    Placed
  in
  (* A deferral for no free instance, or for a ready time past the step
     budget, is final on its edge: bookings only grow within an edge, and
     a ready op's predecessors, hence its ready time and blame, are fixed.
     Later tries on the edge reuse the recorded kind. *)
  let finals = ref [] in
  let defer_for_good i d =
    final.(i) <- d;
    finals := i :: !finals;
    d
  in
  let try_place_raw i e step =
    let rt = ready_time i step in
    let window = budget -. rt in
    if window < -.eps then defer_for_good i Defer_no_time
    else begin
      let slot = slot_of step in
      let cands = compatible.(plan.key_of.(i)) in
      (* Among the free instances whose effective delay fits the window,
         prefer the first in by-grade order not slower than the budgeted
         target (cheapest honouring the plan); if every fitting instance is
         slower than the target, take the last, the fastest fitting one, to
         leave room for chained consumers. *)
      let target = params.target (Dfg.Op_id.of_int i) in
      let any_free = ref false and near = ref (-1) and last = ref (-1) in
      for k = 0 to Array.length cands - 1 do
        let c = cands.(k) in
        let id = Alloc.Inst_id.to_int c.Alloc.id in
        if not (booked e step bookings.(id).(slot)) then begin
          any_free := true;
          let inputs = fanin.(id) + 1 in
          let delay = c.Alloc.point.Curve.delay in
          if
            delay
            +. (if inputs < n_mux then mux.(inputs) else Library.mux_delay lib ~inputs)
            <= window +. eps
          then begin
            if delay <= target +. 1.0 && (!near < 0 || before c cands.(!near)) then near := k;
            if !last < 0 || not (before c cands.(!last)) then last := k
          end
        end
      done;
      if !near >= 0 then do_place i e step rt cands.(!near)
      else if !last >= 0 then do_place i e step rt cands.(!last)
      else if not !any_free then defer_for_good i Defer_no_resource
      else begin
        (* Nothing fits: optionally upgrade the free instance whose area
           damage is smallest, ties to the earlier in by-grade order.  A
           free instance can be booked before the next try, so these
           deferrals are tried again. *)
        let best = ref (-1) and best_cost = ref 0.0 in
        if params.upgrade_on_miss then
          for k = 0 to Array.length cands - 1 do
            let c = cands.(k) in
            let id = Alloc.Inst_id.to_int c.Alloc.id in
            if
              (not (booked e step bookings.(id).(slot)))
              && Curve.min_delay c.Alloc.curve +. mux_pen (fanin.(id) + 1) <= window +. eps
            then begin
              let needed = window -. mux_pen (fanin.(id) + 1) in
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
          let needed = window -. mux_pen (fanin.(Alloc.Inst_id.to_int c.Alloc.id) + 1) in
          if Alloc.upgrade_to_fit alloc c.Alloc.id ~max_delay:needed then begin
            Obs.incr c_upgrades;
            do_place i e step rt c
          end
          else Defer_too_slow
        end
        else if window <= eps then Defer_no_time
        else Defer_too_slow
      end
    end
  in
  let try_place i e step =
    match final.(i) with
    | Placed -> (
      match try_place_raw i e step with
      | Placed ->
        Obs.incr c_placements;
        Placed
      | d ->
        count_defer d;
        d)
    | d ->
      count_defer d;
      d
  in
  (* The full reason for op [i]'s deferral of kind [d] at [step], built
     only where a span-end try fails the pass.  It equals the reason the
     try that deferred would have built: the op was ready, so its forward
     predecessors, and theirs, are placed, and no placed op's step, edge or
     finish changes before the edge loop ends (retime and repair run after
     it), so the ready time, the window and the blame walk read what that
     try read. *)
  let reason i step d =
    let o = Dfg.Op_id.of_int i in
    match d with
    | Defer_no_resource -> (
      let op = Dfg.op dfg o in
      match Resource_kind.of_op_kind op.Dfg.kind with
      | Some rk -> No_resource { op = o; rk; width = op.Dfg.width }
      | None -> assert false (* constants never reach try_place *))
    | Defer_too_slow ->
      Too_slow { op = o; window = budget -. ready_time i step; blame = blame_for i step }
    | Defer_no_time -> No_time { op = o; blame = blame_for i step }
    | Placed -> invalid_arg "Sched_core.reason: not a deferral"
  in
  let fail i reason =
    let op_name = (Dfg.op dfg (Dfg.Op_id.of_int i)).Dfg.name in
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
    match Int.compare late_idx.(a) late_idx.(b) with
    | 0 -> (
      match Float.compare params.priority.(a) params.priority.(b) with
      | 0 -> Int.compare a b
      | c -> c)
    | c -> c
  in
  let ev_on () = Obs.Events.enabled () in
  let emit_pick i e step ~ready_set_size =
    let o = Dfg.Op_id.of_int i in
    Obs.Events.emit
      (Obs.Events.Op_picked
         {
           op = (Dfg.op dfg o).Dfg.name;
           edge = Cfg.Edge_id.to_int e;
           step;
           priority = params.priority.(i);
           ready_set_size;
         })
  in
  let by_position a b = Int.compare plan.position.(a) plan.position.(b) in
  try
    List.iter
      (fun e ->
        Obs.incr c_edges;
        let step = Cfg.state_of_edge cfg e in
        let edge_idx = Cfg.edge_topo_index cfg e in
        let placed_here = ref 0 in
        let deferred_here = ref 0 in
        (* Within an edge readiness only grows: spans stay fixed until the
           respan below, a placed predecessor's step and edge never change,
           and a loop-carried partner placed at this step always passes
           [lc_step_ok].  So a frontier op found unready stays unready on
           this edge, and a deferred op stays ready: the first sweep tests
           the whole frontier, each later one only the ops that joined it,
           merged into the deferred ops, which are still in ready order. *)
        let deferred = ref [] in
        let progress = ref true in
        let first = ref true in
        while !progress do
          progress := false;
          Obs.incr c_sweeps;
          let fresh = ref [] in
          let test i = if ready_on i e step then fresh := i :: !fresh in
          if !first then begin
            first := false;
            Obs.add c_ready_checks !frontier_size;
            for k = 0 to !frontier_size - 1 do
              test frontier.(k)
            done
          end
          else begin
            Obs.add c_ready_checks (List.length !joined);
            List.iter test !joined
          end;
          joined := [];
          let ready = List.merge ready_order !deferred (List.sort ready_order !fresh) in
          let nready = List.length ready in
          Obs.add c_ready nready;
          deferred := [];
          List.iter
            (fun i ->
              match try_place i e step with
              | Placed ->
                progress := true;
                incr placed_here;
                if ev_on () then emit_pick i e step ~ready_set_size:nready
              | Defer_no_resource | Defer_too_slow | Defer_no_time ->
                incr deferred_here;
                deferred := i :: !deferred)
            ready;
          deferred := List.rev !deferred
        done;
        (* Paper step (b): an op whose span ends here must be placed.  The
           check follows dependency order so that when a chain is stuck the
           blocking producer reports its own (actionable) failure before a
           merely-waiting consumer reports a misleading one.  The candidates
           are the plan's bucket for this edge merged with the ops a respan
           moved here; an entry whose span has since moved elsewhere, or
           that is already placed, is skipped. *)
        let span_end i =
          if late_idx.(i) = edge_idx && step_of.(i) < 0 then begin
            match if ready_on i e step then try_place i e step else Defer_no_time with
            | Placed ->
              incr placed_here;
              (* Span-end forced placement: the op was the only candidate. *)
              if ev_on () then emit_pick i e step ~ready_set_size:1
            | (Defer_no_resource | Defer_too_slow | Defer_no_time) as d -> fail i (reason i step d)
          end
        in
        let bucket = plan.ends.(edge_idx) in
        let rec merge j moved =
          match moved with
          | i :: rest
            when j = Array.length bucket || plan.position.(i) < plan.position.(bucket.(j)) ->
            span_end i;
            merge j rest
          | _ :: _ | [] ->
            if j < Array.length bucket then begin
              span_end bucket.(j);
              merge (j + 1) moved
            end
        in
        merge 0 (List.sort by_position new_ends.(edge_idx));
        List.iter (fun i -> final.(i) <- Placed) !finals;
        finals := [];
        if ev_on () then
          Obs.Events.emit
            (Obs.Events.Edge_scheduled
               {
                 edge = Cfg.Edge_id.to_int e;
                 step;
                 placed = !placed_here;
                 deferred = !deferred_here;
               });
        (match span_state with
        | Some st ->
          Obs.incr c_respans;
          (* An unplaced op whose span end moved joins its new edge's
             candidates; its plan bucket entry goes stale. *)
          Obs.span "sched.respan" (fun () ->
              List.iter
                (fun o ->
                  let i = Dfg.Op_id.to_int o in
                  if step_of.(i) < 0 then begin
                    let k = Cfg.edge_topo_index cfg spans.(i).Dfg.late in
                    if k <> late_idx.(i) then begin
                      late_idx.(i) <- k;
                      new_ends.(k) <- i :: new_ends.(k)
                    end
                  end)
                (Dfg.pin st !placed_on_edge e))
        | None -> ());
        placed_on_edge := [];
        match params.rebudget with
        | Some f -> Obs.span "sched.rebudget" (fun () -> f sched spans)
        | None -> ())
      (Cfg.forward_edges_topo cfg);
    (* Everything must be placed by now. *)
    Array.iter
      (fun i ->
        if step_of.(i) < 0 then fail i (No_time { op = Dfg.Op_id.of_int i; blame = None }))
      plan.active;
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
