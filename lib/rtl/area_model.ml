type breakdown = {
  fu : float;
  mux : float;
  registers : float;
  fsm : float;
  total : float;
}

(* The instances that execute at least one op, in instance order, each
   with its mux fan-in, from one pass over the placements. *)
let used_instances sched =
  let by_inst = Schedule.ops_by_inst sched in
  List.filter_map
    (fun i ->
      match List.length by_inst.(Alloc.Inst_id.to_int i.Alloc.id) with
      | 0 -> None
      | fanin -> Some (i, fanin))
    (Alloc.instances sched.Schedule.alloc)

let fu_area used = List.fold_left (fun acc (i, _) -> acc +. i.Alloc.point.Curve.area) 0.0 used
let fu_only sched = fu_area (used_instances sched)

let fu_of_kind sched rk =
  List.fold_left
    (fun acc (i, _) ->
      if Resource_kind.equal i.Alloc.rk rk then acc +. i.Alloc.point.Curve.area else acc)
    0.0 (used_instances sched)

let c_evals = Obs.counter "area.evaluations"
let d_total = Obs.dist "area.total"
let d_fu = Obs.dist "area.fu"
let d_mux = Obs.dist "area.mux"

let of_schedule sched =
  Obs.incr c_evals;
  let lib = Alloc.library sched.Schedule.alloc in
  let dfg = sched.Schedule.dfg in
  let used = used_instances sched in
  let fu = fu_area used in
  let mux =
    List.fold_left
      (fun acc (i, fanin) ->
        if fanin >= 2 then
          acc +. (2.0 *. Library.mux_area lib ~inputs:fanin ~width:i.Alloc.width)
        else acc)
      0.0 used
  in
  let registers = ref 0.0 in
  Dfg.iter_ops dfg (fun op ->
      if Netlist.needs_register sched op then
        registers := !registers +. Library.register_area lib ~width:op.Dfg.width);
  let fsm =
    float_of_int (Schedule.steps_used sched) *. Library.fsm_area_per_state lib
  in
  let registers = !registers in
  let total = fu +. mux +. registers +. fsm in
  Obs.observe d_total total;
  Obs.observe d_fu fu;
  Obs.observe d_mux mux;
  { fu; mux; registers; fsm; total }

let power sched ~cycles_per_sample =
  if cycles_per_sample <= 0 then invalid_arg "Area_model.power: cycles must be positive";
  let dfg = sched.Schedule.dfg in
  let energy = ref 0.0 in
  Dfg.iter_ops dfg (fun op ->
      match Schedule.placement sched op.Dfg.id with
      | Some { Schedule.inst = Some id; _ } ->
        energy := !energy +. (Alloc.instance sched.Schedule.alloc id).Alloc.point.Curve.area
      | Some _ | None -> ());
  let b = of_schedule sched in
  let sample_period = float_of_int cycles_per_sample *. sched.Schedule.clock in
  (* Dynamic: one toggle of each executing unit per sample; leakage: 2% of
     total area per unit time (arbitrary consistent constants). *)
  (1e3 *. !energy /. sample_period) +. (0.02 *. b.total)

let pp_breakdown ppf b =
  Format.fprintf ppf "fu %.0f + mux %.0f + reg %.0f + fsm %.0f = %.0f" b.fu b.mux
    b.registers b.fsm b.total
