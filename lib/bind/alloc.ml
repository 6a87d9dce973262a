module Inst_id = Id.Make ()

type inst = {
  id : Inst_id.t;
  rk : Resource_kind.t;
  width : int;
  curve : Curve.t;
  mutable point : Curve.point;
}

type grading = Continuous | Discrete

type t = { lib : Library.t; mode : grading; insts : inst Vec.t }

let create ?(grading = Continuous) lib = { lib; mode = grading; insts = Vec.create () }
let library t = t.lib
let grading t = t.mode

let snap t curve delay =
  match t.mode with
  | Continuous -> Curve.point_at curve delay
  | Discrete -> Curve.snap_down curve delay

(* Telemetry: instance/grade churn quantifies the binding work each flow
   pays (the conventional flow regrades in recovery, the slowest-first
   flow upgrades on the fly, the slack flow should do little of either). *)
let c_instances = Obs.counter "bind.instances"
let c_upgrades = Obs.counter "bind.upgrades"
let c_regrades = Obs.counter "bind.regrades"

let add_instance t ~rk ~width ~delay =
  let curve = Library.curve t.lib rk ~width in
  let point = snap t curve delay in
  let id = Inst_id.of_int (Vec.length t.insts) in
  let inst = { id; rk; width; curve; point } in
  ignore (Vec.push t.insts inst);
  Obs.incr c_instances;
  inst

let instance t id = Vec.get t.insts (Inst_id.to_int id)
let instances t = Vec.to_list t.insts
let count t = Vec.length t.insts

let compatible inst ~op_kind ~width =
  Resource_kind.can_execute inst.rk op_kind && inst.width >= width

let set_grade t id ~delay =
  let i = instance t id in
  Obs.incr c_regrades;
  i.point <- snap t i.curve delay

let upgrade_to_fit t id ~max_delay =
  let i = instance t id in
  if i.point.Curve.delay <= max_delay then true
  else if Curve.min_delay i.curve > max_delay then false
  else begin
    i.point <- snap t i.curve max_delay;
    Obs.incr c_upgrades;
    true
  end

let fu_area t = Vec.fold_left (fun acc i -> acc +. i.point.Curve.area) 0.0 t.insts

let pp ppf t =
  Format.fprintf ppf "@[<v>alloc: %d instance(s)@," (count t);
  Vec.iter
    (fun i ->
      Format.fprintf ppf "  %a: %a w%d @@ %g ps / %g area@," Inst_id.pp i.id
        Resource_kind.pp i.rk i.width i.point.Curve.delay i.point.Curve.area)
    t.insts;
  Format.fprintf ppf "@]"
