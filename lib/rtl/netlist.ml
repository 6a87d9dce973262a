type fu = { inst : Alloc.inst; ops : Dfg.Op_id.t list }

type register = {
  reg_name : string;
  reg_width : int;
  source : Dfg.Op_id.t;
  written_in_step : int;
}

type port = { port_name : string; port_width : int; input : bool }

type t = {
  schedule : Schedule.t;
  fus : fu list;
  registers : register list;
  ports : port list;
  n_states : int;
}

let c_builds = Obs.counter "rtl.netlists"
let c_fus = Obs.counter "rtl.fu_instances"
let c_regs = Obs.counter "rtl.registers"
let c_mux_inputs = Obs.counter "rtl.mux_inputs"
let d_fanin = Obs.dist "rtl.mux_fanin"

(* A value needs a register when it outlives its control step: some
   consumer executes in a later step, or the value feeds a loop-carried
   dependency.  Constants and unplaced ops need none. *)
let needs_register schedule op =
  match (op.Dfg.kind, Schedule.placement schedule op.Dfg.id) with
  | Dfg.Const _, _ | _, None -> false
  | _, Some p ->
    List.exists
      (fun (c, loop_carried) ->
        loop_carried
        ||
        match Schedule.placement schedule c with
        | Some pc -> pc.Schedule.step > p.Schedule.step
        | None -> false)
      (Dfg.all_succs schedule.Schedule.dfg op.Dfg.id)

let build schedule =
  let dfg = schedule.Schedule.dfg in
  let by_inst = Schedule.ops_by_inst schedule in
  let fus =
    Alloc.instances schedule.Schedule.alloc
    |> List.filter_map (fun inst ->
           match by_inst.(Alloc.Inst_id.to_int inst.Alloc.id) with
           | [] -> None
           | ops -> Some { inst; ops })
  in
  let registers = ref [] in
  Dfg.iter_ops dfg (fun op ->
      match Schedule.placement schedule op.Dfg.id with
      | Some p when needs_register schedule op ->
        registers :=
          {
            reg_name = "r_" ^ op.Dfg.name;
            reg_width = op.Dfg.width;
            source = op.Dfg.id;
            written_in_step = p.Schedule.step;
          }
          :: !registers
      | _ -> ());
  let ports = ref [] in
  let seen = Hashtbl.create 8 in
  Dfg.iter_ops dfg (fun op ->
      let add name input =
        if not (Hashtbl.mem seen (name, input)) then begin
          Hashtbl.replace seen (name, input) ();
          ports := { port_name = name; port_width = op.Dfg.width; input } :: !ports
        end
      in
      match op.Dfg.kind with
      | Dfg.Read p -> add p true
      | Dfg.Write p -> add p false
      | Dfg.Add | Dfg.Sub | Dfg.Mul | Dfg.Div | Dfg.Modulo | Dfg.Shl | Dfg.Shr
      | Dfg.Land | Dfg.Lor | Dfg.Lxor | Dfg.Lnot | Dfg.Cmp _ | Dfg.Mux | Dfg.Const _ ->
        ());
  Obs.incr c_builds;
  Obs.add c_fus (List.length fus);
  Obs.add c_regs (List.length !registers);
  List.iter
    (fun f ->
      let k = List.length f.ops in
      if k >= 2 then begin
        Obs.add c_mux_inputs k;
        Obs.observe d_fanin (float_of_int k)
      end)
    fus;
  {
    schedule;
    fus;
    registers = List.rev !registers;
    ports = List.rev !ports;
    n_states = Schedule.steps_used schedule;
  }

type stats = {
  n_fus : int;
  n_registers : int;
  n_ports : int;
  total_mux_inputs : int;
  states : int;
}

let stats t =
  {
    n_fus = List.length t.fus;
    n_registers = List.length t.registers;
    n_ports = List.length t.ports;
    total_mux_inputs =
      List.fold_left
        (fun acc f ->
          let k = List.length f.ops in
          if k >= 2 then acc + k else acc)
        0 t.fus;
    states = t.n_states;
  }

let pp_stats ppf s =
  Format.fprintf ppf "%d FU(s), %d register(s), %d port(s), %d shared mux input(s), %d state(s)"
    s.n_fus s.n_registers s.n_ports s.total_mux_inputs s.states
