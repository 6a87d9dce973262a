(** Structural datapath + controller view of a schedule.

    The netlist enumerates the hardware a schedule implies: functional
    units with the operations they execute (and hence their input steering
    muxes), registers for step-crossing values, and I/O ports.  It backs
    the Verilog emitter and gives tests a concrete object to audit. *)

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
  fus : fu list;                (** used instances only *)
  registers : register list;
  ports : port list;
  n_states : int;
}

val needs_register : Schedule.t -> Dfg.op -> bool
(** Whether [op]'s value outlives its control step: a consumer executes
    in a later step, or the dependency is loop-carried.  {!build} makes a
    register for each such value and [Area_model] prices one. *)

val build : Schedule.t -> t

type stats = {
  n_fus : int;
  n_registers : int;
  n_ports : int;
  total_mux_inputs : int;  (** sum over shared FUs of their fan-in *)
  states : int;
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
