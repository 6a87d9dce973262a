(** Top-level façade: run an HLS flow on a design and collect every result
    a user typically wants (schedule, allocation, area breakdown, netlist
    statistics), plus side-by-side flow comparison and design-space
    exploration drivers.

    This is the paper's system end to end: behavioral timing analysis
    (sequential/aligned slack on the timed DFG), slack budgeting, the
    slack-guided scheduler with per-edge re-budgeting, binding, and the
    logic-synthesis-surrogate area model. *)

type design = {
  design_name : string;
  dfg : Dfg.t;      (** validated, over a sealed CFG *)
  clock : float;    (** clock period, ps *)
  ii : int option;  (** pipelining initiation interval *)
}

val design : ?ii:int -> name:string -> clock:float -> Dfg.t -> design

type result = {
  design : design;
  report : Flows.report;
  area : Area_model.breakdown;
  netlist : Netlist.t;
}

val run :
  ?lib:Library.t -> ?config:Flows.config -> ?cancel:Cancel.t -> Flows.flow ->
  design -> (result, Flows.error) Stdlib.result
(** [lib] defaults to {!Library.default}.  Errors are structured
    ({!Flows.error}): render them with {!Flows.error_message}.  [cancel]
    is a cooperative deadline polled at the pipeline's phase boundaries
    ({!Flows.run}); a fired token yields [Error (Flows.Timed_out _)].

    Under [config.validate = Check.Paranoid] the netlist and area
    breakdown are additionally cross-checked against the schedule
    ([Audit]); error-severity findings become
    [Error (Flows.Validation_failed _)]. *)

val fu_area : result -> float
val total_area : result -> float

(** {1 Flow comparison (the paper's Table 4 columns)} *)

type comparison = {
  cdesign : design;
  conventional : (result, Flows.error) Stdlib.result;
  slack_based : (result, Flows.error) Stdlib.result;
  saving_pct : float option;
      (** [(A_conv - A_slack) / A_conv * 100] when both flows succeeded *)
}

val compare_flows :
  ?lib:Library.t -> ?config:Flows.config -> design -> comparison

(** {1 Design-space exploration} *)

type dse_row = {
  point_name : string;
  a_conv : float option;
  a_slack : float option;
  save_pct : float option;
}

val explore :
  ?lib:Library.t -> ?config:Flows.config -> (string * design) list -> dse_row list

val average_saving : dse_row list -> float option
(** Mean saving over rows where both flows succeeded. *)

val render_dse : dse_row list -> string
(** Paper-Table-4-style text table. *)

(** {1 Timing analysis entry points} *)

val analyze_slack :
  ?aligned:bool -> design -> del:(Dfg.Op_id.t -> float) -> Slack.result
(** Sequential slack of the design's pre-schedule DFG. *)

val feasibility_check : ?lib:Library.t -> design -> (unit, Dfg.Op_id.t list) Stdlib.result
(** The paper's Proposition 1 quick check: with every op at its fastest
    library implementation, is the aligned slack non-negative?  [Error]
    carries the critical operations. *)
