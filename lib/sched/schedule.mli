(** A complete schedule: every operation assigned to a CFG edge (hence a
    control step), a start offset within its step, and a resource instance.

    Start offsets are {e derived} data: {!retime} recomputes them from the
    placement (edges + instance binding) with the final mux fan-ins, and is
    the single source of truth for timing legality.  The scheduling engine
    keeps placements it believes legal; flows must call {!retime} before
    trusting a schedule. *)

type placement = {
  edge : Cfg.Edge_id.t;
  step : int;                      (** control step of [edge] *)
  mutable start : float;           (** within-step start time *)
  mutable eff_delay : float;       (** instance delay + mux steering penalty *)
  inst : Alloc.Inst_id.t option;   (** [None] only for constants *)
}

type t = {
  dfg : Dfg.t;
  clock : float;
  alloc : Alloc.t;
  ii : int option;
      (** pipelining initiation interval: successive loop iterations start
          [ii] steps apart, so steps congruent modulo [ii] execute
          concurrently and share nothing *)
  placements : placement option array;  (** by op index *)
}

val create : ?ii:int -> Dfg.t -> clock:float -> alloc:Alloc.t -> t
(** All placements empty except constants, which are pre-placed on their
    birth edges with zero delay.  [ii], when given, must be positive. *)

val placement : t -> Dfg.Op_id.t -> placement option
val is_placed : t -> Dfg.Op_id.t -> bool
val place :
  t -> Dfg.Op_id.t -> edge:Cfg.Edge_id.t -> start:float -> eff_delay:float ->
  inst:Alloc.Inst_id.t option -> unit
(** Raises [Invalid_argument] if already placed. *)

val step_budget : t -> float
(** Usable combinational time per step: clock minus the library's register
    overhead. *)

val ops_of_inst : t -> Alloc.Inst_id.t -> Dfg.Op_id.t list
(** Operations currently bound to an instance (its mux fan-in). *)

val conflict : t -> placement -> placement -> bool
(** Whether two placements bound to one instance double-book it: they
    share a control step on edges that are not mutually exclusive (the
    same edge, or one reaches the other), or, under pipelining, their
    distinct steps are congruent modulo the initiation interval (branch
    exclusivity only helps within one step: different iterations may take
    different branches).  The scheduler's booking test and {!validate}
    both use this rule. *)

val lc_step_ok : t -> producer_step:int -> consumer_step:int -> bool
(** Pipelining recurrence constraint for a loop-carried dependency: the
    producer of iteration [k] must finish (its step end) before the
    consumer of iteration [k+1] starts, i.e.
    [producer_step < consumer_step + ii].  Always true when not
    pipelining. *)

type violation = {
  culprit : Dfg.Op_id.t option;  (** op that missed its step budget *)
  overshoot : float;             (** ps past the budget (0 for structural errors) *)
  detail : string;
}

val retime : t -> (unit, violation) result
(** Recompute every start and effective delay (with the final fan-ins) in
    dependency order, and check: chaining legality, step-budget fits and
    dependency availability.  Updates placements in place on success.  On
    failure the first (topologically) violating op is reported so callers
    can repair by speeding up the instances on its chain. *)

val validate : t -> (unit, string list) result
(** Full structural audit, for tests: all active ops placed, placements
    inside spans, dependencies respected, no resource double-booking,
    timing fits (calls {!retime} on a copy of the start data). *)

val steps_used : t -> int
val pp : Format.formatter -> t -> unit
