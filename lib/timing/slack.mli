(** Sequential slack of DFG operations (paper §V, Definitions 3–4, and the
    Figure 6 algorithm).

    Arrival and required times are {e start} times, normalised per
    operation frame: the [T * latency] term in the propagation rules
    re-bases values across state boundaries, so an arrival may legitimately
    be negative or exceed the clock period.

    With [~aligned:true] the propagation respects clock boundaries (the
    paper's {e aligned slack}): an operation whose in-cycle start position
    would make it cross the clock edge is pushed to the next boundary on
    the arrival side, and pulled back so that it completes within its cycle
    on the required side. *)

type result = {
  arr : float array;    (** arrival time by op index; [nan] for inactive ops *)
  req : float array;    (** required time by op index *)
  slack : float array;  (** [req - arr] *)
  min_slack : float;    (** minimum over active ops; [infinity] if none *)
}

val analyze :
  ?aligned:bool -> Timed_dfg.t -> clock:float -> del:(Dfg.Op_id.t -> float) -> result
(** One full analysis: {!create} an engine and return its {!result}.
    [aligned] defaults to [false].  [clock] must be positive. *)

(** {1 Incremental engine}

    An engine holds the arrival, required and slack values of one timed
    DFG under one delay assignment, and keeps them equal, bit for bit, to
    what a full analysis of its current delays computes.  A single-delay
    change re-propagates only from the changed op and stops wherever a
    recomputed value has the bits of the stored one.  Changes since the
    last {!commit} can be undone by {!rollback}. *)

type engine

val create :
  ?aligned:bool -> Timed_dfg.t -> clock:float -> del:(Dfg.Op_id.t -> float) -> engine
(** Full pass over [del] (read once per active op). *)

val reset : engine -> (Dfg.Op_id.t -> float) -> unit
(** Replace every delay and run a full pass; commits. *)

val set_delay : engine -> Dfg.Op_id.t -> float -> unit
(** Change one active op's delay incrementally; undoable until the next
    {!commit}, {!rollback} or {!reset}. *)

val commit : engine -> unit
val rollback : engine -> unit
(** Restore the exact state of the last commit. *)

val slack : engine -> Dfg.Op_id.t -> float
val min_slack : engine -> float

val result : engine -> result
(** A copy of the current values. *)

(** {1 Reading results} *)

val op_slack : result -> Dfg.Op_id.t -> float

val critical_ops : ?eps:float -> Timed_dfg.t -> result -> Dfg.Op_id.t list
(** Active ops whose slack is within [eps] (default 1e-6) of [min_slack]. *)

val negative_ops : ?eps:float -> Timed_dfg.t -> result -> Dfg.Op_id.t list
(** Active ops with slack below [-eps]: the ones violating
    [arrival <= required].  Empty iff {!feasible}. *)

val feasible : ?eps:float -> result -> bool
(** All slacks non-negative: by Proposition 1, a dedicated-resource
    schedule meeting the clock exists. *)

val align_start : clock:float -> delay:float -> float -> float
(** [align_start ~clock ~delay a]: smallest [a' >= a] at a legal in-cycle
    position for an operation of this delay (pushed to the next clock
    boundary when it would cross one).  Exposed for white-box tests. *)

val align_finish_constraint : clock:float -> delay:float -> float -> float
(** Largest [r' <= r] such that starting at [r'] the operation completes
    within its cycle. *)
