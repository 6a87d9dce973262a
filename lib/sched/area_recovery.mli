(** Post-scheduling area recovery.

    This is the logic-synthesis-style pass the paper contrasts against: it
    can only exploit slack {e within} a control step.  Each resource
    instance is slowed (re-graded down its area/delay curve) by the minimum
    combinational slack of the operations bound to it; every re-grade is
    verified by re-timing what it can move ({!Schedule.retime_ops}: the
    instance's ops and the same-step chains they feed) and rolled back if
    it breaks timing.  Each sweep starts from a full {!Schedule.retime},
    and one more ends the pass.  Runs to a fix point.

    Both the conventional flow (where it is the only area optimisation) and
    the slack-based flow (where budgeting has already spread delays across
    states and this pass mops up residue) call it. *)

val latest_starts : Schedule.t -> float array
(** Within-step latest feasible start per op index ([nan] for unplaced or
    constant ops): the latest the op could begin without pushing itself or
    any same-step transitively chained consumer past the step budget. *)

val run : ?max_iters:int -> Schedule.t -> int
(** Downsize instances until fix point (at most [max_iters] sweeps,
    default 20).  Returns the number of re-grades applied.  The schedule is
    left retimed and feasible. *)
