(** The resource- and timing-constrained schedule pass (paper Figure 8).

    CFG edges are visited in topological order; at each edge the ready
    operations (span contains the edge, every forward predecessor placed
    with its value available here) are scheduled in priority order onto
    compatible, conflict-free resource instances whose effective delay
    (grade + mux steering penalty) fits the remaining step budget.  An
    operation that does not fit is deferred to a later edge of its span;
    if the current edge is the {e last} of its span, the pass fails with a
    diagnosis that drives the relaxation loop.

    After every edge, the pass can pin that edge's placements into its
    spans and call a hook that re-runs slack budgeting (paper
    Schedule_pass steps c-d) — sharing merges critical paths, so
    criticality must be refreshed. *)

type failure_reason =
  | No_resource of { op : Dfg.Op_id.t; rk : Resource_kind.t; width : int }
      (** every compatible instance is busy in this step *)
  | Too_slow of { op : Dfg.Op_id.t; window : float; blame : (Resource_kind.t * int) option }
      (** instances exist but none (even upgraded) fits the remaining
          combinational window; [blame] names the resource group whose
          starvation pushed the chain this late (found by walking the
          latest-finishing producer chain) *)
  | No_time of { op : Dfg.Op_id.t; blame : (Resource_kind.t * int) option }
      (** the operation's ready time already exceeds the step budget:
          relax by widening the blamed group, or add a state *)
  | Retime_failed of string
      (** final retiming with exact mux fan-ins found a violation *)

type failure = { reason : failure_reason; message : string }

val pp_failure : Format.formatter -> failure -> unit

type plan
(** What every schedule pass over one graph and its unpinned spans needs
    and would otherwise re-derive: the active ops, the dependency
    frontier's starting counts, loop-carried partners, each op's
    (kind, width) group and the ops whose span ends on each CFG edge, plus
    scratch arrays that each pass resets before use.  A run's relaxation
    attempts share one plan; a pass leaves it as it found it, so passes
    over one plan must be sequential. *)

val plan : Dfg.t -> spans:Dfg.span array -> plan
(** [spans] are the unpinned spans ({!Dfg.compute_spans} without [pin]);
    the plan keeps them without copying, and neither it nor the caller may
    mutate them.  Requires a validated DFG over a sealed CFG. *)

type params = {
  clock : float;
  ii : int option;
      (** pipelining initiation interval (see {!Schedule.create}); loop
          pipelining adds the recurrence constraint that a loop-carried
          producer lands within [ii] steps of its consumer, and folds
          resource booking modulo [ii] *)
  priority : float array;
      (** by op index; lower schedules first (criticality).  Read at every
          comparison, so a [rebudget] hook may rewrite it between edges *)
  target : Dfg.Op_id.t -> float;
      (** budgeted delay: instance selection prefers the cheapest fitting
          instance not slower than needed *)
  upgrade_on_miss : bool;
      (** speed up an existing instance when nothing fits (slowest-first
          and slack-based flows) *)
  respan : bool;
      (** keep a {!Dfg.span_state} of the pass's own, starting equal to
          the plan's spans, and after every edge pin the operations placed
          on it *)
  rebudget : (Schedule.t -> Dfg.span array -> unit) option;
      (** after-edge hook: re-run budgeting over the spans the pass now
          uses — pinned to the placements so far when [respan] is set.
          With [respan] the array is the pass's own and changes in place
          after every edge; the hook must not mutate it *)
}

val run : plan -> alloc:Alloc.t -> params -> (Schedule.t, failure) result
(** One pass over the plan's graph.  On success the returned schedule has
    passed {!Schedule.retime} with final fan-ins. *)
