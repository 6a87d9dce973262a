(** End-to-end scheduling flows.

    - {b Conventional}: the RTL-methodology baseline the paper compares
      against — allocate the fastest resources, list-schedule, then recover
      area within single states (paper §II Case 1).
    - {b Slowest-first}: start from the slowest resources and upgrade
      grades on the fly when operations miss their windows (paper §II
      Case 2; shown to also be sub-optimal).
    - {b Slack-based}: the paper's contribution (Figure 8 with the bold
      steps): budget sequential slack on the pre-schedule DFG to pick each
      operation's delay target, allocate instances at those grades,
      schedule critical-first, re-running span computation and budgeting
      after every CFG edge; then final area recovery.

    All flows share the relaxation loop: when the schedule pass fails for
    lack of a resource, an instance is added (at the flow's preferred
    grade) and the pass restarts — the paper's "expert system" step. *)

type flow = Conventional | Slowest_first | Slack_based

val all : flow list
(** Every flow, in declaration order. *)

val flow_name : flow -> string
(** ["conventional"], ["slowest-first"] or ["slack-based"]: reports,
    errors and event attributes print it. *)

val short_name : flow -> string
(** ["conv"], ["slowest"] or ["slack"]: grid specs and point keys print
    it. *)

val of_name : string -> flow option
(** Either name of a flow. *)

(** {1 Recovery ladder}

    When an attempt fails with a scheduler failure or a boundary-check
    violation, [run] escalates through bounded recovery rungs (cumulative,
    in this order): re-budget with a relaxed {!Budget.config}; force every
    delay target to its curve's fast end.  Each rung tried is recorded in
    the report's [recovery_log] — also attached to the error when the
    whole ladder fails — and counted by the [flow.recovery.attempts]
    telemetry counter. *)

type recovery_step = Relax_budget | Force_fast_grades

type recovery_outcome =
  | Recovered           (** this rung's attempt produced a schedule *)
  | Still_failing of string  (** the failure message of this rung's attempt *)

type recovery_attempt = { step : recovery_step; outcome : recovery_outcome }

val pp_recovery_attempt : Format.formatter -> recovery_attempt -> unit

type report = {
  flow : flow;
  schedule : Schedule.t;
  relaxations : int;       (** schedule-pass restarts *)
  regrades : int;          (** area-recovery re-grades applied *)
  recovery_log : recovery_attempt list;
      (** ladder transcript; [[]] when the first attempt succeeded *)
  violations : Check.violation list;
      (** warnings recorded by the boundary validators during the
          successful attempt *)
}

type sharing = {
  merge_add_sub : bool;
      (** allocate combined adder/subtractors serving both op kinds — the
          paper's §II example of resource-type flexibility *)
  width_buckets : bool;
      (** round allocation widths up to the next power of two so
          near-width operations share units (the paper's add(6,6) /
          add(3,8) grouping question) *)
}

type config = {
  grading : Alloc.grading;
  recover_area : bool;
  max_relaxations : int;
  budget_config : Budget.config;   (** pre-schedule budgeting *)
  rebudget_config : Budget.config option;
      (** per-edge re-budgeting; [None] disables the paper's step (d)
          (ablation) *)
  sharing : sharing;
  validate : Check.level;
      (** phase-boundary invariant checking: [Off] none, [Boundary]
          (default) the cheap per-phase validators, [Paranoid] adds the
          post-budget slack audit and a full schedule audit on success *)
  max_recoveries : int;
      (** recovery-ladder length bound (default 3, which covers the whole
          ladder); [0] restores fail-fast behaviour *)
}

val default_config : config

(** Structured flow errors: [Invalid] for configuration problems,
    [Validation_failed] when a phase-boundary validator found
    [Error]-severity violations, and [Sched_failed] carrying the
    scheduler's {!Sched_core.failure} so callers (the CLI in particular)
    can surface the actionable diagnosis — which operation starved, which
    resource group is to blame — instead of a flattened string.  The
    latter two carry the recovery-ladder transcript. *)
type error =
  | Invalid of string
  | Validation_failed of {
      failed_flow : flow;
      violations : Check.violation list;
      recovery_log : recovery_attempt list;
    }
  | Sched_failed of {
      failed_flow : flow;
      failure : Sched_core.failure;
      recovery_log : recovery_attempt list;
    }
  | Timed_out of {
      failed_flow : flow;
      phase : string;  (** boundary at which the cancel token fired *)
      recovery_log : recovery_attempt list;
    }
      (** The caller's {!Cancel.t} fired.  A timeout is terminal: the
          ladder never retries it (every further rung would also be over
          the deadline), and sweep drivers treat it as data — the point
          was too expensive, not the pipeline broken. *)

val error_message : error -> string
(** Renders [Sched_failed] through {!Sched_core.pp_failure}, followed by
    the ladder transcript when recovery was attempted. *)

val run :
  ?config:config -> ?cancel:Cancel.t -> ?ii:int -> flow -> Dfg.t ->
  lib:Library.t -> clock:float -> (report, error) result
(** Requires a validated DFG on a sealed CFG.  [ii] pipelines the loop at
    the given initiation interval (modulo resource folding plus the
    loop-carried recurrence constraint).  The returned schedule is retimed
    and passes {!Schedule.validate}.

    [cancel] (default {!Cancel.never}) is polled cooperatively at every
    phase boundary — validator guards, each relaxation attempt, each
    per-edge re-budget, each ladder rung — and a fired token turns the
    attempt into [Error (Timed_out _)] carrying the boundary name and the
    ladder transcript so far.

    Never raises: an invalid [ii] is reported as [Error (Invalid _)], and
    boundary-check violations as [Error (Validation_failed _)] after the
    recovery ladder is exhausted. *)
