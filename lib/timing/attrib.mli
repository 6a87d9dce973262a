(** Work attribution for the timing engine.

    Every relaxation the slack engine ({!Slack}) performs is charged to two
    monotone counters:

    - [timing.wasted_work_ratio.touched] — edge relaxations actually
      performed (a full pass relaxes every edge twice; an incremental
      update only the edges of the nodes it recomputes; the Bellman–Ford
      baseline additionally charges its fixpoint scans);
    - [timing.wasted_work_ratio.cone] — the relaxations at nodes whose
      recomputed arrival or required time differs from the stored one:
      the work that changed a value.

    The wasted-work ratio is [1 - cone/touched]: the fraction of
    relaxations that re-derived a value the engine already held.  Ratios
    are derived at report time; only the raw counts are counters, keeping
    them monotone and exactly reproducible across identical runs. *)

val charge_touched : int -> unit
val charge_cone : int -> unit

type totals = { touched : int; cone : int }

val totals : unit -> totals
(** Process-wide totals, read from the global counters. *)

val wasted_ratio : totals -> float
(** [1 - cone/touched]; 0 when nothing was touched. *)
