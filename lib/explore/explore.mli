(** Parallel design-space exploration: enumerate a configuration grid over
    one design, evaluate every point through the full HLS pipeline on a
    domain pool, and fold the survivors into an area/delay Pareto frontier
    — the paper's Fig. 9 / Table 4 experiments as a subsystem.

    Determinism guarantee: for a fixed design, grid and configuration, the
    [results] list, the frontier and every rendering below are
    byte-identical whatever [jobs] is, whether points came from the cache,
    a resume journal or fresh evaluation.  Points are keyed canonically
    ({!Explore_grid.point_key}), evaluated independently (each worker
    rebuilds its own graph from [build]) and folded in key order into an
    insertion-order-independent frontier ({!Pareto}).

    Supervision: each point can carry a deadline (cooperatively polled at
    the pipeline's phase boundaries — see {!Flows.run}); a point whose
    evaluation raises is retried and then quarantined; a sweep-level
    cancel token drains in-flight points and leaves the rest [pending].
    All of it is data: a point ends [ok], [infeasible], [timed_out] or
    [crashed] ({!Eval_cache.status}), and only [ok] points reach the
    frontier. *)

(** Where a point's summary came from.  [Resumed] points were evaluated by
    an earlier, interrupted run of the {e same} sweep and replayed from
    its journal — they count as evaluated and render as uncached, so a
    resumed run's output is byte-identical to an uninterrupted one. *)
type origin = Fresh | Cached | Resumed

type point_result = {
  point : Explore_grid.point;
  pkey : string;                   (** {!Explore_grid.point_key} *)
  summary : Eval_cache.summary;
  origin : origin;
}

type outcome = {
  design_name : string;
  digest : string;                 (** {!Dfg.digest} of the design *)
  results : point_result list;     (** completed points, sorted by [pkey] *)
  frontier : point_result Pareto.entry list;  (** successes only; area asc *)
  total : int;                     (** grid size, including pending points *)
  evaluated : int;                 (** pipeline runs: fresh + resumed *)
  hits : int;                      (** points answered by the cache *)
  resumed : int;                   (** points answered by the resume journal *)
  failed : int;                    (** [Infeasible] points *)
  timed_out : int;                 (** [Timeout] points *)
  crashed : int;                   (** [Crash] points *)
  pending : int;                   (** never claimed — sweep was cancelled *)
}

val partial : outcome -> bool
(** [pending > 0]: the sweep was interrupted and can be resumed. *)

val config_fingerprint : Flows.config -> string
(** The sweep-constant configuration fingerprint — the [config] component
    of every cache/journal key this sweep writes.  Exposed so sharding
    drivers can reconstruct full keys ({!Eval_cache.key}) for a
    grid-x-corpus partition without running anything. *)

val run :
  ?jobs:int ->
  ?pool:Domain_pool.pool ->
  ?retries:int ->
  ?strict:bool ->
  ?recheck_crashes:bool ->
  ?point_deadline:float ->
  ?cancel:Cancel.t ->
  ?cache:Eval_cache.t ->
  ?journal:Eval_cache.writer ->
  ?resume:(string * Eval_cache.summary) list ->
  ?select:(string -> bool) ->
  ?on_point:(string -> Eval_cache.summary -> unit) ->
  lib:Library.t ->
  config:Flows.config ->
  name:string ->
  build:(unit -> Dfg.t) ->
  Explore_grid.t ->
  outcome
(** [build] must be a pure constructor: it is called once in the calling
    domain (for the digest) and once per evaluated point inside a worker,
    so no DFG is ever shared between domains.  [config] supplies the
    sweep-constant flow settings; each point overrides [recover_area] and
    the design's clock and initiation interval.  Scheduling failures are
    data (the infeasible region of the space), not errors.  When [cache]
    is given, hits skip evaluation and fresh results are added to it.
    [jobs] defaults to {!Domain_pool.default_jobs}.

    Supervision knobs:
    - [point_deadline] (seconds) wraps each evaluation in
      {!Cancel.after}; a fired deadline yields status [Timeout].
    - [retries] (default 0) re-runs a raising evaluation in place; when
      every attempt raised the point becomes status [Crash] (with the
      final exception's message) — unless [strict] is set, in which case
      the lowest-keyed crash is re-raised {e after} all completed points
      have been journaled.
    - [cancel] is the sweep-level token: once it fires, workers stop
      claiming points (in-flight ones finish, bounded by their own
      deadlines) and the unclaimed remainder is reported as [pending].
    - [journal] appends every completed point — fresh, crashed, or cache
      hit — as an fsync'd {!Eval_cache.record} keyed by the full cache key.
    - [resume] (the records of {!Eval_cache.load_journal}, from a journal
      or a cache file alike) answers matching points without
      re-evaluating them; they return as origin [Resumed].
    - [pool]: evaluate on a shared persistent {!Domain_pool.pool} instead
      of the calling domain plus the process's own worker domains
      ({!Domain_pool.run}).  [run] is re-entrant: many
      threads may sweep concurrently against one pool and one (mutex-
      guarded) cache — the serve daemon's warm-state path.
    - [recheck_crashes]: a [Crash] recorded in the cache or resume journal
      does not answer its point; the point is re-evaluated (transient
      crashes get a second chance — the daemon's retry-with-backoff
      policy re-enters [run] with this set).
    - [select] filters the canonically-sorted point keys before anything
      else happens; [total] counts only selected points.  This is the
      sharding hook: [hlsc sweep --shard i/N] passes, for each design, the
      membership predicate of shard [i] of a {!Shard.plan} over the whole
      sweep's full keys, so N processes cover the sweep disjointly and
      their journals merge back into the single-process result.
    - [on_point] is called with the full cache key and summary at every
      site that durably records a point (cache hits at partition time,
      fresh results inside workers, crash summaries) — the serve daemon's
      shard handler feeds its lease-progress registry from it so
      heartbeats can report durable work.  Called from worker domains:
      must be thread-safe and fast.

    Telemetry: [explore.timeouts], [explore.crashes] and
    [explore.resumed], beyond the existing point/evaluation/failure
    counters. *)

(** {1 Renderings} *)

val to_csv : outcome -> string
(** A header line, then one row per completed point, in [results] order.
    Columns:
    [key,flow,clock_ps,ii,recover,status,area,steps,delay_ps,relaxations,regrades,recoveries,cached,frontier].
    [status] is {!Eval_cache.status_name}; [cached] is 1 only for cache
    hits (resumed points render 0, as they did in the interrupted run). *)

val to_json : outcome -> string
(** Sweep stats (including [timed_out], [crashed], [pending], [partial])
    plus the frontier, via {!Obs.Json}.  Deliberately excludes the
    [resumed] count — it is the one number that differs between a resumed
    run and an uninterrupted one. *)

val render_summary : outcome -> string
(** Text summary: counts line (carries [resumed=%d]), supervision and
    partial-sweep lines when relevant, per-point failure lines, and the
    frontier as a {!Text_table} — what [hlsc explore] prints. *)
