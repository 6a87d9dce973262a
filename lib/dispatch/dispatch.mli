(** Fault-tolerant shard dispatch: drive a sweep by leasing key-ranges to
    a pool of remote [hlsc serve] workers.

    The determinism contract does the heavy lifting: every grid point has
    a canonical cache key, evaluations are pure, and journal/cache lines
    are byte-exact — so the supervisor may freely re-run, duplicate or
    salvage work and still assemble the exact record set a single-process
    sweep would have produced.  Distribution then reduces to bookkeeping:

    - {b leases}: the sorted key list of each job is split (via
      {!Shard.plan}) into contiguous ranges of at most [lease_points]
      keys; each lease is granted to one worker as a [shard_explore]
      request with a server-side deadline.
    - {b detection}: a worker is failed by the first detector that fires —
      a refused/reset connect ([connect_failed]), a response frame torn or
      cut mid-read ([torn_response]), the lease deadline expiring with no
      reply ([lease_expired]), or [heartbeat_misses] consecutive
      unanswered health probes ([missed_heartbeats], which also shuts the
      data connection down to unblock the waiting sender).
    - {b salvage}: health probes carry each lease's durably recorded
      lines; when a lease's worker fails, those records are folded into
      the result table first, and only the genuinely lost tail is
      requeued — completed points are never re-evaluated.
    - {b reassignment}: a failed lease re-enters the queue with
      exponential backoff and a bounded [retry_budget]; a worker that
      fails [worker_strikes] leases in a row is declared lost.  A lease
      completion for an id the supervisor is not waiting on is dropped
      ([duplicate_reply]) — replays are harmless by construction.
    - {b stealing}: an idle worker with an empty queue may split the
      unfinished tail off the largest straggler lease ([steal_tail]);
      the straggler is not revoked, and whichever copy reports first wins
      byte-identically.

    Every containment action is logged as a [(detector, response)] pair in
    {!outcome}[.responses]; [test/test_dispatch.ml] binds each
    {!Inject.fake_worker} fault class to exactly the pair
    {!Inject.intended_dispatch_response} promises.

    Counters: [dispatch.leases] (grants), [dispatch.reassigned],
    [dispatch.stolen], [dispatch.salvaged_points],
    [dispatch.duplicate_replies], [dispatch.workers_lost],
    [dispatch.fallback_local] (bumped by {!note_fallback_local} when the
    CLI falls back to in-process evaluation).  Progress is sampled as
    [Obs.Events.Dispatch_sample] roughly every 200ms while running. *)

type job = {
  design : string;  (** name the workers can resolve *)
  clocks : string;  (** full grid axes, {!Explore_grid} syntax *)
  flows : string;
  iis : string;
  recover : string;
  point_deadline : float option;
  keys : string list;  (** every point key of this job's grid *)
  key_of : string -> string;
      (** point key -> full cache key (the supervisor tracks completion
          and validates worker records by full key) *)
}

type config = {
  workers : (string * Client.addr) list;  (** display name, address *)
  lease_points : int;  (** max keys per lease (>= 1) *)
  lease_deadline : float;  (** seconds per lease, server- and client-side *)
  heartbeat : float;  (** health-probe period; [<= 0.] disables probing *)
  heartbeat_misses : int;  (** consecutive misses before declaring a stall *)
  retry_budget : int;  (** reassignments per lease before aborting *)
  worker_strikes : int;  (** consecutive lease failures before a worker is lost *)
  backoff : float;  (** base of the exponential reassignment backoff *)
  steal : bool;  (** split straggler tails to idle workers *)
  trace_id : string option;
      (** when set, every lease and health probe is stamped with this
          {!Protocol.trace_ctx} id (parent ["dispatch"], lease id on
          leases) so worker request spans link under the supervisor's
          trace in the merged fleet view *)
}

val default_config : config
(** No workers, 8 points per lease, 60s lease deadline, 1s heartbeat with
    3 misses, retry budget 5, 3 strikes, 50ms backoff, stealing off. *)

type outcome = {
  records : (string * Eval_cache.summary) list;
      (** every completed point, sorted by full cache key — byte-wise the
          same set a single-process sweep produces *)
  complete : bool;
      (** whether every expected key is present; [false] means resume *)
  abort : string option;  (** why the sweep stopped early, if it did *)
  leases : int;
  reassigned : int;
  stolen : int;
  salvaged_points : int;
  duplicate_replies : int;
  workers_lost : int;
  responses : (string * string) list;
      (** containment log, oldest first: [(detector, response)] pairs *)
  lease_events : (string * string list) list;
      (** per-lease decision-event JSONL lines shipped by completing [ok]
          replies, sorted by lease id (numerically: L0, L1, …, L10).  At
          worker [--jobs 1] each stream is a pure function of the leased
          keys, so the supervisor's merged provenance file is
          byte-identical across re-runs regardless of lease placement. *)
  lost_telemetry : (string * string) list;
      (** [(worker name, telemetry JSON)] — the last heartbeat-carried
          {!Obs.Telemetry} snapshot of each worker declared lost; the
          supervisor archives these as postmortem artifacts *)
}

val run : config -> job list -> (outcome, string) result
(** Drive the jobs to completion across the configured workers.  [Error]
    only when no worker is reachable at startup — the caller falls back
    to evaluating in its own process ({!note_fallback_local}).  Otherwise
    always [Ok]: worker deaths mid-sweep are contained, and total loss
    surfaces as [complete = false] with the salvageable records
    present. *)

val note_fallback_local : unit -> unit
(** Count a fallback to in-process evaluation, when no worker was
    reachable, on [dispatch.fallback_local]. *)
