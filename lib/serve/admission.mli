(** Admission control and load shedding for the synthesis daemon.

    One gauge matters: requests in the system (admitted, not yet
    finished).  Past [high_water] the daemon sheds — an immediate
    [overloaded] response with a retry hint — rather than queueing
    unboundedly in front of the shared domain pool; once a drain starts,
    new work gets [draining] instead.  Control-plane requests (ping,
    stats, shutdown) bypass admission entirely.

    Telemetry: counters [serve.requests], [serve.admitted], [serve.shed],
    [serve.completed]; distribution [serve.inflight]; and one
    [Serve_sample] event per transition (admit, shed, finish) carrying
    the queue-depth and inflight gauges — the serving counterpart of the
    pool's [Worker_sample]. *)

type t

type decision =
  | Admitted
  | Shed  (** at or above high water — answer [overloaded] *)
  | Draining  (** drain in progress — answer [draining] *)

val create : high_water:int -> queue_depth:(unit -> int) -> t
(** [queue_depth] samples the backlog gauge for events and stats —
    the daemon passes {!Domain_pool.pending} of its shared pool. *)

val try_admit : t -> decision
(** Also the counting point: every call bumps [serve.requests], and the
    decision bumps [serve.admitted] or [serve.shed]. *)

val finish : t -> unit
(** Release one admitted slot.  Must be called exactly once per
    [Admitted] (the server wraps execution in [Fun.protect]). *)

val inflight : t -> int
val high_water : t -> int

val start_drain : t -> unit
(** All subsequent {!try_admit} calls return [Draining]. *)

val wait_idle : t -> deadline_s:float -> bool
(** Block until every admitted request has finished, or [deadline_s]
    elapses; [true] iff fully drained.  Polling (50ms), which is fine for
    a once-per-shutdown wait. *)
