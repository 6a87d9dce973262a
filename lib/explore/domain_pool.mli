(** Batch evaluation over OCaml 5 domains, with crash containment.

    Work distribution is a shared atomic cursor over the task array: the
    calling domain and the batch's worker domains each claim the next
    unclaimed index and write that task's outcome to its own slot, so no
    two domains ever write the same location, and the caller reads the
    array only once every drainer has finished.  The pool is oblivious to
    task semantics — the explore engine gives it pure evaluation closures
    (each task rebuilds its own design, so no graph state is shared).

    A raising task never takes the pool down: {!run} retries it up to
    [retries] times in the same worker, then quarantines it as a
    {!Crashed} outcome.  {!map} keeps the original strict semantics on
    top of {!run}. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

type crash = {
  attempts : int;  (** how many times the task ran (1 + retries) *)
  message : string;  (** [Printexc.to_string] of the final exception *)
  exn : exn;
  backtrace : Printexc.raw_backtrace;
}

type 'b outcome =
  | Done of 'b
  | Crashed of crash  (** every attempt raised; quarantined *)
  | Skipped  (** never claimed — [should_stop] fired first *)

(** {1 Persistent pools}

    A fixed set of worker domains pulling jobs off one shared FIFO queue.
    A long-running daemon creates one pool at startup and multiplexes
    every request's batches onto it: each task is one queued job,
    concurrent batches interleave in the queue, the submitting thread
    blocks until its batch is done, and {!pending} is the backlog.  A CLI
    sweep needs none of this: {!run} without [?pool] runs on the calling
    domain plus worker domains shared by the whole process. *)

type pool

val create : jobs:int -> pool
(** Spawn [max 1 jobs] worker domains, idle until work arrives. *)

val pool_jobs : pool -> int

val pending : pool -> int
(** Jobs currently queued (claimed-but-running jobs not included) — the
    backlog gauge admission control reads. *)

val shutdown : pool -> unit
(** Stop the workers and join their domains.  Already-queued jobs drain
    first (so no in-flight batch is left waiting), then the domains exit.
    Idempotent; {!run} on a shut-down pool raises [Invalid_argument]. *)

val run :
  ?jobs:int ->
  ?pool:pool ->
  ?retries:int ->
  ?should_stop:(unit -> bool) ->
  ('a -> 'b) ->
  'a array ->
  'b outcome array
(** [run ~jobs ~retries ~should_stop f tasks] applies [f] to every task
    and returns outcomes in task order.  [jobs] defaults to
    {!default_jobs}.  Without [pool], the batch runs on
    [k = min jobs (Array.length tasks)] drainers: the calling domain and
    [k - 1] worker domains, which claim tasks from one cursor, so at most
    [k] tasks run at once.  The workers belong to one process-wide set
    that is created by the first batch with [k >= 2], grows only when a
    batch needs more, and lives as long as the process; with [k <= 1]
    (one task, or [jobs <= 1]) the caller runs every task and no domain
    is spawned.  A batch never waits for a worker that is busy with
    another batch: the caller drains whatever the workers have not
    claimed.  When [pool] is given, [jobs] is ignored: the tasks are
    enqueued on that pool and the call blocks until every one has
    executed (tasks of a stopped batch drain as [Skipped] no-ops).  [run]
    may be called concurrently from many threads, with or without a
    pool.

    With {!Obs.Events} on, every finished task emits a [Worker_sample].
    Without [pool], its [domain] is the drainer's index in the batch (0
    the caller, 1 to [k - 1] the workers), and [tasks_done] and
    [utilization] count from the start of that drainer's share of the
    batch; with [pool], they are the pool worker's, over the pool's life.

    A task that raises is retried immediately, in the same worker, up to
    [retries] (default 0) more times; each retry bumps
    [explore.pool.retries].  When every attempt raised the task's outcome
    is [Crashed] with the {e final} exception and backtrace — the pool
    keeps running.  An exception raised outside [f] while a task is
    accounted for (e.g. by an {!Obs.Events} hook on its [Worker_sample])
    stops only the drainer that raised it from claiming more tasks: the
    other drainers run on, a worker domain survives it, and [run]
    re-raises the first such exception once they are done.

    [should_stop] (default: never) is polled before {e claiming} each
    task: once it returns [true], workers stop taking new work and drain
    what is already in flight, and unclaimed tasks come back [Skipped].
    It is called concurrently from every worker domain and must be
    domain-safe (e.g. read an [Atomic] or a deadline clock). *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f tasks] applies [f] to every task and returns results in
    task order — [run] with no retries and no stop predicate.  If any
    task raises, the exception of the lowest-indexed failing task is
    re-raised (with its backtrace) once the whole batch is done —
    deterministic regardless of worker interleaving. *)
