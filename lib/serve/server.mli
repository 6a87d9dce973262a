(** The synthesis daemon: one process, one warm {!Eval_cache}, one
    persistent {!Domain_pool}, many concurrent connections.

    Requests arrive as {!Protocol} frames on a Unix or loopback TCP
    socket; each connection gets a systhread that parses requests and
    executes them inline, submitting evaluation batches to the shared
    pool.  [run] requests are singleton sweeps, so both request kinds go
    through {!Explore.run} and share the cache, the journal and the
    determinism guarantees.

    Supervision, in the paper's graceful-degradation spirit:
    - {b deadlines}: each request runs under
      [Cancel.any [drain; Cancel.after deadline]] — its own budget plus
      the daemon's drain token.  Fired request deadlines yield
      [timed_out]/[partial] responses, never a wedged connection.
    - {b admission control}: past [high_water] requests in flight new
      work is shed with [overloaded] + a retry-after hint ({!Admission}).
    - {b crash containment}: a crashed evaluation is data
      ([Eval_cache.Crash]); the daemon retries the request's crashed
      points up to [request_retries] times with exponential backoff
      ([Explore.run ~recheck_crashes]) and keeps serving either way.
    - {b graceful drain}: on SIGTERM/SIGINT (the CLI calls {!drain}), a
      shutdown request, or [drain_after_points], the daemon stops
      accepting, lets in-flight requests finish under [drain_deadline],
      journals completed points, saves the cache, and exits 5 if any
      sweep was left resumable — the same exit-5/[--resume] contract as
      [hlsc explore].

    As a {e distributed-sweep worker} the daemon additionally executes
    [shard_explore] leases (evaluate exactly the leased point keys, answer
    with the completed records framed as a journal payload) and answers
    [health] probes — control requests that bypass admission and carry
    per-lease progress plus the already-durable record lines, which is
    what lets a dispatch supervisor salvage a worker that dies
    mid-lease. *)

type address = Unix_sock of string | Tcp of int  (** loopback only *)

type config = {
  address : address;
  jobs : int;  (** worker domains in the shared pool *)
  high_water : int;  (** max requests in flight before shedding *)
  drain_deadline : float;  (** seconds to wait for in-flight work on drain *)
  read_timeout : float;  (** per-connection mid-frame stall budget *)
  default_deadline : float option;  (** per-request deadline fallback *)
  point_deadline : float option;
  request_retries : int;  (** re-runs of a request's crashed points *)
  backoff : float;  (** base of the exponential retry/retry-after hint *)
  max_frame_bytes : int;
  lib : Library.t;
  flow_config : Flows.config;
  designs : (string * (unit -> Dfg.t * float)) list;
      (** name -> (pure builder, default clock); the CLI passes its
          builtin designs *)
  resolver : (string -> (unit -> Dfg.t * float) option) option;
      (** fallback lookup for design names not in [designs] — the CLI
          injects a parser for self-describing names (corpus entries) so
          distributed corpus sweeps need no pre-registration *)
  journal_path : string option;
  cache_path : string option;  (** loaded at start, saved on drain *)
  drain_after_points : int option;
      (** test hook: trigger the drain token after this many completed
          point evaluations — the deterministic mid-sweep-drain used by
          the dune rules and CI *)
  telemetry : bool;
      (** attach a heartbeat-sized {!Obs.Telemetry} snapshot to [health]
          replies (the full snapshot always answers the [telemetry] op) *)
  metrics_port : int option;
      (** serve {!Obs.Expo.render} over loopback HTTP on this port — a
          Prometheus scrape endpoint that lives and dies with the daemon *)
}

val default_config : config
(** Unix socket ["hlsc.sock"], jobs 2, high water 4, drain deadline 30s,
    read timeout 5s, no deadlines, 1 retry, backoff 50ms, default
    library and flow config, no designs, no journal/cache. *)

type t

val start : config -> (t, string) result
(** Bind and listen; load the cache; open the journal; spawn the worker
    pool.  No connection is accepted until {!serve}. *)

val metrics_port : t -> int option
(** The port the metrics endpoint is bound to — the one the kernel picked
    when [metrics_port] was [Some 0]. *)

val drain : reason:string -> t -> unit
(** Trigger the drain token (idempotent; first reason wins).  Safe from
    signal handlers and hooks — a single atomic write. *)

val serve : t -> int
(** Accept/dispatch until the drain token fires, then run the drain
    sequence and return the process exit code: 5 when resumable work was
    left behind (an interrupted sweep, or the drain deadline expired with
    requests still in flight), 0 otherwise. *)

val once :
  config -> request_json:string -> ((string * int) list * int, string) result
(** Self-test mode, [hlsc serve --once]: start on a private socket in a
    temp directory, run a scripted in-process client that sends each
    newline-separated request in [request_json] in order, drain, and
    return the response payloads (paired with their
    {!Protocol.exit_code_of_status}) plus the daemon's own exit code. *)
