(** Telemetry for the HLS pipeline: hierarchical spans, monotone counters,
    value distributions, and pluggable output sinks.

    The paper's claims are about {e algorithmic} efficiency — slack passes
    linear in the timed-DFG connections (§IV–V), bounded budgeting updates
    (§V), a scheduler that re-budgets after every CFG edge (§VI, Fig. 8).
    This module makes those quantities observable at runtime without
    changing any result: every probe is either a constant-time counter
    bump or a span that compiles down to a single flag test when no sink
    is enabled (the default "null sink").

    Counters are always collected — they are deterministic event counts,
    cheap enough for hot paths, and two identical runs produce identical
    {!counters_snapshot}s.  Span wall-clock aggregation and Chrome trace
    events are only recorded after {!enable_stats} / {!enable_trace}.

    The module is a process-wide singleton: the CLI, benchmark harness and
    tests all want one shared ledger.  It is domain-safe — the explore
    engine evaluates design points on a [Domain] pool: counter bumps are
    lock-free atomics, the open-span path is domain-local, and interning
    plus aggregate mutation are serialised on an internal mutex. *)

val now_ns : unit -> int64
(** Monotonic clock (CLOCK_MONOTONIC), nanoseconds. *)

(** {1 Counters}

    Named monotone counters.  Obtain the handle once (at module
    initialisation) and bump it in the hot path: a bump is one record
    mutation, no hashing. *)

type counter

val counter : string -> counter
(** Interned by name: the same name always yields the same counter. *)

val incr : counter -> unit
val add : counter -> int -> unit
(** Raises [Invalid_argument] on a negative amount — counters are
    monotone. *)

val value : counter -> int

(** {1 Distributions}

    Named value distributions (min/max/mean/p50/p95 over all observed
    samples). *)

type dist

val dist : string -> dist
(** Interned by name, like {!counter}. *)

val observe : dist -> float -> unit

type dist_stats = {
  n : int;
  dmin : float;
  dmax : float;
  mean : float;
  p50 : float;
  p95 : float;
}

val dist_stats : dist -> dist_stats option
(** [None] until at least one sample has been observed. *)

(** {1 Spans} *)

val span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], timing it when stats or trace collection is
    enabled.  Nesting builds a path ("hls.run/flow.schedule/…") used for
    the hierarchical text report and the Chrome trace.  Exceptions
    propagate; the span still closes. *)

val note_span :
  ?attrs:(string * string) list ->
  name:string ->
  t0_ns:int64 ->
  t1_ns:int64 ->
  unit ->
  unit
(** Record an already-measured interval ([now_ns] values) as a closed
    span, bypassing the domain-local nesting stack.  For callers whose
    concurrency unit is a systhread sharing one domain (the serve
    daemon's connection handlers), where nested {!span}s from concurrent
    requests would corrupt each other's path.  Attrs land in the Chrome
    trace [args] — request handlers put the remote trace context there,
    which is what parents a worker's slice under the supervisor's trace
    id after a fleet merge. *)

val open_spans : unit -> string list
(** The calling domain's currently open span stack, outermost first.
    Dumped by the crash flight recorder so a postmortem names the phase
    the process died in. *)

val collecting : unit -> bool
(** Whether spans are currently being timed (stats or trace enabled). *)

(** {1 Sinks} *)

val enable_stats : unit -> unit
(** Aggregate span timings for {!report}. *)

val enable_trace : unit -> unit
(** Buffer Chrome-trace events for {!trace_json} / {!write_trace}. *)

val disable : unit -> unit
(** Back to the null sink.  Collected data is kept until {!reset}. *)

val reset : unit -> unit
(** Zero every counter, clear distributions, span aggregates, the trace
    buffer and the event ring.  Sink enablement is unchanged. *)

(** {1 Outputs} *)

val counters_snapshot : unit -> (string * int) list
(** Every interned counter with its value, sorted by name.  Deterministic
    across identical runs. *)

val report : unit -> string
(** Human-readable text report: per-phase wall-clock (if stats were
    enabled), counters, distributions. *)

val trace_json : unit -> string
(** Chrome trace-event JSON ("X" complete events); loads in
    [chrome://tracing] and Perfetto. *)

val write_trace : path:string -> unit

(** {1 JSON}

    A minimal JSON emitter, shared by the trace sink and the benchmark
    harness (the repo deliberately has no JSON package dependency). *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string

  val parse : string -> (t, string) result
  (** Recursive-descent parser for the subset {!to_string} emits (plus
      standard escapes); used to replay event files and diff benchmark
      snapshots.  Numbers without [./e/E] parse as [Int]. *)
end

(** {1 Work-attribution profiling}

    Per-span GC/alloc telemetry: with {!Prof.enable}, every closed span
    additionally accumulates the GC delta of its body — minor words, words
    allocated directly in the major heap, and collections triggered.
    Words are read from the calling domain's own counters
    ([Gc.minor_words], [Gc.counters]; not [Gc.quick_stat], which sums
    every domain's on OCaml 5), so a span's delta is its own churn even
    while other domains allocate.  Major words exclude promotions: a minor
    collection stops every domain, so what a span promotes depends on the
    other domains.  Collection counts are process-wide.  Word counts are integers, so identical runs
    produce identical profiles.  [Prof] also owns the snapshot document
    written by [bench --json] and diffed by its baseline gate, so
    allocation regressions fail CI like wall-clock ones. *)

module Prof : sig
  type sample = {
    minor_words : float;
    major_words : float;
    promoted_words : float;
    minor_collections : int;
    major_collections : int;
  }

  val sample : unit -> sample
  (** Cumulative words allocated, promoted and major-allocated by the
      calling domain, and process-wide collection counts. *)

  val delta : before:sample -> after:sample -> sample

  val enable : unit -> unit
  (** Start taking GC deltas around spans (and, when tracing, emitting
      heap-words counter events).  Effective only while a span sink is on
      ({!enable_stats} / {!enable_trace}). *)

  val disable : unit -> unit
  val enabled : unit -> bool

  type row = {
    path : string;
    calls : int;
    total_ns : float;
    minor_words : float;
    major_words : float;  (** direct major allocation, promotions excluded *)
    minor_collections : int;
    major_collections : int;
  }

  val rows : unit -> row list
  (** Aggregated spans with their alloc telemetry, sorted by path.  Alloc
      fields are zero for spans recorded while profiling was off. *)

  type snapshot = {
    mode : string;  (** "quick" | "full": only like-for-like runs compare *)
    sections : row list;
    counters : (string * int) list;
  }

  val snapshot : mode:string -> snapshot
  (** Current rows plus {!counters_snapshot}. *)

  val snapshot_to_json : ?harness:string -> snapshot -> Json.t
  val snapshot_of_json : Json.t -> (snapshot, string) result
  (** Lenient on alloc fields (default 0), so snapshots written before
      the profiler existed still load. *)
end


(** {1 Decision provenance}

    Typed events recording {e why} the pipeline did what it did: slack
    recomputation per budgeting round (§V), delay-grade updates, per-edge
    scheduling outcomes (§VI, Fig. 8), recovery-ladder steps, and explore
    worker samples.  Events live in a bounded ring buffer (oldest dropped
    first, counted in [obs.events.dropped]) and carry sequence numbers
    only — no wall-clock fields — so two identical runs write
    byte-identical JSONL files.  Disabled, {!Events.emit} is a single
    flag test, matching the null-sink discipline of spans. *)

module Events : sig
  type payload =
    | Slack_computed of { op : string; phase : string; round : int; slack_ps : float }
    | Delay_update of {
        op : string;
        phase : string;
        round : int;
        from_ps : float;
        to_ps : float;
      }
    | Budget_round of { round : int; updates : int }
    | Edge_scheduled of { edge : int; step : int; placed : int; deferred : int }
    | Op_picked of {
        op : string;
        edge : int;
        step : int;
        priority : float;
        ready_set_size : int;
      }
    | Recovery_step of { rung : string; outcome : string }
    | Worker_sample of {
        domain : int;
        tasks_done : int;
        utilization : float;
        minor_words : float;  (** allocation delta of the sampled task *)
        major_words : float;
      }
    | Serve_sample of {
        queue_depth : int;
            (** admitted requests currently in the system (queued + executing) *)
        inflight : int;  (** requests currently executing *)
        admitted : int;  (** cumulative admission decisions *)
        shed : int;  (** cumulative load-shed decisions *)
      }
    | Dispatch_sample of {
        workers : int;  (** workers currently believed alive *)
        leases : int;  (** leases currently outstanding *)
        done_points : int;  (** points durably recorded so far *)
        total_points : int;
        reassigned : int;  (** cumulative lease reassignments *)
        stolen : int;  (** cumulative tail-steal splits *)
        salvaged : int;  (** cumulative points salvaged from failed workers *)
      }

  type t = { seq : int; payload : payload }

  val enabled : unit -> bool

  val enable : ?capacity:int -> unit -> unit
  (** Start recording into a fresh ring of [capacity] slots (default
      65536, minimum 1). *)

  val disable : unit -> unit
  (** Stop recording.  Buffered events are kept until {!clear} or
      {!Obs.reset}. *)

  val clear : unit -> unit

  val emit : payload -> unit
  (** Record one event.  A single flag test when disabled. *)

  val events : unit -> t list
  (** Buffered events, oldest first. *)

  val mark : unit -> int
  (** The current sequence cursor: the seq the next emitted event will
      get.  Pins a window for {!since}. *)

  val since : mark:int -> t list
  (** Buffered events with [seq >= mark], oldest first — the events
      emitted after {!mark} returned (minus any the ring dropped). *)

  val renumber : t list -> t list
  (** Re-stamp sequence numbers from 0 in list order.  A worker ships
      each lease's event window renumbered, so the shipped stream is a
      pure function of the lease — independent of what the daemon served
      before it. *)

  val deterministic : t -> bool
  (** Whether the payload is identical across identical runs.  Sample
      payloads ([Worker_sample]/[Serve_sample]/[Dispatch_sample]) carry
      wall-clock-derived gauges and are excluded from provenance files
      that must be byte-stable. *)

  val set_hook : (t -> unit) option -> unit
  (** Called synchronously on every recorded event, under the internal
      mutex: the hook must be fast and must not call back into [Obs]
      locking operations (spans, [counter], [dist]).  Used for live
      progress reporting. *)

  val to_json : t -> Json.t
  val of_json : Json.t -> (t, string) result

  val to_jsonl_line : t -> string

  val write_jsonl : path:string -> unit
  (** Write every buffered event as one JSON object per line. *)

  (** {2 Tagged multi-worker streams}

      A merged provenance file interleaves independent seq streams, one
      per lease, each line tagged with a ["worker"] field naming its
      stream.  {!of_json} tolerates the tag; the loader enforces that
      sequence numbers strictly increase {e within each stream} and names
      the offending stream and line on a violation. *)

  type tagged = { stream : string option; event : t }

  val tagged_to_jsonl_line : stream:string -> t -> string
  (** {!to_jsonl_line} with a leading ["worker"] tag field. *)

  val load_tagged : path:string -> (tagged list, string) result
  (** Load a (possibly merged, possibly untagged) JSONL file, checking
      per-stream seq monotonicity.  Untagged lines form one anonymous
      stream. *)

  (** {2 Divergence localization}

      Positional comparison of two event streams that should be identical
      (e.g. a full recompute against an incremental engine's replay): the
      first mismatching event, with a per-payload field diff, is where the
      two runs' decisions split. *)

  type field_diff = { field : string; a_val : string; b_val : string }

  type divergence = {
    index : int;  (** position in the aligned streams *)
    a : t option;  (** [None]: stream A ended before B *)
    b : t option;
    fields : field_diff list;
        (** differing payload fields when both events are present,
            rendered as JSON fragments *)
  }

  val diff_tagged : tagged list -> tagged list -> divergence option
  (** [None] when the streams are identical (same length, equal events
      and stream tags in order).  A stream-tag mismatch diverges too,
      reported as a synthetic ["worker"] field diff. *)
end

(** {1 Shippable telemetry}

    The whole ledger of one process — span tree with GC columns, counters,
    distributions, Chrome-trace slices, and the event-ring tail as JSONL —
    as a typed, JSON-serialisable snapshot.  A worker daemon answers a
    [telemetry] request with one; the sweep supervisor merges snapshots
    from every worker into a fleet trace (one lane per worker), a
    namespaced counter snapshot, and a merged provenance file.  All
    timestamps are monotonic nanoseconds relative to the captured
    process's own epoch; cross-process alignment is the merger's job
    ({!Telemetry.lane_events} applies its clock-offset estimate). *)

module Telemetry : sig
  type trace_entry = {
    t_name : string;
    t_path : string;
    t_ts_ns : int;  (** relative to the captured process's epoch *)
    t_dur_ns : int;
    t_tid : int;
    t_attrs : (string * string) list;
  }

  type heap_entry = {
    h_ts_ns : int;
    h_tid : int;
    h_minor_w : float;
    h_major_w : float;
  }

  type snapshot = {
    pid : int;
    clock_ns : int;  (** capture time on the captured process's clock *)
    prof : Prof.snapshot;  (** span tree with GC columns + counters *)
    dists : (string * dist_stats) list;
    trace : trace_entry list;
    heap : heap_entry list;
    events : string list;  (** event-ring tail as JSONL lines, seq-stamped *)
  }

  val uptime_ns : unit -> int
  (** Monotonic nanoseconds since this process's telemetry epoch — the
      clock {!snapshot.clock_ns} and every trace timestamp are on. *)

  val capture : ?events_limit:int -> ?include_trace:bool -> unit -> snapshot
  (** Snapshot the current process ledger.  [events_limit] (default 4096)
      keeps only the event-ring tail; [include_trace:false] omits the
      trace/heap buffers (heartbeat-sized snapshots).  Bumps
      [obs.telemetry.captures]. *)

  val counters : snapshot -> (string * int) list

  val to_json : snapshot -> Json.t
  val of_json : Json.t -> (snapshot, string) result

  val lane_events :
    pid:int -> offset_ns:int -> ?process_name:string -> snapshot -> Json.t list
  (** Render one snapshot as a Chrome-trace lane: its slices and heap
      samples shifted by [offset_ns] (the merger's clock-offset estimate
      for this worker), tagged with lane id [pid], preceded by a
      [process_name] metadata record when a label is given. *)
end

(** {1 Metrics exposition} *)

module Expo : sig
  val sanitize : string -> string
  (** Metric-name sanitisation: anything outside [[a-zA-Z0-9_]] becomes
      ['_'], so [serve.requests] exposes as [serve_requests]. *)

  val render_into :
    counters:(string * int) list ->
    dists:(string * dist_stats) list ->
    string
  (** Prometheus text format: every counter as [<name>_total] with a
      [# TYPE] line, every distribution as a summary (p50/p95 quantiles,
      [_sum], [_count]). *)

  val render : unit -> string
  (** {!render_into} over the live {!counters_snapshot} and every
      distribution with at least one sample — what [serve --metrics]
      serves. *)
end
