(** Content-addressed evaluation cache for design-space sweeps.

    A key is [design digest | library | base config | point key]
    (see {!key}); the value is the {!summary} a full pipeline run would
    produce for that point.  Repeated or overlapping sweeps — and sweeps
    resumed after an interrupt — skip every point whose key is already
    present.  Hits and misses are counted on [lib/obs]
    ([explore.cache.hits] / [explore.cache.misses]).

    The on-disk format is a versioned, line-oriented TSV.  Floats are
    stored as hex literals ([%h]) so a round-trip through the file is
    bit-exact: a cached sweep renders byte-identically to the sweep that
    populated it.  Individually corrupt records are {e quarantined} on
    load (skipped and counted on [cache.quarantined]) — only an unreadable
    header condemns the file.

    A cache is thread- and domain-safe: entry access is serialised on an
    internal mutex, so the serve daemon can keep one warm cache shared by
    every connection. *)

(** How a point's evaluation ended.  Everything but [Success] is data in
    the infeasible region of the tradeoff space: [Infeasible] is a
    scheduling/validation failure, [Timeout] a fired point deadline,
    [Crash] a worker exception quarantined by the pool. *)
type status = Success | Infeasible | Timeout | Crash

val status_name : status -> string
(** [ok], [infeasible], [timed_out] or [crashed] — the CSV/JSON rendering
    and the on-disk tag. *)

type summary = {
  status : status;
  area : float;       (** total area; [0.] when the point failed *)
  steps : int;        (** control steps of the final schedule *)
  delay_ps : float;   (** steps x clock period — the latency objective *)
  relaxations : int;
  regrades : int;
  recoveries : int;   (** recovery-ladder rungs tried *)
  error : string;     (** [""] on [Success] *)
}

val ok : summary -> bool
(** [status = Success]. *)

type t

val create : unit -> t
val size : t -> int

val quarantined : t -> int
(** Corrupt records skipped when this cache was loaded ([0] for a fresh
    cache). *)

val key : digest:string -> lib:string -> config:string -> point_key:string -> string
(** The four components joined with ['|'].  [config] fingerprints the
    sweep-constant flow configuration (validation level, ladder bound...);
    [point_key] is [Explore_grid.point_key]. *)

val find : t -> string -> summary option
(** Bumps [explore.cache.hits] or [explore.cache.misses]. *)

val add : t -> string -> summary -> unit
(** Last write wins; keys never contain tabs or newlines by construction. *)

val entry_line : string -> summary -> string
(** One key/summary pair as the on-disk TSV record (no newline).  Shared
    with the checkpoint journal ([Journal]) so a journal line and a cache
    line are the same format. *)

val parse_line : string -> (string * summary) option
(** Inverse of {!entry_line}; [None] on any malformation. *)

val load : path:string -> (t, string) result
(** A missing file is an empty cache ([Ok]); an unreadable file (a
    directory, say) or a bad header is [Error], its message naming [path]
    (the CLI treats that as a usage error).  Malformed
    entry lines are quarantined, not fatal: the valid records load,
    {!quarantined} reports how many were dropped, and each bumps the
    [cache.quarantined] counter. *)

val save : t -> path:string -> unit
(** Entries sorted by key — the file is reproducible.  Raises [Sys_error]
    on I/O failure. *)
