(** The keyed record store of design-space sweeps: the in-memory
    evaluation cache, and every sweep record file — [--cache] snapshots,
    [--journal]/[--resume] checkpoints, shard journals and their merge
    ([DIR/merged.jnl]).

    A key is [design digest | library | base config | point key]
    (see {!key}); the value is the {!summary} a full pipeline run would
    produce for that point.  Repeated, overlapping or resumed sweeps skip
    every point whose key is already present ([explore.cache.hits] /
    [explore.cache.misses]).  Entry access is serialised on an internal
    mutex, so the serve daemon can keep one warm cache shared by every
    connection.

    One file format: the header [slackhls-explore-journal v1], then one
    {!entry_line} per line, floats as hex literals so a round-trip is
    bit-exact.  Caches headed [slackhls-explore-cache v2] still load.  A
    cache file is therefore also a journal.  One whole-file reader serves
    two corruption policies: {!load} (a cache is written whole, so any
    damage is corruption) and {!load_journal} (a journal is appended to,
    so an empty file or a torn last record is a crash signature).  Two
    writers: the atomic snapshot {!save}, and the fsync'd appender
    {!start}/{!record}/{!close}.  {!merge} joins shard journals. *)

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
(** One key/summary pair as the on-disk TSV record (no newline). *)

val parse_line : string -> (string * summary) option
(** Inverse of {!entry_line}; [None] on any malformation. *)

val load : path:string -> (t, string) result
(** A cache file.  A missing file is an empty cache.  An empty file, a
    foreign or torn header, or an unreadable path (a directory, say) is
    [Error], its message starting with [path] (the CLI treats that as a
    usage error).  A malformed line, or an unterminated last line even if
    it parses, is quarantined: skipped, counted by {!quarantined} and on
    [cache.quarantined]. *)

val load_journal : path:string -> ((string * summary) list * int, string) result
(** A journal: all well-formed records in file order (last write wins on
    duplicate keys when folded into a table) and the number of quarantined
    corrupt mid-file lines ([explore.journal.quarantined] and its alias
    [journal.quarantined], which the serve daemon's stats report).  A
    torn {e final} record — an unterminated last line — is salvaged, not
    quarantined: the valid prefix is returned and [journal.salvaged] is
    bumped.  A missing file, an empty file (killed before the header
    fsync) and a torn header (a strict prefix of the header) are all an
    empty journal, the latter counting as one quarantined line.  An
    unreadable file or a foreign header is [Error]; every error message
    starts with [path]. *)

val save : t -> path:string -> unit
(** Snapshot the entries sorted by key — the file is reproducible — to a
    temporary file beside [path], fsync it once and rename it over
    [path]: a kill leaves the old file or the new one, never a torn one.
    Raises [Sys_error] on I/O failure. *)

type writer
(** While a sweep runs, every completed point is appended with its full
    cache key (so a stale journal from another design or configuration
    can never poison a resume) and fsync'd before the worker moves on.
    Record order is completion order; readers fold records into a table.
    [explore.journal.records] counts appends. *)

val start : path:string -> fresh:bool -> writer
(** Open [path] for appending ([fresh] truncates first — a new sweep;
    resume passes [fresh:false] to keep the interrupted run's records).
    Without [fresh], a torn final record (no terminating newline — the
    signature of a crash mid-append) is first truncated back to the last
    record boundary, bumping [journal.salvaged], so the next append
    cannot splice onto it.  Writes and fsyncs the header when the file is
    empty.  Raises [Unix.Unix_error] on I/O failure. *)

val record : writer -> key:string -> summary -> unit
(** Append one completed point and fsync.  Thread/domain-safe; a no-op
    after {!close}. *)

val close : writer -> unit

type merge_stats = {
  journals : int;  (** input journals read *)
  entries : int;  (** records written to the merged journal *)
  duplicates : int;  (** within-journal duplicates collapsed (resume artifacts) *)
  quarantined : int;  (** corrupt lines skipped across all inputs *)
}

val fingerprint_of_key : string -> (string, string) result
(** The [lib|config] components of a full cache key — the part every
    journal in one merge must agree on (design digests legitimately differ
    across a corpus; the flow configuration may not). *)

val merge : inputs:string list -> output:string -> (merge_stats, string) result
(** Validate shard journals (read by {!load_journal}) and {!save} their
    union to [output].  Within a journal, duplicate keys collapse
    last-write-wins (the resume contract) and are counted; {e across}
    journals any key overlap is an error — shards are disjoint by
    construction, so overlap means the same shard ran twice or the plan
    was wrong.  All records across all journals must agree on the config
    fingerprint.  The output is key-sorted, so merging is associative,
    commutative and idempotent on file bytes.  Errors name the offending
    journal/key; the CLI maps them to exit 2.  Counts records written on
    [shard.merged] and collapsed duplicates on [shard.duplicates]. *)
