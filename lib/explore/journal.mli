(** Append-only, fsync'd checkpoint journal for exploration sweeps.

    While a sweep runs, every completed point is appended as one
    {!Eval_cache.entry_line} record — full cache key (so a stale journal
    from another design or configuration can never poison a resume) plus
    the point summary — and fsync'd before the worker moves on.  After a
    crash, a kill, or a sweep-level deadline, [hlsc explore --resume]
    loads the journal and skips every recorded point; the resumed sweep's
    CSV/JSON output is byte-identical to an uninterrupted run.

    Records are written from pool worker domains under an internal mutex;
    record order is completion order (nondeterministic), which is fine —
    resume folds the records into a table.

    Telemetry: [explore.journal.records] per append,
    [explore.journal.quarantined] (and its short alias
    [journal.quarantined], which the serve daemon's stats report) per
    corrupt mid-file line skipped on load, [journal.salvaged] per torn
    final record truncated or dropped (the mid-append crash signature —
    salvaged, not quarantined, so resume re-evaluates only the lost tail
    point). *)

type writer

val start : path:string -> fresh:bool -> writer
(** Open [path] for appending ([fresh] truncates first — a new sweep;
    resume passes [fresh:false] to keep the interrupted run's records).
    Without [fresh], a torn final record (no terminating newline — the
    signature of a crash mid-append) is first truncated back to the last
    record boundary, bumping [journal.salvaged], so the next append
    cannot splice onto it.  Writes and fsyncs the header when the file is
    empty.  Raises [Unix.Unix_error] on I/O failure. *)

val record : writer -> key:string -> Eval_cache.summary -> unit
(** Append one completed point and fsync.  Thread/domain-safe; a no-op
    after {!close}. *)

val close : writer -> unit

val load : path:string -> ((string * Eval_cache.summary) list * int, string) result
(** All well-formed records in file order (last write wins on duplicate
    keys when folded into a table) and the number of quarantined (corrupt
    mid-file) lines.  A torn {e final} record — an unterminated last line —
    is salvaged, not quarantined: the valid prefix is returned and
    [journal.salvaged] is bumped.  A missing file, an empty file (killed
    before the header fsync) and a torn header (a strict prefix of the
    magic) are all an empty journal, the latter counting as one
    quarantined line.  An unreadable file or a foreign header is [Error];
    every error message starts with [path]. *)
