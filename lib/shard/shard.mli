(** Sharded exploration: partition a sweep by canonical key range and
    provably re-assemble the result.

    The explore subsystem is deterministic in its keys: every (design,
    config, grid point) evaluation has a canonical cache key, the frontier
    fold is key-sorted, and resume replays journals byte-identically.
    That contract makes distribution trivial — split the {e sorted} key
    list into [N] contiguous ranges, run each range as an independent
    [hlsc sweep --shard i/N --journal shard-i.jnl] process (any mix of
    machines), then {!merge_journals}.  The merged journal equals the
    [merged.jnl] of an in-process [hlsc sweep], and [hlsc explore
    --resume] folds it to a frontier byte-identical to the single-process
    run; dune rules and CI [cmp] both end to end.  {!plan} also cuts the
    leases of a distributed sweep ({!Dispatch}).

    Telemetry: [shard.planned] per planned key, [shard.merged] per record
    written by a merge, [shard.duplicates] per within-journal duplicate
    collapsed. *)

val owner : shards:int -> total:int -> int -> int
(** [owner ~shards ~total i] is the shard owning the [i]-th key (0-based)
    of a sorted list of [total] keys: contiguous balanced ranges,
    [i * shards / total] — every key owned by exactly one shard. *)

val plan : shards:int -> string list -> string list array
(** Sort the keys canonically (ascending [String.compare]) and split them
    into [shards] contiguous, disjoint, jointly-exhaustive ranges.  Range
    sizes differ by at most one.  Raises [Invalid_argument] when
    [shards < 1].  Bumps [shard.planned] once per key. *)

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

val merge_journals : inputs:string list -> output:string -> (merge_stats, string) result
(** Validate and merge shard journals into one.  Within a journal,
    duplicate keys collapse last-write-wins (the resume contract) and are
    counted; {e across} journals any key overlap is an error — shards are
    disjoint by construction, so overlap means the same shard ran twice or
    the plan was wrong.  All records across all journals must agree on the
    config fingerprint.  The output is written key-sorted through
    {!Journal}, so merging is associative, commutative and idempotent on
    journal bytes.  Errors name the offending journal/key; the CLI maps
    them to exit 2. *)
