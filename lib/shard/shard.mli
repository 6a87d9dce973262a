(** Sharded exploration: partition a sweep by canonical key range.

    The explore subsystem is deterministic in its keys: every (design,
    config, grid point) evaluation has a canonical cache key, the frontier
    fold is key-sorted, and resume replays journals byte-identically.
    That contract makes distribution trivial — split the {e sorted} key
    list into [N] contiguous ranges, run each range as an independent
    [hlsc sweep --shard i/N --journal shard-i.jnl] process (any mix of
    machines), then merge the shard journals with {!Eval_cache.merge}.
    The merged journal equals the [merged.jnl] of an in-process [hlsc
    sweep], and [hlsc explore --resume] folds it to a frontier
    byte-identical to the single-process run; dune rules and CI [cmp]
    both end to end.  {!plan} also cuts the leases of a distributed sweep
    ({!Dispatch}).

    Telemetry: [shard.planned] per planned key. *)

val owner : shards:int -> total:int -> int -> int
(** [owner ~shards ~total i] is the shard owning the [i]-th key (0-based)
    of a sorted list of [total] keys: contiguous balanced ranges,
    [i * shards / total] — every key owned by exactly one shard. *)

val plan : shards:int -> string list -> string list array
(** Sort the keys canonically (ascending [String.compare]) and split them
    into [shards] contiguous, disjoint, jointly-exhaustive ranges.  Range
    sizes differ by at most one.  Raises [Invalid_argument] when
    [shards < 1].  Bumps [shard.planned] once per key. *)
