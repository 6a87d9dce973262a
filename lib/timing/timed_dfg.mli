(** Timed DFG (paper §V, Definition 2).

    Derived from a DFG and the spans of its operations by:

    + dropping loop-carried (backward) dependencies, making the graph
      acyclic;
    + dropping constant operands (constants do not affect timing);
    + adding one sink node [s(o)] per operation with an edge [o -> s(o)]
      whose weight encodes the operation's span
      ([early s(o) = late o]);
    + weighting every edge [(o1, o2)] with
      [latency (early o1) (early o2)] — the minimum number of state nodes
      between the frames in which the two operations can begin. *)

type node = Op of Dfg.Op_id.t | Sink of Dfg.Op_id.t

val node_equal : node -> node -> bool
val pp_node : Format.formatter -> node -> unit

type t

exception Unrealizable of string
(** Raised by {!build} when some dependency has undefined latency (its
    endpoint spans are not connected by a forward CFG path). *)

val build : Dfg.t -> spans:Dfg.span array -> t
(** Requires a sealed CFG and spans as produced by {!Dfg.compute_spans}
    (one entry per op, indexed by [Op_id.to_int]). *)

val reweight : t -> spans:Dfg.span array -> bool
(** Re-weights [t] in place for new spans of the same DFG: recomputes the
    dependency and sink edges in or out of each op whose span differs from
    the spans [t] was last weighted for, and no other.  Returns [false]
    when some latency is undefined, where {!build} would raise
    {!Unrealizable}; [t] must then not be analysed until a later
    re-weighting returns [true], after which it equals a fresh build over
    those spans.  A {!Slack} engine over [t] reads its arrays but keeps
    values derived from the old weights, so none may outlive a
    re-weighting. *)

val dfg : t -> Dfg.t
val edge_count : t -> int

(** {1 Slot-indexed adjacency}

    The graph is stored once, in flat arrays.  Node slots: op [i] at slot
    [i], its sink at [n + i], where [n] is the DFG's op count.  The arrays
    below are the graph itself, not copies: callers must not mutate
    them. *)

type csr = {
  off : int array;  (** [2n + 1] offsets *)
  nbr : int array;  (** neighbour slot of each edge *)
  lat : int array;  (** latency weight of each edge *)
}
(** The edges of slot [s] are [off.(s)] to [off.(s + 1) - 1], in edge
    insertion order: an op's forward dependencies in DFG order, then its
    sink edge. *)

val active_slots : t -> int array
(** Active op indices (= slots), ascending. *)

val topo_slots : t -> int array
(** Active slots (ops and sinks) in topological order, each op immediately
    followed by its sink. *)

val topo_positions : t -> int array
(** Inverse of {!topo_slots}: each slot's index in it, [-1] for the slots
    of inactive ops. *)

val pred_csr : t -> csr
val succ_csr : t -> csr

(** {1 List views}

    Derived from the arrays on every call; for callers off the hot path. *)

val active_ops : t -> Dfg.Op_id.t list
val topo : t -> node list
(** All active nodes (ops and sinks), topologically sorted. *)

val preds : t -> node -> (node * int) list
(** Predecessors with latency weights. *)

val succs : t -> node -> (node * int) list

val with_edge_weight : t -> src:node -> dst:node -> weight:int -> t
(** A copy with the [src -> dst] edge's latency weight replaced; raises
    [Invalid_argument] when no such edge exists.  Fault-injection hook: the
    copy may deliberately violate the invariants {!build} establishes
    (negative weights included), so the pipeline validators can be shown to
    catch a corrupted graph.  Not for production use. *)
