(** Data flow graph (paper Definition 2) and operation spans (Definition 4).

    DFG vertices are operations; edges are data dependencies.  Every
    operation is associated with a {e birth} CFG edge — the edge implied by
    its position in the source code.  Loop-carried dependencies (those whose
    value travels along a backward CFG edge) are kept but flagged: the timed
    DFG excludes them, as the paper's Definition 2 (§V) step 1 prescribes.

    The {e span} of an operation is the topologically ordered set of CFG
    edges on which it may legally be scheduled, delimited by its early and
    late edges:

    - [early o] is the first edge that (a) dominates the birth edge, so the
      operation still executes on every control path that needs it, and
      (b) is forward-reachable from the early edge of every DFG
      predecessor;
    - [late o] is the last edge that (a) is join-free-reachable from the
      birth edge (moving an operation down past a join would speculate it
      on merged control flow) and (b) reaches the late edge of every DFG
      successor.

    Fixed operations (I/O, control-merge muxes, branch conditions) span
    exactly their birth edge. *)

module Op_id : Id.S

type cmp = Lt | Le | Eq | Ne | Ge | Gt

type op_kind =
  | Add
  | Sub
  | Mul
  | Div
  | Modulo
  | Shl
  | Shr
  | Land
  | Lor
  | Lxor
  | Lnot
  | Cmp of cmp
  | Mux       (** control-flow merge (phi); fixed at its join edge *)
  | Read of string   (** blocking channel/port read; fixed *)
  | Write of string  (** blocking channel/port write; fixed *)
  | Const of int     (** constant; excluded from timing analysis *)

val op_kind_name : op_kind -> string

type op = {
  id : Op_id.t;
  kind : op_kind;
  width : int;  (** datapath width in bits *)
  birth : Cfg.Edge_id.t;
  fixed : bool;
  name : string;
}

type t

val create : Cfg.t -> t
(** The CFG may be sealed later, but must be sealed before {!compute_spans}
    or {!validate}. *)

val cfg : t -> Cfg.t

val add_op :
  t ->
  kind:op_kind ->
  width:int ->
  birth:Cfg.Edge_id.t ->
  ?fixed:bool ->
  ?name:string ->
  unit ->
  Op_id.t
(** [fixed] defaults to [true] for [Read], [Write] and [Mux] and to [false]
    for every other kind. *)

val add_dep : t -> src:Op_id.t -> dst:Op_id.t -> ?loop_carried:bool -> unit -> unit
(** Adds the data dependency [src -> dst].  Self-dependencies must be
    loop-carried. *)

val op : t -> Op_id.t -> op

val fix_op : t -> Op_id.t -> unit
(** Mark an operation fixed after creation; used by the front end to pin
    freshly created branch conditions to their fork edge. *)

val op_count : t -> int
val dep_count : t -> int
val ops : t -> Op_id.t list
val iter_ops : t -> (op -> unit) -> unit

(** The adjacency below is built on the first query after a mutation and
    kept until the next {!add_op} or {!add_dep}; the queries return the
    stored lists without copying them, in dependency insertion order. *)

val preds : t -> Op_id.t -> Op_id.t list
(** Forward (non-loop-carried) predecessors. *)

val succs : t -> Op_id.t -> Op_id.t list

val all_preds : t -> Op_id.t -> (Op_id.t * bool) list
(** Predecessors with their [loop_carried] flag. *)

val all_succs : t -> Op_id.t -> (Op_id.t * bool) list

exception Cyclic of Op_id.t list
(** A concrete forward-dependency cycle [o1; ...; ok] (each op depends on
    the previous one, [o1] on [ok]) — the acyclicity witness validators
    report. *)

val topo_order : t -> Op_id.t list
(** Topological order over forward dependencies, cached with the
    adjacency.  Raises {!Cyclic} (with the offending op path) when the
    forward DFG is cyclic. *)

val forward_cycle : t -> Op_id.t list option
(** [None] iff the forward dependencies are acyclic; otherwise one concrete
    cycle in the {!Cyclic} path convention.  Never raises. *)

val cycle_message : t -> Op_id.t list -> string
(** Renders a cycle witness with op names. *)

exception Malformed of string

val validate : t -> unit
(** Checks: forward dependencies acyclic; every birth edge is a forward CFG
    edge; every forward dependency is realisable (the producer's birth can
    reach the consumer's birth).  Raises {!Malformed} otherwise. *)

(** {1 Spans} *)

type span = { early : Cfg.Edge_id.t; late : Cfg.Edge_id.t }

val span_edges : t -> span -> Cfg.Edge_id.t list
(** All forward edges [e] with [early ->* e ->(join-free)* late]
    membership, in topological order. *)

val compute_spans : ?pin:(Op_id.t -> Cfg.Edge_id.t option) -> t -> span array
(** Indexed by [Op_id.to_int].  [pin] fixes already-scheduled operations on
    their scheduled edge, shrinking the spans of the remaining ones.  One
    full sweep of a fresh {!span_state}.  Requires a sealed CFG and a
    validated DFG. *)

type span_state
(** The spans of every operation under a growing set of pins (the
    scheduler pins each operation to the edge it was placed on), kept so
    that a pin re-derives only the spans it moves. *)

val span_state : t -> span_state
(** No operation pinned: its spans are [compute_spans t].  Same
    requirements as {!compute_spans}. *)

val spans : span_state -> span array
(** The current spans, indexed by [Op_id.to_int].  The array belongs to the
    state and {!pin} updates it in place. *)

val pin : span_state -> Op_id.t list -> Cfg.Edge_id.t -> Op_id.t list
(** [pin st ops e] fixes each of [ops] on edge [e], then re-derives earlies
    forward and lates backward from them, stopping wherever a value comes
    out unchanged.  Afterwards [spans st] equals what {!compute_spans}
    returns with every pin made so far.  Returns the ops whose span it
    republished, in no particular order and possibly twice: every op whose
    span changed is among them. *)

(** {1 Integer views}

    The span rule's graph-only inputs, cached with the adjacency and
    handed out without copying: callers must not mutate them.  Ops are
    named by [Op_id.to_int].  Same requirements as {!compute_spans}. *)

val topo_array : t -> int array
(** {!topo_order} as op indices. *)

val topo_position : t -> int array
(** Each op's index in {!topo_array}. *)

val pred_array : t -> int array array
(** {!preds} as op indices, in the same order. *)

(** {1 Content digest} *)

val digest : t -> string
(** Hex MD5 of a canonical dump of the graph: CFG nodes and edges, every
    operation (kind, width, birth edge, fixedness, name) in id order, and
    the dependency set sorted by endpoints.  Two structurally identical
    designs digest equally regardless of dependency insertion order; the
    explore subsystem uses this as the content address of its evaluation
    cache. *)
