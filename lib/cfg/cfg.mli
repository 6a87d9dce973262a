(** Control flow graph (paper Definition 1).

    A CFG is a directed graph [G = (V, E, v0, S)]: [v0] is the unique start
    node and [S] the set of {e state} nodes, which correspond to [wait()]
    calls in the behavioral source.  The remaining nodes fork and join
    control flow.  Operations of the companion DFG live on {e edges} of the
    CFG.

    A CFG is built imperatively ([add_node] / [add_edge]) and then
    {!seal}ed, which classifies backward edges (loop backs), checks
    structural sanity and precomputes:

    - [latency e1 e2]: the minimum number of state nodes over all forward
      paths between edges [e1] and [e2] (paper §V Definition 1);
    - forward edge-to-edge reachability, used for operation spans;
    - join-free reachability ("sink reachability"): reachability along
      forward paths whose interior never crosses a [Join] node.  Moving an
      operation {e down} past a join would speculate it on the merged
      control flow, so spans never extend past joins. *)

module Node_id : Id.S
module Edge_id : Id.S

type node_kind =
  | Start  (** unique entry *)
  | State  (** clock-cycle boundary, a [wait()] *)
  | Fork   (** conditional / loop branch *)
  | Join   (** control-flow merge *)
  | Plain  (** straight-line glue node *)
  | Exit   (** terminal node *)

val node_kind_name : node_kind -> string
val pp_node_kind : Format.formatter -> node_kind -> unit

type t

(** {1 Construction} *)

val create : unit -> t
(** A fresh CFG containing only the start node ({!start}). *)

val start : t -> Node_id.t

val add_node : t -> node_kind -> Node_id.t
(** Adding a second [Start] raises [Invalid_argument]. *)

val add_edge : t -> Node_id.t -> Node_id.t -> Edge_id.t

exception Malformed of string

val seal : t -> unit
(** Validates and freezes the CFG; queries below require a sealed CFG.
    Raises {!Malformed} when: some node is unreachable from the start, or
    some cycle contains no state node (a combinational control loop).
    Mutation after sealing raises [Invalid_argument]. *)

val is_sealed : t -> bool

(** {1 Structure queries} *)

val node_count : t -> int
val edge_count : t -> int
val node_kind : t -> Node_id.t -> node_kind
val edge_src : t -> Edge_id.t -> Node_id.t
val edge_dst : t -> Edge_id.t -> Node_id.t
val out_edges : t -> Node_id.t -> Edge_id.t list
val states : t -> Node_id.t list
val iter_edges : t -> (Edge_id.t -> unit) -> unit

(** {1 Sealed queries} *)

val is_backward : t -> Edge_id.t -> bool
(** Loop-back edges: from DFS ancestors-to-descendants classification. *)

val forward_edges_topo : t -> Edge_id.t list
(** All forward edges, in a linear extension of edge reachability. *)

val edge_topo_index : t -> Edge_id.t -> int
(** Position of a forward edge in {!forward_edges_topo}.  Backward edges
    raise [Invalid_argument]. *)

val reaches : t -> Edge_id.t -> Edge_id.t -> bool
(** [reaches t e1 e2]: [e2] lies on some forward path starting at [e1]
    ([e1 = e2] included). *)

val sink_reaches : t -> Edge_id.t -> Edge_id.t -> bool
(** Like {!reaches} but the connecting node path may not touch a [Join]
    node; this is the legality relation for moving operations later than
    their birth edge. *)

val edge_dominates : t -> Edge_id.t -> Edge_id.t -> bool
(** [edge_dominates t e f]: every forward path from the start node to edge
    [f] passes through edge [e] ([e = f] included).  Used to restrict
    hoisting an operation above its birth edge to edges that execute on
    every run reaching the birth edge. *)

val latency : t -> Edge_id.t -> Edge_id.t -> int option
(** Minimum number of state nodes over forward paths from [e1] to [e2];
    [Some 0] when [e1 = e2]; [None] when [e2] is not forward-reachable. *)

val state_of_edge : t -> Edge_id.t -> int
(** Control-step index of a forward edge: number of state nodes on the
    fewest-states forward path from the start to this edge.  Edges separated
    by zero latency share a control step (they chain combinationally). *)

val max_state_index : t -> int
