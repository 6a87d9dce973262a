(** Growable mutable directed graph over dense integer nodes.

    Nodes are integers [0 .. node_count - 1] assigned in creation order.
    Parallel edges and self-loops are permitted (callers that forbid them
    check at a higher level). *)

type t

val create : ?initial_capacity:int -> unit -> t
val add_node : t -> int
(** Returns the new node's index. *)

val add_edge : t -> int -> int -> unit
val node_count : t -> int
val edge_count : t -> int
val succs : t -> int -> int list
(** Successors in insertion order. *)

val preds : t -> int -> int list
val in_degree : t -> int -> int
val iter_edges : t -> (int -> int -> unit) -> unit
val mem_edge : t -> int -> int -> bool

val reverse : t -> t
(** A fresh graph with every edge flipped. *)
