(** Incremental Pareto frontier over the paper's two objectives: area and
    delay, both minimised (the Fig. 9 / Table 1 tradeoff).

    A frontier is a set of mutually non-dominated entries.  [add] prunes:
    an entry dominated by the frontier is dropped, and inserting an entry
    drops every frontier member it dominates.  Exact coordinate ties are
    broken by the entry's [key] (smallest wins), which makes the frontier a
    pure function of the entry {e set} — independent of insertion order.
    The explore engine relies on this for its determinism guarantee: the
    frontier of a sweep is byte-identical whatever the worker count. *)

type 'a entry = {
  key : string;   (** canonical config key; the determinism tie-break *)
  area : float;
  delay : float;
  tag : 'a;       (** caller payload carried through pruning *)
}

type 'a t

val empty : 'a t
val dominates : 'a entry -> 'b entry -> bool
(** [dominates a b]: [a] is no worse on both objectives and strictly
    better on at least one. *)

val add : 'a entry -> 'a t -> 'a t
(** Raises [Invalid_argument] on non-finite coordinates. *)

val of_list : 'a entry list -> 'a t

val frontier : 'a t -> 'a entry list
(** Ascending area; delay strictly descends along the list. *)
