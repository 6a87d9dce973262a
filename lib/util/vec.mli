(** Growable arrays (amortised O(1) push). *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> int
(** Appends and returns the element's index. *)

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val to_array : 'a t -> 'a array
val to_list : 'a t -> 'a list
