(** Affine expressions over named parameters: [c0 + sum ci * xi].

    Used by {!Parametric} to reproduce the paper's Table 3, whose entries
    are symbolic in the clock period [T], the operation delay [D] and the
    I/O delay [d]. *)

type t

val const : float -> t
val param : string -> t
val zero : t
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : float -> t -> t
val eval : t -> (string -> float) -> float
val equal : t -> t -> bool
val compare_at : (string -> float) -> t -> t -> int
(** Numeric comparison under a valuation. *)

val pp : ?order:string list -> Format.formatter -> t -> unit
(** Renders e.g. [2T - 4D - d]; [order] fixes the parameter print order
    (unlisted parameters follow alphabetically). *)

val to_string : ?order:string list -> t -> string
