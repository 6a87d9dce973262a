(** Closed floating-point intervals [lo, hi].

    Used for per-operation delay ranges during slack budgeting. *)

type t = private { lo : float; hi : float }

val make : float -> float -> t
(** [make lo hi] requires [lo <= hi]. *)

val point : float -> t
val lo : t -> float
val hi : t -> float
val width : t -> float
val mem : float -> t -> bool
val clamp : t -> float -> float
(** [clamp t x] projects [x] into [t]. *)

val intersect : t -> t -> t option
