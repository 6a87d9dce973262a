(** Deterministic splitmix64 pseudo-random number generator.

    Used wherever the library needs reproducible randomness (workload
    generation, property-test corpora, shuffles).  Never uses the global
    [Random] state. *)

type t

val create : int -> t
(** [create seed] makes a generator from an integer seed. *)

val next_int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).  [bound] must be > 0. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool

val choose : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
