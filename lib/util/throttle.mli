(** A once-a-second gate for progress lines.

    Times are caller-supplied nanosecond stamps (a monotonic clock such as
    [Obs.now_ns]), so the gate itself reads no clock and can be driven by
    made-up timestamps. *)

type t

val create : now:int64 -> t
(** A gate whose first line is due one second after [now]. *)

val due : t -> now:int64 -> bool
(** Whether a line is due at [now]; when it is, the next one is due one
    second after [now]. *)
