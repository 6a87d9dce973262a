(** Characterised technology library.

    The paper uses a TSMC 90 nm library; its Table 1 curves for an 8x8
    multiplier and a 16-bit adder are embedded verbatim here.  Curves for
    other widths and kinds come from a width-scaling model: the fast end of
    a curve scales like a logarithmic-depth implementation (carry lookahead,
    Wallace tree), the slow end like a linear-depth one (ripple carry,
    array), and areas scale linearly (adders, logic) or quadratically
    (multipliers, dividers) with width.  The exact constants are not claimed
    to match TSMC 90 nm; only the {e spread} of the tradeoff (2-3x area,
    1.5-6x delay per Table 1) matters to the algorithms. *)

type t

val default : t
(** The virtual 90 nm library with realistic interconnect overheads. *)

val idealized : t
(** Same functional-unit curves, but zero mux/register overheads — the
    simplification the paper's §II example makes ("ignore the delays of
    multiplexors and registers"). *)

val name : t -> string

val table1_multiplier_8x8 : Curve.t
(** Paper Table 1, top: delays 430..610 ps, areas 878..510. *)

val table1_adder_16 : Curve.t
(** Paper Table 1, bottom: delays 220..1220 ps, areas 556..206. *)

val curve : t -> Resource_kind.t -> width:int -> Curve.t
(** Memoized.  Width must be in [1, 512]. *)

val op_curve : t -> Dfg.op_kind -> width:int -> Curve.t option
(** Curve of the default resource kind for an op; [None] for constants. *)

(** {1 Interconnect and control overheads} *)

val mux_delay : t -> inputs:int -> float
(** Steering delay in front of a shared unit with [inputs] sources. *)

val mux_area : t -> inputs:int -> width:int -> float
val register_area : t -> width:int -> float
val register_overhead : t -> float
(** Setup + clock-to-q margin charged at each state boundary. *)

val fsm_area_per_state : t -> float
