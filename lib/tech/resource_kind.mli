(** Resource (functional-unit) kinds and the mapping from DFG operations. *)

type t =
  | Adder
  | Subtractor
  | Add_sub        (** combined adder/subtractor *)
  | Multiplier
  | Divider
  | Shifter
  | Logic_unit
  | Comparator
  | Mux_unit       (** control-merge multiplexer *)
  | Io_port        (** channel read/write interface *)

val all : t list
val name : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

val of_op_kind : Dfg.op_kind -> t option
(** [None] for constants, which consume no resource. *)

val can_execute : t -> Dfg.op_kind -> bool
(** Whether a unit of this kind can implement the operation; e.g. an
    [Add_sub] executes both [Add] and [Sub]. *)
