(** Behavioral input language (a small SystemC-thread-like subset).

    A {e process} is an infinite loop of statements; [Wait] statements mark
    clock-state boundaries (SystemC [wait()]), [If] forks control flow, and
    bounded [For] loops can be unrolled by {!Transform.unroll}.  Ports are
    blocking channel reads/writes fixed at their program point. *)

type binop =
  | Badd | Bsub | Bmul | Bdiv | Bmod
  | Bshl | Bshr | Band | Bor | Bxor
  | Blt | Ble | Beq | Bne | Bge | Bgt

type unop = Unot | Uneg

type expr =
  | Int of int
  | Var of string
  | Read of string         (** [read(port)] *)
  | Binop of binop * expr * expr
  | Unop of unop * expr

type stmt =
  | Assign of string * expr
  | Write of string * expr  (** [write(port, e)] *)
  | Wait
  | If of expr * stmt list * stmt list
  | For of { index : string; from_ : int; below : int; body : stmt list }
      (** [for (index = from_; index < below; index++) body] *)

type port_decl = { port : string; width : int; is_input : bool }
type var_decl = { var : string; vwidth : int }

type process = {
  proc_name : string;
  ports : port_decl list;
  vars : var_decl list;
  body : stmt list;  (** the body of the implicit [while(true)] loop *)
}

val pp_expr : Format.formatter -> expr -> unit
val pp_process : Format.formatter -> process -> unit

val stmt_subst_index : string -> int -> stmt -> stmt
(** Substitute a loop index by a constant throughout a statement (used by
    unrolling).  Assignments to the index itself are dropped. *)
