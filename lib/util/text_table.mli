(** Minimal ASCII table rendering, used by the benchmark harness and CLI to
    print paper-style tables. *)

type align = Left | Right

type t

val create : headers:string list -> t
val add_row : t -> string list -> unit
(** Rows shorter than the header are padded with empty cells; longer rows
    raise [Invalid_argument]. *)

val add_separator : t -> unit
val set_align : t -> int -> align -> unit
(** Default alignment is [Left] for column 0 and [Right] otherwise. *)

val render : t -> string
val print : t -> unit

val cell_float : ?decimals:int -> float -> string
