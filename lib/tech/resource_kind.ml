type t =
  | Adder
  | Subtractor
  | Add_sub
  | Multiplier
  | Divider
  | Shifter
  | Logic_unit
  | Comparator
  | Mux_unit
  | Io_port

let all =
  [ Adder; Subtractor; Add_sub; Multiplier; Divider; Shifter; Logic_unit; Comparator;
    Mux_unit; Io_port ]

let name = function
  | Adder -> "adder"
  | Subtractor -> "subtractor"
  | Add_sub -> "add_sub"
  | Multiplier -> "multiplier"
  | Divider -> "divider"
  | Shifter -> "shifter"
  | Logic_unit -> "logic"
  | Comparator -> "comparator"
  | Mux_unit -> "mux"
  | Io_port -> "io"

let pp ppf t = Format.pp_print_string ppf (name t)
let equal = ( = )

let of_op_kind : Dfg.op_kind -> t option = function
  | Dfg.Add -> Some Adder
  | Dfg.Sub -> Some Subtractor
  | Dfg.Mul -> Some Multiplier
  | Dfg.Div | Dfg.Modulo -> Some Divider
  | Dfg.Shl | Dfg.Shr -> Some Shifter
  | Dfg.Land | Dfg.Lor | Dfg.Lxor | Dfg.Lnot -> Some Logic_unit
  | Dfg.Cmp _ -> Some Comparator
  | Dfg.Mux -> Some Mux_unit
  | Dfg.Read _ | Dfg.Write _ -> Some Io_port
  | Dfg.Const _ -> None

let can_execute t (k : Dfg.op_kind) =
  match (t, k) with
  | Add_sub, (Dfg.Add | Dfg.Sub) -> true
  | Add_sub, _ -> false
  | _, _ -> ( match of_op_kind k with Some t' -> t = t' | None -> false)
