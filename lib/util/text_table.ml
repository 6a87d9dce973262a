type align = Left | Right
type row = Cells of string list | Separator

type t = {
  headers : string list;
  ncols : int;
  mutable rows : row list; (* reversed *)
  aligns : align array;
}

let create ~headers =
  let ncols = List.length headers in
  if ncols = 0 then invalid_arg "Text_table.create: no headers";
  let aligns = Array.init ncols (fun i -> if i = 0 then Left else Right) in
  { headers; ncols; rows = []; aligns }

let add_row t cells =
  let n = List.length cells in
  if n > t.ncols then invalid_arg "Text_table.add_row: too many cells";
  let padded = cells @ List.init (t.ncols - n) (fun _ -> "") in
  t.rows <- Cells padded :: t.rows

let add_separator t = t.rows <- Separator :: t.rows

let set_align t i align =
  if i < 0 || i >= t.ncols then invalid_arg "Text_table.set_align: bad column";
  t.aligns.(i) <- align

let widths t =
  let w = Array.make t.ncols 0 in
  let measure cells =
    List.iteri (fun i c -> if String.length c > w.(i) then w.(i) <- String.length c) cells
  in
  measure t.headers;
  List.iter (function Cells c -> measure c | Separator -> ()) t.rows;
  w

let pad align width s =
  let n = width - String.length s in
  if n <= 0 then s
  else
    match align with
    | Left -> s ^ String.make n ' '
    | Right -> String.make n ' ' ^ s

let render t =
  let w = widths t in
  let buf = Buffer.create 256 in
  let line cells =
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad t.aligns.(i) w.(i) c))
      cells;
    Buffer.add_char buf '\n'
  in
  let sep () =
    let total = Array.fold_left ( + ) 0 w + (2 * (t.ncols - 1)) in
    Buffer.add_string buf (String.make total '-');
    Buffer.add_char buf '\n'
  in
  line t.headers;
  sep ();
  List.iter (function Cells c -> line c | Separator -> sep ()) (List.rev t.rows);
  Buffer.contents buf

let print t = print_string (render t)

let cell_float ?(decimals = 1) x = Printf.sprintf "%.*f" decimals x
