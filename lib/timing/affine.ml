module Smap = Map.Make (String)

type t = { c : float; terms : float Smap.t }

let normalize t = { t with terms = Smap.filter (fun _ v -> Float.abs v > 1e-12) t.terms }
let const c = { c; terms = Smap.empty }
let param x = { c = 0.0; terms = Smap.singleton x 1.0 }
let zero = const 0.0

let add a b =
  normalize
    {
      c = a.c +. b.c;
      terms =
        Smap.union (fun _ x y -> Some (x +. y)) a.terms b.terms;
    }

let scale k a = normalize { c = k *. a.c; terms = Smap.map (fun v -> k *. v) a.terms }
let neg a = scale (-1.0) a
let sub a b = add a (neg b)
let eval t valu = Smap.fold (fun x v acc -> acc +. (v *. valu x)) t.terms t.c

let equal a b =
  Float.abs (a.c -. b.c) < 1e-9
  && Smap.equal (fun x y -> Float.abs (x -. y) < 1e-9) (normalize a).terms (normalize b).terms

let compare_at valu a b = Float.compare (eval a valu) (eval b valu)

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then string_of_int (int_of_float v)
  else Printf.sprintf "%g" v

let pp ?(order = []) ppf t =
  let t = normalize t in
  let listed, rest =
    List.fold_left
      (fun (acc, terms) x ->
        match Smap.find_opt x terms with
        | Some v -> ((x, v) :: acc, Smap.remove x terms)
        | None -> (acc, terms))
      ([], t.terms) order
  in
  let ordered = List.rev listed @ Smap.bindings rest in
  let buf = Buffer.create 16 in
  let first = ref true in
  let emit_term sign body =
    if !first then begin
      if sign < 0 then Buffer.add_string buf "-";
      Buffer.add_string buf body;
      first := false
    end
    else begin
      Buffer.add_string buf (if sign < 0 then " - " else " + ");
      Buffer.add_string buf body
    end
  in
  List.iter
    (fun (x, v) ->
      let mag = Float.abs v in
      let body = if Float.abs (mag -. 1.0) < 1e-12 then x else float_str mag ^ x in
      emit_term (if v < 0.0 then -1 else 1) body)
    ordered;
  if Float.abs t.c > 1e-12 || !first then
    emit_term (if t.c < 0.0 then -1 else 1) (float_str (Float.abs t.c));
  Format.pp_print_string ppf (Buffer.contents buf)

let to_string ?order t = Format.asprintf "%a" (pp ?order) t
