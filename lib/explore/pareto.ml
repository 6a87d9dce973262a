type 'a entry = { key : string; area : float; delay : float; tag : 'a }

(* Sorted by (area asc, delay asc, key asc).  Frontier invariant: along
   the list, area strictly ascends and delay strictly descends, so both
   orders coincide and membership checks are a linear scan over a small
   list (frontier sizes are tens of points at most). *)
type 'a t = 'a entry list

let empty = []

let dominates a b =
  a.area <= b.area && a.delay <= b.delay && (a.area < b.area || a.delay < b.delay)

let same_coords a b = a.area = b.area && a.delay = b.delay

let compare_entries a b =
  match Float.compare a.area b.area with
  | 0 -> (
    match Float.compare a.delay b.delay with
    | 0 -> String.compare a.key b.key
    | c -> c)
  | c -> c

let add e t =
  if not (Float.is_finite e.area && Float.is_finite e.delay) then
    invalid_arg "Pareto.add: non-finite objective";
  let beaten =
    List.exists
      (fun x -> dominates x e || (same_coords x e && String.compare x.key e.key <= 0))
      t
  in
  if beaten then t
  else
    let survivors =
      List.filter (fun x -> not (dominates e x || same_coords e x)) t
    in
    List.sort compare_entries (e :: survivors)

let of_list es = List.fold_left (fun t e -> add e t) empty es
let frontier t = t
