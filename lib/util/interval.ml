type t = { lo : float; hi : float }

let make lo hi =
  if lo > hi then invalid_arg "Interval.make: lo > hi";
  { lo; hi }

let point x = { lo = x; hi = x }
let lo t = t.lo
let hi t = t.hi
let width t = t.hi -. t.lo
let mem x t = t.lo <= x && x <= t.hi
let clamp t x = if x < t.lo then t.lo else if x > t.hi then t.hi else x

let intersect a b =
  let lo = Float.max a.lo b.lo and hi = Float.min a.hi b.hi in
  if lo <= hi then Some { lo; hi } else None
