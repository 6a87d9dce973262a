(* Counter family consumed by `hlsc --stats`, the bench attribution table
   and the baseline gate; see the .mli for the semantics of each. *)
let c_touched = Obs.counter "timing.wasted_work_ratio.touched"
let c_cone = Obs.counter "timing.wasted_work_ratio.cone"
let charge_touched n = Obs.add c_touched n
let charge_cone n = Obs.add c_cone n

type totals = { touched : int; cone : int }

let totals () = { touched = Obs.value c_touched; cone = Obs.value c_cone }

let wasted_ratio tt =
  if tt.touched = 0 then 0.0
  else 1.0 -. (float_of_int tt.cone /. float_of_int tt.touched)
