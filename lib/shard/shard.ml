let c_planned = Obs.counter "shard.planned"

let owner ~shards ~total i =
  if total = 0 then 0 else i * shards / total

let plan ~shards keys =
  if shards < 1 then invalid_arg "Shard.plan: shards < 1";
  let sorted = List.sort String.compare keys in
  let total = List.length sorted in
  let buckets = Array.make shards [] in
  List.iteri
    (fun i key ->
      Obs.incr c_planned;
      let s = owner ~shards ~total i in
      buckets.(s) <- key :: buckets.(s))
    sorted;
  Array.map List.rev buckets
