type t = {
  mutable n : int;
  mutable m : int;
  mutable succ : int list array; (* stored reversed; exposed in insertion order *)
  mutable pred : int list array;
}

let create ?(initial_capacity = 16) () =
  let cap = max initial_capacity 1 in
  { n = 0; m = 0; succ = Array.make cap []; pred = Array.make cap [] }

let grow t =
  let cap = Array.length t.succ in
  if t.n >= cap then begin
    let ncap = 2 * cap in
    let nsucc = Array.make ncap [] and npred = Array.make ncap [] in
    Array.blit t.succ 0 nsucc 0 cap;
    Array.blit t.pred 0 npred 0 cap;
    t.succ <- nsucc;
    t.pred <- npred
  end

let add_node t =
  grow t;
  let id = t.n in
  t.n <- t.n + 1;
  id

let check_node t v =
  if v < 0 || v >= t.n then invalid_arg (Printf.sprintf "Digraph: node %d out of range" v)

let add_edge t u v =
  check_node t u;
  check_node t v;
  t.succ.(u) <- v :: t.succ.(u);
  t.pred.(v) <- u :: t.pred.(v);
  t.m <- t.m + 1

let node_count t = t.n
let edge_count t = t.m

let succs t v =
  check_node t v;
  List.rev t.succ.(v)

let preds t v =
  check_node t v;
  List.rev t.pred.(v)

let in_degree t v =
  check_node t v;
  List.length t.pred.(v)

let iter_edges t f =
  for u = 0 to t.n - 1 do
    List.iter (fun v -> f u v) (List.rev t.succ.(u))
  done

let mem_edge t u v =
  check_node t u;
  check_node t v;
  List.exists (Int.equal v) t.succ.(u)

let reverse t =
  let r = create ~initial_capacity:(max t.n 1) () in
  for _ = 1 to t.n do
    ignore (add_node r)
  done;
  iter_edges t (fun u v -> add_edge r v u);
  r
