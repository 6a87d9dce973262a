type node = Op of Dfg.Op_id.t | Sink of Dfg.Op_id.t

let node_equal a b =
  match (a, b) with
  | Op x, Op y | Sink x, Sink y -> Dfg.Op_id.equal x y
  | Op _, Sink _ | Sink _, Op _ -> false

let pp_node ppf = function
  | Op o -> Format.fprintf ppf "op%d" (Dfg.Op_id.to_int o)
  | Sink o -> Format.fprintf ppf "sink%d" (Dfg.Op_id.to_int o)

type csr = { off : int array; nbr : int array; lat : int array }

(* Node slots: op i at i, its sink at n + i.  Edges are stored once per
   direction, in edge insertion order within each slot. *)
type t = {
  dfg : Dfg.t;
  spans : Dfg.span array;
  n : int;
  active : int array;  (* active op indices, ascending *)
  order : int array;  (* active slots, topologically sorted *)
  position : int array;  (* slot -> index in [order]; -1 when inactive *)
  pred : csr;
  succ : csr;
}

exception Unrealizable of string

let slot n = function
  | Op o -> Dfg.Op_id.to_int o
  | Sink o -> n + Dfg.Op_id.to_int o

let node_of_slot n s =
  if s < n then Op (Dfg.Op_id.of_int s) else Sink (Dfg.Op_id.of_int (s - n))

let c_builds = Obs.counter "timed_dfg.builds"
let c_nodes = Obs.counter "timed_dfg.nodes"
let c_edges = Obs.counter "timed_dfg.edges"

let build dfg ~spans =
  let cfg = Dfg.cfg dfg in
  let n = Dfg.op_count dfg in
  if Array.length spans <> n then invalid_arg "Timed_dfg.build: span array size mismatch";
  (* [position] doubles as the active flag (>= 0) until the topological
     positions are filled in at the end. *)
  let position = Array.make (2 * n) (-1) in
  Dfg.iter_ops dfg (fun o ->
      match o.Dfg.kind with
      | Dfg.Const _ -> ()
      | _ -> position.(Dfg.Op_id.to_int o.Dfg.id) <- 0);
  let is_active i = position.(i) >= 0 in
  (* Successor offsets: an active op's active forward successors, then its
     sink.  Ops are the edge sources in index order, so slot order is
     insertion order. *)
  let succ_off = Array.make ((2 * n) + 1) 0 in
  let n_active = ref 0 in
  for i = 0 to n - 1 do
    let deg =
      if is_active i then begin
        incr n_active;
        List.fold_left
          (fun k s -> if is_active (Dfg.Op_id.to_int s) then k + 1 else k)
          1
          (Dfg.succs dfg (Dfg.Op_id.of_int i))
      end
      else 0
    in
    succ_off.(i + 1) <- succ_off.(i) + deg
  done;
  for s = n to (2 * n) - 1 do
    succ_off.(s + 1) <- succ_off.(s)
  done;
  let edges = succ_off.(2 * n) in
  let succ_nbr = Array.make edges 0 and succ_lat = Array.make edges 0 in
  let early i = spans.(i).Dfg.early and late i = spans.(i).Dfg.late in
  (* Dependency edges first, then sink edges, so an unrealizable graph
     reports the same offender whatever its shape. *)
  for i = 0 to n - 1 do
    if is_active i then
      ignore
        (List.fold_left
           (fun e sid ->
             let j = Dfg.Op_id.to_int sid in
             if not (is_active j) then e
             else begin
               match Cfg.latency cfg (early i) (early j) with
               | Some w ->
                 succ_nbr.(e) <- j;
                 succ_lat.(e) <- w;
                 e + 1
               | None ->
                 raise
                   (Unrealizable
                      (Printf.sprintf "dependency %s -> %s has undefined latency"
                         (Dfg.op dfg (Dfg.Op_id.of_int i)).Dfg.name
                         (Dfg.op dfg sid).Dfg.name))
             end)
           succ_off.(i)
           (Dfg.succs dfg (Dfg.Op_id.of_int i)))
  done;
  for i = 0 to n - 1 do
    if is_active i then begin
      match Cfg.latency cfg (early i) (late i) with
      | Some w ->
        let e = succ_off.(i + 1) - 1 in
        succ_nbr.(e) <- n + i;
        succ_lat.(e) <- w
      | None ->
        raise
          (Unrealizable
             (Printf.sprintf "op %s has a span with unreachable late edge"
                (Dfg.op dfg (Dfg.Op_id.of_int i)).Dfg.name))
    end
  done;
  (* Predecessors: a counting sort of the successor edges by destination.
     Filling from the last edge backwards keeps insertion order, with
     [pred_off.(d + 1)] as the cursor of [d]; it ends at the start of [d],
     one slot right of where it belongs. *)
  let pred_off = Array.make ((2 * n) + 1) 0 in
  Array.iter (fun d -> pred_off.(d + 1) <- pred_off.(d + 1) + 1) succ_nbr;
  for s = 0 to (2 * n) - 1 do
    pred_off.(s + 1) <- pred_off.(s + 1) + pred_off.(s)
  done;
  let pred_nbr = Array.make edges 0 and pred_lat = Array.make edges 0 in
  for src = n - 1 downto 0 do
    for e = succ_off.(src + 1) - 1 downto succ_off.(src) do
      let d = succ_nbr.(e) in
      let k = pred_off.(d + 1) - 1 in
      pred_nbr.(k) <- src;
      pred_lat.(k) <- succ_lat.(e);
      pred_off.(d + 1) <- k
    done
  done;
  Array.blit pred_off 1 pred_off 0 (2 * n);
  pred_off.(2 * n) <- edges;
  (* Topological order: ops in DFG topo order, each immediately followed by
     its sink (sinks have no successors, so this is a valid extension). *)
  let active = Array.make !n_active 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if is_active i then begin
      active.(!k) <- i;
      incr k
    end
  done;
  let order = Array.make (2 * !n_active) 0 in
  k := 0;
  List.iter
    (fun oid ->
      let i = Dfg.Op_id.to_int oid in
      if is_active i then begin
        order.(!k) <- i;
        order.(!k + 1) <- n + i;
        position.(i) <- !k;
        position.(n + i) <- !k + 1;
        k := !k + 2
      end)
    (Dfg.topo_order dfg);
  Obs.incr c_builds;
  Obs.add c_nodes (Array.length order);
  Obs.add c_edges edges;
  {
    dfg;
    spans;
    n;
    active;
    order;
    position;
    pred = { off = pred_off; nbr = pred_nbr; lat = pred_lat };
    succ = { off = succ_off; nbr = succ_nbr; lat = succ_lat };
  }

let dfg t = t.dfg
let spans t = t.spans
let active t o = t.position.(Dfg.Op_id.to_int o) >= 0
let edge_count t = Array.length t.succ.nbr
let active_slots t = t.active
let topo_slots t = t.order
let topo_positions t = t.position
let pred_csr t = t.pred
let succ_csr t = t.succ

(* List views, derived on demand for the cold callers. *)
let active_ops t = Array.fold_right (fun i acc -> Dfg.Op_id.of_int i :: acc) t.active []
let topo t = Array.fold_right (fun s acc -> node_of_slot t.n s :: acc) t.order []

let neighbours t c node =
  let s = slot t.n node in
  List.init (c.off.(s + 1) - c.off.(s)) (fun k ->
      let e = c.off.(s) + k in
      (node_of_slot t.n c.nbr.(e), c.lat.(e)))

let preds t node = neighbours t t.pred node
let succs t node = neighbours t t.succ node

(* Fault-injection hook: a copy of the graph with one edge's latency weight
   replaced.  The result is deliberately allowed to be ill-formed (negative
   weights included) so tests can prove the timed-DFG validator fires. *)
let with_edge_weight t ~src ~dst ~weight =
  let s = slot t.n src and d = slot t.n dst in
  let replace c from other =
    let lat = Array.copy c.lat and hit = ref false in
    for e = c.off.(from) to c.off.(from + 1) - 1 do
      if c.nbr.(e) = other then begin
        lat.(e) <- weight;
        hit := true
      end
    done;
    ({ c with lat }, !hit)
  in
  let succ, found = replace t.succ s d in
  if not found then invalid_arg "Timed_dfg.with_edge_weight: no such edge";
  let pred, _ = replace t.pred d s in
  { t with succ; pred }
