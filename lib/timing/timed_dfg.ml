type node = Op of Dfg.Op_id.t | Sink of Dfg.Op_id.t

let node_equal a b =
  match (a, b) with
  | Op x, Op y | Sink x, Sink y -> Dfg.Op_id.equal x y
  | Op _, Sink _ | Sink _, Op _ -> false

let pp_node ppf = function
  | Op o -> Format.fprintf ppf "op%d" (Dfg.Op_id.to_int o)
  | Sink o -> Format.fprintf ppf "sink%d" (Dfg.Op_id.to_int o)

type t = {
  dfg : Dfg.t;
  spans : Dfg.span array;
  is_active : bool array; (* by op index *)
  active_list : Dfg.Op_id.t list;
  topo_nodes : node list;
  pred_arr : (node * int) list array; (* 2n slots: op i at i, sink i at n+i *)
  succ_arr : (node * int) list array; (* both in edge insertion order *)
  edges : int;
}

exception Unrealizable of string

let slot n = function
  | Op o -> Dfg.Op_id.to_int o
  | Sink o -> n + Dfg.Op_id.to_int o

let c_builds = Obs.counter "timed_dfg.builds"
let c_nodes = Obs.counter "timed_dfg.nodes"
let c_edges = Obs.counter "timed_dfg.edges"

let build dfg ~spans =
  let cfg = Dfg.cfg dfg in
  let n = Dfg.op_count dfg in
  if Array.length spans <> n then invalid_arg "Timed_dfg.build: span array size mismatch";
  let is_active = Array.make n false in
  Dfg.iter_ops dfg (fun o ->
      is_active.(Dfg.Op_id.to_int o.Dfg.id) <-
        (match o.Dfg.kind with Dfg.Const _ -> false | _ -> true));
  let pred_arr = Array.make (2 * n) [] and succ_arr = Array.make (2 * n) [] in
  let edges = ref 0 in
  let add_edge src dst w =
    succ_arr.(slot n src) <- (dst, w) :: succ_arr.(slot n src);
    pred_arr.(slot n dst) <- (src, w) :: pred_arr.(slot n dst);
    incr edges
  in
  let early o = spans.(Dfg.Op_id.to_int o).Dfg.early in
  let late o = spans.(Dfg.Op_id.to_int o).Dfg.late in
  (* Dependency edges: forward deps between active ops. *)
  List.iter
    (fun oid ->
      if is_active.(Dfg.Op_id.to_int oid) then
        List.iter
          (fun sid ->
            if is_active.(Dfg.Op_id.to_int sid) then begin
              match Cfg.latency cfg (early oid) (early sid) with
              | Some w -> add_edge (Op oid) (Op sid) w
              | None ->
                raise
                  (Unrealizable
                     (Printf.sprintf "dependency %s -> %s has undefined latency"
                        (Dfg.op dfg oid).Dfg.name (Dfg.op dfg sid).Dfg.name))
            end)
          (Dfg.succs dfg oid))
    (Dfg.ops dfg);
  (* Sink edges: weight = latency(early o, late o). *)
  List.iter
    (fun oid ->
      if is_active.(Dfg.Op_id.to_int oid) then begin
        match Cfg.latency cfg (early oid) (late oid) with
        | Some w -> add_edge (Op oid) (Sink oid) w
        | None ->
          raise
            (Unrealizable
               (Printf.sprintf "op %s has a span with unreachable late edge"
                  (Dfg.op dfg oid).Dfg.name))
      end)
    (Dfg.ops dfg);
  (* Topological order: ops in DFG topo order, each immediately followed by
     its sink (sinks have no successors, so this is a valid extension). *)
  let topo_nodes =
    List.concat_map
      (fun oid ->
        if is_active.(Dfg.Op_id.to_int oid) then [ Op oid; Sink oid ] else [])
      (Dfg.topo_order dfg)
  in
  Obs.incr c_builds;
  Obs.add c_nodes (List.length topo_nodes);
  Obs.add c_edges !edges;
  (* Edges were consed on; restore insertion order once, here. *)
  Array.map_inplace List.rev pred_arr;
  Array.map_inplace List.rev succ_arr;
  let active_list = List.filter (fun o -> is_active.(Dfg.Op_id.to_int o)) (Dfg.ops dfg) in
  { dfg; spans; is_active; active_list; topo_nodes; pred_arr; succ_arr; edges = !edges }

let dfg t = t.dfg
let spans t = t.spans
let active t o = t.is_active.(Dfg.Op_id.to_int o)
let active_ops t = t.active_list
let topo t = t.topo_nodes
let preds t node = t.pred_arr.(slot (Dfg.op_count t.dfg) node)
let succs t node = t.succ_arr.(slot (Dfg.op_count t.dfg) node)
let edge_count t = t.edges

let latency_between t o1 o2 =
  let early o = t.spans.(Dfg.Op_id.to_int o).Dfg.early in
  Cfg.latency (Dfg.cfg t.dfg) (early o1) (early o2)

(* Fault-injection hook: a copy of the graph with one edge's latency weight
   replaced.  The result is deliberately allowed to be ill-formed (negative
   weights included) so tests can prove the timed-DFG validator fires. *)
let with_edge_weight t ~src ~dst ~weight =
  let n = Dfg.op_count t.dfg in
  let replace lst other =
    List.map (fun (nd, w) -> if node_equal nd other then (nd, weight) else (nd, w)) lst
  in
  let succ_arr = Array.copy t.succ_arr and pred_arr = Array.copy t.pred_arr in
  if not (List.exists (fun (nd, _) -> node_equal nd dst) succ_arr.(slot n src)) then
    invalid_arg "Timed_dfg.with_edge_weight: no such edge";
  succ_arr.(slot n src) <- replace succ_arr.(slot n src) dst;
  pred_arr.(slot n dst) <- replace pred_arr.(slot n dst) src;
  { t with succ_arr; pred_arr }
