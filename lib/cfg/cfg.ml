
module Node_id = Id.Make ()
module Edge_id = Id.Make ()

type node_kind = Start | State | Fork | Join | Plain | Exit

let node_kind_name = function
  | Start -> "start"
  | State -> "state"
  | Fork -> "fork"
  | Join -> "join"
  | Plain -> "plain"
  | Exit -> "exit"

let pp_node_kind ppf k = Format.pp_print_string ppf (node_kind_name k)

type sealed = {
  back : bool array; (* indexed by edge id *)
  edge_topo : Edge_id.t list;
  edge_topo_pos : int array; (* -1 for backward edges *)
  state_dist : int option array array; (* node x node, endpoints included *)
  node_reach : bool array array; (* forward reachability *)
  node_reach_nojoin : bool array array; (* forward, avoiding Join nodes *)
  state_index : int array; (* per forward edge: control step from start *)
  max_state : int;
  edge_dom : bool array array; (* edge_dom.(f).(e): e dominates f *)
}


type t = {
  kinds : node_kind Vec.t;
  edges : (int * int) Vec.t; (* by edge id *)
  mutable sealed_info : sealed option;
}

exception Malformed of string

let create () =
  let kinds = Vec.create () in
  ignore (Vec.push kinds Start);
  { kinds; edges = Vec.create (); sealed_info = None }

let start _t = Node_id.of_int 0

let check_unsealed t what =
  if t.sealed_info <> None then invalid_arg ("Cfg." ^ what ^ ": CFG already sealed")

let add_node t kind =
  check_unsealed t "add_node";
  if kind = Start then invalid_arg "Cfg.add_node: a CFG has a single start node";
  Node_id.of_int (Vec.push t.kinds kind)

let node_count t = Vec.length t.kinds
let edge_count t = Vec.length t.edges

let add_edge t src dst =
  check_unsealed t "add_edge";
  let s = Node_id.to_int src and d = Node_id.to_int dst in
  let n = node_count t in
  if s < 0 || s >= n || d < 0 || d >= n then
    invalid_arg "Cfg.add_edge: node out of range";
  Edge_id.of_int (Vec.push t.edges (s, d))

let node_kind t n = Vec.get t.kinds (Node_id.to_int n)
let edge_pair t e = Vec.get t.edges (Edge_id.to_int e)

let edge_src t e = Node_id.of_int (fst (edge_pair t e))
let edge_dst t e = Node_id.of_int (snd (edge_pair t e))

let out_edges t n =
  let ni = Node_id.to_int n in
  let acc = ref [] in
  Vec.iteri (fun i (s, _) -> if s = ni then acc := Edge_id.of_int i :: !acc) t.edges;
  List.rev !acc

let iter_edges t f =
  for i = 0 to edge_count t - 1 do
    f (Edge_id.of_int i)
  done

let is_sealed t = t.sealed_info <> None

(* Build the full digraph including backward edges, remembering which edge id
   produced each (src, dst) pair.  Parallel edges get distinct ids but the
   DFS classification is per-adjacency entry, so we classify by scanning edge
   ids grouped by endpoints after DFS on nodes. *)
let seal t =
  check_unsealed t "seal";
  let kinds = Vec.to_array t.kinds in
  let edges = Vec.to_array t.edges in
  let n = node_count t in
  let g = Digraph.create ~initial_capacity:(max n 1) () in
  for _ = 1 to n do
    ignore (Digraph.add_node g)
  done;
  Array.iter (fun (s, d) -> Digraph.add_edge g s d) edges;
  (* Classify backward edges with a DFS over nodes.  Because parallel edges
     between the same pair receive identical classification, we classify
     node pairs and map back to edge ids. *)
  let back_pairs = Hashtbl.create 16 in
  Traverse.dfs_classify g ~roots:[ 0 ] (fun u v cls ->
      if cls = Traverse.Back then Hashtbl.replace back_pairs (u, v) ());
  let back = Array.make (edge_count t) false in
  Array.iteri (fun i (s, d) -> if Hashtbl.mem back_pairs (s, d) then back.(i) <- true) edges;
  (* Forward subgraph. *)
  let fwd = Digraph.create ~initial_capacity:(max n 1) () in
  for _ = 1 to n do
    ignore (Digraph.add_node fwd)
  done;
  Array.iteri (fun i (s, d) -> if not back.(i) then Digraph.add_edge fwd s d) edges;
  (* Reachability from the start covers every node (using all edges). *)
  let reach_from_start = Traverse.reachable g 0 in
  Array.iteri
    (fun i r ->
      if not r then
        raise (Malformed (Printf.sprintf "node %d unreachable from start" i)))
    reach_from_start;
  let topo =
    match Traverse.topo_sort fwd with
    | Ok order -> order
    | Error _ -> raise (Malformed "forward subgraph is cyclic (internal error)")
  in
  let topo_pos = Array.make n 0 in
  List.iteri (fun pos v -> topo_pos.(v) <- pos) topo;
  (* Edge topological order: sorting forward edges by the topological
     position of their source (then target, then id) linearizes edge
     reachability. *)
  let fwd_edge_ids = ref [] in
  Array.iteri (fun i _ -> if not back.(i) then fwd_edge_ids := i :: !fwd_edge_ids) edges;
  let fwd_edge_ids = List.rev !fwd_edge_ids in
  let cmp a b =
    let sa, da = edges.(a) and sb, db = edges.(b) in
    match Int.compare topo_pos.(sa) topo_pos.(sb) with
    | 0 -> ( match Int.compare topo_pos.(da) topo_pos.(db) with 0 -> Int.compare a b | c -> c)
    | c -> c
  in
  let sorted = List.sort cmp fwd_edge_ids in
  let edge_topo = List.map Edge_id.of_int sorted in
  let edge_topo_pos = Array.make (edge_count t) (-1) in
  List.iteri (fun pos i -> edge_topo_pos.(i) <- pos) sorted;
  (* Minimum state-node count over forward paths (endpoints included). *)
  let weight v = if kinds.(v) = State then 1 else 0 in
  let state_dist = Dag_paths.all_pairs_min_node_weight fwd ~weight in
  (* Every cycle (backward edge u -> v plus forward path v ->* u) must
     contain at least one state node. *)
  Array.iteri
    (fun i (u, v) ->
      if back.(i) then
        match state_dist.(v).(u) with
        | None ->
          raise
            (Malformed (Printf.sprintf "backward edge %d->%d closes no forward path" u v))
        | Some states ->
          if states = 0 then
            raise
              (Malformed
                 (Printf.sprintf "combinational loop: cycle through %d->%d has no state node"
                    u v)))
    edges;
  (* Node-level forward reachability. *)
  let node_reach = Array.init n (fun v -> Traverse.reachable fwd v) in
  (* Join-free reachability: drop Join nodes entirely. *)
  let fwd_nojoin = Digraph.create ~initial_capacity:(max n 1) () in
  for _ = 1 to n do
    ignore (Digraph.add_node fwd_nojoin)
  done;
  Array.iteri
    (fun i (s, d) ->
      if (not back.(i)) && kinds.(s) <> Join && kinds.(d) <> Join then
        Digraph.add_edge fwd_nojoin s d)
    edges;
  let node_reach_nojoin =
    Array.init n (fun v ->
        if kinds.(v) = Join then Array.make n false else Traverse.reachable fwd_nojoin v)
  in
  (* Edge dominance over the forward subgraph: e dominates f iff every
     start-to-f path passes through e.  Single pass in edge topological
     order suffices on a DAG because all predecessor edges of f (the
     in-edges of f's source) precede f in that order. *)
  let ne = edge_count t in
  let edge_dom = Array.make ne [||] in
  let fwd_in_edges = Array.make n [] in
  Array.iteri
    (fun i (s', d') ->
      ignore s';
      if not back.(i) then fwd_in_edges.(d') <- i :: fwd_in_edges.(d'))
    edges;
  List.iter
    (fun eid ->
      let f = Edge_id.to_int eid in
      let sf, _ = edges.(f) in
      let dom = Array.make ne false in
      let pred_edges = fwd_in_edges.(sf) in
      (match pred_edges with
      | [] -> () (* source edge: dominated only by itself *)
      | first :: rest ->
        Array.blit edge_dom.(first) 0 dom 0 ne;
        List.iter
          (fun p ->
            let dp = edge_dom.(p) in
            for k = 0 to ne - 1 do
              dom.(k) <- dom.(k) && dp.(k)
            done)
          rest);
      dom.(f) <- true;
      edge_dom.(f) <- dom)
    edge_topo;
  (* Backward edges keep empty dominance rows. *)
  for f = 0 to ne - 1 do
    if Array.length edge_dom.(f) = 0 then edge_dom.(f) <- Array.make ne false
  done;
  (* Control step of each forward edge: states from the start to the edge's
     source, source included. *)
  let state_index = Array.make (edge_count t) (-1) in
  let max_state = ref 0 in
  Array.iteri
    (fun i (s, _) ->
      if not back.(i) then begin
        match state_dist.(0).(s) with
        | Some d ->
          state_index.(i) <- d;
          if d > !max_state then max_state := d
        | None -> raise (Malformed (Printf.sprintf "edge %d source unreachable" i))
      end)
    edges;
  t.sealed_info <-
    Some
      {
        back;
        edge_topo;
        edge_topo_pos;
        state_dist;
        node_reach;
        node_reach_nojoin;
        state_index;
        max_state = !max_state;
        edge_dom;
      }

let sealed t what =
  match t.sealed_info with
  | Some s -> s
  | None -> invalid_arg ("Cfg." ^ what ^ ": CFG not sealed")

let is_backward t e = (sealed t "is_backward").back.(Edge_id.to_int e)
let forward_edges_topo t = (sealed t "forward_edges_topo").edge_topo

let edge_topo_index t e =
  let pos = (sealed t "edge_topo_index").edge_topo_pos.(Edge_id.to_int e) in
  if pos < 0 then invalid_arg "Cfg.edge_topo_index: backward edge";
  pos

let reaches t e1 e2 =
  if Edge_id.equal e1 e2 then true
  else begin
    let s = sealed t "reaches" in
    if s.back.(Edge_id.to_int e1) || s.back.(Edge_id.to_int e2) then false
    else begin
      let _, d1 = edge_pair t e1 and s2, _ = edge_pair t e2 in
      s.node_reach.(d1).(s2)
    end
  end

let sink_reaches t e1 e2 =
  if Edge_id.equal e1 e2 then true
  else begin
    let s = sealed t "sink_reaches" in
    if s.back.(Edge_id.to_int e1) || s.back.(Edge_id.to_int e2) then false
    else begin
      let _, d1 = edge_pair t e1 and s2, _ = edge_pair t e2 in
      s.node_reach_nojoin.(d1).(s2)
    end
  end

let latency t e1 e2 =
  if Edge_id.equal e1 e2 then Some 0
  else begin
    let s = sealed t "latency" in
    if s.back.(Edge_id.to_int e1) || s.back.(Edge_id.to_int e2) then None
    else begin
      let _, d1 = edge_pair t e1 and s2, _ = edge_pair t e2 in
      s.state_dist.(d1).(s2)
    end
  end

let state_of_edge t e =
  let s = sealed t "state_of_edge" in
  let idx = s.state_index.(Edge_id.to_int e) in
  if idx < 0 then invalid_arg "Cfg.state_of_edge: backward edge";
  idx

let max_state_index t = (sealed t "max_state_index").max_state

let edge_dominates t e f =
  (sealed t "edge_dominates").edge_dom.(Edge_id.to_int f).(Edge_id.to_int e)
