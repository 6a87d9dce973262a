
module Op_id = Id.Make ()

type cmp = Lt | Le | Eq | Ne | Ge | Gt

type op_kind =
  | Add
  | Sub
  | Mul
  | Div
  | Modulo
  | Shl
  | Shr
  | Land
  | Lor
  | Lxor
  | Lnot
  | Cmp of cmp
  | Mux
  | Read of string
  | Write of string
  | Const of int

let op_kind_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Modulo -> "mod"
  | Shl -> "shl"
  | Shr -> "shr"
  | Land -> "and"
  | Lor -> "or"
  | Lxor -> "xor"
  | Lnot -> "not"
  | Cmp Lt -> "lt"
  | Cmp Le -> "le"
  | Cmp Eq -> "eq"
  | Cmp Ne -> "ne"
  | Cmp Ge -> "ge"
  | Cmp Gt -> "gt"
  | Mux -> "mux"
  | Read p -> "read:" ^ p
  | Write p -> "write:" ^ p
  | Const v -> "const:" ^ string_of_int v

let default_fixed = function
  | Read _ | Write _ | Mux -> true
  | Add | Sub | Mul | Div | Modulo | Shl | Shr | Land | Lor | Lxor | Lnot | Cmp _ | Const _
    -> false

type op = {
  id : Op_id.t;
  kind : op_kind;
  width : int;
  birth : Cfg.Edge_id.t;
  fixed : bool;
  name : string;
}

type dep = { src : int; dst : int; loop_carried : bool }

type t = {
  cfg : Cfg.t;
  ops_v : op Vec.t;
  deps : dep Vec.t;
  mutable adj : adj option; (* invalidated on mutation *)
}

(* Built once per mutation epoch and handed out without copying; the
   topological order is memoised beside it, on success only. *)
and adj = {
  fwd_succ : Op_id.t list array;
  fwd_pred : Op_id.t list array;
  all_succ : (Op_id.t * bool) list array;
  all_pred : (Op_id.t * bool) list array;
  mutable topo : Op_id.t list option;
}

exception Malformed of string

let create cfg = { cfg; ops_v = Vec.create (); deps = Vec.create (); adj = None }
let cfg t = t.cfg

let add_op t ~kind ~width ~birth ?fixed ?name () =
  if width <= 0 then invalid_arg "Dfg.add_op: width must be positive";
  let fixed = match fixed with Some f -> f | None -> default_fixed kind in
  let idx = Vec.length t.ops_v in
  let name =
    match name with Some n -> n | None -> Printf.sprintf "%s_%d" (op_kind_name kind) idx
  in
  let id = Op_id.of_int idx in
  ignore (Vec.push t.ops_v { id; kind; width; birth; fixed; name });
  t.adj <- None;
  id

let op t id = Vec.get t.ops_v (Op_id.to_int id)

let fix_op t id =
  let i = Op_id.to_int id in
  let o = Vec.get t.ops_v i in
  Vec.set t.ops_v i { o with fixed = true }
let op_count t = Vec.length t.ops_v
let dep_count t = Vec.length t.deps

let add_dep t ~src ~dst ?(loop_carried = false) () =
  let s = Op_id.to_int src and d = Op_id.to_int dst in
  let n = op_count t in
  if s < 0 || s >= n || d < 0 || d >= n then invalid_arg "Dfg.add_dep: op out of range";
  if s = d && not loop_carried then
    invalid_arg "Dfg.add_dep: self dependency must be loop-carried";
  ignore (Vec.push t.deps { src = s; dst = d; loop_carried });
  t.adj <- None

let ops t = List.init (op_count t) Op_id.of_int
let iter_ops t f = Vec.iter f t.ops_v

let adjacency t =
  match t.adj with
  | Some a -> a
  | None ->
    let n = op_count t in
    let fwd_succ = Array.make n [] and fwd_pred = Array.make n [] in
    let all_succ = Array.make n [] and all_pred = Array.make n [] in
    (* Iterate in reverse so the resulting lists are in insertion order. *)
    let ds = Vec.to_array t.deps in
    for i = Array.length ds - 1 downto 0 do
      let { src; dst; loop_carried } = ds.(i) in
      let s = Op_id.of_int src and d = Op_id.of_int dst in
      all_succ.(src) <- (d, loop_carried) :: all_succ.(src);
      all_pred.(dst) <- (s, loop_carried) :: all_pred.(dst);
      if not loop_carried then begin
        fwd_succ.(src) <- d :: fwd_succ.(src);
        fwd_pred.(dst) <- s :: fwd_pred.(dst)
      end
    done;
    let a = { fwd_succ; fwd_pred; all_succ; all_pred; topo = None } in
    t.adj <- Some a;
    a

let preds t id = (adjacency t).fwd_pred.(Op_id.to_int id)
let succs t id = (adjacency t).fwd_succ.(Op_id.to_int id)
let all_preds t id = (adjacency t).all_pred.(Op_id.to_int id)
let all_succs t id = (adjacency t).all_succ.(Op_id.to_int id)

exception Cyclic of Op_id.t list

(* Mirror of the forward-dependency relation as a Digraph, for the
   structural queries in Traverse. *)
let fwd_digraph t =
  let a = adjacency t in
  let g = Digraph.create ~initial_capacity:(op_count t) () in
  for _ = 1 to op_count t do
    ignore (Digraph.add_node g)
  done;
  Array.iteri
    (fun u succs -> List.iter (fun v -> Digraph.add_edge g u (Op_id.to_int v)) succs)
    a.fwd_succ;
  g

let forward_cycle t =
  Option.map (List.map Op_id.of_int) (Traverse.find_cycle (fwd_digraph t))

let topo_order t =
  let a = adjacency t in
  match a.topo with
  | Some order -> order
  | None ->
    let n = op_count t in
    let indeg = Array.make n 0 in
    for v = 0 to n - 1 do
      indeg.(v) <- List.length a.fwd_pred.(v)
    done;
    let queue = Queue.create () in
    for v = 0 to n - 1 do
      if indeg.(v) = 0 then Queue.add v queue
    done;
    let order = ref [] and count = ref 0 in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      incr count;
      order := u :: !order;
      List.iter
        (fun v ->
          let v = Op_id.to_int v in
          indeg.(v) <- indeg.(v) - 1;
          if indeg.(v) = 0 then Queue.add v queue)
        a.fwd_succ.(u)
    done;
    if !count <> n then
      raise (Cyclic (match forward_cycle t with Some path -> path | None -> []));
    let order = List.rev_map Op_id.of_int !order in
    a.topo <- Some order;
    order

let cycle_message t path =
  Printf.sprintf "forward dependencies are cyclic: %s"
    (String.concat " -> " (List.map (fun o -> (op t o).name) path))

let validate t =
  if not (Cfg.is_sealed t.cfg) then invalid_arg "Dfg.validate: CFG not sealed";
  (match topo_order t with
  | _ -> ()
  | exception Cyclic path -> raise (Malformed (cycle_message t path)));
  iter_ops t (fun o ->
      if Cfg.is_backward t.cfg o.birth then
        raise (Malformed (Printf.sprintf "op %s born on a backward CFG edge" o.name)));
  Vec.iter
    (fun { src; dst; loop_carried } ->
      if not loop_carried then begin
        let po = Vec.get t.ops_v src and so = Vec.get t.ops_v dst in
        if not (Cfg.reaches t.cfg po.birth so.birth) then
          raise
            (Malformed
               (Printf.sprintf "dependency %s -> %s crosses no forward CFG path" po.name
                  so.name))
      end)
    t.deps

type span = { early : Cfg.Edge_id.t; late : Cfg.Edge_id.t }

let span_edges t { early; late } =
  List.filter
    (fun e -> Cfg.reaches t.cfg early e && Cfg.reaches t.cfg e late)
    (Cfg.forward_edges_topo t.cfg)

let is_const o = match o.kind with Const _ -> true | _ -> false

(* Spans are computed in two sweeps over the forward-topological order of
   operations: earlies forward, lates backward.  Candidate edges are scanned
   in CFG edge-topological order; graphs are small enough that the O(ops *
   edges) scan with O(1) reachability queries is cheap. *)
let compute_spans ?(pin = fun _ -> None) t =
  let cfg = t.cfg in
  if not (Cfg.is_sealed cfg) then invalid_arg "Dfg.compute_spans: CFG not sealed";
  let n = op_count t in
  let order = topo_order t in
  let edges_topo = Cfg.forward_edges_topo cfg in
  let early = Array.make n None and late = Array.make n None in
  let get_early i = match early.(i) with Some e -> e | None -> assert false in
  let get_late i = match late.(i) with Some e -> e | None -> assert false in
  let a = adjacency t in
  (* Earlies, forward. *)
  List.iter
    (fun id ->
      let i = Op_id.to_int id in
      let o = Vec.get t.ops_v i in
      let e =
        match pin id with
        | Some pinned -> pinned
        | None ->
          if o.fixed || is_const o then o.birth
          else begin
            let ps =
              List.filter
                (fun p -> not (is_const (Vec.get t.ops_v (Op_id.to_int p))))
                a.fwd_pred.(i)
            in
            if ps = [] then o.birth
            else begin
              let ok e =
                Cfg.edge_dominates cfg e o.birth
                && List.for_all (fun p -> Cfg.reaches cfg (get_early (Op_id.to_int p)) e) ps
              in
              match List.find_opt ok edges_topo with
              | Some e -> e
              | None -> o.birth
            end
          end
      in
      early.(i) <- Some e)
    order;
  (* Lates, backward. *)
  List.iter
    (fun id ->
      let i = Op_id.to_int id in
      let o = Vec.get t.ops_v i in
      let e =
        match pin id with
        | Some pinned -> pinned
        | None ->
          if o.fixed || is_const o then o.birth
          else if List.exists (fun (_, lc) -> lc) a.all_succ.(i) then
            (* Loop-carried producers must execute on every iteration path:
               sinking them into a conditional branch would skip the update
               on the other branch.  Keep them on their birth edge. *)
            o.birth
          else begin
            let ss = a.fwd_succ.(i) in
            let ok e =
              Cfg.sink_reaches cfg o.birth e
              && List.for_all (fun s -> Cfg.reaches cfg e (get_late (Op_id.to_int s))) ss
            in
            match List.find_opt ok (List.rev edges_topo) with
            | Some e -> e
            | None -> o.birth
          end
      in
      late.(i) <- Some e)
    (List.rev order);
  Array.init n (fun i ->
      let e = get_early i and l = get_late i in
      (* A span must be internally consistent; fall back to the birth edge
         if pinning produced an inverted window. *)
      if Cfg.reaches cfg e l then { early = e; late = l }
      else begin
        let b = (Vec.get t.ops_v i).birth in
        { early = b; late = b }
      end)

(* ------------------------------------------------------------------ *)
(* Content digest *)

(* Non-negative ints in decimal, as [%d] prints them. *)
let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* The dump is written with [Buffer] adds, not [Printf]: the serve daemon
   digests on every cache hit.  The initial buffer stays below the minor
   heap's 256-word allocation limit. *)
let digest t =
  let buf = Buffer.create 1024 in
  let str s = Buffer.add_string buf s and chr c = Buffer.add_char buf c in
  let nat n = add_nat buf n in
  let c = t.cfg in
  str "cfg ";
  nat (Cfg.node_count c);
  chr ' ';
  nat (Cfg.edge_count c);
  chr '\n';
  for n = 0 to Cfg.node_count c - 1 do
    chr 'n';
    nat n;
    chr ' ';
    str (Cfg.node_kind_name (Cfg.node_kind c (Cfg.Node_id.of_int n)));
    chr '\n'
  done;
  Cfg.iter_edges c (fun e ->
      chr 'e';
      nat (Cfg.Edge_id.to_int e);
      chr ' ';
      nat (Cfg.Node_id.to_int (Cfg.edge_src c e));
      chr ' ';
      nat (Cfg.Node_id.to_int (Cfg.edge_dst c e));
      chr '\n');
  Vec.iteri
    (fun i o ->
      chr 'o';
      nat i;
      chr ' ';
      str (op_kind_name o.kind);
      str " w";
      nat o.width;
      str " b";
      nat (Cfg.Edge_id.to_int o.birth);
      str " f";
      str (string_of_bool o.fixed);
      chr ' ';
      str o.name;
      chr '\n')
    t.ops_v;
  (* Dependency insertion order is a construction detail, not content:
     sort so equal graphs built in different orders digest equally. *)
  let deps = Vec.to_array t.deps in
  Array.sort
    (fun a b ->
      match Int.compare a.src b.src with
      | 0 -> (
        match Int.compare a.dst b.dst with
        | 0 -> Bool.compare a.loop_carried b.loop_carried
        | c -> c)
      | c -> c)
    deps;
  Array.iter
    (fun d ->
      str "d ";
      nat d.src;
      chr ' ';
      nat d.dst;
      chr ' ';
      str (string_of_bool d.loop_carried);
      chr '\n')
    deps;
  Digest.to_hex (Digest.string (Buffer.contents buf))
