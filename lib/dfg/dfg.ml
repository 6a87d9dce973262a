
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

(* What the span rule reads of the graph, by index.  Edges are named by
   index: the forward edges in the CFG's topological order, then the
   backward ones. *)
type span_rule = {
  edges : Cfg.Edge_id.t array;  (* index -> edge *)
  index : int array;  (* edge -> index *)
  n_forward : int;
  order : int array;  (* ops, topological order *)
  position : int array;  (* op -> index in [order] *)
  birth : int array;
  early_from : int array array;
      (* the ops an early is derived from (non-constant forward
         predecessors); empty when the early is the birth edge *)
  late_free : bool array;  (* the late is derived from the successors *)
  succs : int array array;  (* forward successors *)
  preds : int array array;  (* forward predecessors *)
}

type t = {
  cfg : Cfg.t;
  ops_v : op Vec.t;
  deps : dep Vec.t;
  mutable adj : adj option; (* invalidated on mutation *)
}

(* Built once per mutation epoch and handed out without copying; the
   topological order and the span rule's inputs are memoised beside it,
   on success only. *)
and adj = {
  fwd_succ : Op_id.t list array;
  fwd_pred : Op_id.t list array;
  all_succ : (Op_id.t * bool) list array;
  all_pred : (Op_id.t * bool) list array;
  mutable topo : Op_id.t list option;
  mutable rule : span_rule option;
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
  Vec.set t.ops_v i { o with fixed = true };
  t.adj <- None
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
    let a = { fwd_succ; fwd_pred; all_succ; all_pred; topo = None; rule = None } in
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

(* A forward edge that dominates, sink-reaches or reaches another never
   lies after it in the span rule's edge order, so each candidate scan
   below runs over an index range: the edges outside it would fail the
   rule anyway. *)
let span_rule t =
  let a = adjacency t in
  match a.rule with
  | Some r -> r
  | None ->
    let cfg = t.cfg in
    if not (Cfg.is_sealed cfg) then invalid_arg "Dfg.compute_spans: CFG not sealed";
    let n = op_count t in
    let fwd = Cfg.forward_edges_topo cfg in
    let back = ref [] in
    Cfg.iter_edges cfg (fun e -> if Cfg.is_backward cfg e then back := e :: !back);
    let edges = Array.of_list (fwd @ List.rev !back) in
    let index = Array.make (Array.length edges) 0 in
    Array.iteri (fun k e -> index.(Cfg.Edge_id.to_int e) <- k) edges;
    let n_forward = List.length fwd in
    let order = Array.of_list (List.map Op_id.to_int (topo_order t)) in
    let position = Array.make n 0 in
    Array.iteri (fun k i -> position.(i) <- k) order;
    let op i = Vec.get t.ops_v i in
    let birth = Array.init n (fun i -> index.(Cfg.Edge_id.to_int (op i).birth)) in
    (* An op born on a backward edge keeps it: the rule finds no forward
       edge for it. *)
    let born_fixed i =
      let o = op i in
      o.fixed || is_const o || birth.(i) >= n_forward
    in
    let ids l = Array.of_list (List.map Op_id.to_int l) in
    let r =
      {
        edges;
        index;
        n_forward;
        order;
        position;
        birth;
        early_from =
          Array.init n (fun i ->
              if born_fixed i then [||]
              else
                ids (List.filter (fun p -> not (is_const (op (Op_id.to_int p)))) a.fwd_pred.(i)));
        (* Loop-carried producers must execute on every iteration path:
           sinking them into a conditional branch would skip the update on
           the other branch.  Keep them on their birth edge. *)
        late_free =
          Array.init n (fun i -> not (born_fixed i || List.exists snd a.all_succ.(i)));
        succs = Array.map ids a.fwd_succ;
        preds = Array.map ids a.fwd_pred;
      }
    in
    a.rule <- Some r;
    r

(* Span state: the pins and the raw earlies and lates, kept before the
   inverted-window fallback, which only [publish] applies: the rule reads
   raw values. *)
type span_state = {
  cfg : Cfg.t;
  rule : span_rule;
  pinned : int array;  (* op -> pinned edge, or -1 *)
  early : int array;
  late : int array;
  spans : span array;  (* published *)
  dirty : Bytes.t;  (* by position: bit 1 early, bit 2 late *)
}

(* Earlies: the first edge that dominates the birth edge and that every
   producer's early reaches; the birth edge when there is none. *)
let derive_early st i =
  let r = st.rule in
  let ps = r.early_from.(i) and b = r.birth.(i) in
  if st.pinned.(i) >= 0 then st.pinned.(i)
  else if Array.length ps = 0 then b
  else begin
    let cfg = st.cfg and edges = r.edges in
    let rec reached e j =
      j = Array.length ps
      || (Cfg.reaches cfg edges.(st.early.(ps.(j))) e && reached e (j + 1))
    in
    let rec scan k =
      if k > b then b
      else if Cfg.edge_dominates cfg edges.(k) edges.(b) && reached edges.(k) 0 then k
      else scan (k + 1)
    in
    let lo = ref 0 in
    for j = 0 to Array.length ps - 1 do
      lo := max !lo st.early.(ps.(j))
    done;
    scan !lo
  end

(* Lates: the last edge join-free-reachable from the birth edge that
   reaches every consumer's late; the birth edge when there is none. *)
let derive_late st i =
  let r = st.rule in
  let ss = r.succs.(i) and b = r.birth.(i) in
  if st.pinned.(i) >= 0 then st.pinned.(i)
  else if not r.late_free.(i) then b
  else begin
    let cfg = st.cfg and edges = r.edges in
    let rec reaches_all e j =
      j = Array.length ss
      || (Cfg.reaches cfg e edges.(st.late.(ss.(j))) && reaches_all e (j + 1))
    in
    let rec scan k =
      if k < b then b
      else if Cfg.sink_reaches cfg edges.(b) edges.(k) && reaches_all edges.(k) 0 then k
      else scan (k - 1)
    in
    let hi = ref (r.n_forward - 1) in
    for j = 0 to Array.length ss - 1 do
      hi := min !hi st.late.(ss.(j))
    done;
    scan !hi
  end

let mark st bits i =
  let k = st.rule.position.(i) in
  Bytes.unsafe_set st.dirty k
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get st.dirty k) lor bits))

let take st bit k =
  let c = Char.code (Bytes.unsafe_get st.dirty k) in
  c land bit <> 0
  && begin
    Bytes.unsafe_set st.dirty k (Char.unsafe_chr (c land lnot bit));
    true
  end

(* A span must be internally consistent; fall back to the birth edge if
   pinning produced an inverted window. *)
let publish st i =
  let edges = st.rule.edges in
  let e = edges.(st.early.(i)) and l = edges.(st.late.(i)) in
  st.spans.(i) <-
    (if Cfg.reaches st.cfg e l then { early = e; late = l }
     else begin
       let b = edges.(st.rule.birth.(i)) in
       { early = b; late = b }
     end)

(* Re-derives the dirty earlies forward from position [first] and the
   dirty lates backward from [last].  A value that changed is published,
   passed to [moved], and marks the ops derived from it, which lie later
   in its sweep's direction; one that did not stops the sweep there.
   Every op whose inputs changed is re-derived after them, so the raw
   values equal a full sweep's. *)
let propagate st ~first ~last ~moved =
  let r = st.rule in
  let upto = ref last and k = ref first in
  while !k <= !upto do
    if take st 1 !k then begin
      let i = r.order.(!k) in
      let e = derive_early st i in
      if e <> st.early.(i) then begin
        st.early.(i) <- e;
        publish st i;
        moved i;
        Array.iter
          (fun s ->
            mark st 1 s;
            upto := max !upto r.position.(s))
          r.succs.(i)
      end
    end;
    incr k
  done;
  let from = ref first and k = ref last in
  while !k >= !from do
    if take st 2 !k then begin
      let i = r.order.(!k) in
      let l = derive_late st i in
      if l <> st.late.(i) then begin
        st.late.(i) <- l;
        publish st i;
        moved i;
        Array.iter
          (fun p ->
            mark st 2 p;
            from := min !from r.position.(p))
          r.preds.(i)
      end
    end;
    decr k
  done

let unset = { early = Cfg.Edge_id.of_int 0; late = Cfg.Edge_id.of_int 0 }

(* The full sweep: every op dirty, then every span published. *)
let sweep ~pin t =
  let r = span_rule t in
  let n = Array.length r.order in
  let st =
    {
      cfg = t.cfg;
      rule = r;
      pinned =
        Array.init n (fun i ->
            match pin (Op_id.of_int i) with
            | Some e -> r.index.(Cfg.Edge_id.to_int e)
            | None -> -1);
      early = Array.copy r.birth;
      late = Array.copy r.birth;
      spans = Array.make n unset;
      dirty = Bytes.make n '\003';
    }
  in
  propagate st ~first:0 ~last:(n - 1) ~moved:ignore;
  (* The ops whose raw values stayed on the birth edge never changed. *)
  Array.iteri (fun i s -> if s == unset then publish st i) st.spans;
  st

let compute_spans ?(pin = fun _ -> None) t = (sweep ~pin t).spans
let span_state t = sweep ~pin:(fun _ -> None) t
let spans st = st.spans

let pin st ops e =
  let k = st.rule.index.(Cfg.Edge_id.to_int e) in
  let first = ref max_int and last = ref (-1) in
  List.iter
    (fun o ->
      let i = Op_id.to_int o in
      let p = st.rule.position.(i) in
      st.pinned.(i) <- k;
      mark st 3 i;
      first := min !first p;
      last := max !last p)
    ops;
  let moved = ref [] in
  if !last >= 0 then
    propagate st ~first:!first ~last:!last ~moved:(fun i -> moved := Op_id.of_int i :: !moved);
  !moved

let topo_array t = (span_rule t).order
let topo_position t = (span_rule t).position
let pred_array t = (span_rule t).preds

(* ------------------------------------------------------------------ *)
(* Content digest *)

(* Non-negative ints in decimal, as [%d] prints them. *)
let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* The dump is written with [Buffer] adds, not [Printf]: the serve daemon
   digests on every cache hit.  The initial buffer stays below the minor
   heap's 256-word allocation limit. *)
let digest (t : t) =
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
