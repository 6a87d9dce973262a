type result = {
  arr : float array;
  req : float array;
  slack : float array;
  min_slack : float;
}

(* Telemetry (paper §IV–V): a full analysis is one forward + one backward
   linear pass, each relaxing every timed-DFG connection exactly once — the
   evidence for the linearity claim that the Bellman–Ford baseline
   ([Bf_timing]) cannot match.  An incremental update re-relaxes only the
   nodes it recomputes; both kinds charge the relaxations they perform. *)
let c_analyses = Obs.counter "slack.analyses"
let c_fwd = Obs.counter "slack.forward_passes"
let c_bwd = Obs.counter "slack.backward_passes"
let c_updates = Obs.counter "slack.updates"
let c_relax = Obs.counter "slack.edge_relaxations"
let c_nodes = Obs.counter "slack.node_visits"

let[@inline] frac ~clock x = x -. (clock *. Float.floor (x /. clock))

let[@inline] align_start ~clock ~delay a =
  let f = frac ~clock a in
  if f +. delay > clock +. 1e-9 then clock *. (Float.floor (a /. clock) +. 1.0) else a

let[@inline] align_finish_constraint ~clock ~delay r =
  let f = frac ~clock r in
  if f +. delay > clock +. 1e-9 then (clock *. Float.floor (r /. clock)) +. clock -. delay
  else r

(* Values are compared by bit pattern: [=] equates 0.0 and -0.0, which can
   still differ downstream.  NaN never matches, which only propagates
   further. *)
let[@inline] same_bits (a : float) b =
  a = b && (a <> 0.0 || Float.sign_bit a = Float.sign_bit b)

type engine = {
  n : int;
  clock : float;
  mutable aligned : bool;
  active : int array;
  order : int array;
  position : int array;
  pred : Timed_dfg.csr;
  succ : Timed_dfg.csr;
  del : float array;  (* by slot; sinks stay 0 *)
  arr : float array;  (* by slot *)
  req : float array;  (* by slot *)
  slack : float array;  (* by op *)
  mutable min_slack : float;
  mutable committed_min : float;
  dirty : Bytes.t;  (* by topological position *)
  (* Undo log since the last commit: old values with their key, [slot] in
     one of the four value arrays (key / 2n: 0 del, 1 arr, 2 req, 3 slack). *)
  mutable log_key : int array;
  mutable log_val : float array;
  mutable log_len : int;
  mutable logging : bool;
  (* Work of the current operation, charged when it ends. *)
  mutable touched : int;
  mutable cone : int;
  mutable visits : int;
}

let log e kind (values : float array) slot =
  if e.logging then begin
    if e.log_len = Array.length e.log_key then begin
      let cap = 2 * (e.log_len + 8) in
      let key = Array.make cap 0 and value = Array.make cap 0.0 in
      Array.blit e.log_key 0 key 0 e.log_len;
      Array.blit e.log_val 0 value 0 e.log_len;
      e.log_key <- key;
      e.log_val <- value
    end;
    e.log_key.(e.log_len) <- (kind * 2 * e.n) + slot;
    e.log_val.(e.log_len) <- values.(slot);
    e.log_len <- e.log_len + 1
  end

(* The two node formulas, shared by the full pass and the incremental
   update.  Each recomputes one slot, charges its relaxations, and stores
   (and logs) the value when its bits changed, which it reports. *)
let settle_arrival e v =
  let p = e.pred in
  let lo = p.Timed_dfg.off.(v) and hi = p.Timed_dfg.off.(v + 1) in
  let a0 =
    if lo = hi then 0.0
    else begin
      let acc = ref neg_infinity in
      for k = lo to hi - 1 do
        let u = p.Timed_dfg.nbr.(k) in
        acc :=
          Float.max !acc
            (e.arr.(u) +. e.del.(u) -. (e.clock *. float_of_int p.Timed_dfg.lat.(k)))
      done;
      !acc
    end
  in
  let a = if e.aligned then align_start ~clock:e.clock ~delay:e.del.(v) a0 else a0 in
  e.touched <- e.touched + (hi - lo);
  e.visits <- e.visits + 1;
  if same_bits a e.arr.(v) then false
  else begin
    e.cone <- e.cone + (hi - lo);
    log e 1 e.arr v;
    e.arr.(v) <- a;
    true
  end

let settle_required e v =
  let s = e.succ in
  let lo = s.Timed_dfg.off.(v) and hi = s.Timed_dfg.off.(v + 1) in
  let d = e.del.(v) in
  let r0 =
    if lo = hi then e.clock
    else begin
      let acc = ref infinity in
      for k = lo to hi - 1 do
        acc :=
          Float.min !acc
            (e.req.(s.Timed_dfg.nbr.(k)) -. d +. (e.clock *. float_of_int s.Timed_dfg.lat.(k)))
      done;
      !acc
    end
  in
  let r = if e.aligned then align_finish_constraint ~clock:e.clock ~delay:d r0 else r0 in
  e.touched <- e.touched + (hi - lo);
  e.visits <- e.visits + 1;
  if same_bits r e.req.(v) then false
  else begin
    e.cone <- e.cone + (hi - lo);
    log e 2 e.req v;
    e.req.(v) <- r;
    true
  end

let settle_slack e i =
  log e 3 e.slack i;
  e.slack.(i) <- e.req.(i) -. e.arr.(i)

(* A fresh fold in active-list order after every change: [<] keeps the
   first of equal values, so the order decides which zero is kept. *)
let refresh_min e =
  let active = e.active in
  let m = ref infinity in
  for k = 0 to Array.length active - 1 do
    let s = e.slack.(active.(k)) in
    if s < !m then m := s
  done;
  e.min_slack <- !m

let charge e =
  Obs.add c_relax e.touched;
  Obs.add c_nodes e.visits;
  Attrib.charge_touched e.touched;
  Attrib.charge_cone e.cone;
  e.touched <- 0;
  e.cone <- 0;
  e.visits <- 0

let commit e =
  e.log_len <- 0;
  e.committed_min <- e.min_slack

(* Full pass: every node recomputed in topological order, then in reverse.
   Nothing is logged: a full pass commits. *)
let full_pass e =
  Obs.incr c_analyses;
  Obs.incr c_fwd;
  Obs.incr c_bwd;
  e.logging <- false;
  let m = Array.length e.order in
  for k = 0 to m - 1 do
    ignore (settle_arrival e e.order.(k))
  done;
  for k = m - 1 downto 0 do
    ignore (settle_required e e.order.(k))
  done;
  for k = 0 to Array.length e.active - 1 do
    settle_slack e e.active.(k)
  done;
  refresh_min e;
  charge e;
  commit e

(* Every value is recomputed from the delays and the latencies alone, so
   a reset gives the bits a fresh engine would. *)
let reset ?aligned e del =
  Option.iter (fun a -> e.aligned <- a) aligned;
  Array.iter (fun i -> e.del.(i) <- del (Dfg.Op_id.of_int i)) e.active;
  full_pass e

let prepare g ~clock =
  if clock <= 0.0 then invalid_arg "Slack.analyze: clock must be positive";
  let n = Dfg.op_count (Timed_dfg.dfg g) in
  let order = Timed_dfg.topo_slots g in
  {
    n;
    clock;
    aligned = false;
    active = Timed_dfg.active_slots g;
    order;
    position = Timed_dfg.topo_positions g;
    pred = Timed_dfg.pred_csr g;
    succ = Timed_dfg.succ_csr g;
    del = Array.make (2 * n) 0.0;
    arr = Array.make (2 * n) nan;
    req = Array.make (2 * n) nan;
    slack = Array.make n nan;
    min_slack = infinity;
    committed_min = infinity;
    dirty = Bytes.make (Array.length order) '\000';
    log_key = [||];
    log_val = [||];
    log_len = 0;
    logging = false;
    touched = 0;
    cone = 0;
    visits = 0;
  }

let create ?(aligned = false) g ~clock ~del =
  let e = prepare g ~clock in
  reset ~aligned e del;
  e

let[@inline] mark e v = Bytes.unsafe_set e.dirty e.position.(v) '\001'

let[@inline] take_mark e k =
  Bytes.unsafe_get e.dirty k = '\001'
  && begin
    Bytes.unsafe_set e.dirty k '\000';
    true
  end

(* Incremental update.  A delay feeds the op's own arrival when aligned
   ([align_start] reads it), its successors' arrivals and its own required
   time.  Dirty arrivals are recomputed in topological order and dirty
   required times in reverse order; a recomputed value whose bits match the
   stored one stops the propagation there, so every value stays equal to a
   full pass over the new delays. *)
let set_delay e o d =
  let v = Dfg.Op_id.to_int o in
  if e.position.(v) < 0 then invalid_arg "Slack.set_delay: inactive op";
  Obs.incr c_updates;
  if not (same_bits d e.del.(v)) then begin
    e.logging <- true;
    log e 0 e.del v;
    e.del.(v) <- d;
    let sc = e.succ and pc = e.pred in
    (* Arrivals, forward from the op; [last] is the furthest dirty
       position. *)
    let last = ref e.position.(v) in
    let mark_succs u =
      for k = sc.Timed_dfg.off.(u) to sc.Timed_dfg.off.(u + 1) - 1 do
        let s = sc.Timed_dfg.nbr.(k) in
        mark e s;
        if e.position.(s) > !last then last := e.position.(s)
      done
    in
    if e.aligned then mark e v;
    mark_succs v;
    let k = ref e.position.(v) in
    while !k <= !last do
      if take_mark e !k then begin
        let u = e.order.(!k) in
        if settle_arrival e u then begin
          if u < e.n then settle_slack e u;
          mark_succs u
        end
      end;
      incr k
    done;
    (* Required times, backward from the op; [first] is the earliest dirty
       position. *)
    let first = ref e.position.(v) in
    mark e v;
    let k = ref !first in
    while !k >= !first do
      if take_mark e !k then begin
        let u = e.order.(!k) in
        if settle_required e u then begin
          if u < e.n then settle_slack e u;
          for j = pc.Timed_dfg.off.(u) to pc.Timed_dfg.off.(u + 1) - 1 do
            let p = pc.Timed_dfg.nbr.(j) in
            mark e p;
            if e.position.(p) < !first then first := e.position.(p)
          done
        end
      end;
      decr k
    done;
    refresh_min e;
    charge e
  end

let rollback e =
  for j = e.log_len - 1 downto 0 do
    let key = e.log_key.(j) in
    let slot = key mod (2 * e.n) in
    let values =
      match key / (2 * e.n) with 0 -> e.del | 1 -> e.arr | 2 -> e.req | _ -> e.slack
    in
    values.(slot) <- e.log_val.(j)
  done;
  e.log_len <- 0;
  e.min_slack <- e.committed_min

let slack e o = e.slack.(Dfg.Op_id.to_int o)
let min_slack e = e.min_slack

let result e : result =
  {
    arr = Array.sub e.arr 0 e.n;
    req = Array.sub e.req 0 e.n;
    slack = Array.copy e.slack;
    min_slack = e.min_slack;
  }

let analyze ?aligned tdfg ~clock ~del = result (create ?aligned tdfg ~clock ~del)
let op_slack (r : result) o = r.slack.(Dfg.Op_id.to_int o)

let critical_ops ?(eps = 1e-6) tdfg (r : result) =
  List.filter
    (fun o -> op_slack r o <= r.min_slack +. eps)
    (Timed_dfg.active_ops tdfg)

let negative_ops ?(eps = 1e-6) tdfg r =
  List.filter (fun o -> op_slack r o < -.eps) (Timed_dfg.active_ops tdfg)

let feasible ?(eps = 1e-6) (r : result) = r.min_slack >= -.eps
