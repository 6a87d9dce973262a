type placement = {
  edge : Cfg.Edge_id.t;
  step : int;
  mutable start : float;
  mutable eff_delay : float;
  inst : Alloc.Inst_id.t option;
}

type t = {
  dfg : Dfg.t;
  clock : float;
  alloc : Alloc.t;
  ii : int option;
  placements : placement option array;
}

let eps = 1e-6

let create ?ii dfg ~clock ~alloc =
  (match ii with
  | Some k when k <= 0 -> invalid_arg "Schedule.create: ii must be positive"
  | Some _ | None -> ());
  let n = Dfg.op_count dfg in
  let placements = Array.make n None in
  let cfg = Dfg.cfg dfg in
  Dfg.iter_ops dfg (fun o ->
      match o.Dfg.kind with
      | Dfg.Const _ ->
        placements.(Dfg.Op_id.to_int o.Dfg.id) <-
          Some
            {
              edge = o.Dfg.birth;
              step = Cfg.state_of_edge cfg o.Dfg.birth;
              start = 0.0;
              eff_delay = 0.0;
              inst = None;
            }
      | _ -> ());
  { dfg; clock; alloc; ii; placements }

let placement t o = t.placements.(Dfg.Op_id.to_int o)
let is_placed t o = Option.is_some (placement t o)

let place t o ~edge ~start ~eff_delay ~inst =
  let i = Dfg.Op_id.to_int o in
  if t.placements.(i) <> None then invalid_arg "Schedule.place: op already placed";
  let step = Cfg.state_of_edge (Dfg.cfg t.dfg) edge in
  t.placements.(i) <- Some { edge; step; start; eff_delay; inst }

let step_budget t = t.clock -. Library.register_overhead (Alloc.library t.alloc)

let ops_of_inst t inst_id =
  let acc = ref [] in
  Array.iteri
    (fun i p ->
      match p with
      | Some { inst = Some id; _ } when Alloc.Inst_id.equal id inst_id ->
        acc := Dfg.Op_id.of_int i :: !acc
      | Some _ | None -> ())
    t.placements;
  List.rev !acc

let ops_by_inst t =
  let by = Array.make (Alloc.count t.alloc) [] in
  for i = Array.length t.placements - 1 downto 0 do
    match t.placements.(i) with
    | Some { inst = Some id; _ } ->
      let k = Alloc.Inst_id.to_int id in
      by.(k) <- Dfg.Op_id.of_int i :: by.(k)
    | Some _ | None -> ()
  done;
  by

(* Within one step, two ops double-book an instance iff their edges are not
   mutually exclusive (one reaches the other; an edge reaches itself): ops
   on exclusive branches may share freely.  Across steps they clash only
   under pipelining, when the steps are congruent modulo the II. *)
let conflict_at t ~edge ~step b =
  if step = b.step then
    let cfg = Dfg.cfg t.dfg in
    Cfg.reaches cfg edge b.edge || Cfg.reaches cfg b.edge edge
  else match t.ii with Some k -> step mod k = b.step mod k | None -> false

let conflict t a b = conflict_at t ~edge:a.edge ~step:a.step b

let lc_step_ok t ~producer_step ~consumer_step =
  match t.ii with Some k -> producer_step < consumer_step + k | None -> true

let effective_delay t ~inst ~fanin =
  inst.Alloc.point.Curve.delay
  +. Library.mux_delay (Alloc.library t.alloc) ~inputs:fanin

type violation = {
  culprit : Dfg.Op_id.t option;
  overshoot : float;
  detail : string;
}

let fanins t =
  let fanin = Array.make (Alloc.count t.alloc) 0 in
  Array.iter
    (function
      | Some { inst = Some id; _ } ->
        let k = Alloc.Inst_id.to_int id in
        fanin.(k) <- fanin.(k) + 1
      | Some { inst = None; _ } | None -> ())
    t.placements;
  fanin

(* Re-time one placed op from its producers' current values: its
   effective delay with the final fan-ins, and its start after the latest
   finish among its same-step producers, folded in [Dfg.preds] order from
   0.  Whether it now misses the step budget. *)
let settle t ~fanin ~budget i p =
  let eff =
    match p.inst with
    | None -> 0.0
    | Some id ->
      effective_delay t ~inst:(Alloc.instance t.alloc id)
        ~fanin:fanin.(Alloc.Inst_id.to_int id)
  in
  let ps = (Dfg.pred_array t.dfg).(i) in
  let ready = ref 0.0 in
  for j = 0 to Array.length ps - 1 do
    match t.placements.(ps.(j)) with
    | Some pp when pp.step = p.step -> ready := Float.max !ready (pp.start +. pp.eff_delay)
    | Some _ | None -> ()
  done;
  p.start <- !ready;
  p.eff_delay <- eff;
  !ready +. eff > budget +. eps

let miss t i p =
  let budget = step_budget t in
  {
    culprit = Some (Dfg.Op_id.of_int i);
    overshoot = p.start +. p.eff_delay -. budget;
    detail =
      Printf.sprintf "op %s misses the step budget: %.1f + %.1f > %.1f"
        (Dfg.op t.dfg (Dfg.Op_id.of_int i)).Dfg.name p.start p.eff_delay budget;
  }

let is_const t i =
  match (Dfg.op t.dfg (Dfg.Op_id.of_int i)).Dfg.kind with Dfg.Const _ -> true | _ -> false

(* Recompute starts in dependency order using final fan-ins. *)
let retime t =
  let cfg = Dfg.cfg t.dfg in
  let order = Dfg.topo_array t.dfg and preds = Dfg.pred_array t.dfg in
  let fanin = fanins t and budget = step_budget t in
  (* The last predecessor, in [Dfg.preds] order, chained from an edge that
     does not reach the op or placed in a later step; -1 if none.  Missing
     predecessors are reported by validate. *)
  let structural i p =
    let ps = preds.(i) and bad = ref (-1) in
    for j = 0 to Array.length ps - 1 do
      match t.placements.(ps.(j)) with
      | Some pp
        when (pp.step = p.step && not (Cfg.reaches cfg pp.edge p.edge)) || pp.step > p.step ->
        bad := ps.(j)
      | Some _ | None -> ()
    done;
    !bad
  in
  let structural_error i p q =
    let name = (Dfg.op t.dfg (Dfg.Op_id.of_int i)).Dfg.name in
    let detail =
      match t.placements.(q) with
      | Some pp when pp.step = p.step ->
        Printf.sprintf "op %s chained from unreachable edge" name
      | Some _ | None ->
        Printf.sprintf "op %s depends on later-step producer %s" name
          (Dfg.op t.dfg (Dfg.Op_id.of_int q)).Dfg.name
    in
    { culprit = None; overshoot = 0.0; detail }
  in
  let rec go k =
    if k = Array.length order then Ok ()
    else
      let i = order.(k) in
      match t.placements.(i) with
      | Some p when not (is_const t i) ->
        let q = structural i p in
        if q >= 0 then Error (structural_error i p q)
        else if settle t ~fanin ~budget i p then Error (miss t i p)
        else go (k + 1)
      | Some _ | None -> go (k + 1) (* unplaced ops are the caller's concern *)
  in
  go 0

(* Bits, not [=]: 0.0 and -0.0 are equal but can still differ downstream. *)
let same_bits (a : float) b = a = b && (a <> 0.0 || Float.sign_bit a = Float.sign_bit b)

type retimer = {
  sched : t;
  fanin : int array;
  order : int array;  (* topological position -> op *)
  position : int array;  (* op -> topological position *)
  dirty : Bytes.t;  (* by topological position *)
}

let retimer t =
  {
    sched = t;
    fanin = fanins t;
    order = Dfg.topo_array t.dfg;
    position = Dfg.topo_position t.dfg;
    dirty = Bytes.make (Dfg.op_count t.dfg) '\000';
  }

(* The ops in [ops] and, in topological order, every same-step consumer of
   an op whose start or effective delay moved: the values a full [retime]
   changes when only the delays of [ops] did.  Each is re-timed by
   [settle], as in [retime], so it gets the bits [retime] would give it. *)
let retime_ops r ops =
  let t = r.sched in
  let lo = ref max_int and hi = ref (-1) in
  let mark i =
    let k = r.position.(i) in
    Bytes.unsafe_set r.dirty k '\001';
    if k < !lo then lo := k;
    if k > !hi then hi := k
  in
  List.iter (fun o -> mark (Dfg.Op_id.to_int o)) ops;
  let budget = step_budget t in
  let undo = ref [] in
  let result = ref (Ok ()) in
  let k = ref !lo in
  while !k <= !hi && Result.is_ok !result do
    if Bytes.unsafe_get r.dirty !k = '\001' then begin
      let i = r.order.(!k) in
      let p = Option.get t.placements.(i) in
      let start = p.start and eff = p.eff_delay in
      let missed = settle t ~fanin:r.fanin ~budget i p in
      if not (same_bits start p.start && same_bits eff p.eff_delay) then begin
        undo := (p, start, eff) :: !undo;
        List.iter
          (fun c ->
            let j = Dfg.Op_id.to_int c in
            match t.placements.(j) with
            | Some pc when pc.step = p.step -> mark j
            | Some _ | None -> ())
          (Dfg.succs t.dfg (Dfg.Op_id.of_int i))
      end;
      if missed then result := Error (miss t i p)
    end;
    incr k
  done;
  if !hi >= !lo then Bytes.fill r.dirty !lo (!hi - !lo + 1) '\000';
  if Result.is_error !result then
    List.iter
      (fun (p, start, eff) ->
        p.start <- start;
        p.eff_delay <- eff)
      !undo;
  !result

let steps_used t =
  Array.fold_left
    (fun acc p -> match p with Some { step; _ } -> max acc (step + 1) | None -> acc)
    0 t.placements

let validate t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let cfg = Dfg.cfg t.dfg in
  (* Every active op placed. *)
  Dfg.iter_ops t.dfg (fun o ->
      if placement t o.Dfg.id = None then err "op %s unplaced" o.Dfg.name);
  if !errors = [] then begin
    (* Recorded control step consistent with the placement edge. *)
    Dfg.iter_ops t.dfg (fun o ->
        match placement t o.Dfg.id with
        | None -> ()
        | Some p ->
          let expect = Cfg.state_of_edge cfg p.edge in
          if p.step <> expect then
            err "op %s records step %d but its edge is in step %d" o.Dfg.name p.step
              expect);
    (* Placements inside (unpinned) spans. *)
    let spans = Dfg.compute_spans t.dfg in
    Dfg.iter_ops t.dfg (fun o ->
        match placement t o.Dfg.id with
        | None -> ()
        | Some p ->
          let s = spans.(Dfg.Op_id.to_int o.Dfg.id) in
          if not (Cfg.reaches cfg s.Dfg.early p.edge && Cfg.reaches cfg p.edge s.Dfg.late)
          then err "op %s placed outside its span" o.Dfg.name);
    (* Dependencies: producer finishes before consumer starts. *)
    Dfg.iter_ops t.dfg (fun o ->
        List.iter
          (fun pid ->
            match (placement t pid, placement t o.Dfg.id) with
            | Some pp, Some pc ->
              if pp.step > pc.step then
                err "dep %s -> %s goes backward in steps" (Dfg.op t.dfg pid).Dfg.name
                  o.Dfg.name
              else if pp.step = pc.step && pp.start +. pp.eff_delay > pc.start +. eps then
                err "dep %s -> %s violates chaining time" (Dfg.op t.dfg pid).Dfg.name
                  o.Dfg.name
            | None, _ | _, None -> ())
          (Dfg.preds t.dfg o.Dfg.id));
    (* Pipelining recurrences: loop-carried producers must land within II
       steps of their next-iteration consumers. *)
    Dfg.iter_ops t.dfg (fun o ->
        List.iter
          (fun (pid, lc) ->
            if lc then
              match (placement t pid, placement t o.Dfg.id) with
              | Some pp, Some pc ->
                if not (lc_step_ok t ~producer_step:pp.step ~consumer_step:pc.step) then
                  err "loop-carried dep %s -> %s violates the initiation interval"
                    (Dfg.op t.dfg pid).Dfg.name o.Dfg.name
              | None, _ | _, None -> ())
          (Dfg.all_preds t.dfg o.Dfg.id));
    (* Resource booking: pairwise conflicts on shared instances. *)
    let by_inst = ops_by_inst t in
    List.iter
      (fun inst ->
        let ops = by_inst.(Alloc.Inst_id.to_int inst.Alloc.id) in
        let rec pairs = function
          | [] -> ()
          | a :: rest ->
            List.iter
              (fun b ->
                match (placement t a, placement t b) with
                | Some pa, Some pb ->
                  if conflict t pa pb then
                    err "instance %d double-booked by %s and %s"
                      (Alloc.Inst_id.to_int inst.Alloc.id)
                      (Dfg.op t.dfg a).Dfg.name (Dfg.op t.dfg b).Dfg.name
                | None, _ | _, None -> ())
              rest;
            pairs rest
        in
        pairs ops;
        (* Kind/width compatibility. *)
        List.iter
          (fun o ->
            let op = Dfg.op t.dfg o in
            if not (Alloc.compatible inst ~op_kind:op.Dfg.kind ~width:op.Dfg.width) then
              err "op %s bound to incompatible instance" op.Dfg.name)
          ops)
      (Alloc.instances t.alloc);
    (* Timing: retime must succeed. *)
    (match retime t with Ok () -> () | Error v -> err "%s" v.detail)
  end;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let pp ppf t =
  let by_step = Hashtbl.create 8 in
  Array.iteri
    (fun i p ->
      match p with
      | Some pl ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_step pl.step) in
        Hashtbl.replace by_step pl.step ((Dfg.Op_id.of_int i, pl) :: prev)
      | None -> ())
    t.placements;
  Format.fprintf ppf "@[<v>schedule (%d steps):@," (steps_used t);
  for s = 0 to steps_used t - 1 do
    match Hashtbl.find_opt by_step s with
    | None -> Format.fprintf ppf "  step %d: (empty)@," s
    | Some ops ->
      Format.fprintf ppf "  step %d:@," s;
      List.iter
        (fun (o, pl) ->
          let op = Dfg.op t.dfg o in
          match op.Dfg.kind with
          | Dfg.Const _ -> ()
          | _ ->
            Format.fprintf ppf "    %-12s %6.0f..%6.0f ps%s@," op.Dfg.name pl.start
              (pl.start +. pl.eff_delay)
              (match pl.inst with
              | Some id -> Printf.sprintf "  on fu%d" (Alloc.Inst_id.to_int id)
              | None -> ""))
        (List.sort
           (fun (_, a) (_, b) -> Float.compare a.start b.start)
           (List.rev ops))
  done;
  Format.fprintf ppf "@]"
