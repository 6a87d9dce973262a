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

(* Within one step, two ops double-book an instance iff their edges are not
   mutually exclusive (one reaches the other, or they are the same edge):
   ops on exclusive branches may share freely.  Across steps they clash
   only under pipelining, when the steps are congruent modulo the II. *)
let conflict t a b =
  if a.step = b.step then
    Cfg.Edge_id.equal a.edge b.edge
    || Cfg.reaches (Dfg.cfg t.dfg) a.edge b.edge
    || Cfg.reaches (Dfg.cfg t.dfg) b.edge a.edge
  else match t.ii with Some k -> a.step mod k = b.step mod k | None -> false

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

(* Recompute starts in dependency order using final fan-ins. *)
let retime t =
  let cfg = Dfg.cfg t.dfg in
  let budget = step_budget t in
  let order = Dfg.topo_order t.dfg in
  let fanin = Hashtbl.create 16 in
  Array.iter
    (function
      | Some { inst = Some id; _ } ->
        Hashtbl.replace fanin id (1 + Option.value ~default:0 (Hashtbl.find_opt fanin id))
      | Some { inst = None; _ } | None -> ())
    t.placements;
  let result = ref (Ok ()) in
  List.iter
    (fun oid ->
      match (!result, placement t oid) with
      | Error _, _ -> ()
      | Ok (), None -> () (* unplaced ops are the caller's concern *)
      | Ok (), Some p ->
        let op = Dfg.op t.dfg oid in
        (match op.Dfg.kind with
        | Dfg.Const _ -> ()
        | _ ->
          let eff =
            match p.inst with
            | None -> 0.0
            | Some id ->
              let inst = Alloc.instance t.alloc id in
              effective_delay t ~inst
                ~fanin:(Option.value ~default:1 (Hashtbl.find_opt fanin id))
          in
          let ready = ref 0.0 in
          List.iter
            (fun pid ->
              match placement t pid with
              | None -> () (* missing preds are reported by validate *)
              | Some pp ->
                if pp.step = p.step then begin
                  if Cfg.reaches cfg pp.edge p.edge then
                    ready := Float.max !ready (pp.start +. pp.eff_delay)
                  else
                    result :=
                      Error
                        {
                          culprit = None;
                          overshoot = 0.0;
                          detail =
                            Printf.sprintf "op %s chained from unreachable edge" op.Dfg.name;
                        }
                end
                else if pp.step > p.step then
                  result :=
                    Error
                      {
                        culprit = None;
                        overshoot = 0.0;
                        detail =
                          Printf.sprintf "op %s depends on later-step producer %s"
                            op.Dfg.name (Dfg.op t.dfg pid).Dfg.name;
                      })
            (Dfg.preds t.dfg oid);
          (match !result with
          | Error _ -> ()
          | Ok () ->
            p.start <- !ready;
            p.eff_delay <- eff;
            if !ready +. eff > budget +. eps then
              result :=
                Error
                  {
                    culprit = Some oid;
                    overshoot = !ready +. eff -. budget;
                    detail =
                      Printf.sprintf "op %s misses the step budget: %.1f + %.1f > %.1f"
                        op.Dfg.name !ready eff budget;
                  })))
    order;
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
    List.iter
      (fun inst ->
        let ops = ops_of_inst t inst.Alloc.id in
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
