type severity = Warning | Error

type witness =
  | No_witness
  | Op of Dfg.Op_id.t
  | Dep of Dfg.Op_id.t * Dfg.Op_id.t
  | Cycle of Dfg.Op_id.t list
  | Port of string

type violation = {
  check : string;
  severity : severity;
  witness : witness;
  message : string;
}

let violation ?(severity = Error) ?(witness = No_witness) ~check message =
  { check; severity; witness; message }

let errors vs = List.filter (fun v -> v.severity = Error) vs
let has_errors vs = List.exists (fun v -> v.severity = Error) vs

let pp_witness ppf = function
  | No_witness -> ()
  | Op o -> Format.fprintf ppf " [op %d]" (Dfg.Op_id.to_int o)
  | Dep (p, c) ->
    Format.fprintf ppf " [dep %d -> %d]" (Dfg.Op_id.to_int p) (Dfg.Op_id.to_int c)
  | Cycle path ->
    Format.fprintf ppf " [cycle %s]"
      (String.concat " -> " (List.map (fun o -> string_of_int (Dfg.Op_id.to_int o)) path))
  | Port p -> Format.fprintf ppf " [port %s]" p

let pp_violation ppf v =
  Format.fprintf ppf "%s %s: %s%a"
    (match v.severity with Error -> "error" | Warning -> "warning")
    v.check v.message pp_witness v.witness

let summary vs =
  String.concat "\n" (List.map (fun v -> Format.asprintf "%a" pp_violation v) vs)

let c_violations = Obs.counter "check.violations"

let record vs =
  Obs.add c_violations (List.length vs);
  vs

type level = Off | Boundary | Paranoid

let level_of_string = function
  | "off" -> Some Off
  | "boundary" -> Some Boundary
  | "paranoid" -> Some Paranoid
  | _ -> None

let level_name = function Off -> "off" | Boundary -> "boundary" | Paranoid -> "paranoid"

let rank = function Off -> 0 | Boundary -> 1 | Paranoid -> 2
let ge l at = rank l >= rank at

(* The width bound of Library.curve; checked structurally here so the
   corruption is caught before the library raises deep inside a flow. *)
let max_lib_width = 512

let dfg d =
  let vs = ref [] in
  let add v = vs := v :: !vs in
  (match Dfg.forward_cycle d with
  | Some path ->
    add (violation ~check:"dfg.acyclic" ~witness:(Cycle path) (Dfg.cycle_message d path))
  | None -> ());
  Dfg.iter_ops d (fun o ->
      if o.Dfg.width < 1 || o.Dfg.width > max_lib_width then
        add
          (violation ~check:"dfg.width" ~witness:(Op o.Dfg.id)
             (Printf.sprintf "op %s has width %d outside [1, %d]" o.Dfg.name o.Dfg.width
                max_lib_width)));
  let cfg = Dfg.cfg d in
  if Cfg.is_sealed cfg then begin
    Dfg.iter_ops d (fun o ->
        if Cfg.is_backward cfg o.Dfg.birth then
          add
            (violation ~check:"dfg.birth" ~witness:(Op o.Dfg.id)
               (Printf.sprintf "op %s born on a backward CFG edge" o.Dfg.name)));
    List.iter
      (fun c ->
        List.iter
          (fun p ->
            let po = Dfg.op d p and co = Dfg.op d c in
            if not (Cfg.reaches cfg po.Dfg.birth co.Dfg.birth) then
              add
                (violation ~check:"dfg.dangling_dep" ~witness:(Dep (p, c))
                   (Printf.sprintf "dependency %s -> %s crosses no forward CFG path"
                      po.Dfg.name co.Dfg.name)))
          (Dfg.preds d c))
      (Dfg.ops d)
  end;
  List.rev !vs

let timed_dfg tdfg =
  let d = Timed_dfg.dfg tdfg in
  let n = Dfg.op_count d in
  let name i = (Dfg.op d (Dfg.Op_id.of_int i)).Dfg.name in
  let label s = if s < n then name s else "sink(" ^ name (s - n) ^ ")" in
  let vs = ref [] in
  let add v = vs := v :: !vs in
  let pred = Timed_dfg.pred_csr tdfg and succ = Timed_dfg.succ_csr tdfg in
  Array.iter
    (fun v ->
      for k = pred.Timed_dfg.off.(v) to pred.Timed_dfg.off.(v + 1) - 1 do
        let p = pred.Timed_dfg.nbr.(k) and w = pred.Timed_dfg.lat.(k) in
        if w < 0 then
          let wit =
            if p < n && v < n then Dep (Dfg.Op_id.of_int p, Dfg.Op_id.of_int v)
            else Op (Dfg.Op_id.of_int (p mod n))
          in
          add
            (violation ~check:"timed_dfg.negative_latency" ~witness:wit
               (Printf.sprintf "edge %s -> %s carries negative latency %d" (label p)
                  (label v) w))
      done)
    (Timed_dfg.topo_slots tdfg);
  Array.iter
    (fun i ->
      let has_sink = ref false in
      for k = succ.Timed_dfg.off.(i) to succ.Timed_dfg.off.(i + 1) - 1 do
        if succ.Timed_dfg.nbr.(k) = n + i then has_sink := true
      done;
      if not !has_sink then
        add
          (violation ~check:"timed_dfg.sink_coverage" ~witness:(Op (Dfg.Op_id.of_int i))
             (Printf.sprintf "active op %s has no sink node (span not encoded)" (name i))))
    (Timed_dfg.active_slots tdfg);
  List.rev !vs

let slack_eps = 1e-6

let slack tdfg ~clock ~del =
  if clock <= 0.0 then
    [ violation ~check:"slack.clock" "clock period must be positive" ]
  else begin
    let d = Timed_dfg.dfg tdfg in
    let res = Slack.analyze ~aligned:true tdfg ~clock ~del in
    let vs = ref [] in
    List.iter
      (fun o ->
        let s = Slack.op_slack res o in
        vs :=
          violation ~check:"slack.negative" ~witness:(Op o)
            (Printf.sprintf "op %s has negative slack %.1f (arrival past required)"
               (Dfg.op d o).Dfg.name s)
          :: !vs)
      (Slack.negative_ops ~eps:slack_eps tdfg res);
    (* Aligned arrivals are fixpoints of align_start: an op that would
       straddle a clock boundary has been pushed to the next edge. *)
    List.iter
      (fun o ->
        let i = Dfg.Op_id.to_int o in
        let a = res.Slack.arr.(i) and dd = del o in
        if dd <= clock +. slack_eps then begin
          let a' = Slack.align_start ~clock ~delay:dd a in
          if Float.abs (a' -. a) > slack_eps then
            vs :=
              violation ~check:"slack.alignment" ~witness:(Op o)
                (Printf.sprintf
                   "op %s starts at %.1f and straddles a clock boundary (delay %.1f)"
                   (Dfg.op d o).Dfg.name a dd)
              :: !vs
        end)
      (Timed_dfg.active_ops tdfg);
    List.rev !vs
  end

let budget d ~targets ~ranges =
  let vs = ref [] in
  let eps = 1e-6 in
  Dfg.iter_ops d (fun o ->
      match o.Dfg.kind with
      | Dfg.Const _ -> ()
      | _ ->
        let i = Dfg.Op_id.to_int o.Dfg.id in
        if i < Array.length targets then begin
          let t = targets.(i) in
          let r = ranges o.Dfg.id in
          if not (Float.is_finite t) then
            vs :=
              violation ~check:"budget.target_finite" ~witness:(Op o.Dfg.id)
                (Printf.sprintf "op %s has non-finite delay target" o.Dfg.name)
              :: !vs
          else if t < Interval.lo r -. eps || t > Interval.hi r +. eps then
            vs :=
              violation ~check:"budget.target_range" ~witness:(Op o.Dfg.id)
                (Printf.sprintf
                   "op %s: delay target %.1f outside its curve range [%.1f, %.1f]"
                   o.Dfg.name t (Interval.lo r) (Interval.hi r))
              :: !vs
        end
        else
          vs :=
            violation ~check:"budget.target_missing" ~witness:(Op o.Dfg.id)
              (Printf.sprintf "op %s has no delay target (array too short)" o.Dfg.name)
            :: !vs);
  List.rev !vs
