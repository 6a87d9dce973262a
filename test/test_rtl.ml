(* RTL back end: area model consistency, netlist structure and Verilog
   emission sanity. *)

let schedule_of flow =
  let ip = Interpolation.unrolled () in
  match Flows.run flow ip.Interpolation.dfg ~lib:Library.default ~clock:1400.0 with
  | Ok r -> r.Flows.schedule
  | Error e -> Alcotest.failf "flow failed: %s" (Flows.error_message e)

let test_breakdown_adds_up () =
  let sched = schedule_of Flows.Slack_based in
  let b = Area_model.of_schedule sched in
  Alcotest.(check (float 1e-6)) "total = fu+mux+reg+fsm" b.Area_model.total
    (b.Area_model.fu +. b.Area_model.mux +. b.Area_model.registers +. b.Area_model.fsm);
  Alcotest.(check bool) "fu positive" true (b.Area_model.fu > 0.0);
  Alcotest.(check bool) "fsm positive" true (b.Area_model.fsm > 0.0)

let test_fu_only_counts_used () =
  let sched = schedule_of Flows.Conventional in
  (* Add an instance nobody uses: areas must not change. *)
  let before = Area_model.fu_only sched in
  ignore
    (Alloc.add_instance sched.Schedule.alloc ~rk:Resource_kind.Divider ~width:64 ~delay:0.0);
  let after = Area_model.fu_only sched in
  Alcotest.(check (float 1e-9)) "unused instance not priced" before after

let test_fu_of_kind_partitions () =
  let sched = schedule_of Flows.Slack_based in
  let total = Area_model.fu_only sched in
  let by_kind =
    List.fold_left
      (fun acc rk -> acc +. Area_model.fu_of_kind sched rk)
      0.0 Resource_kind.all
  in
  Alcotest.(check (float 1e-6)) "kinds partition the FU area" total by_kind

let test_idealized_has_no_overhead_area () =
  let ip = Interpolation.unrolled () in
  match Flows.run Flows.Slack_based ip.Interpolation.dfg ~lib:Library.idealized ~clock:1100.0 with
  | Error e -> Alcotest.fail (Flows.error_message e)
  | Ok r ->
    let b = Area_model.of_schedule r.Flows.schedule in
    Alcotest.(check (float 1e-9)) "no mux area" 0.0 b.Area_model.mux;
    Alcotest.(check (float 1e-9)) "no register area" 0.0 b.Area_model.registers;
    Alcotest.(check (float 1e-9)) "no fsm area" 0.0 b.Area_model.fsm

let test_netlist_structure () =
  let sched = schedule_of Flows.Slack_based in
  let nl = Netlist.build sched in
  let stats = Netlist.stats nl in
  Alcotest.(check bool) "has FUs" true (stats.Netlist.n_fus > 0);
  Alcotest.(check int) "3 states" 3 stats.Netlist.states;
  (* The interpolation writes one port. *)
  Alcotest.(check int) "one port" 1 stats.Netlist.n_ports;
  (* x-chain values cross step boundaries: registers exist. *)
  Alcotest.(check bool) "registers exist" true (stats.Netlist.n_registers > 0);
  (* Every FU in the netlist executes at least one op. *)
  List.iter
    (fun f -> Alcotest.(check bool) "fu used" true (f.Netlist.ops <> []))
    nl.Netlist.fus

let test_register_needed_for_cross_step () =
  let sched = schedule_of Flows.Conventional in
  let nl = Netlist.build sched in
  let dfg = sched.Schedule.dfg in
  (* Every register's source value is consumed in a later step (or loops). *)
  List.iter
    (fun r ->
      let consumers = Dfg.all_succs dfg r.Netlist.source in
      let src_step =
        match Schedule.placement sched r.Netlist.source with
        | Some p -> p.Schedule.step
        | None -> Alcotest.fail "register source unplaced"
      in
      let crosses =
        List.exists
          (fun (c, lc) ->
            lc
            ||
            match Schedule.placement sched c with
            | Some pc -> pc.Schedule.step > src_step
            | None -> false)
          consumers
      in
      Alcotest.(check bool) (r.Netlist.reg_name ^ " justified") true crosses)
    nl.Netlist.registers

let test_verilog_emission () =
  let sched = schedule_of Flows.Slack_based in
  let nl = Netlist.build sched in
  let v = Verilog.emit ~module_name:"interp" nl in
  let contains needle =
    let nl_ = String.length needle and vl = String.length v in
    let rec go i = i + nl_ <= vl && (String.sub v i nl_ = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "module header" true (contains "module interp");
  Alcotest.(check bool) "endmodule" true (contains "endmodule");
  Alcotest.(check bool) "clock port" true (contains "input wire clk");
  Alcotest.(check bool) "fsm register" true (contains "reg");
  Alcotest.(check bool) "output port" true (contains "out_fx");
  Alcotest.(check bool) "case dispatch" true (contains "case (state)");
  (* Balanced begin/end pairs in the always block region is hard to check
     textually; at least the op wires must all be declared. *)
  Dfg.iter_ops sched.Schedule.dfg (fun op ->
      match op.Dfg.kind with
      | Dfg.Const _ | Dfg.Write _ -> ()
      | _ -> Alcotest.(check bool) ("wire for " ^ op.Dfg.name) true (contains ("w_" ^ op.Dfg.name)))

let test_verilog_write_file () =
  let sched = schedule_of Flows.Slack_based in
  let nl = Netlist.build sched in
  let path = Filename.temp_file "slackhls" ".v" in
  Verilog.write_file nl ~path;
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "non-empty file" true (len > 200)

(* The 4 kernels and the first 4 manifest designs, each at its clock. *)
let designs () =
  [
    ((Interpolation.unrolled ()).Interpolation.dfg, 1400.0);
    ((Fir.build ~taps:8 ~latency:6 ()).Fir.dfg, 2500.0);
    ((Idct.build ~latency:12 ~passes:1 ()).Idct.dfg, 2500.0);
    ((Resizer.full ()).Resizer.dfg, 4000.0);
  ]
  @ List.map
      (fun (e : Corpus.entry) -> ((Corpus.design e).Random_design.dfg, e.Corpus.clock_ps))
      (Corpus.plan ~count:4 ~seed:42 ())

(* Every schedule that [designs] yield under every flow. *)
let iter_schedules f =
  List.iter
    (fun (dfg, clock) ->
      List.iter
        (fun flow ->
          match Flows.run flow dfg ~lib:Library.default ~clock with
          | Error _ -> ()
          | Ok r -> f r.Flows.schedule)
        Flows.all)
    (designs ())

let test_area_model_register_count_matches_netlist () =
  iter_schedules @@ fun sched ->
  let nl = Netlist.build sched in
  let b = Area_model.of_schedule sched in
  let lib = Alloc.library sched.Schedule.alloc in
  let expected =
    List.fold_left
      (fun acc r -> acc +. Library.register_area lib ~width:r.Netlist.reg_width)
      0.0 nl.Netlist.registers
  in
  Alcotest.(check (float 1e-6)) "register area matches netlist" expected
    b.Area_model.registers

(* The area breakdown and the netlist's FU list against their definitions
   through [Schedule.ops_of_inst], one instance at a time: the used
   instances in instance order, each with its ops in op order, priced with
   a mux of its fan-in when shared. *)
let test_one_pass_buckets_match_ops_of_inst () =
  let lib = Library.default in
  iter_schedules @@ fun sched ->
  let used =
    List.filter_map
      (fun i ->
        match Schedule.ops_of_inst sched i.Alloc.id with
        | [] -> None
        | ops -> Some (i, ops))
      (Alloc.instances sched.Schedule.alloc)
  in
  let fu = List.fold_left (fun acc (i, _) -> acc +. i.Alloc.point.Curve.area) 0.0 used in
  let mux =
    List.fold_left
      (fun acc (i, ops) ->
        let fanin = List.length ops in
        if fanin >= 2 then
          acc +. (2.0 *. Library.mux_area lib ~inputs:fanin ~width:i.Alloc.width)
        else acc)
      0.0 used
  in
  let b = Area_model.of_schedule sched in
  let bits = Int64.bits_of_float in
  Alcotest.(check int64) "fu area" (bits fu) (bits b.Area_model.fu);
  Alcotest.(check int64) "fu_only" (bits fu) (bits (Area_model.fu_only sched));
  Alcotest.(check int64) "mux area" (bits mux) (bits b.Area_model.mux);
  List.iter
    (fun rk ->
      let of_kind =
        List.fold_left
          (fun acc (i, _) ->
            if Resource_kind.equal i.Alloc.rk rk then acc +. i.Alloc.point.Curve.area
            else acc)
          0.0 used
      in
      Alcotest.(check int64)
        ("fu_of_kind " ^ Resource_kind.name rk)
        (bits of_kind)
        (bits (Area_model.fu_of_kind sched rk)))
    Resource_kind.all;
  let ids l = List.map Dfg.Op_id.to_int l in
  Alcotest.(check (list (pair int (list int))))
    "netlist FUs"
    (List.map (fun (i, ops) -> (Alloc.Inst_id.to_int i.Alloc.id, ids ops)) used)
    (List.map
       (fun f -> (Alloc.Inst_id.to_int f.Netlist.inst.Alloc.id, ids f.Netlist.ops))
       (Netlist.build sched).Netlist.fus)

let suite =
  [
    Alcotest.test_case "breakdown adds up" `Quick test_breakdown_adds_up;
    Alcotest.test_case "unused instances not priced" `Quick test_fu_only_counts_used;
    Alcotest.test_case "fu area partitions by kind" `Quick test_fu_of_kind_partitions;
    Alcotest.test_case "idealized has no overhead area" `Quick
      test_idealized_has_no_overhead_area;
    Alcotest.test_case "netlist structure" `Quick test_netlist_structure;
    Alcotest.test_case "registers justified" `Quick test_register_needed_for_cross_step;
    Alcotest.test_case "verilog emission" `Quick test_verilog_emission;
    Alcotest.test_case "verilog write_file" `Quick test_verilog_write_file;
    Alcotest.test_case "register area consistency" `Quick
      test_area_model_register_count_matches_netlist;
    Alcotest.test_case "one-pass buckets match ops_of_inst" `Quick
      test_one_pass_buckets_match_ops_of_inst;
  ]

let () = Alcotest.run "rtl" [ ("rtl", suite) ]
