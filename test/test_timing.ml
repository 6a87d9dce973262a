(* Timed DFG construction, sequential slack (paper Table 3, numeric and
   symbolic), aligned slack, the Bellman-Ford baseline agreement, and the
   incremental slack engine against the full pass. *)

let rz = lazy (Resizer.table3 ())

let tdfg_of r =
  let spans = Dfg.compute_spans r.Resizer.dfg in
  Timed_dfg.build r.Resizer.dfg ~spans

(* Delay model of the Table 3 example: I/O ops take d, others take D. *)
let is_io r o =
  List.exists (Dfg.Op_id.equal o) [ r.Resizer.rd_a; r.Resizer.rd_b; r.Resizer.wr ]

let numeric_del r ~dd ~d o = if is_io r o then d else dd

let test_timed_dfg_weights () =
  let r = Lazy.force rz in
  let tdfg = tdfg_of r in
  let weight_between o1 o2 =
    List.assoc_opt (Timed_dfg.Op o2)
      (List.map (fun (n, w) -> (n, w)) (Timed_dfg.succs tdfg (Timed_dfg.Op o1)))
  in
  (* Figure 5(b): add->mul carries 1, sub->mux carries 1, mux->wr carries 1,
     same-frame edges carry 0. *)
  Alcotest.(check (option int)) "add->div" (Some 0) (weight_between r.Resizer.add r.Resizer.div);
  Alcotest.(check (option int)) "add->mul" (Some 1) (weight_between r.Resizer.add r.Resizer.mul);
  Alcotest.(check (option int)) "div->sub" (Some 0) (weight_between r.Resizer.div r.Resizer.sub);
  Alcotest.(check (option int)) "sub->mux" (Some 1) (weight_between r.Resizer.sub r.Resizer.mux);
  Alcotest.(check (option int)) "mul->mux" (Some 0) (weight_between r.Resizer.mul r.Resizer.mux);
  Alcotest.(check (option int)) "mux->wr" (Some 1) (weight_between r.Resizer.mux r.Resizer.wr);
  (* Every op has a sink. *)
  List.iter
    (fun o ->
      let has_sink =
        List.exists
          (fun (n, _) -> Timed_dfg.node_equal n (Timed_dfg.Sink o))
          (Timed_dfg.succs tdfg (Timed_dfg.Op o))
      in
      Alcotest.(check bool) "op has sink" true has_sink)
    (Timed_dfg.active_ops tdfg)

let test_table3_numeric () =
  let r = Lazy.force rz in
  let tdfg = tdfg_of r in
  let t = 10.0 and dd = 6.0 and d = 1.0 in
  (* Constraint D + d < T < 2D holds: 7 < 10 < 12. *)
  let res = Slack.analyze tdfg ~clock:t ~del:(numeric_del r ~dd ~d) in
  let check o expected msg =
    Alcotest.(check (float 1e-9)) msg expected (Slack.op_slack res o)
  in
  let s_main = (2. *. t) -. (4. *. dd) -. d in
  check r.Resizer.rd_a s_main "slack rd_a = 2T-4D-d";
  check r.Resizer.add s_main "slack add = 2T-4D-d";
  check r.Resizer.div s_main "slack div = 2T-4D-d";
  check r.Resizer.sub s_main "slack sub = 2T-4D-d";
  check r.Resizer.mux s_main "slack mux = 2T-4D-d";
  check r.Resizer.rd_b (t -. (2. *. dd) -. d) "slack rd_b = T-2D-d";
  check r.Resizer.mul (t -. (2. *. dd) -. d) "slack mul = T-2D-d";
  check r.Resizer.wr ((3. *. t) -. (4. *. dd) -. (2. *. d)) "slack wr = 3T-4D-2d";
  (* Arrival spot checks from Table 3. *)
  let arr o = res.Slack.arr.(Dfg.Op_id.to_int o) in
  Alcotest.(check (float 1e-9)) "arr rd_a" 0.0 (arr r.Resizer.rd_a);
  Alcotest.(check (float 1e-9)) "arr add" d (arr r.Resizer.add);
  Alcotest.(check (float 1e-9)) "arr sub" (d +. (2. *. dd)) (arr r.Resizer.sub);
  Alcotest.(check (float 1e-9)) "arr mux" (d +. (3. *. dd) -. t) (arr r.Resizer.mux);
  Alcotest.(check (float 1e-9)) "arr wr" (d +. (4. *. dd) -. (2. *. t)) (arr r.Resizer.wr)

let test_table3_critical_path () =
  let r = Lazy.force rz in
  let tdfg = tdfg_of r in
  let res = Slack.analyze tdfg ~clock:10.0 ~del:(numeric_del r ~dd:6.0 ~d:1.0) in
  let critical = Slack.critical_ops tdfg res in
  let names = List.map (fun o -> (Dfg.op r.Resizer.dfg o).Dfg.name) critical in
  Alcotest.(check (list string)) "critical path rd_a add div sub mux"
    [ "add"; "div"; "mux"; "rd_a"; "sub" ]
    (List.sort compare names);
  Alcotest.(check int) "five critical ops" 5 (List.length critical);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " critical") true (List.mem n names))
    [ "rd_a"; "add"; "div"; "sub"; "mux" ]

let test_table3_symbolic () =
  let r = Lazy.force rz in
  let tdfg = tdfg_of r in
  let tT = Affine.param "T" and dD = Affine.param "D" and dd = Affine.param "d" in
  let del o = if is_io r o then dd else dD in
  let res = Parametric.analyze tdfg ~clock:tT ~del ~samples:Resizer.table3_samples in
  let comb coefs =
    (* coefs = (cT, cD, cd) *)
    let ct, cd_, cdd = coefs in
    Affine.add
      (Affine.add (Affine.scale ct tT) (Affine.scale cd_ dD))
      (Affine.scale cdd dd)
  in
  let check_slack o coefs msg =
    let got = res.Parametric.slack.(Dfg.Op_id.to_int o) in
    let expected = comb coefs in
    Alcotest.(check string) msg
      (Affine.to_string ~order:[ "T"; "D"; "d" ] expected)
      (Affine.to_string ~order:[ "T"; "D"; "d" ] got)
  in
  check_slack r.Resizer.rd_a (2., -4., -1.) "slack(rd_a) = 2T - 4D - d";
  check_slack r.Resizer.add (2., -4., -1.) "slack(add) = 2T - 4D - d";
  check_slack r.Resizer.div (2., -4., -1.) "slack(div) = 2T - 4D - d";
  check_slack r.Resizer.sub (2., -4., -1.) "slack(sub) = 2T - 4D - d";
  check_slack r.Resizer.rd_b (1., -2., -1.) "slack(rd_b) = T - 2D - d";
  check_slack r.Resizer.mul (1., -2., -1.) "slack(mul) = T - 2D - d";
  check_slack r.Resizer.mux (2., -4., -1.) "slack(mux) = 2T - 4D - d";
  check_slack r.Resizer.wr (3., -4., -2.) "slack(wr) = 3T - 4D - 2d";
  (* Table 3 arrival formulas. *)
  let check_arr o coefs msg =
    let got = res.Parametric.arr.(Dfg.Op_id.to_int o) in
    Alcotest.(check string) msg
      (Affine.to_string ~order:[ "T"; "D"; "d" ] (comb coefs))
      (Affine.to_string ~order:[ "T"; "D"; "d" ] got)
  in
  check_arr r.Resizer.add (0., 0., 1.) "arr(add) = d";
  check_arr r.Resizer.div (0., 1., 1.) "arr(div) = D + d";
  check_arr r.Resizer.sub (0., 2., 1.) "arr(sub) = 2D + d";
  check_arr r.Resizer.mux (-1., 3., 1.) "arr(mux) = 3D + d - T";
  check_arr r.Resizer.wr (-2., 4., 1.) "arr(wr) = 4D + d - 2T";
  (* Symbolic critical path matches the paper. *)
  let critical = Parametric.critical_ops tdfg res ~samples:Resizer.table3_samples in
  Alcotest.(check int) "five critical ops" 5 (List.length critical)

let test_bf_agrees () =
  let r = Lazy.force rz in
  let tdfg = tdfg_of r in
  let del = numeric_del r ~dd:6.0 ~d:1.0 in
  let seq = Slack.analyze tdfg ~clock:10.0 ~del in
  let bf = Bf_timing.analyze tdfg ~clock:10.0 ~del in
  List.iter
    (fun o ->
      let i = Dfg.Op_id.to_int o in
      Alcotest.(check (float 1e-6)) "arr agrees" seq.Slack.arr.(i) bf.Slack.arr.(i);
      Alcotest.(check (float 1e-6)) "req agrees" seq.Slack.req.(i) bf.Slack.req.(i);
      Alcotest.(check (float 1e-6)) "slack agrees" seq.Slack.slack.(i) bf.Slack.slack.(i))
    (Timed_dfg.active_ops tdfg)

let test_alignment_primitives () =
  let t = 10.0 in
  Alcotest.(check (float 1e-9)) "push across boundary" 10.0
    (Slack.align_start ~clock:t ~delay:4.0 7.0);
  Alcotest.(check (float 1e-9)) "exact fit stays" 6.0
    (Slack.align_start ~clock:t ~delay:4.0 6.0);
  Alcotest.(check (float 1e-9)) "negative arrival pushes to zero" 0.0
    (Slack.align_start ~clock:t ~delay:4.0 (-3.0));
  Alcotest.(check (float 1e-9)) "required pulled back" 16.0
    (Slack.align_finish_constraint ~clock:t ~delay:4.0 17.0);
  Alcotest.(check (float 1e-9)) "required exact stays" 16.0
    (Slack.align_finish_constraint ~clock:t ~delay:4.0 16.0)

let test_aligned_slack_is_conservative () =
  let r = Lazy.force rz in
  let tdfg = tdfg_of r in
  let del = numeric_del r ~dd:6.0 ~d:1.0 in
  let raw = Slack.analyze tdfg ~clock:10.0 ~del in
  let ali = Slack.analyze ~aligned:true tdfg ~clock:10.0 ~del in
  List.iter
    (fun o ->
      let i = Dfg.Op_id.to_int o in
      Alcotest.(check bool) "aligned arr >= raw arr" true
        (ali.Slack.arr.(i) +. 1e-9 >= raw.Slack.arr.(i));
      Alcotest.(check bool) "aligned req <= raw req" true
        (ali.Slack.req.(i) -. 1e-9 <= raw.Slack.req.(i)))
    (Timed_dfg.active_ops tdfg)

let test_interpolation_aligned_chain () =
  (* With all muls at 550 and adds at 550, the unrolled interpolation fits
     its three cycles; at 560 it does not (two chained muls cross the
     boundary).  This is the crux of the Figure 2(d) optimum. *)
  let ip = Interpolation.unrolled () in
  let spans = Dfg.compute_spans ip.Interpolation.dfg in
  let tdfg = Timed_dfg.build ip.Interpolation.dfg ~spans in
  let del_at mul_delay o =
    let op = Dfg.op ip.Interpolation.dfg o in
    match op.Dfg.kind with
    | Dfg.Mul -> mul_delay
    | Dfg.Add -> 550.0
    | Dfg.Write _ | Dfg.Read _ -> 50.0
    | _ -> 100.0
  in
  let res550 =
    Slack.analyze ~aligned:true tdfg ~clock:Interpolation.clock ~del:(del_at 550.0)
  in
  Alcotest.(check bool) "550ps multipliers feasible" true (Slack.feasible res550);
  let res560 =
    Slack.analyze ~aligned:true tdfg ~clock:Interpolation.clock ~del:(del_at 560.0)
  in
  Alcotest.(check bool) "560ps multipliers infeasible" false (Slack.feasible res560);
  (* Without alignment the 560ps point looks (wrongly) feasible. *)
  let raw560 = Slack.analyze tdfg ~clock:Interpolation.clock ~del:(del_at 560.0) in
  Alcotest.(check bool) "raw slack misses the boundary effect" true
    (Slack.feasible raw560)

let prop_critical_path_equal_slack =
  (* Paper property: all ops on the critical path share the minimal slack.
     Check on the resizer across random delay assignments. *)
  QCheck.Test.make ~name:"critical ops share minimal slack" ~count:100
    QCheck.(pair (float_range 1.0 8.0) (float_range 0.1 2.0))
    (fun (dd, d) ->
      let r = Lazy.force rz in
      let tdfg = tdfg_of r in
      let t = Float.max (dd +. d +. 1.0) (1.6 *. dd) in
      let res = Slack.analyze tdfg ~clock:t ~del:(numeric_del r ~dd ~d) in
      let critical = Slack.critical_ops tdfg res in
      critical <> []
      && List.for_all
           (fun o -> Float.abs (Slack.op_slack res o -. res.Slack.min_slack) < 1e-6)
           critical)

let prop_slack_antimonotone_in_delay =
  (* Raising any single delay never increases any slack. *)
  QCheck.Test.make ~name:"slack anti-monotone in delays" ~count:100
    QCheck.(pair (int_range 0 7) (float_range 0.1 3.0))
    (fun (idx, bump) ->
      let r = Lazy.force rz in
      let tdfg = tdfg_of r in
      let base = numeric_del r ~dd:5.0 ~d:1.0 in
      let bumped o = if Dfg.Op_id.to_int o = idx then base o +. bump else base o in
      let res0 = Slack.analyze tdfg ~clock:12.0 ~del:base in
      let res1 = Slack.analyze tdfg ~clock:12.0 ~del:bumped in
      List.for_all
        (fun o ->
          Slack.op_slack res1 o <= Slack.op_slack res0 o +. 1e-9)
        (Timed_dfg.active_ops tdfg))

(* The incremental engine against its oracle, the full pass: seeded corpus
   designs of every CFG shape and size class, aligned and raw, under random
   single-op delay changes, each committed or rolled back.  After every
   step the engine's values must have the bits of a fresh analysis of the
   current delays, and a rollback must restore the pre-step state bit for
   bit. *)
let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let same_result (a : Slack.result) (b : Slack.result) =
  same_bits a.Slack.arr b.Slack.arr
  && same_bits a.Slack.req b.Slack.req
  && same_bits a.Slack.slack b.Slack.slack
  && same_bits [| a.Slack.min_slack |] [| b.Slack.min_slack |]

let engine_matches_full_pass ~seed ~shape ~klass ~aligned =
  let d =
    Random_design.generate ~profile:(Corpus.profile_of_klass klass) ~shape ~seed ()
  in
  let dfg = d.Random_design.dfg in
  let tdfg = Timed_dfg.build dfg ~spans:(Dfg.compute_spans dfg) in
  let clock = d.Random_design.suggested_clock in
  let rng = Splitmix.create (seed lxor 0x5eed) in
  (* Delays on a coarse grid hit ties and exact cancellations (signed
     zeros included) far more often than uniform draws would. *)
  let draw () =
    if Splitmix.int rng 4 = 0 then float_of_int (Splitmix.int rng 5) *. clock /. 4.0
    else Splitmix.float rng (1.2 *. clock)
  in
  let delays = Array.init (Dfg.op_count dfg) (fun _ -> draw ()) in
  let del o = delays.(Dfg.Op_id.to_int o) in
  let e = Slack.create ~aligned tdfg ~clock ~del in
  let oracle () = Slack.analyze ~aligned tdfg ~clock ~del in
  let active = Array.of_list (Timed_dfg.active_ops tdfg) in
  let ok = ref (same_result (Slack.result e) (oracle ())) in
  for _ = 1 to 40 do
    if !ok && Array.length active > 0 then begin
      let before = Slack.result e in
      let o = Splitmix.choose rng active in
      let i = Dfg.Op_id.to_int o in
      let old = delays.(i) in
      delays.(i) <- (if Splitmix.int rng 8 = 0 then old else draw ());
      Slack.set_delay e o delays.(i);
      ok := same_result (Slack.result e) (oracle ());
      if Splitmix.bool rng then Slack.commit e
      else begin
        Slack.rollback e;
        delays.(i) <- old;
        ok := !ok && same_result (Slack.result e) before
      end
    end
  done;
  !ok

let prop_engine_matches_full_pass =
  QCheck.Test.make ~name:"incremental engine == full pass, bit for bit" ~count:12
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      List.for_all
        (fun shape ->
          List.for_all
            (fun klass ->
              List.for_all
                (fun aligned -> engine_matches_full_pass ~seed ~shape ~klass ~aligned)
                [ true; false ])
            Corpus.all_klasses)
        Random_design.all_shapes)

let suite =
  [
    Alcotest.test_case "timed DFG weights (fig 5b)" `Quick test_timed_dfg_weights;
    Alcotest.test_case "table 3 numeric slack" `Quick test_table3_numeric;
    Alcotest.test_case "table 3 critical path" `Quick test_table3_critical_path;
    Alcotest.test_case "table 3 symbolic slack" `Quick test_table3_symbolic;
    Alcotest.test_case "bellman-ford agrees with two-pass" `Quick test_bf_agrees;
    Alcotest.test_case "alignment primitives" `Quick test_alignment_primitives;
    Alcotest.test_case "aligned slack conservative" `Quick test_aligned_slack_is_conservative;
    Alcotest.test_case "interpolation aligned chain" `Quick test_interpolation_aligned_chain;
    QCheck_alcotest.to_alcotest prop_critical_path_equal_slack;
    QCheck_alcotest.to_alcotest prop_slack_antimonotone_in_delay;
    QCheck_alcotest.to_alcotest prop_engine_matches_full_pass;
  ]

let () = Alcotest.run "timing" [ ("timing", suite) ]
