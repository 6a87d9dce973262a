(* Technology library: curve algebra, Table 1 data, width scaling, and the
   interconnect overhead models. *)

let mul8 = Library.table1_multiplier_8x8
let add16 = Library.table1_adder_16

let test_table1_embedded () =
  Alcotest.(check (float 1e-9)) "mul fastest delay" 430.0 (Curve.min_delay mul8);
  Alcotest.(check (float 1e-9)) "mul fastest area" 878.0 (Curve.fastest mul8).Curve.area;
  Alcotest.(check (float 1e-9)) "mul slowest delay" 610.0 (Curve.max_delay mul8);
  Alcotest.(check (float 1e-9)) "mul slowest area" 510.0 (Curve.slowest mul8).Curve.area;
  Alcotest.(check (float 1e-9)) "add fastest" 556.0 (Curve.fastest add16).Curve.area;
  Alcotest.(check (float 1e-9)) "add slowest" 206.0 (Curve.slowest add16).Curve.area

let test_area_interpolation () =
  (* Between 540/575 and 570/545: at 550 -> 575 + (10/30)*(545-575) = 565. *)
  Alcotest.(check (float 1e-6)) "mul at 550" 565.0 (Curve.area_at mul8 550.0);
  (* Clamped outside the range. *)
  Alcotest.(check (float 1e-6)) "below range" 878.0 (Curve.area_at mul8 100.0);
  Alcotest.(check (float 1e-6)) "above range" 510.0 (Curve.area_at mul8 9999.0)

let test_snapping () =
  Alcotest.(check (float 1e-9)) "snap down mid" 540.0 (Curve.snap_down mul8 550.0).Curve.delay;
  Alcotest.(check (float 1e-9)) "snap down exact" 510.0 (Curve.snap_down mul8 510.0).Curve.delay;
  Alcotest.(check (float 1e-9)) "snap down below" 430.0 (Curve.snap_down mul8 100.0).Curve.delay;
  Alcotest.(check (float 1e-9)) "snap up mid" 570.0 (Curve.snap_up mul8 550.0).Curve.delay;
  Alcotest.(check (float 1e-9)) "snap up above" 610.0 (Curve.snap_up mul8 5000.0).Curve.delay;
  Alcotest.(check (float 1e-9)) "point_at exact delay" 555.0 (Curve.point_at mul8 555.0).Curve.delay

let test_curve_validation () =
  (match Curve.of_pairs [] with
  | _ -> Alcotest.fail "empty curve rejected"
  | exception Invalid_argument _ -> ());
  (match Curve.of_pairs [ (100.0, 50.0); (100.0, 40.0) ] with
  | _ -> Alcotest.fail "non-increasing delay rejected"
  | exception Invalid_argument _ -> ());
  (match Curve.of_pairs [ (100.0, 50.0); (200.0, 60.0) ] with
  | _ -> Alcotest.fail "increasing area rejected"
  | exception Invalid_argument _ -> ())

let test_sensitivity () =
  (* Between 430/878 and 470/662: (878-662)/40 = 5.4 area per ps. *)
  Alcotest.(check (float 1e-6)) "steep at the fast end" 5.4 (Curve.sensitivity mul8 440.0);
  Alcotest.(check (float 1e-9)) "flat past the slow end" 0.0 (Curve.sensitivity mul8 700.0)

let test_width_scaling_identity () =
  (* At the characterised width, the derived curve equals Table 1. *)
  let m8 = Library.curve Library.default Resource_kind.Multiplier ~width:8 in
  Alcotest.(check bool) "mul w8 is Table 1" true (Curve.equal m8 mul8);
  let a16 = Library.curve Library.default Resource_kind.Adder ~width:16 in
  Alcotest.(check bool) "add w16 is Table 1" true (Curve.equal a16 add16)

let test_width_scaling_monotone () =
  List.iter
    (fun rk ->
      let a = Library.curve Library.default rk ~width:8 in
      let b = Library.curve Library.default rk ~width:16 in
      let c = Library.curve Library.default rk ~width:32 in
      let fa = (Curve.fastest a).Curve.area
      and fb = (Curve.fastest b).Curve.area
      and fc = (Curve.fastest c).Curve.area in
      Alcotest.(check bool)
        (Resource_kind.name rk ^ " area grows with width")
        true
        (fa < fb && fb < fc);
      Alcotest.(check bool)
        (Resource_kind.name rk ^ " delay grows with width")
        true
        (Curve.min_delay a <= Curve.min_delay b && Curve.min_delay b <= Curve.min_delay c))
    [ Resource_kind.Multiplier; Resource_kind.Adder; Resource_kind.Divider ]

let test_tradeoff_spread () =
  (* The paper's premise: 2-3x area and 1.5-6x delay spread. *)
  List.iter
    (fun (rk, w) ->
      let c = Library.curve Library.default rk ~width:w in
      let dspread = Curve.max_delay c /. Curve.min_delay c in
      let aspread = (Curve.fastest c).Curve.area /. (Curve.slowest c).Curve.area in
      (* Table 1 shows 1.5-6x at the characterised widths; the log-vs-linear
         width scaling stretches the spread a little at wider words. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s w%d delay spread %.1f in [1.3, 10]" (Resource_kind.name rk) w dspread)
        true
        (dspread >= 1.3 && dspread <= 10.0);
      Alcotest.(check bool)
        (Printf.sprintf "%s w%d area spread %.1f in [1.2, 4]" (Resource_kind.name rk) w aspread)
        true
        (aspread >= 1.2 && aspread <= 4.0))
    [ (Resource_kind.Multiplier, 8); (Resource_kind.Multiplier, 16);
      (Resource_kind.Adder, 16); (Resource_kind.Adder, 32);
      (Resource_kind.Subtractor, 16) ]

let test_resource_kind_mapping () =
  Alcotest.(check bool) "add -> adder" true
    (Resource_kind.of_op_kind Dfg.Add = Some Resource_kind.Adder);
  Alcotest.(check bool) "const -> none" true (Resource_kind.of_op_kind (Dfg.Const 3) = None);
  Alcotest.(check bool) "add_sub runs add" true
    (Resource_kind.can_execute Resource_kind.Add_sub Dfg.Add);
  Alcotest.(check bool) "add_sub runs sub" true
    (Resource_kind.can_execute Resource_kind.Add_sub Dfg.Sub);
  Alcotest.(check bool) "add_sub not mul" false
    (Resource_kind.can_execute Resource_kind.Add_sub Dfg.Mul);
  Alcotest.(check bool) "adder not sub" false
    (Resource_kind.can_execute Resource_kind.Adder Dfg.Sub)

let test_overheads () =
  let lib = Library.default in
  Alcotest.(check (float 1e-9)) "no mux for single input" 0.0 (Library.mux_delay lib ~inputs:1);
  Alcotest.(check bool) "mux delay grows" true
    (Library.mux_delay lib ~inputs:4 > Library.mux_delay lib ~inputs:2);
  Alcotest.(check bool) "mux area grows with width" true
    (Library.mux_area lib ~inputs:3 ~width:32 > Library.mux_area lib ~inputs:3 ~width:16);
  Alcotest.(check (float 1e-9)) "ideal library has no overheads" 0.0
    (Library.mux_delay Library.idealized ~inputs:8
    +. Library.register_overhead Library.idealized
    +. Library.fsm_area_per_state Library.idealized)

(* The mux penalty comes from a per-library table, built once, and from
   the formula past its end.  Oracle: the formula with each library's
   constants (25 ps + 20 ps per doubling of the inputs; 0 for the
   idealized library), compared bit for bit, table entries included. *)
let test_mux_table_oracle () =
  let formula (base, per_log) inputs =
    if inputs <= 1 then 0.0
    else base +. (per_log *. (log (float_of_int inputs) /. log 2.0))
  in
  List.iter
    (fun (name, lib, constants) ->
      let table = Library.mux_table lib in
      let size = Array.length table in
      Alcotest.(check bool) (name ^ ": a table") true (size > 8);
      for inputs = 0 to size + 8 do
        let want = Int64.bits_of_float (formula constants inputs) in
        let label what = Printf.sprintf "%s: %s at %d inputs" name what inputs in
        Alcotest.(check int64) (label "mux_delay") want
          (Int64.bits_of_float (Library.mux_delay lib ~inputs));
        if inputs < size then
          Alcotest.(check int64) (label "table entry") want (Int64.bits_of_float table.(inputs))
      done)
    [ ("default", Library.default, (25.0, 20.0)); ("idealized", Library.idealized, (0.0, 0.0)) ]

let prop_area_at_monotone =
  QCheck.Test.make ~name:"interpolated area non-increasing in delay" ~count:200
    QCheck.(pair (float_range 200.0 1400.0) (float_range 0.0 300.0))
    (fun (d, bump) ->
      Curve.area_at add16 (d +. bump) <= Curve.area_at add16 d +. 1e-9)

let prop_snap_brackets =
  QCheck.Test.make ~name:"snap_down <= d <= snap_up within range" ~count:200
    QCheck.(float_range 430.0 610.0)
    (fun d ->
      (Curve.snap_down mul8 d).Curve.delay <= d +. 1e-9
      && (Curve.snap_up mul8 d).Curve.delay >= d -. 1e-9)

let suite =
  [
    Alcotest.test_case "table 1 embedded data" `Quick test_table1_embedded;
    Alcotest.test_case "area interpolation" `Quick test_area_interpolation;
    Alcotest.test_case "snapping" `Quick test_snapping;
    Alcotest.test_case "curve validation" `Quick test_curve_validation;
    Alcotest.test_case "sensitivity" `Quick test_sensitivity;
    Alcotest.test_case "width scaling identity" `Quick test_width_scaling_identity;
    Alcotest.test_case "width scaling monotone" `Quick test_width_scaling_monotone;
    Alcotest.test_case "tradeoff spread" `Quick test_tradeoff_spread;
    Alcotest.test_case "resource kind mapping" `Quick test_resource_kind_mapping;
    Alcotest.test_case "interconnect overheads" `Quick test_overheads;
    Alcotest.test_case "mux table equals the formula" `Quick test_mux_table_oracle;
    QCheck_alcotest.to_alcotest prop_area_at_monotone;
    QCheck_alcotest.to_alcotest prop_snap_brackets;
  ]

let () = Alcotest.run "tech" [ ("tech", suite) ]
