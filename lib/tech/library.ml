type overheads = {
  mux_delay_base : float;
  mux_delay_per_log_input : float;
  mux_area_per_bit_per_input : float;
  reg_area_per_bit : float;
  reg_overhead : float;
  fsm_area_per_state : float;
}

(* The curve memo is per domain (DLS): curve construction is pure, so each
   explore worker rebuilding its own curves gives identical results with
   zero cross-domain traffic — a shared table behind a mutex serialised
   the schedulers' hottest query. *)
type t = {
  lib_name : string;
  ov : overheads;
  memo : (Resource_kind.t * int, Curve.t) Hashtbl.t Domain.DLS.key;
  mux_table : float array;  (* [mux_formula] at 0 .. mux_table_size - 1 inputs *)
}

let table1_multiplier_8x8 =
  Curve.of_pairs
    [ (430., 878.); (470., 662.); (510., 618.); (540., 575.); (570., 545.); (610., 510.) ]

let table1_adder_16 =
  Curve.of_pairs
    [ (220., 556.); (400., 254.); (580., 225.); (760., 216.); (940., 210.); (1220., 206.) ]

let realistic =
  {
    mux_delay_base = 25.0;
    mux_delay_per_log_input = 20.0;
    mux_area_per_bit_per_input = 2.5;
    reg_area_per_bit = 5.0;
    reg_overhead = 60.0;
    fsm_area_per_state = 40.0;
  }

let ideal =
  {
    mux_delay_base = 0.0;
    mux_delay_per_log_input = 0.0;
    mux_area_per_bit_per_input = 0.0;
    reg_area_per_bit = 0.0;
    reg_overhead = 0.0;
    fsm_area_per_state = 0.0;
  }

let log2 x = log x /. log 2.0

let mux_formula ov ~inputs =
  if inputs <= 1 then 0.0
  else ov.mux_delay_base +. (ov.mux_delay_per_log_input *. log2 (float_of_int inputs))

(* Fan-ins past the table are rare; [mux_delay] computes them. *)
let mux_table_size = 64

let make lib_name ov =
  {
    lib_name;
    ov;
    memo = Domain.DLS.new_key (fun () -> Hashtbl.create 32);
    mux_table = Array.init mux_table_size (fun inputs -> mux_formula ov ~inputs);
  }

let default = make "virt90" realistic
let idealized = make "virt90-ideal" ideal
let name t = t.lib_name

(* Blend between logarithmic-depth scaling (fast implementations) and
   linear-depth scaling (slow implementations) along the curve. *)
let width_scaled ~base ~base_width ~area_exp ~fast_area_bonus ~width =
  let pts = Curve.points base in
  let n = List.length pts in
  let w = float_of_int width and w0 = float_of_int base_width in
  let lin = w /. w0 in
  let lg = if width = 1 || base_width = 1 then lin else log2 w /. log2 w0 in
  let scaled =
    List.mapi
      (fun i (p : Curve.point) ->
        let mix = if n = 1 then 0.5 else float_of_int i /. float_of_int (n - 1) in
        let dfac = ((1.0 -. mix) *. lg) +. (mix *. lin) in
        let afac = lin ** (area_exp +. (fast_area_bonus *. (1.0 -. mix))) in
        { Curve.delay = p.Curve.delay *. Float.max dfac 0.05;
          area = p.Curve.area *. Float.max afac 0.01 })
      pts
  in
  (* Width scaling can make consecutive delays collide for tiny widths; keep
     the curve strictly increasing by nudging. *)
  let rec fix prev = function
    | [] -> []
    | (p : Curve.point) :: rest ->
      let d = if p.Curve.delay <= prev then prev +. 1.0 else p.Curve.delay in
      { p with Curve.delay = d } :: fix d rest
  in
  let rec mono_area prev = function
    | [] -> []
    | (p : Curve.point) :: rest ->
      let a = Float.min p.Curve.area prev in
      { p with Curve.area = a } :: mono_area a rest
  in
  Curve.make (mono_area infinity (fix 0.0 scaled))

let shifter_base = Curve.of_pairs [ (150., 300.); (260., 190.); (420., 150.) ]
let logic_base = Curve.of_pairs [ (80., 120.); (160., 88.) ]

let build_curve rk width =
  match (rk : Resource_kind.t) with
  | Resource_kind.Adder ->
    width_scaled ~base:table1_adder_16 ~base_width:16 ~area_exp:1.0 ~fast_area_bonus:0.25
      ~width
  | Resource_kind.Subtractor ->
    Curve.scale ~delay:1.0 ~area:1.02
      (width_scaled ~base:table1_adder_16 ~base_width:16 ~area_exp:1.0 ~fast_area_bonus:0.25
         ~width)
  | Resource_kind.Add_sub ->
    Curve.scale ~delay:1.05 ~area:1.15
      (width_scaled ~base:table1_adder_16 ~base_width:16 ~area_exp:1.0 ~fast_area_bonus:0.25
         ~width)
  | Resource_kind.Multiplier ->
    width_scaled ~base:table1_multiplier_8x8 ~base_width:8 ~area_exp:2.0
      ~fast_area_bonus:0.15 ~width
  | Resource_kind.Divider ->
    Curve.scale ~delay:3.2 ~area:1.6
      (width_scaled ~base:table1_multiplier_8x8 ~base_width:8 ~area_exp:2.0
         ~fast_area_bonus:0.15 ~width)
  | Resource_kind.Shifter ->
    width_scaled ~base:shifter_base ~base_width:16 ~area_exp:1.2 ~fast_area_bonus:0.1 ~width
  | Resource_kind.Logic_unit ->
    width_scaled ~base:logic_base ~base_width:16 ~area_exp:1.0 ~fast_area_bonus:0.0 ~width
  | Resource_kind.Comparator ->
    Curve.scale ~delay:0.9 ~area:0.55
      (width_scaled ~base:table1_adder_16 ~base_width:16 ~area_exp:1.0 ~fast_area_bonus:0.2
         ~width)
  | Resource_kind.Mux_unit ->
    let w = float_of_int width in
    Curve.of_pairs [ (60., 2.8 *. w) ]
  | Resource_kind.Io_port ->
    (* Channel reads/writes latch at the cycle boundary; no combinational
       cost (callers that model finite I/O delay, like the paper's Table 3
       example, pass explicit delay functions to the analyses). *)
    let w = float_of_int width in
    Curve.of_pairs [ (0., 1.5 *. w) ]

let curve t rk ~width =
  if width < 1 || width > 512 then invalid_arg "Library.curve: width out of range";
  let memo = Domain.DLS.get t.memo in
  match Hashtbl.find_opt memo (rk, width) with
  | Some c -> c
  | None ->
    let c = build_curve rk width in
    Hashtbl.add memo (rk, width) c;
    c

let op_curve t k ~width =
  Option.map (fun rk -> curve t rk ~width) (Resource_kind.of_op_kind k)

let mux_table t = t.mux_table

let mux_delay t ~inputs =
  if inputs >= 0 && inputs < mux_table_size then Array.unsafe_get t.mux_table inputs
  else mux_formula t.ov ~inputs

let mux_area t ~inputs ~width =
  if inputs <= 1 then 0.0
  else
    t.ov.mux_area_per_bit_per_input *. float_of_int width *. float_of_int (inputs - 1)

let register_area t ~width = t.ov.reg_area_per_bit *. float_of_int width
let register_overhead t = t.ov.reg_overhead
let fsm_area_per_state t = t.ov.fsm_area_per_state
