(* Design-space exploration section: paper-style area/delay tradeoff
   curves (Fig. 9 / Table 4 territory) for all four shipped workloads,
   produced by the lib/explore engine, plus a worker-scaling measurement
   and a cache effectiveness check. *)

open Bench_common

let workloads =
  [
    ("fir8", 2500.0, fun () -> (Fir.build ~taps:8 ~latency:6 ()).Fir.dfg);
    ("idct", 2500.0, fun () -> (Idct.build ~latency:12 ~passes:1 ()).Idct.dfg);
    ( "interpolation",
      Interpolation.clock,
      fun () -> (Interpolation.unrolled ()).Interpolation.dfg );
    ("resizer", 4000.0, fun () -> (Resizer.full ()).Resizer.dfg);
  ]

let grid_for base_clock ~quick =
  let n = if quick then 4 else 8 in
  let clocks = List.init n (fun k -> base_clock *. (0.8 +. (0.1 *. float_of_int k))) in
  match
    Explore_grid.make ~clocks
      ~flows:[ Flows.Conventional; Flows.Slack_based ]
      ()
  with
  | Ok g -> g
  | Error m -> failwith m

let config = Flows.default_config

let tradeoff_curves ~quick () =
  section "Exploration: area/delay Pareto frontiers (paper Fig. 9 territory)";
  List.iter
    (fun (name, base_clock, build) ->
      let grid = grid_for base_clock ~quick in
      let outcome = Explore.run ~lib:realistic ~config ~name ~build grid in
      subsection
        (Printf.sprintf "%s: %d points, frontier %d, failed %d" name
           outcome.Explore.total
           (List.length outcome.Explore.frontier)
           outcome.Explore.failed);
      print_string (Explore.render_summary outcome))
    workloads

let scaling ~quick () =
  subsection "worker scaling (one idct sweep per jobs setting)";
  let _, base_clock, build = (fun (a, b, c) -> (a, b, c)) (List.nth workloads 1) in
  let n = if quick then 6 else 15 in
  let clocks =
    List.init n (fun k -> base_clock *. (0.8 +. (0.05 *. float_of_int k)))
  in
  let grid =
    match
      Explore_grid.make ~clocks
        ~flows:[ Flows.Conventional; Flows.Slowest_first; Flows.Slack_based ]
        ()
    with
    | Ok g -> g
    | Error m -> failwith m
  in
  let time_jobs jobs =
    let t0 = Obs.now_ns () in
    let outcome = Explore.run ~jobs ~lib:realistic ~config ~name:"idct" ~build grid in
    let dt = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) in
    (dt, outcome)
  in
  let t1, o1 = time_jobs 1 in
  let recommended = Domain_pool.default_jobs () in
  let tn, on = time_jobs (max 2 recommended) in
  Printf.printf "  jobs=1: %s   jobs=%d: %s   speedup %.2fx (on %d cores)\n"
    (pp_ns t1) (max 2 recommended) (pp_ns tn) (t1 /. tn) recommended;
  (* Whatever the hardware, the sweep itself must be identical. *)
  if Explore.to_csv o1 <> Explore.to_csv on then
    failwith "exploration results differ across worker counts"

let cache_effect () =
  subsection "evaluation cache (same sweep twice)";
  let _, base_clock, build = (fun (a, b, c) -> (a, b, c)) (List.hd workloads) in
  let grid = grid_for base_clock ~quick:false in
  let cache = Eval_cache.create () in
  let run () =
    let t0 = Obs.now_ns () in
    let o = Explore.run ~cache ~lib:realistic ~config ~name:"fir8" ~build grid in
    (Int64.to_float (Int64.sub (Obs.now_ns ()) t0), o)
  in
  let t_cold, o_cold = run () in
  let t_warm, o_warm = run () in
  Printf.printf "  cold: %s (%d evaluated)   warm: %s (%d evaluated, %d hits)\n"
    (pp_ns t_cold) o_cold.Explore.evaluated (pp_ns t_warm) o_warm.Explore.evaluated
    o_warm.Explore.hits;
  if o_warm.Explore.evaluated <> 0 then failwith "warm sweep re-evaluated points"

let journal_overhead () =
  subsection "checkpoint journal overhead (fsync per completed point)";
  let _, base_clock, build = (fun (a, b, c) -> (a, b, c)) (List.hd workloads) in
  let grid = grid_for base_clock ~quick:false in
  let time_run ?journal () =
    let t0 = Obs.now_ns () in
    let o = Explore.run ?journal ~lib:realistic ~config ~name:"fir8" ~build grid in
    (Int64.to_float (Int64.sub (Obs.now_ns ()) t0), o)
  in
  let t_bare, o_bare = time_run () in
  let path = Filename.temp_file "explore_bench" ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = Eval_cache.start ~path ~fresh:true in
      let t_journaled, o_journaled =
        Fun.protect ~finally:(fun () -> Eval_cache.close w) (fun () -> time_run ~journal:w ())
      in
      Printf.printf
        "  bare: %s   journaled: %s (%.1f%% overhead, %d records fsync'd)\n"
        (pp_ns t_bare) (pp_ns t_journaled)
        ((t_journaled -. t_bare) /. t_bare *. 100.0)
        o_journaled.Explore.total;
      (* The journal must not perturb the sweep itself. *)
      if Explore.to_csv o_bare <> Explore.to_csv o_journaled then
        failwith "journaled sweep differs from bare sweep")

let run ~quick () =
  tradeoff_curves ~quick ();
  scaling ~quick ();
  cache_effect ();
  journal_overhead ()
