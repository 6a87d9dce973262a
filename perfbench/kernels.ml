(* kernels: the paper's own designs through in-process Hls.run — one
   caller, no pool, no cache: the `hlsc run` path.  Timing, budgeting and
   scheduling do all the work; no explore, serve or dispatch code runs.
   Each design runs under both flows (the conventional/slack pair carries
   Table 5); the seed permutes the order within each round. *)

open Common

let designs () =
  let d ?ii name clock dfg = Hls.design ?ii ~name ~clock dfg in
  [
    d "fir8" 2500.0 (Fir.build ~taps:8 ~latency:6 ()).Fir.dfg;
    d "idct" 2500.0 (Idct.build ~latency:12 ~passes:1 ()).Idct.dfg;
    d "interpolation" Interpolation.clock (Interpolation.unrolled ()).Interpolation.dfg;
    d "resizer" 4000.0 (Resizer.full ()).Resizer.dfg;
  ]
  @ List.map
      (fun (p : Idct.design_point) ->
        d ?ii:p.Idct.ii p.Idct.id p.Idct.clock (Idct.instantiate p).Idct.dfg)
      Idct.table4_points
  @ List.map
      (fun passes ->
        d (Printf.sprintf "idct-x%d" passes) 2500.0
          (Idct.build ~latency:(8 * passes) ~passes ()).Idct.dfg)
      [ 2; 4 ]

let flows = [ Flows.Conventional; Flows.Slack_based ]

let tasks () =
  Array.of_list
    (List.concat_map (fun d -> List.map (fun f -> (d, f)) flows) (designs ()))

let task_name ((d : Hls.design), f) = d.Hls.design_name ^ "/" ^ Explore_grid.flow_short f

(* What later rounds must reproduce bit-exactly. *)
let outcome = function
  | Ok r -> Some (Hls.total_area r, Schedule.steps_used r.Hls.report.Flows.schedule)
  | Error _ -> None

let run_task (d, f) = Obs.span "bench.core.hls_run" (fun () -> Hls.run f d)

(* Every distinct result must be a legal schedule whose netlist and area
   agree with it. *)
let audit name (r : Hls.result) =
  let sched = r.Hls.report.Flows.schedule in
  let v =
    Audit.check_schedule sched @ Audit.check_netlist r.Hls.netlist
    @ Audit.check_area sched r.Hls.area
  in
  (match Schedule.validate sched with
  | Ok () -> []
  | Error es -> List.map (fun e -> Printf.sprintf "%s: schedule invalid: %s" name e) es)
  @ if Check.has_errors v then [ name ^ ": audit: " ^ Check.summary (Check.errors v) ] else []

let run ~size ~seed ~seconds ~traced ~chrome =
  let failures = ref [] in
  let fail m = failures := m :: !failures in
  (* Set-up: build every design and run one warm-up round, whose results
     are the reference; done three times, reported as the median. *)
  let setup () =
    let tasks = tasks () in
    (tasks, Array.map run_task tasks)
  in
  let setups = List.init 3 (fun _ -> set_up ~probe:one_core setup) in
  let (tasks, reference), _ = List.hd (List.rev setups) in
  let n = Array.length tasks in
  Array.iteri
    (fun i r ->
      match r with
      | Ok r -> List.iter fail (audit (task_name tasks.(i)) r)
      | Error e -> fail (task_name tasks.(i) ^ ": " ^ Flows.error_message e))
    reference;
  let expected = Array.map outcome reference in
  let rng = Splitmix.create seed in
  let ledger = ref Ledger.empty and rss = ref 0.0 in
  let round i =
    let traced = traced_round ~traced i in
    let order = Array.init n Fun.id in
    Splitmix.shuffle rng order;
    let (samples, l), wall, speed =
      calibrated ~probe:one_core @@ fun () ->
      with_stats ~on:traced ~chrome:(chrome && i = 1) (fun () ->
          Array.to_list order
          |> List.map (fun k ->
                 let t = now () in
                 let r = run_task tasks.(k) in
                 let ms = ms_since t in
                 if outcome r <> expected.(k) then
                   fail (task_name tasks.(k) ^ ": result differs from the reference run");
                 (task_name tasks.(k), ms)))
    in
    ledger := Ledger.add !ledger l;
    if i = 0 then rss := vmhwm_mb (Unix.getpid ());
    { traced; items = n; wall_s = wall; speed; compile = List.map (fun (k, ms) -> (k, ms *. speed)) samples }
  in
  let rounds = repeat ~size ~seconds ~traced round in
  let results = List.filter_map Fun.id (Array.to_list expected) in
  {
    attempted = n * (List.length rounds + List.length setups);
    failures = List.rev !failures;
    setups = List.map snd setups;
    shape = Sequential;
    rounds;
    latencies = List.concat_map (fun r -> List.map snd r.compile) (untraced rounds);
    areas = List.map fst results;
    distinct = n;
    rss_mb = !rss;
    digest =
      digest_lines
        (Array.to_list
           (Array.mapi
              (fun i o ->
                match o with
                | Some (a, s) -> Printf.sprintf "%s %h %d" (task_name tasks.(i)) a s
                | None -> task_name tasks.(i) ^ " failed")
              expected));
    owned = [];
    ledger = !ledger;
  }
