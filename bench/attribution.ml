(* Wasted-work attribution table (companion to Table 5): for each kernel,
   run the slack-based flow and report the timing engine's work — full
   passes, incremental single-delay updates, the edge relaxations they
   performed (touched) and the relaxations at nodes whose value changed
   (cone).  All numbers are global counters read as before/after deltas
   per kernel, so the table is deterministic and the same counters feed
   the baseline gate. *)

let kernels =
  [
    ("interpolation", (fun () ->
         let ip = Interpolation.unrolled () in
         ip.Interpolation.dfg),
     Interpolation.clock);
    ("resizer", (fun () ->
         let r = Resizer.full () in
         r.Resizer.dfg),
     4000.0);
    ("idct", (fun () ->
         let d = Idct.build ~latency:12 ~passes:1 () in
         d.Idct.dfg),
     2500.0);
    ("fir8", (fun () ->
         let f = Fir.build ~taps:8 ~latency:6 () in
         f.Fir.dfg),
     2500.0);
  ]

let c_analyses = Obs.counter "slack.analyses"
let c_updates = Obs.counter "slack.updates"

let run () =
  Bench_common.section "Work attribution: wasted-work ratio of the timing engine";
  Printf.printf "%-14s %9s %9s %10s %10s %8s\n" "kernel" "analyses" "updates" "touched"
    "cone" "wasted";
  List.iter
    (fun (name, build, clock) ->
      let before = Attrib.totals () in
      let a0 = Obs.value c_analyses and u0 = Obs.value c_updates in
      (match Hls.run Flows.Slack_based (Hls.design ~name ~clock (build ())) with
      | Ok _ -> ()
      | Error e -> Printf.printf "  %s FAILED: %s\n" name (Flows.error_message e));
      let after = Attrib.totals () in
      let d =
        {
          Attrib.touched = after.Attrib.touched - before.Attrib.touched;
          cone = after.Attrib.cone - before.Attrib.cone;
        }
      in
      Printf.printf "%-14s %9d %9d %10d %10d %7.1f%%\n" name
        (Obs.value c_analyses - a0)
        (Obs.value c_updates - u0)
        d.Attrib.touched d.Attrib.cone
        (100.0 *. Attrib.wasted_ratio d))
    kernels;
  Printf.printf
    "\n(wasted = 1 - cone/touched: the fraction of edge relaxations that\n\
    \ re-derived a value the engine already held)\n"
