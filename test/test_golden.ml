(* Golden results: pins what the flows compute, so a refactor that changes
   a result fails tier-1 even though every other rule compares two runs of
   the same binary.

   Four sections, one line per result:
   - [kernel]: each of the paper's 21 kernel designs (the four kernels,
     Table 4 points D1-D15, the chained IDCT of 2 and 4 passes) under all
     three flows: total area as a hex float, steps, relaxations,
     area-recovery regrades, and the MD5 of the run's decision-event
     JSONL;
   - [corpus]: the journal record of every point of the first four
     manifest designs (all four CFG shapes, one pipelined, one large) over
     the CLI's auto grid;
   - [events]: the first 20 manifest designs (the benchmark's corpus
     workload: II 4 and 8, pipelined diamond and nest designs) at their
     manifest clock and II under all three flows, in the [kernel] format.
     Their per-edge re-budgeting is where the slack flow's timing engine
     does most of its work, and their pipelined designs fold resource
     booking modulo the II, so the decisions taken there are pinned, not
     only the records;
   - [ablation-NAME]: the four kernels under the conventional and slack
     flows with one non-default config knob each (see [ablations]), in
     the [kernel] format, so the config paths the default flows skip are
     pinned too.

   [test_golden.exe] compares against [results.golden] and names the first
   design whose line differs.  [test_golden.exe --write FILE] regenerates
   the file; a change to it is a change of results. *)

let kernel_designs () =
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
let all_flows = [ Flows.Conventional; Flows.Slowest_first; Flows.Slack_based ]

(* One non-default knob per ablation, everything else at the default. *)
let ablations =
  let d = Flows.default_config in
  let sharing = d.Flows.sharing and budget = d.Flows.budget_config in
  [
    ( "merge-add-sub",
      { d with Flows.sharing = { sharing with Flows.merge_add_sub = true } } );
    ( "width-buckets",
      { d with Flows.sharing = { sharing with Flows.width_buckets = true } } );
    ("discrete", { d with Flows.grading = Alloc.Discrete });
    ("no-rebudget", { d with Flows.rebudget_config = None });
    ("unaligned", { d with Flows.budget_config = { budget with Budget.aligned = false } });
  ]

(* Large enough that no kernel run drops an event. *)
let event_capacity = 1 lsl 20

let run_line ?config section (d : Hls.design) flow =
  Obs.Events.enable ~capacity:event_capacity ();
  let r = Hls.run ?config flow d in
  let events = Obs.Events.events () in
  Obs.Events.disable ();
  Obs.Events.clear ();
  if List.length events >= event_capacity then
    failwith (d.Hls.design_name ^ ": event ring overflowed");
  let md5 =
    Digest.to_hex
      (Digest.string (String.concat "\n" (List.map Obs.Events.to_jsonl_line events)))
  in
  let what = Printf.sprintf "%s %s/%s" section d.Hls.design_name (Flows.flow_name flow) in
  match r with
  | Ok h ->
    let rep = h.Hls.report in
    Printf.sprintf "%s area=%h steps=%d relax=%d regrades=%d events=%s" what
      (Hls.total_area h)
      (Schedule.steps_used rep.Flows.schedule)
      rep.Flows.relaxations rep.Flows.regrades md5
  | Error e -> Printf.sprintf "%s failed=%S events=%s" what (Flows.error_message e) md5

(* The CLI's auto grid for a corpus entry: 8 clocks around its period,
   both flows, its II constraint. *)
let auto_grid (e : Corpus.entry) =
  let clocks = List.init 8 (fun k -> e.Corpus.clock_ps *. (0.8 +. (0.1 *. float_of_int k))) in
  let iis = if e.Corpus.ii > 0 then [ Some e.Corpus.ii ] else [ None ] in
  match Explore_grid.make ~clocks ~flows ~iis ~recover:[ true ] () with
  | Ok g -> g
  | Error m -> failwith m

let corpus_lines (e : Corpus.entry) =
  let config = Flows.default_config in
  let o =
    Explore.run ~jobs:1 ~lib:Library.default ~config ~name:e.Corpus.name
      ~build:(fun () -> (Corpus.design e).Random_design.dfg)
      (auto_grid e)
  in
  let fingerprint = Explore.config_fingerprint config in
  List.map
    (fun (r : Explore.point_result) ->
      Printf.sprintf "corpus %s %s" e.Corpus.name
        (Eval_cache.entry_line
           (Eval_cache.key ~digest:o.Explore.digest ~lib:(Library.name Library.default)
              ~config:fingerprint ~point_key:r.Explore.pkey)
           r.Explore.summary))
    o.Explore.results

let event_lines (e : Corpus.entry) =
  let ii = if e.Corpus.ii > 0 then Some e.Corpus.ii else None in
  let d =
    Hls.design ?ii ~name:e.Corpus.name ~clock:e.Corpus.clock_ps
      (Corpus.design e).Random_design.dfg
  in
  List.map (run_line "events" d) all_flows

let ablation_lines kernels (name, config) =
  List.concat_map
    (fun d -> List.map (run_line ~config ("ablation-" ^ name) d) flows)
    kernels

let golden_lines () =
  let plan = Corpus.plan ~seed:42 () in
  let first n = List.filteri (fun i _ -> i < n) plan in
  let kernels = kernel_designs () in
  List.concat_map (fun d -> List.map (run_line "kernel" d) all_flows) kernels
  @ List.concat_map corpus_lines (first 4)
  @ List.concat_map event_lines (first 20)
  @ List.concat_map (ablation_lines (List.filteri (fun i _ -> i < 4) kernels)) ablations

let render lines = String.concat "" (List.map (fun l -> l ^ "\n") lines)
let golden_file = "results.golden"

(* "kernel idct/slack area=..." -> "idct/slack" *)
let design_of line =
  match String.split_on_char ' ' line with _ :: name :: _ -> name | _ -> line

let test_results_pinned () =
  let expected = In_channel.with_open_bin golden_file In_channel.input_all in
  let actual = golden_lines () in
  if render actual <> expected then begin
    let rec first_diff = function
      | a :: xs, b :: ys ->
        if a = b then first_diff (xs, ys)
        else Printf.sprintf "%s differs:\n  golden: %s\n  now:    %s" (design_of b) b a
      | a :: _, [] -> Printf.sprintf "%s is not in the golden file: %s" (design_of a) a
      | [], b :: _ -> Printf.sprintf "%s is missing: %s" (design_of b) b
      | [], [] -> "the files differ in line endings"
    in
    Alcotest.fail (first_diff (actual, String.split_on_char '\n' expected |> List.filter (( <> ) "")))
  end

let () =
  match Sys.argv with
  | [| _; "--write"; path |] ->
    Out_channel.with_open_bin path (fun oc -> output_string oc (render (golden_lines ())))
  | _ ->
    Alcotest.run "golden"
      [ ("golden", [ Alcotest.test_case "results pinned to the golden file" `Quick test_results_pinned ]) ]
