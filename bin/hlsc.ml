(* hlsc — command-line front end for the slackhls library.

   Subcommands:
     run      parse a behavioral source (or pick a built-in design), run a
              flow, print the schedule, allocation and area breakdown
     compare  run conventional and slack-based flows side by side
     slack    print the pre-schedule sequential-slack report
     emit     run a flow and write the Verilog rendering
     diff-events  align two provenance event files (JSONL) by sequence and
              report the first diverging event with context and a
              per-field payload diff
     explore  parallel design-space exploration: sweep a configuration grid
              (clocks x flows x initiation intervals x recovery policy) on
              a domain pool, fold the results into an area/delay Pareto
              frontier, optionally memoized in an on-disk evaluation cache
     corpus   generate or verify the seeded ~100-design validation corpus
              manifest (corpus/manifest.tsv); --verify exits non-zero on
              any digest drift
     sweep    sweep the grid over one design or a whole corpus:
              evaluate in-process or lease key ranges to hlsc serve
              daemons (--workers), journal the records into DIR/merged.jnl
              and fold the frontier; --shard i/N --journal FILE evaluates
              one key-range shard of a manual multi-machine sweep
     merge-journals  validate disjoint shard journals (config-fingerprint
              agreement, no cross-journal key overlap), collapse resume
              duplicates, and write one key-sorted merged journal
     fuzz     seeded random designs through every flow under validation
     dot      dump Graphviz renderings
     serve    supervised synthesis daemon: concurrent run/explore requests
              over a Unix or loopback TCP socket, sharing one warm cache
              and one domain pool, with per-request deadlines, admission
              control (load shedding past a high-water mark), crash
              containment with retry/backoff, and graceful drain on
              SIGTERM/SIGINT (exit 5 + journal, resumable by explore
              --resume)
     request  client for serve: send one request, print the response,
              exit by its status

   Every subcommand accepts --stats (per-phase telemetry report on stderr),
   --trace FILE (Chrome trace-event JSON), --validate LEVEL (phase-boundary
   invariant checking: off, boundary, paranoid) and --max-recoveries N (the
   scheduling retry-ladder bound).

   Exit codes:
     0  success
     1  internal error (I/O, trace emission; for diff-events: the streams
        diverge)
     2  usage error (bad flags, malformed source, invalid configuration —
        including a bad explore grid spec or a corrupt evaluation cache)
     3  validation failure (a pipeline invariant was violated)
     4  unrecoverable flow failure (scheduling failed after the full
        recovery ladder; for explore: every grid point failed, so the
        sweep produced an empty frontier)
     5  interrupted sweep (SIGINT/SIGTERM or --deadline fired before every
        point completed; the journal and partial renderings were flushed —
        re-run with --resume to finish)

   An explore sweep in which only some points fail exits 0: infeasible,
   timed-out and crashed points are data — the infeasible region of the
   tradeoff space — and are reported in the CSV/JSON/text outputs. *)

open Cmdliner

(* Failure classes, in increasing exit-code order; each carries the message
   printed on stderr. *)
type cli_error =
  | Internal of string
  | Usage of string
  | Validation of string
  | Flow_failed of string
  | Interrupted of string

let exit_code_of = function
  | Internal _ -> 1
  | Usage _ -> 2
  | Validation _ -> 3
  | Flow_failed _ -> 4
  | Interrupted _ -> 5

let message_of = function
  | Internal m | Usage m | Validation m | Flow_failed m | Interrupted m -> m

let classify_flow_error e =
  match e with
  | Flows.Invalid _ -> Usage (Flows.error_message e)
  | Flows.Validation_failed _ -> Validation (Flows.error_message e)
  | Flows.Sched_failed _ | Flows.Timed_out _ -> Flow_failed (Flows.error_message e)

let lib_of = function
  | "default" | "virt90" -> Ok Library.default
  | "ideal" | "idealized" -> Ok Library.idealized
  | s -> Error (Usage (Printf.sprintf "unknown library %S (try: default, ideal)" s))

let builtin_designs =
  [
    ("interpolation", fun () ->
        let ip = Interpolation.unrolled () in
        (ip.Interpolation.dfg, Interpolation.clock));
    ("resizer", fun () ->
        let r = Resizer.full () in
        (r.Resizer.dfg, 4000.0));
    ("idct", fun () ->
        let d = Idct.build ~latency:12 ~passes:1 () in
        (d.Idct.dfg, 2500.0));
    ("fir8", fun () ->
        let f = Fir.build ~taps:8 ~latency:6 () in
        (f.Fir.dfg, 2500.0));
  ]

let load_design ~source ~builtin ~clock =
  match (source, builtin) with
  | _ when Option.fold ~none:false ~some:(fun c -> not (Float.is_finite c) || c <= 0.0) clock ->
    Error (Usage "clock periods must be finite and positive")
  | Some path, None -> (
    match Parser.parse_file_result path with
    | Error d ->
      Error
        (Usage (Printf.sprintf "%s: syntax error: %s" path (Parser.diagnostic_message d)))
    | exception Sys_error m -> Error (Internal m)
    | Ok p -> (
      match Elaborate.elaborate p with
      | e ->
        let clock = Option.value ~default:2500.0 clock in
        Ok (Hls.design ~name:p.Ast.proc_name ~clock e.Elaborate.dfg)
      | exception Elaborate.Error m ->
        Error (Usage (Printf.sprintf "%s: elaboration error: %s" path m))))
  | None, Some name -> (
    match List.assoc_opt name builtin_designs with
    | Some mk ->
      let dfg, default_clock = mk () in
      Ok (Hls.design ~name ~clock:(Option.value ~default:default_clock clock) dfg)
    | None ->
      Error
        (Usage
           (Printf.sprintf "unknown builtin %S (try: %s)" name
              (String.concat ", " (List.map fst builtin_designs)))))
  | Some _, Some _ -> Error (Usage "pass either a source file or --design, not both")
  | None, None -> Error (Usage "pass a source file or --design NAME")

let flow_of s =
  match Flows.of_name s with
  | Some flow -> Ok flow
  | None ->
    Error (Usage (Printf.sprintf "unknown flow %S (try: conventional, slowest, slack)" s))

let config_of validate max_recoveries =
  match Check.level_of_string validate with
  | None ->
    Error
      (Usage
         (Printf.sprintf "unknown validation level %S (try: off, boundary, paranoid)"
            validate))
  | Some level ->
    if max_recoveries < 0 then Error (Usage "--max-recoveries must be non-negative")
    else
      Ok { Flows.default_config with Flows.validate = level; max_recoveries }

(* Common options *)

let source_arg =
  Arg.(value & pos ~rev:false 0 (some file) None & info [] ~docv:"SOURCE" ~doc:"Behavioral source file.")

let design_arg =
  Arg.(value & opt (some string) None & info [ "design"; "d" ] ~docv:"NAME"
         ~doc:"Built-in design: interpolation, resizer, idct, fir8.")

let clock_arg =
  Arg.(value & opt (some float) None & info [ "clock"; "c" ] ~docv:"PS"
         ~doc:"Clock period in picoseconds.")

let lib_arg =
  Arg.(value & opt string "default" & info [ "library"; "l" ] ~docv:"LIB"
         ~doc:"Technology library: default (with interconnect overheads) or ideal.")

let flow_arg =
  Arg.(value & opt string "slack" & info [ "flow"; "f" ] ~docv:"FLOW"
         ~doc:"Scheduling flow: conventional, slowest or slack (default).")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print a per-phase telemetry report (timings, counters, distributions) to stderr on exit.")

let events_arg =
  Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE"
         ~doc:"Write decision-provenance events (JSONL, one typed event per line: \
               slack recomputations, delay updates, per-edge scheduling, recovery \
               steps) on exit.  Replay with $(b,hlsc explain), compare runs with \
               $(b,hlsc diff-events).  Two identical runs write byte-identical \
               files.  Refuses to overwrite an existing file unless $(b,--force) \
               is given.")

let force_arg =
  Arg.(value & flag & info [ "force" ]
         ~doc:"Allow --events to overwrite an existing file.")

let crash_arg =
  Arg.(value & flag & info [ "no-crash-dump" ]
         ~doc:"Disable the crash flight recorder.  On internal-error and \
               flow-failure exits (codes 1 and 4) hlsc normally dumps its \
               last decision events, open span stack and counter snapshot \
               to hlsc-crash-<pid>.json in the working directory, so a \
               postmortem can name the phase the process died in.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace-event JSON file on exit (open in Perfetto or chrome://tracing).")

(* The telemetry flags every subcommand takes, as one term for [with_obs]. *)
type obs_flags = {
  stats : bool;
  trace : string option;
  events : string option;
  force : bool;
  no_crash : bool;
}

let obs_args =
  let make stats trace events force no_crash =
    { stats; trace; events; force; no_crash }
  in
  Term.(const make $ stats_arg $ trace_arg $ events_arg $ force_arg $ crash_arg)

let validate_arg =
  Arg.(value & opt string "boundary" & info [ "validate" ] ~docv:"LEVEL"
         ~doc:"Phase-boundary invariant checking: off, boundary (default) or paranoid.")

let max_recoveries_arg =
  Arg.(value & opt int 3 & info [ "max-recoveries" ] ~docv:"N"
         ~doc:"Bound on the scheduling recovery ladder (0 disables recovery).")

(* The crash flight recorder: on the two "something went wrong" exit
   paths (1 internal error, 4 unrecoverable flow failure) dump whatever
   the telemetry singleton holds — the event-ring tail, the open span
   stack (which names the phase that died), counters and distributions —
   to hlsc-crash-<pid>.json.  Best-effort by design: the dump must never
   turn a diagnosable failure into a worse one. *)
let write_crash_dump code =
  let path = Printf.sprintf "hlsc-crash-%d.json" (Unix.getpid ()) in
  try
    let snap = Obs.Telemetry.capture ~events_limit:256 () in
    let j =
      Obs.Json.Obj
        [
          ( "argv",
            Obs.Json.List
              (List.map (fun a -> Obs.Json.String a) (Array.to_list Sys.argv)) );
          ("exit_code", Obs.Json.Int code);
          ( "open_spans",
            Obs.Json.List
              (List.map (fun s -> Obs.Json.String s) (Obs.open_spans ())) );
          ("telemetry", Obs.Telemetry.to_json snap);
        ]
    in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (Obs.Json.to_string j);
        output_char oc '\n');
    Printf.eprintf "hlsc: crash flight record: %s\n" path
  with Sys_error _ | Unix.Unix_error _ -> ()

(* Enable the requested telemetry sinks, run [k], then emit the report
   and/or trace file.  Emission happens even when [k] fails, so a failing
   flow still leaves its telemetry behind for diagnosis. *)
let with_obs { stats; trace; events; force; no_crash } k =
  match events with
  | Some path when Sys.file_exists path && not force ->
    Printf.eprintf
      "hlsc: refusing to overwrite %s (an existing event file may be someone's \
       baseline); pass --force to replace it\n"
      path;
    2
  | _ ->
  if stats then Obs.enable_stats ();
  (match trace with Some _ -> Obs.enable_trace () | None -> ());
  (match events with Some _ -> Obs.Events.enable () | None -> ());
  (* GC deltas ride on the span sinks: profile whenever spans are timed. *)
  if stats || trace <> None then Obs.Prof.enable ();
  let code = k () in
  if stats then begin
    prerr_string (Obs.report ());
    let tt = Attrib.totals () in
    if tt.Attrib.touched > 0 then
      Printf.eprintf
        "attribution: %d edge relaxations, %d of them changed a value \
         -> wasted-work ratio %.1f%%\n"
        tt.Attrib.touched tt.Attrib.cone
        (100.0 *. Attrib.wasted_ratio tt)
  end;
  let code =
    match events with
    | None -> code
    | Some path -> (
      try
        Obs.Events.write_jsonl ~path;
        Printf.eprintf "hlsc: wrote %d events to %s\n"
          (List.length (Obs.Events.events ())) path;
        code
      with Sys_error m ->
        Printf.eprintf "hlsc: cannot write events: %s\n" m;
        if code = 0 then 1 else code)
  in
  let code =
    match trace with
    | None -> code
    | Some path -> (
      try
        Obs.write_trace ~path;
        Printf.eprintf "hlsc: wrote trace to %s\n" path;
        code
      with Sys_error m ->
        Printf.eprintf "hlsc: cannot write trace: %s\n" m;
        if code = 0 then 1 else code)
  in
  if (code = 1 || code = 4) && not no_crash then write_crash_dump code;
  code

let ( let* ) = Result.bind

let finish = function
  | Ok () -> 0
  | Error err ->
    Printf.eprintf "hlsc: %s\n" (message_of err);
    exit_code_of err

let report_result r =
  let sched = r.Hls.report.Flows.schedule in
  Format.printf "design %s: flow %s, clock %.0f ps@." r.Hls.design.Hls.design_name
    (Flows.flow_name r.Hls.report.Flows.flow)
    r.Hls.design.Hls.clock;
  Format.printf "%a@." Schedule.pp sched;
  Format.printf "%a@." Alloc.pp sched.Schedule.alloc;
  Format.printf "area: %a@." Area_model.pp_breakdown r.Hls.area;
  Format.printf "netlist: %a@." Netlist.pp_stats (Netlist.stats r.Hls.netlist);
  Format.printf "relaxations: %d, recovery re-grades: %d@." r.Hls.report.Flows.relaxations
    r.Hls.report.Flows.regrades;
  List.iter
    (fun a -> Format.printf "recovery: %a@." Flows.pp_recovery_attempt a)
    r.Hls.report.Flows.recovery_log;
  List.iter
    (fun v -> Format.printf "warning: %a@." Check.pp_violation v)
    r.Hls.report.Flows.violations

let run_cmd source builtin clock lib flow validate max_recoveries obs =
  with_obs obs @@ fun () ->
  finish
    (let* lib = lib_of lib in
     let* flow = flow_of flow in
     let* config = config_of validate max_recoveries in
     let* d = load_design ~source ~builtin ~clock in
     let* r = Result.map_error classify_flow_error (Hls.run ~lib ~config flow d) in
     Ok (report_result r))

let compare_cmd source builtin clock lib validate max_recoveries obs =
  with_obs obs @@ fun () ->
  finish
    (let* lib = lib_of lib in
     let* config = config_of validate max_recoveries in
     let* d = load_design ~source ~builtin ~clock in
     let c = Hls.compare_flows ~lib ~config d in
     let show label = function
       | Ok r ->
         Printf.printf "%s total area %.0f\n" label (Hls.total_area r);
         None
       | Error e ->
         Printf.printf "%s FAILED\n" label;
         Format.eprintf "hlsc: %s@." (Flows.error_message e);
         Some (classify_flow_error e)
     in
     let err_c = show "conventional:" c.Hls.conventional in
     let err_s = show "slack-based: " c.Hls.slack_based in
     (match c.Hls.saving_pct with
     | Some s -> Printf.printf "saving: %.1f%%\n" s
     | None -> ());
     match (err_c, err_s) with
     | None, None -> Ok ()
     | Some (Validation _ as e), _ | _, Some (Validation _ as e) -> Error e
     | Some e, _ | _, Some e -> Error e)

let slack_cmd source builtin clock lib validate max_recoveries obs =
  with_obs obs @@ fun () ->
  finish
    (let* lib = lib_of lib in
     let* config = config_of validate max_recoveries in
     let* d = load_design ~source ~builtin ~clock in
     let* () =
       (* The pre-schedule boundary: audit the DFG before analysing it. *)
       if Check.ge config.Flows.validate Check.Boundary then begin
         match Check.errors (Check.record (Check.dfg d.Hls.dfg)) with
         | [] -> Ok ()
         | errs -> Error (Validation (Check.summary errs))
       end
       else Ok ()
     in
     let del o =
       let op = Dfg.op d.Hls.dfg o in
       match Library.op_curve lib op.Dfg.kind ~width:op.Dfg.width with
       | Some c -> Curve.min_delay c
       | None -> 0.0
     in
     let res = Hls.analyze_slack ~aligned:true d ~del in
     Printf.printf "aligned sequential slack at fastest grades (clock %.0f ps):\n"
       d.Hls.clock;
     Dfg.iter_ops d.Hls.dfg (fun op ->
         match op.Dfg.kind with
         | Dfg.Const _ -> ()
         | _ ->
           let i = Dfg.Op_id.to_int op.Dfg.id in
           Printf.printf "  %-16s arr %8.1f  req %8.1f  slack %8.1f\n" op.Dfg.name
             res.Slack.arr.(i) res.Slack.req.(i) res.Slack.slack.(i));
     Printf.printf "min slack: %.1f ps -> %s\n" res.Slack.min_slack
       (if Slack.feasible res then "feasible (Prop. 1)" else "INFEASIBLE: relax latency or clock");
     Ok ())

let emit_cmd source builtin clock lib flow validate max_recoveries output obs =
  with_obs obs @@ fun () ->
  finish
    (let* lib = lib_of lib in
     let* flow = flow_of flow in
     let* config = config_of validate max_recoveries in
     let* d = load_design ~source ~builtin ~clock in
     let* r = Result.map_error classify_flow_error (Hls.run ~lib ~config flow d) in
     let path = Option.value ~default:(d.Hls.design_name ^ ".v") output in
     match Verilog.write_file ~module_name:d.Hls.design_name r.Hls.netlist ~path with
     | () ->
       Printf.printf "wrote %s\n" path;
       Ok ()
     | exception Sys_error m -> Error (Internal m))

let dot_cmd source builtin clock lib flow validate max_recoveries output obs =
  with_obs obs @@ fun () ->
  finish
    (let* lib = lib_of lib in
     let* flow = flow_of flow in
     let* config = config_of validate max_recoveries in
     let* d = load_design ~source ~builtin ~clock in
     let* r = Result.map_error classify_flow_error (Hls.run ~lib ~config flow d) in
     let sched = r.Hls.report.Flows.schedule in
     let spans = Dfg.compute_spans d.Hls.dfg in
     let base = Option.value ~default:d.Hls.design_name output in
     let dump suffix contents =
       let path = base ^ suffix in
       Dot.write_file contents ~path;
       Printf.printf "wrote %s\n" path
     in
     match
       dump ".cfg.dot" (Dot.cfg (Dfg.cfg d.Hls.dfg));
       dump ".dfg.dot" (Dot.dfg ~spans d.Hls.dfg);
       dump ".timed.dot" (Dot.timed_dfg (Timed_dfg.build d.Hls.dfg ~spans));
       dump ".sched.dot" (Dot.schedule sched)
     with
     | () -> Ok ()
     | exception Sys_error m -> Error (Internal m))

(* explore: resolve the design to a pure builder thunk — each pool worker
   rebuilds its own graph, so no DFG is shared across domains.  The first
   build happens here so configuration problems surface as usage errors
   before any domain is spawned. *)
let load_builder ~source ~builtin ~clock =
  match (source, builtin) with
  | Some path, None -> (
    match Parser.parse_file_result path with
    | Error d ->
      Error
        (Usage (Printf.sprintf "%s: syntax error: %s" path (Parser.diagnostic_message d)))
    | exception Sys_error m -> Error (Internal m)
    | Ok p -> (
      match Elaborate.elaborate p with
      | _ ->
        let build () =
          match Parser.parse_file_result path with
          | Ok p -> (Elaborate.elaborate p).Elaborate.dfg
          | Error d -> failwith (Parser.diagnostic_message d)
        in
        Ok (p.Ast.proc_name, Option.value ~default:2500.0 clock, build)
      | exception Elaborate.Error m ->
        Error (Usage (Printf.sprintf "%s: elaboration error: %s" path m))))
  | None, Some name -> (
    match List.assoc_opt name builtin_designs with
    | Some mk ->
      let _, default_clock = mk () in
      Ok (name, Option.value ~default:default_clock clock, fun () -> fst (mk ()))
    | None ->
      Error
        (Usage
           (Printf.sprintf "unknown builtin %S (try: %s)" name
              (String.concat ", " (List.map fst builtin_designs)))))
  | Some _, Some _ -> Error (Usage "pass either a source file or --design, not both")
  | None, None -> Error (Usage "pass a source file or --design NAME")

let grid_axis label parse spec = Result.map_error (fun m -> Usage (label ^ ": " ^ m)) (parse spec)

(* The --clocks axis; 'auto' is 8 periods from 0.8x to 1.5x the design's
   base clock. *)
let clock_axis ~base = function
  | "auto" -> Ok (List.init 8 (fun k -> base *. (0.8 +. (0.1 *. float_of_int k))))
  | spec -> grid_axis "--clocks" Explore_grid.parse_clocks spec

(* --shard i/N: 1-based rank over N disjoint key-range shards. *)
let parse_shard = function
  | None -> Ok None
  | Some spec -> (
    match String.split_on_char '/' spec with
    | [ i; n ] -> (
      match (int_of_string_opt i, int_of_string_opt n) with
      | Some i, Some n when n >= 1 && i >= 1 && i <= n -> Ok (Some (i, n))
      | _ ->
        Error
          (Usage
             (Printf.sprintf "--shard: %S is not i/N with 1 <= i <= N" spec)))
    | _ -> Error (Usage (Printf.sprintf "--shard: %S is not of the form i/N" spec)))

let write_rendering ~what path content =
  match path with
  | "-" ->
    print_string content;
    Ok ()
  | p -> (
    match
      let oc = open_out p in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc content)
    with
    | () ->
      Printf.printf "wrote %s %s\n" what p;
      Ok ()
    | exception Sys_error m -> Error (Internal m))

(* One design's renderings: the CSV and JSON files, then the summary. *)
let render_outcome ~csv ~json outcome =
  let* () =
    match csv with
    | Some path -> write_rendering ~what:"CSV" path (Explore.to_csv outcome)
    | None -> Ok ()
  in
  let* () =
    match json with
    | Some path -> write_rendering ~what:"JSON" path (Explore.to_json outcome)
    | None -> Ok ()
  in
  print_string (Explore.render_summary outcome);
  Ok ()

let check_frontier outcome =
  if outcome.Explore.total > 0 && outcome.Explore.frontier = [] then
    Error
      (Flow_failed
         (Printf.sprintf "all %d grid points failed; frontier is empty"
            outcome.Explore.total))
  else Ok ()

let explore_cmd source builtin clock lib validate max_recoveries clocks flows iis
    recover jobs cache_file point_deadline deadline retries strict journal_file
    resume_file csv json obs progress =
  with_obs obs @@ fun () ->
  finish
    (let* lib = lib_of lib in
     let* config = config_of validate max_recoveries in
     let* name, base_clock, build = load_builder ~source ~builtin ~clock in
     let* clocks = clock_axis ~base:base_clock clocks in
     let* flows = grid_axis "--flows" Explore_grid.parse_flows flows in
     let* iis = grid_axis "--ii" Explore_grid.parse_iis iis in
     let* recover = grid_axis "--recover" Explore_grid.parse_recover recover in
     let* grid =
       Result.map_error (fun m -> Usage m)
         (Explore_grid.make ~clocks ~flows ~iis ~recover ())
     in
     let* jobs =
       if jobs < 0 then Error (Usage "--jobs must be non-negative")
       else Ok (if jobs = 0 then None else Some jobs)
     in
     let* () =
       if retries < 0 then Error (Usage "--retries must be non-negative") else Ok ()
     in
     let* () =
       match point_deadline with
       | Some s when s < 0.0 -> Error (Usage "--point-deadline must be non-negative")
       | _ -> Ok ()
     in
     let* () =
       match deadline with
       | Some s when s < 0.0 -> Error (Usage "--deadline must be non-negative")
       | _ -> Ok ()
     in
     let* cache =
       match cache_file with
       | None -> Ok None
       | Some path ->
         Result.fold
           ~ok:(fun c -> Ok (Some c))
           ~error:(fun m -> Error (Usage m))
           (Eval_cache.load ~path)
     in
     (* --journal starts a fresh checkpoint file; --resume loads an
        interrupted sweep's journal, skips its completed points and keeps
        appending to the same file. *)
     let* journal_path, fresh, resume =
       match (journal_file, resume_file) with
       | Some _, Some _ -> Error (Usage "pass --journal or --resume, not both")
       | Some path, None -> Ok (Some path, true, [])
       | None, Some path ->
         Result.fold
           ~ok:(fun (entries, quarantined) ->
             if quarantined > 0 then
               Printf.eprintf "hlsc: %s: quarantined %d corrupt journal record%s\n"
                 path quarantined (if quarantined = 1 then "" else "s");
             Ok (Some path, false, entries))
           ~error:(fun m -> Error (Usage m))
           (Eval_cache.load_journal ~path)
       | None, None -> Ok (None, true, [])
     in
     let* journal =
       match journal_path with
       | None -> Ok None
       | Some path -> (
         match Eval_cache.start ~path ~fresh with
         | w -> Ok (Some w)
         | exception Unix.Unix_error (e, _, _) ->
           Error (Internal (path ^ ": " ^ Unix.error_message e)))
     in
     (* The sweep-level token: fed by --deadline and by SIGINT/SIGTERM.
        Workers poll it before claiming points, so a fired token drains
        in-flight evaluations, journals them, and leaves the rest pending. *)
     let cancel =
       match deadline with
       | Some seconds -> Cancel.after ~seconds
       | None -> Cancel.manual ()
     in
     let on_signal name =
       Sys.Signal_handle (fun _ -> Cancel.trigger ~reason:name cancel)
     in
     let prev_int = Sys.signal Sys.sigint (on_signal "SIGINT") in
     let prev_term = Sys.signal Sys.sigterm (on_signal "SIGTERM") in
     (* --progress: live lines from Worker_sample events.  The hook runs
        under the obs mutex inside worker domains, so it only formats to
        stderr — no Obs calls.  Throttled to one line per second. *)
     (if progress then begin
        let total = Explore_grid.size grid in
        let t_start = Obs.now_ns () in
        let last_line = ref Int64.min_int in
        let points_done = ref 0 in
        Obs.Events.enable ();
        Obs.Events.set_hook
          (Some
             (fun ev ->
               match ev.Obs.Events.payload with
               | Obs.Events.Worker_sample { domain; tasks_done; utilization; _ } ->
                 (* One sample per completed task: the sample count is the
                    sweep-wide completion count. *)
                 incr points_done;
                 let now = Obs.now_ns () in
                 if
                   Int64.sub now !last_line >= 1_000_000_000L
                   || !points_done >= total
                 then begin
                   last_line := now;
                   let elapsed = Int64.to_float (Int64.sub now t_start) /. 1e9 in
                   let rate = float_of_int !points_done /. Float.max 1e-9 elapsed in
                   let eta =
                     float_of_int (max 0 (total - !points_done)) /. Float.max 1e-9 rate
                   in
                   Printf.eprintf
                     "hlsc: explore: %d/%d points done (worker %d: %d done, %.0f%% \
                      busy), ETA %.1fs\n%!"
                     !points_done total domain tasks_done (100.0 *. utilization) eta
                 end
               | _ -> ()))
      end);
     let* outcome =
       match
         Fun.protect
           ~finally:(fun () ->
             Obs.Events.set_hook None;
             Sys.set_signal Sys.sigint prev_int;
             Sys.set_signal Sys.sigterm prev_term;
             Option.iter Eval_cache.close journal)
           (fun () ->
             Explore.run ?jobs ~retries ~strict ?point_deadline ~cancel ?cache
               ?journal ~resume ~lib ~config ~name ~build grid)
       with
       | outcome -> Ok outcome
       | exception e ->
         (* --strict re-raises the first crash after the journal has every
            completed point; surface it as an internal error. *)
         Error (Internal (Printf.sprintf "sweep crashed: %s" (Printexc.to_string e)))
     in
     let* () =
       match (cache, cache_file) with
       | Some c, Some path -> (
         match Eval_cache.save c ~path with
         | () -> Ok ()
         | exception Sys_error m -> Error (Internal m))
       | _ -> Ok ()
     in
     let* () = render_outcome ~csv ~json outcome in
     if Explore.partial outcome then
       Error
         (Interrupted
            (Printf.sprintf
               "sweep interrupted (%s): %d of %d points pending%s"
               (Option.value ~default:"cancelled" (Cancel.reason cancel))
               outcome.Explore.pending outcome.Explore.total
               (match journal_path with
               | Some p -> Printf.sprintf "; resume with --resume %s" p
               | None -> "")))
     else check_frontier outcome)

(* Grid fuzzing: random spec strings (valid, degenerate and garbage
   fragments) through the Explore_grid parsers — which must reject bad
   input with [Error], never raise — and a few of the accepted small grids
   through real sweeps under paranoid validation. *)
(* Per-axis fragment pools, weighted toward valid items (repeated entries)
   so a useful fraction of the generated grids is accepted and can be swept
   — while still covering degenerate ranges, garbage tokens and whitespace. *)
let clock_pieces =
  [|
    "2500"; "2500"; "2400:2800:200"; "2400:2800:200"; "2500:2500:1"; " 2600 ";
    "3000:2000:100"; "1:2:0"; "0"; "-1"; "1:1000000000:1"; "nan"; "inf";
    "bogus"; "";
  |]

let flow_pieces =
  [| "conv"; "slack"; "slowest"; "all"; "conv"; "slack"; "conventional"; "bogus"; "" |]

let ii_pieces =
  [| "none"; "none"; "4"; "2:8:2"; "none"; "8:2"; "0:4"; "0"; "-3"; "bogus"; "" |]

let recover_pieces = [| "on"; "off"; "both"; "on"; "off"; "bogus"; ""; "on,off" |]

let fuzz_grids ~lib ~config ~grids ~seed =
  let rng = Splitmix.create ((seed * 7919) + 17) in
  let spec pieces =
    let n = 1 + Splitmix.int rng 2 in
    String.concat "," (List.init n (fun _ -> Splitmix.choose rng pieces))
  in
  let accepted = ref 0 and rejected = ref 0 and swept = ref 0 in
  let violations = ref [] in
  for _trial = 1 to grids do
    let clocks = spec clock_pieces and flows = spec flow_pieces in
    let iis = spec ii_pieces in
    let recover = Splitmix.choose rng recover_pieces in
    match Explore_grid.of_specs ~clocks ~flows ~iis ~recover () with
    | Error _ -> incr rejected
    | Ok grid ->
      incr accepted;
      (* Sweep a handful of the small accepted grids end to end: statuses
         are data, so the only failure mode that counts is a raise. *)
      if !swept < 3 && Explore_grid.size grid <= 8 then begin
        incr swept;
        let build () =
          let f = Fir.build ~taps:4 ~latency:4 () in
          f.Fir.dfg
        in
        match
          Explore.run ~jobs:2 ~lib ~config ~name:"fuzz-grid" ~build grid
        with
        | (_ : Explore.outcome) -> ()
        | exception e ->
          violations :=
            Printf.sprintf
              "grid sweep (clocks=%S flows=%S ii=%S recover=%S) raised: %s"
              clocks flows iis recover (Printexc.to_string e)
            :: !violations
      end
    | exception e ->
      violations :=
        Printf.sprintf
          "grid parse (clocks=%S flows=%S ii=%S recover=%S) raised: %s" clocks
          flows iis recover (Printexc.to_string e)
        :: !violations
  done;
  Printf.printf
    "fuzz grids: %d specs: %d accepted, %d rejected, %d swept, %d violations\n"
    grids !accepted !rejected !swept
    (List.length !violations);
  List.rev !violations

(* Fuzz: seeded random designs through every flow.  Scheduling failures are
   tolerated (tight random designs may be legitimately infeasible — the
   ladder transcript says the system degraded gracefully); invariant
   violations and crashes are not. *)
let fuzz_cmd count seed lib validate max_recoveries grids obs =
  with_obs obs @@ fun () ->
  finish
    (let* lib = lib_of lib in
     let* config = config_of validate max_recoveries in
     if count <= 0 then Error (Usage "--count must be positive")
     else if grids < 0 then Error (Usage "--grids must be non-negative")
     else begin
       let designs = Random_design.suite ~count ~seed () in
       let ok = ref 0 and sched_fails = ref 0 and recovered = ref 0 in
       let violations = ref [] in
       List.iter
         (fun (d : Random_design.t) ->
           List.iter
             (fun flow ->
               let design =
                 Hls.design ~name:d.Random_design.name
                   ~clock:d.Random_design.suggested_clock d.Random_design.dfg
               in
               match Hls.run ~lib ~config flow design with
               | Ok r ->
                 incr ok;
                 if r.Hls.report.Flows.recovery_log <> [] then incr recovered
               | Error (Flows.Sched_failed _) | Error (Flows.Timed_out _) ->
                 incr sched_fails
               | Error (Flows.Invalid _ as e) | Error (Flows.Validation_failed _ as e)
                 ->
                 violations :=
                   Printf.sprintf "%s/%s: %s" d.Random_design.name
                     (Flows.flow_name flow) (Flows.error_message e)
                   :: !violations)
             Flows.all)
         designs;
       Printf.printf
         "fuzz: %d designs x %d flows: %d ok (%d via recovery), %d infeasible, %d violations\n"
         count (List.length Flows.all) !ok !recovered !sched_fails
         (List.length !violations);
       let grid_violations =
         if grids > 0 then fuzz_grids ~lib ~config ~grids ~seed else []
       in
       match List.rev !violations @ grid_violations with
       | [] -> Ok ()
       | vs -> Error (Validation (String.concat "\n" vs))
     end)

(* explain: replay a provenance event file into one operation's decision
   timeline — its slack history across budgeting rounds, every delay-grade
   update (with the phase that made it), and its final schedule state. *)
let explain_cmd file op_name obs =
  with_obs obs @@ fun () ->
  finish
    (let module E = Obs.Events in
     let* path =
       match file with
       | Some p -> Ok p
       | None -> Error (Usage "pass an event file (written with --events FILE)")
     in
     let* op =
       match op_name with
       | Some o -> Ok o
       | None -> Error (Usage "pass --op NAME (an operation name from the design)")
     in
     (* The tagged loader accepts plain single-process files and merged
        fleet files alike (per-stream seq monotonicity checked); explain
        then replays the flattened timeline. *)
     let* tagged =
       match E.load_tagged ~path with
       | Ok tevs -> Ok tevs
       | Error m -> Error (Usage (Printf.sprintf "%s: %s" path m))
       | exception Sys_error m -> Error (Internal m)
     in
     let streams =
       List.sort_uniq compare
         (List.filter_map (fun (te : E.tagged) -> te.E.stream) tagged)
     in
     let evs = List.map (fun (te : E.tagged) -> te.E.event) tagged in
     let seen = Hashtbl.create 64 in
     let note o = if not (Hashtbl.mem seen o) then Hashtbl.replace seen o () in
     List.iter
       (fun (e : E.t) ->
         match e.E.payload with
         | E.Slack_computed { op; _ } | E.Delay_update { op; _ } | E.Op_picked { op; _ }
           ->
           note op
         | E.Budget_round _ | E.Edge_scheduled _ | E.Recovery_step _
         | E.Worker_sample _ | E.Serve_sample _ | E.Dispatch_sample _ ->
           ())
       evs;
     if not (Hashtbl.mem seen op) then begin
       let names =
         Hashtbl.fold (fun k () acc -> k :: acc) seen []
         |> List.sort_uniq String.compare
       in
       let preview =
         match names with
         | [] -> "no op-level events in the file"
         | _ ->
           let shown = List.filteri (fun i _ -> i < 24) names in
           Printf.sprintf "%d ops seen: %s%s" (List.length names)
             (String.concat ", " shown)
             (if List.length names > 24 then ", ..." else "")
       in
       Error (Usage (Printf.sprintf "op %S not found in %s (%s)" op path preview))
     end
     else begin
       Printf.printf "timeline for op %s (from %s, %d events%s)\n" op path
         (List.length evs)
         (if streams = [] then ""
          else Printf.sprintf ", %d worker stream%s" (List.length streams)
                 (if List.length streams = 1 then "" else "s"));
       let final_delay = ref None in
       let placement = ref None in
       List.iter
         (fun (e : E.t) ->
           match e.E.payload with
           | E.Slack_computed { op = o; phase; round; slack_ps } when String.equal o op
             ->
             Printf.printf "  [%6d] %-8s round %2d: slack %8.1f ps\n" e.E.seq phase
               round slack_ps
           | E.Delay_update { op = o; phase; round; from_ps; to_ps }
             when String.equal o op ->
             final_delay := Some to_ps;
             Printf.printf "  [%6d] %-8s round %2d: delay %8.1f -> %8.1f ps\n" e.E.seq
               phase round from_ps to_ps
           | E.Op_picked { op = o; edge; step; priority; ready_set_size }
             when String.equal o op ->
             placement := Some (edge, step);
             Printf.printf
               "  [%6d] sched: picked on edge %d step %d (priority %.1f, %d ready)\n"
               e.E.seq edge step priority ready_set_size
           | E.Recovery_step { rung; outcome } ->
             (* Ladder steps reshape every op's story; always shown. *)
             Printf.printf "  [%6d] recovery ladder: %s -> %s\n" e.E.seq rung outcome
           | _ -> ())
         evs;
       (match !final_delay with
       | Some d -> Printf.printf "final grade: %.1f ps\n" d
       | None -> Printf.printf "final grade: unchanged (no delay updates for this op)\n");
       (match !placement with
       | Some (edge, step) ->
         Printf.printf "schedule state: placed on edge %d, step %d\n" edge step
       | None ->
         Printf.printf
           "schedule state: never picked (inspect Edge_scheduled deferrals)\n");
       Ok ()
     end)

(* diff-events: positional comparison of two provenance streams that should
   be identical (full recompute vs incremental replay, or two runs of the
   same configuration).  The first diverging event — shown with +-K context
   and a per-field payload diff — is where the runs' decisions split. *)
let diff_events_cmd file_a file_b context obs =
  with_obs obs @@ fun () ->
  finish
    (let module E = Obs.Events in
     let* path_a, path_b =
       match (file_a, file_b) with
       | Some a, Some b -> Ok (a, b)
       | _ -> Error (Usage "pass two event files (written with --events FILE)")
     in
     let* () =
       if context < 0 then Error (Usage "--context must be non-negative") else Ok ()
     in
     (* Tagged loading makes merged fleet provenance files first-class
        diff inputs: a stream-tag mismatch diverges like any payload
        field, and per-stream seq monotonicity is checked on load. *)
     let load path =
       match E.load_tagged ~path with
       | Ok evs -> Ok evs
       | Error m -> Error (Usage (Printf.sprintf "%s: %s" path m))
       | exception Sys_error m -> Error (Usage m)
     in
     let* evs_a = load path_a in
     let* evs_b = load path_b in
     let line (te : E.tagged) =
       match te.E.stream with
       | Some s -> E.tagged_to_jsonl_line ~stream:s te.E.event
       | None -> E.to_jsonl_line te.E.event
     in
     match E.diff_tagged evs_a evs_b with
     | None ->
       Printf.printf "identical: %d events\n" (List.length evs_a);
       Ok ()
     | Some d ->
       let arr_a = Array.of_list evs_a and arr_b = Array.of_list evs_b in
       Printf.printf "--- A: %s (%d events)\n" path_a (Array.length arr_a);
       Printf.printf "+++ B: %s (%d events)\n" path_b (Array.length arr_b);
       (* Leading context comes from A; the streams agree on it by
          construction (everything before the divergence index is equal). *)
       for i = max 0 (d.E.index - context) to d.E.index - 1 do
         Printf.printf "  [%d] %s\n" i (line arr_a.(i))
       done;
       (match d.E.a with
       | Some e -> Printf.printf "- [%d] %s\n" d.E.index (E.to_jsonl_line e)
       | None -> Printf.printf "- <A ends: %d events>\n" (Array.length arr_a));
       (match d.E.b with
       | Some e -> Printf.printf "+ [%d] %s\n" d.E.index (E.to_jsonl_line e)
       | None -> Printf.printf "+ <B ends: %d events>\n" (Array.length arr_b));
       List.iter
         (fun f ->
           Printf.printf "    field %s: %s /= %s\n" f.E.field f.E.a_val f.E.b_val)
         d.E.fields;
       (* Trailing context from whichever stream still has events: after the
          divergence the streams are unaligned, so each side is shown. *)
       let trail label arr =
         let lo = d.E.index + 1 in
         let hi = min (Array.length arr) (lo + context) in
         for i = lo to hi - 1 do
           Printf.printf "  %s[%d] %s\n" label i (line arr.(i))
         done
       in
       trail "A" arr_a;
       trail "B" arr_b;
       let seq =
         match (d.E.a, d.E.b) with
         | Some e, _ | None, Some e -> e.E.seq
         | None, None -> d.E.index
       in
       Error
         (Internal
            (Printf.sprintf "event streams diverge at seq %d (index %d, %d field%s)"
               seq d.E.index (List.length d.E.fields)
               (if List.length d.E.fields = 1 then "" else "s"))))

let diff_a_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"A"
         ~doc:"First provenance event file (JSONL) written by --events.")

let diff_b_arg =
  Arg.(value & pos 1 (some string) None & info [] ~docv:"B"
         ~doc:"Second provenance event file to compare against.")

let diff_context_arg =
  Arg.(value & opt int 3 & info [ "context"; "C" ] ~docv:"K"
         ~doc:"Events of context to print around the divergence (default 3).")

let explain_file_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"EVENTS"
         ~doc:"Provenance event file (JSONL) written by --events.")

let explain_op_arg =
  Arg.(value & opt (some string) None & info [ "op" ] ~docv:"NAME"
         ~doc:"Operation name to explain (e.g. m_x0c4 in the idct design).")

(* ------------------------------------------------------------------ *)
(* serve / request: the synthesis daemon and its client *)

let socket_arg =
  Arg.(value & opt string "hlsc.sock" & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket path to listen on (default hlsc.sock).")

let port_arg =
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT"
         ~doc:"Listen on loopback TCP instead of the Unix socket.")

let serve_jobs_arg =
  Arg.(value & opt int 2 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Worker domains in the shared evaluation pool (default 2); \
               every request's points are multiplexed onto it.")

let high_water_arg =
  Arg.(value & opt int 4 & info [ "high-water" ] ~docv:"N"
         ~doc:"Admission-control bound: past N requests in flight, new work \
               is shed with an 'overloaded' response and a retry-after hint \
               instead of queueing unboundedly.")

let drain_deadline_arg =
  Arg.(value & opt float 30.0 & info [ "drain-deadline" ] ~docv:"SECONDS"
         ~doc:"On SIGTERM/SIGINT or a shutdown request: stop accepting, then \
               wait up to this long for in-flight requests before exiting.")

let read_timeout_arg =
  Arg.(value & opt float 5.0 & info [ "read-timeout" ] ~docv:"SECONDS"
         ~doc:"Mid-frame stall budget per connection: a request that starts \
               arriving and then stops flowing for this long is answered \
               with an error and the connection is closed.  Idle keep-alive \
               connections are unaffected.")

let serve_deadline_arg =
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS"
         ~doc:"Default per-request deadline for requests that do not carry \
               their own; a fired deadline yields a timed_out/partial \
               response, never a wedged connection.")

let serve_retries_arg =
  Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N"
         ~doc:"Re-run a request's crashed points up to N times with \
               exponential backoff before reporting them crashed.")

let backoff_arg =
  Arg.(value & opt float 0.05 & info [ "backoff" ] ~docv:"SECONDS"
         ~doc:"Base of the exponential retry backoff; also the retry-after \
               hint sent with 'overloaded' responses.")

let once_arg =
  Arg.(value & flag & info [ "once" ]
         ~doc:"Self-test mode: start on a private socket in a temp \
               directory, run the scripted --request(s) through an \
               in-process client, print each response, drain, and exit \
               with the combined status.")

let request_script_arg =
  Arg.(value & opt string "{\"op\":\"ping\"}" & info [ "request" ] ~docv:"JSON"
         ~doc:"Request payload(s) for --once, one JSON object per line.")

let drain_after_points_arg =
  Arg.(value & opt (some int) None & info [ "drain-after-points" ] ~docv:"K"
         ~doc:"Testing hook: trigger a drain after exactly K completed point \
               evaluations — a deterministic mid-sweep SIGTERM.")

let serve_corpus_arg =
  Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"MANIFEST"
         ~doc:"Also resolve every design of a corpus manifest by name, so \
               this daemon can act as a worker for distributed corpus \
               sweeps (hlsc sweep --corpus ... --workers ...).")

let metrics_arg =
  Arg.(value & opt (some int) None & info [ "metrics" ] ~docv:"PORT"
         ~doc:"Expose the daemon's counters and per-op latency \
               distributions in Prometheus text format over loopback HTTP \
               on this port (0 picks a free one; the startup line on \
               stderr names it).  The scrape endpoint lives and dies with \
               the daemon; poll a whole fleet at once with $(b,hlsc top).")

let serve_telemetry_arg =
  Arg.(value & flag & info [ "telemetry" ]
         ~doc:"Collect shippable telemetry (request spans, decision \
               events, GC samples) and attach a heartbeat-sized snapshot \
               to health replies; the full ledger always answers the \
               telemetry op.  A sweep supervisor merges these snapshots \
               into its fleet trace, counter namespace and provenance \
               file.")

let address_name = function
  | Server.Unix_sock p -> p
  | Server.Tcp p -> Printf.sprintf "127.0.0.1:%d" p

let serve_cmd socket port lib validate max_recoveries jobs high_water
    drain_deadline read_timeout deadline point_deadline retries backoff
    journal_file cache_file corpus once request_script drain_after_points metrics
    telemetry obs =
  with_obs obs @@ fun () ->
  let cfg =
    let* lib = lib_of lib in
    let* config = config_of validate max_recoveries in
    (* --corpus: make every manifest design resolvable by name, so this
       daemon can serve shard_explore leases of a distributed corpus
       sweep without pre-registration.  Resolution is lazy — the design
       is only (re)generated when a lease actually names it. *)
    let* resolver =
      match corpus with
      | None -> Ok None
      | Some path ->
        let* _seed, entries =
          Result.map_error (fun m -> Usage (path ^ ": " ^ m)) (Corpus.load ~path)
        in
        let tbl = Hashtbl.create (List.length entries) in
        List.iter
          (fun (e : Corpus.entry) ->
            Hashtbl.replace tbl e.Corpus.name (fun () ->
                ((Corpus.design e).Random_design.dfg, e.Corpus.clock_ps)))
          entries;
        Ok (Some (fun name -> Hashtbl.find_opt tbl name))
    in
    let* () = if jobs < 1 then Error (Usage "--jobs must be at least 1") else Ok () in
    let* () =
      if high_water < 1 then Error (Usage "--high-water must be at least 1")
      else Ok ()
    in
    let* () =
      if retries < 0 then Error (Usage "--retries must be non-negative") else Ok ()
    in
    let address =
      match port with Some p -> Server.Tcp p | None -> Server.Unix_sock socket
    in
    Ok
      {
        Server.default_config with
        Server.address;
        jobs;
        high_water;
        drain_deadline;
        read_timeout;
        default_deadline = deadline;
        point_deadline;
        request_retries = retries;
        backoff;
        lib;
        flow_config = config;
        designs = List.map (fun (n, mk) -> (n, mk)) builtin_designs;
        resolver;
        journal_path = journal_file;
        cache_path = cache_file;
        drain_after_points;
        telemetry;
        metrics_port = metrics;
      }
  in
  (* --telemetry turns the passive sinks on: spans, decision events and GC
     samples all feed the snapshots this daemon ships to its supervisor. *)
  if telemetry then begin
    Obs.enable_trace ();
    Obs.Events.enable ();
    Obs.Prof.enable ()
  end;
  match cfg with
  | Error err ->
    Printf.eprintf "hlsc: %s\n" (message_of err);
    exit_code_of err
  | Ok cfg ->
    if once then begin
      match Server.once cfg ~request_json:request_script with
      | Error m ->
        Printf.eprintf "hlsc: %s\n" m;
        1
      | Ok (responses, daemon_code) ->
        List.iter (fun (body, _) -> print_endline body) responses;
        let worst = List.fold_left (fun acc (_, c) -> max acc c) 0 responses in
        (* A daemon that drained with resumable work owes its caller the
           exit-5 resume contract even when every response was answered. *)
        if daemon_code = 5 then 5 else worst
    end
    else begin
      match Server.start cfg with
      | Error m ->
        Printf.eprintf "hlsc: %s\n" m;
        1
      | Ok t ->
        let on_signal name =
          Sys.Signal_handle (fun _ -> Server.drain ~reason:name t)
        in
        let prev_int = Sys.signal Sys.sigint (on_signal "SIGINT") in
        let prev_term = Sys.signal Sys.sigterm (on_signal "SIGTERM") in
        Printf.eprintf
          "hlsc serve: listening on %s (%d worker domain%s, high water %d)\n%!"
          (address_name cfg.Server.address)
          cfg.Server.jobs
          (if cfg.Server.jobs = 1 then "" else "s")
          cfg.Server.high_water;
        (match Server.metrics_port t with
        | Some p ->
          Printf.eprintf "hlsc serve: metrics on http://127.0.0.1:%d/metrics\n%!" p
        | None -> ());
        let code = Server.serve t in
        Sys.set_signal Sys.sigint prev_int;
        Sys.set_signal Sys.sigterm prev_term;
        code
    end

let req_host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST"
         ~doc:"Daemon host when using --port.")

let req_op_arg =
  Arg.(value & pos 0 string "ping" & info [] ~docv:"OP"
         ~doc:"Request: ping, stats, telemetry, shutdown, run or explore.")

let req_json_arg =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"JSON"
         ~doc:"Send this raw payload instead of building one from the flags.")

let req_id_arg =
  Arg.(value & opt string "" & info [ "id" ] ~docv:"ID"
         ~doc:"Request id, echoed in the response.")

let req_design_arg =
  Arg.(value & opt (some string) None & info [ "design"; "d" ] ~docv:"NAME"
         ~doc:"Built-in design name for run/explore requests.")

let request_cmd socket host port op json id design clock flow clocks flows iis
    recover deadline point_deadline retry obs =
  with_obs obs @@ fun () ->
  let addr =
    match port with
    | Some p -> Client.Tcp (host, p)
    | None -> Client.Unix_path socket
  in
  let payload =
    match json with
    | Some j -> Ok j
    | None ->
      let* req =
        match op with
        | "ping" -> Ok Protocol.Ping
        | "stats" -> Ok Protocol.Stats
        | "telemetry" -> Ok Protocol.Telemetry
        | "shutdown" -> Ok Protocol.Shutdown
        | "run" -> (
          match design with
          | Some d -> Ok (Protocol.Run { design = d; clock; flow })
          | None -> Error (Usage "run requests need --design"))
        | "explore" -> (
          match design with
          | Some d ->
            Ok
              (Protocol.Explore
                 {
                   design = d;
                   clocks = (if clocks = "auto" then "2000:3000:100" else clocks);
                   flows;
                   iis;
                   recover;
                   point_deadline;
                 })
          | None -> Error (Usage "explore requests need --design"))
        | s ->
          Error
            (Usage
               (Printf.sprintf
                  "unknown request %S (try: ping, stats, telemetry, shutdown, \
                   run, explore)"
                  s))
      in
      Ok
        (Obs.Json.to_string
           (Protocol.request_to_json
              { Protocol.id; deadline_s = deadline; trace = None; req }))
  in
  match payload with
  | Error err ->
    Printf.eprintf "hlsc: %s\n" (message_of err);
    exit_code_of err
  | Ok _ when retry < 0 ->
    Printf.eprintf "hlsc: --retry must be non-negative\n";
    2
  | Ok payload -> (
    (* Give the server its own deadline plus slack before the client gives
       up; with no deadline the client waits as long as the sweep takes. *)
    let client_deadline = Option.map (fun s -> s +. 30.0) deadline in
    let on_retry ~attempt ~wait =
      Printf.eprintf
        "hlsc: daemon overloaded; retrying in %.2fs (attempt %d of %d)\n%!" wait
        attempt retry
    in
    match
      Client.one_shot_retry ?deadline_s:client_deadline ~retries:retry ~on_retry
        addr payload
    with
    | Error m ->
      Printf.eprintf "hlsc: %s\n" m;
      1
    | Ok body -> (
      print_endline body;
      match Protocol.response_status body with
      | Ok (status, _) -> Protocol.exit_code_of_status status
      | Error m ->
        Printf.eprintf "hlsc: %s\n" m;
        1))

(* ------------------------------------------------------------------ *)
(* corpus / sweep / merge-journals: the 100-design corpus, sweeps over it
   and sharded journals *)

let corpus_cmd out seed count verify obs =
  with_obs obs @@ fun () ->
  finish
    (if verify then
       match Corpus.verify ~path:out with
       | Ok n ->
         Printf.printf "corpus %s: OK, %d designs reproduce bit-exactly\n" out n;
         Ok ()
       | Error m ->
         (* A manifest that fails to parse/load is a usage problem; a
            manifest whose digests no longer reproduce is drift — the
            validation exit, so CI distinguishes the two. *)
         if Sys.file_exists out then Error (Validation (out ^ ": " ^ m))
         else Error (Usage (out ^ ": " ^ m))
     else if count <= 0 then Error (Usage "--count must be positive")
     else
       let entries = Corpus.plan ~count ~seed () in
       match Corpus.save ~path:out ~seed entries with
       | exception Sys_error m -> Error (Internal m)
       | () ->
         Printf.printf "wrote %s: %d designs (seed %d)\n" out count seed;
         let t =
           Text_table.create ~headers:[ "class"; "designs"; "ops (min-max)"; "shapes" ]
         in
         List.iter
           (fun k ->
             let of_k =
               List.filter (fun (e : Corpus.entry) -> e.Corpus.klass = k) entries
             in
             if of_k <> [] then begin
               let ops = List.map (fun (e : Corpus.entry) -> e.Corpus.ops) of_k in
               let shapes =
                 List.filter_map
                   (fun s ->
                     let n =
                       List.length
                         (List.filter
                            (fun (e : Corpus.entry) -> e.Corpus.shape = s)
                            of_k)
                     in
                     if n > 0 then
                       Some (Printf.sprintf "%s:%d" (Random_design.shape_name s) n)
                     else None)
                   Random_design.all_shapes
               in
               Text_table.add_row t
                 [
                   Corpus.klass_name k;
                   string_of_int (List.length of_k);
                   Printf.sprintf "%d-%d"
                     (List.fold_left min max_int ops)
                     (List.fold_left max 0 ops);
                   String.concat " " shapes;
                 ]
             end)
           Corpus.all_klasses;
         print_string (Text_table.render t);
         Ok ())

let merge_journals_cmd inputs output obs =
  with_obs obs @@ fun () ->
  finish
    (let* output =
       match output with
       | Some o -> Ok o
       | None -> Error (Usage "pass -o OUTPUT for the merged journal")
     in
     let* () =
       if inputs = [] then Error (Usage "pass at least one shard journal") else Ok ()
     in
     match Eval_cache.merge ~inputs ~output with
     | Ok s ->
       Printf.printf
         "merged %d journal%s -> %s: %d entries, %d duplicate%s collapsed%s\n"
         s.Eval_cache.journals
         (if s.Eval_cache.journals = 1 then "" else "s")
         output s.Eval_cache.entries s.Eval_cache.duplicates
         (if s.Eval_cache.duplicates = 1 then "" else "s")
         (if s.Eval_cache.quarantined > 0 then
            Printf.sprintf ", %d corrupt lines quarantined" s.Eval_cache.quarantined
          else "");
       Ok ()
     | Error m -> Error (Usage m))

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  go dir

(* Remote daemons must see the exact float values the supervisor planned
   with, so a lease's clock axis is serialized as hex floats (%h
   round-trips bit-exactly through the grid parser's [float_of_string]). *)
let clocks_spec_of clocks = String.concat "," (List.map (Printf.sprintf "%h") clocks)

(* [List.map] for a function that may fail: left to right, first error wins. *)
let rec map_result f = function
  | [] -> Ok []
  | x :: tl ->
    let* y = f x in
    let* ys = map_result f tl in
    Ok (y :: ys)

(* --workers: "HOST:PORT,unix:PATH,..." — the remote hlsc serve daemons a
   distributed sweep leases shard ranges to. *)
let parse_workers spec =
  let parse_one s =
    if String.length s > 5 && String.sub s 0 5 = "unix:" then
      Ok (s, Client.Unix_path (String.sub s 5 (String.length s - 5)))
    else
      match String.rindex_opt s ':' with
      | Some i -> (
        let host = String.sub s 0 i in
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some port when host <> "" -> Ok (s, Client.Tcp (host, port))
        | _ -> Error (Usage (Printf.sprintf "--workers: bad port in %S" s)))
      | None ->
        Error
          (Usage (Printf.sprintf "--workers: %S is neither HOST:PORT nor unix:PATH" s))
  in
  let rec go acc = function
    | [] ->
      if acc = [] then Error (Usage "--workers: empty worker list")
      else Ok (List.rev acc)
    | s :: tl ->
      let* w = parse_one s in
      go (w :: acc) tl
  in
  go [] (List.filter (fun s -> s <> "") (String.split_on_char ',' spec))

(* top: a refreshing fleet dashboard assembled from each daemon's stats
   reply — admission state, cache effectiveness, lease activity, shard
   latency and wasted-work ratio, one line per daemon per poll. *)
let top_cmd workers interval iterations obs =
  with_obs obs @@ fun () ->
  finish
    (let* wl =
       match workers with
       | [] ->
         Error (Usage "pass at least one daemon address (HOST:PORT or unix:PATH)")
       | l -> parse_workers (String.concat "," l)
     in
     let* () =
       if interval <= 0.0 then Error (Usage "--interval must be positive") else Ok ()
     in
     let* () =
       if iterations < 0 then Error (Usage "--iterations must be non-negative")
       else Ok ()
     in
     let open Obs.Json in
     let fnum f name =
       match List.assoc_opt name f with
       | Some (Int i) -> float_of_int i
       | Some (Float v) -> v
       | _ -> 0.0
     in
     let inum f name = int_of_float (fnum f name) in
     let shard_p95 f =
       match List.assoc_opt "latency_ms" f with
       | Some (Obj ops) -> (
         match List.assoc_opt "shard_explore" ops with
         | Some (Obj d) -> Printf.sprintf "%.1f" (fnum d "p95_ms")
         | _ -> "-")
       | _ -> "-"
     in
     let render_line name f =
       let hits = inum f "cache_hits" and misses = inum f "cache_misses" in
       let cache =
         if hits + misses = 0 then 0.0
         else 100.0 *. float_of_int hits /. float_of_int (hits + misses)
       in
       let touched = inum f "wasted_touched" in
       let waste =
         if touched = 0 then 0.0
         else 100.0 *. fnum f "wasted_cone" /. float_of_int touched
       in
       Printf.printf "  %-24s %5d %5d %6d %6d %6d %6.1f%% %6.1f%% %9s %5s\n" name
         (inum f "inflight") (inum f "queue_depth") (inum f "shed")
         (inum f "completed") (inum f "active_leases") cache waste (shard_p95 f)
         (match List.assoc_opt "draining" f with
         | Some (Bool true) -> "yes"
         | _ -> "no")
     in
     let poll it =
       Printf.printf "hlsc top: poll %d%s, %d daemon%s\n" it
         (if iterations > 0 then Printf.sprintf " of %d" iterations else "")
         (List.length wl)
         (if List.length wl = 1 then "" else "s");
       Printf.printf "  %-24s %5s %5s %6s %6s %6s %7s %7s %9s %5s\n" "worker"
         "infl" "queue" "shed" "compl" "lease" "cache%" "waste%" "p95sh/ms"
         "drain";
       List.iter
         (fun (name, addr) ->
           match
             Client.one_shot ~deadline_s:(Float.max 5.0 interval) addr
               "{\"op\":\"stats\",\"id\":\"top\"}"
           with
           | Error m -> Printf.printf "  %-24s unreachable: %s\n" name m
           | Ok body -> (
             match
               Result.bind (Protocol.response_status body) (fun (_, j) ->
                   Protocol.obj_fields j)
             with
             | Error m -> Printf.printf "  %-24s bad reply: %s\n" name m
             | Ok f -> render_line name f))
         wl;
       flush stdout
     in
     let rec loop it =
       if iterations > 0 && it > iterations then Ok ()
       else begin
         if it > 1 then Unix.sleepf interval;
         poll it;
         loop (it + 1)
       end
     in
     loop 1)

(* Fleet observability artifacts of a distributed sweep, written next to
   the shard journals:
   - merged-events.jsonl: each completing lease's decision-event stream,
     tagged with its lease id.  Streams arrive sorted and renumbered, so
     two identical runs write byte-identical files (workers at --jobs 1).
   - fleet-trace.json: one Chrome trace with a lane per polled worker,
     its timestamps shifted onto the supervisor's clock by a midpoint
     offset estimate, next to the supervisor's own lane.
   - fleet-counters.json: worker.<name>.* counters plus fleet.* sums.
   - crash-worker-<name>.json: the last heartbeat-carried snapshot of
     each worker declared lost — the dispatcher's postmortem salvage. *)
let fleet_artifacts ~dir ~workers (o : Dispatch.outcome) =
  let module J = Obs.Json in
  let module T = Obs.Telemetry in
  let write path body =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc body)
  in
  let safe_name =
    String.map (function
      | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.') as c -> c
      | _ -> '_')
  in
  try
    let buf = Buffer.create 4096 in
    List.iter
      (fun (lease, lines) ->
        List.iter
          (fun line ->
            match Result.bind (J.parse line) Obs.Events.of_json with
            | Ok e ->
              Buffer.add_string buf
                (Obs.Events.tagged_to_jsonl_line ~stream:lease e);
              Buffer.add_char buf '\n'
            | Error _ -> ())
          lines)
      o.Dispatch.lease_events;
    write (Filename.concat dir "merged-events.jsonl") (Buffer.contents buf);
    (* Midpoint clock-offset estimate: the worker read its clock somewhere
       between our request and its reply; assume the middle.  Good to a
       few milliseconds on loopback — enough to line fleet lanes up. *)
    let polled =
      List.filter_map
        (fun (wname, addr) ->
          let t0 = T.uptime_ns () in
          match
            Client.one_shot ~deadline_s:10.0 addr
              "{\"op\":\"telemetry\",\"id\":\"fleet\"}"
          with
          | Error _ -> None
          | Ok body -> (
            let t1 = T.uptime_ns () in
            let snap =
              Result.bind (Protocol.response_status body) (fun (_, j) ->
                  Result.bind (Protocol.obj_fields j) (fun fields ->
                      match List.assoc_opt "telemetry" fields with
                      | Some tj -> T.of_json tj
                      | None -> Error "no telemetry field"))
            in
            match snap with
            | Error _ -> None
            | Ok snap ->
              let offset = ((t0 + t1) / 2) - snap.T.clock_ns in
              Some (wname, offset, snap)))
        workers
    in
    let self = T.capture () in
    let lanes =
      T.lane_events ~pid:self.T.pid ~offset_ns:0 ~process_name:"supervisor" self
      @ List.concat_map
          (fun (wname, offset, snap) ->
            T.lane_events ~pid:snap.T.pid ~offset_ns:offset ~process_name:wname
              snap)
          polled
    in
    write
      (Filename.concat dir "fleet-trace.json")
      (J.to_string (J.Obj [ ("traceEvents", J.List lanes) ]));
    let totals = Hashtbl.create 64 in
    let per_worker =
      List.concat_map
        (fun (wname, _offset, snap) ->
          List.map
            (fun (k, v) ->
              Hashtbl.replace totals k
                (v + Option.value ~default:0 (Hashtbl.find_opt totals k));
              (Printf.sprintf "worker.%s.%s" wname k, J.Int v))
            (T.counters snap))
        polled
    in
    let fleet =
      Hashtbl.fold (fun k v acc -> ("fleet." ^ k, J.Int v) :: acc) totals []
      |> List.sort compare
    in
    write
      (Filename.concat dir "fleet-counters.json")
      (J.to_string (J.Obj (per_worker @ fleet)));
    List.iter
      (fun (wname, tj) ->
        write
          (Filename.concat dir ("crash-worker-" ^ safe_name wname ^ ".json"))
          tj)
      o.Dispatch.lost_telemetry;
    Printf.printf
      "sweep: fleet telemetry: %d of %d workers polled, %d lease event \
       stream%s, %d lost-worker postmortem%s -> %s\n"
      (List.length polled) (List.length workers)
      (List.length o.Dispatch.lease_events)
      (if List.length o.Dispatch.lease_events = 1 then "" else "s")
      (List.length o.Dispatch.lost_telemetry)
      (if List.length o.Dispatch.lost_telemetry = 1 then "" else "s")
      dir;
    Ok ()
  with
  | Sys_error m -> Error (Internal m)
  | Unix.Unix_error (e, _, p) -> Error (Internal (p ^ ": " ^ Unix.error_message e))

(* One design of a sweep: its grid, pure builder and corpus class (None in
   single-design mode), and the lease job remote daemons run for it.  The
   job's full keys are what --shard plans over and what DIR/merged.jnl is
   keyed by. *)
type sweep_design = {
  name : string;
  klass : Corpus.klass option;
  grid : Explore_grid.t;
  build : unit -> Dfg.t;
  job : Dispatch.job;
}

(* Snapshot a sweep's records, one per full key and key-sorted, into
   DIR/merged.jnl — the file merge-journals writes from the shard journals
   of the same sweep.  In-process and --workers sweeps both write here. *)
let write_merged ~dir records =
  mkdir_p dir;
  let path = Filename.concat dir "merged.jnl" in
  let store = Eval_cache.create () in
  List.iter (fun (key, s) -> Eval_cache.add store key s) records;
  match Eval_cache.save store ~path with
  | () -> Ok path
  | exception Sys_error m -> Error (Internal m)

(* Lease the jobs to remote daemons and journal the returned records into
   DIR/merged.jnl.  [Ok None] means no worker was reachable and the caller
   should evaluate in-process instead. *)
let dispatch_sweep ~dir ~progress (dcfg : Dispatch.config) jobs =
  let total_points =
    List.fold_left (fun a (j : Dispatch.job) -> a + List.length j.Dispatch.keys) 0 jobs
  in
  (if progress then begin
     Obs.Events.enable ();
     let last = ref Int64.min_int in
     Obs.Events.set_hook
       (Some
          (fun ev ->
            match ev.Obs.Events.payload with
            | Obs.Events.Dispatch_sample
                {
                  workers; leases; done_points; total_points; reassigned; stolen;
                  salvaged;
                } ->
              let now = Obs.now_ns () in
              if Int64.sub now !last >= 1_000_000_000L || done_points >= total_points
              then begin
                last := now;
                Printf.eprintf
                  "hlsc: sweep: %d/%d points done on %d worker%s (%d lease%s active, \
                   %d reassigned, %d stolen, %d salvaged)\n%!"
                  done_points total_points workers
                  (if workers = 1 then "" else "s")
                  leases
                  (if leases = 1 then "" else "s")
                  reassigned stolen salvaged
              end
            | _ -> ()))
   end);
  let result =
    Fun.protect
      ~finally:(fun () -> if progress then Obs.Events.set_hook None)
      (fun () -> Dispatch.run dcfg jobs)
  in
  match result with
  | Error m ->
    Printf.eprintf "hlsc: sweep: %s; falling back to in-process evaluation\n%!" m;
    Dispatch.note_fallback_local ();
    Ok None
  | Ok o ->
    let wl = dcfg.Dispatch.workers in
    Printf.printf
      "sweep: dispatched %d points to %d worker%s: %d leases, %d reassigned, %d \
       stolen, %d salvaged, %d lost worker%s\n"
      total_points (List.length wl)
      (if List.length wl = 1 then "" else "s")
      o.Dispatch.leases o.Dispatch.reassigned o.Dispatch.stolen
      o.Dispatch.salvaged_points o.Dispatch.workers_lost
      (if o.Dispatch.workers_lost = 1 then "" else "s");
    let* merged_path = write_merged ~dir o.Dispatch.records in
    let* () = fleet_artifacts ~dir ~workers:wl o in
    if o.Dispatch.complete then Ok (Some o.Dispatch.records)
    else
      Error
        (Interrupted
           (Printf.sprintf
              "distributed sweep stopped (%s): %d of %d points are merged into %s; \
               finish with hlsc explore ... --resume %s"
              (Option.value ~default:"interrupted" o.Dispatch.abort)
              (List.length o.Dispatch.records) total_points merged_path merged_path))

let ok_points o =
  o.Explore.total - o.Explore.failed - o.Explore.timed_out - o.Explore.crashed

(* The corpus summary: frontier size and feasibility rate by design class
   — EXPERIMENTS.md's table. *)
let render_corpus ~csv ~json outcomes =
  let sum f l = List.fold_left (fun a (_, o) -> a + f o) 0 l in
  let frontier o = List.length o.Explore.frontier in
  let t =
    Text_table.create
      ~headers:[ "class"; "designs"; "points"; "feasible %"; "frontier"; "mean" ]
  in
  let csv_buf = Buffer.create 256 in
  Buffer.add_string csv_buf
    "class,designs,points,ok,feasible_pct,frontier,frontier_mean\n";
  List.iter
    (fun k ->
      match List.filter (fun (d, _) -> d.klass = Some k) outcomes with
      | [] -> ()
      | of_k ->
        let designs = List.length of_k in
        let points = sum (fun o -> o.Explore.total) of_k in
        let frontier = sum frontier of_k in
        let pct =
          if points = 0 then 0.0
          else 100.0 *. float_of_int (sum ok_points of_k) /. float_of_int points
        in
        let mean = float_of_int frontier /. float_of_int designs in
        Text_table.add_row t
          [
            Corpus.klass_name k; string_of_int designs; string_of_int points;
            Printf.sprintf "%.1f" pct; string_of_int frontier; Printf.sprintf "%.1f" mean;
          ];
        Buffer.add_string csv_buf
          (Printf.sprintf "%s,%d,%d,%d,%.1f,%d,%.1f\n" (Corpus.klass_name k) designs
             points (sum ok_points of_k) pct frontier mean))
    Corpus.all_klasses;
  let points = sum (fun o -> o.Explore.total) outcomes in
  Printf.printf "corpus sweep: %d designs, %d points\n" (List.length outcomes) points;
  print_string (Text_table.render t);
  let* () =
    match csv with
    | Some path ->
      write_rendering ~what:"corpus summary CSV" path (Buffer.contents csv_buf)
    | None -> Ok ()
  in
  match json with
  | Some path ->
    let open Obs.Json in
    write_rendering ~what:"JSON" path
      (to_string
         (Obj
            [
              ("designs", Int (List.length outcomes));
              ("points", Int points);
              ("frontier_total", Int (sum frontier outcomes));
            ]))
  | None -> Ok ()

let sweep_cmd source builtin clock lib_s validate max_recoveries clocks flows iis
    recover corpus take shard journal_file dir jobs workers lease_points
    lease_deadline heartbeat steal progress csv json obs =
  with_obs obs @@ fun () ->
  finish
    (let* lib = lib_of lib_s in
     let* config = config_of validate max_recoveries in
     let* flows_l = grid_axis "--flows" Explore_grid.parse_flows flows in
     let* iis_l = grid_axis "--ii" Explore_grid.parse_iis iis in
     let* recover_l = grid_axis "--recover" Explore_grid.parse_recover recover in
     let* () =
       if jobs < 0 then Error (Usage "--jobs must be non-negative") else Ok ()
     in
     let* () =
       if lease_points < 1 then Error (Usage "--lease-points must be at least 1")
       else Ok ()
     in
     let* () =
       if lease_deadline <= 0.0 then Error (Usage "--lease-deadline must be positive")
       else Ok ()
     in
     let* shard =
       let* rank = parse_shard shard in
       match (rank, journal_file) with
       | Some (i, n), Some path -> Ok (Some (i, n, path))
       | None, None -> Ok None
       | Some _, None -> Error (Usage "--shard needs --journal FILE")
       | None, Some _ ->
         Error (Usage "--journal needs --shard I/N; a sweep journals into DIR/merged.jnl")
     in
     let* () =
       if corpus <> None && (source <> None || builtin <> None) then
         Error (Usage "pass either --corpus or a design, not both")
       else Ok ()
     in
     let* workers_l =
       match workers with
       | None -> Ok None
       | Some _ when shard <> None ->
         Error (Usage "--workers drives remote daemons; drop --shard")
       | Some _ when corpus = None && source <> None ->
         Error
           (Usage
              "--workers needs a --design name the remote daemons can resolve, \
               not a source file")
       | Some spec -> Result.map Option.some (parse_workers spec)
     in
     let fingerprint = Explore.config_fingerprint config in
     let lib_name = Library.name lib in
     (* A manifest II constraint pins the design's II axis. *)
     let resolve ~name ~klass ~base ~ii build =
       let* clocks_l = clock_axis ~base clocks in
       let iis_l, iis =
         match ii with Some n -> ([ Some n ], string_of_int n) | None -> (iis_l, iis)
       in
       let* grid =
         Result.map_error (fun m -> Usage m)
           (Explore_grid.make ~clocks:clocks_l ~flows:flows_l ~iis:iis_l
              ~recover:recover_l ())
       in
       let digest = Dfg.digest (build ()) in
       let job =
         {
           Dispatch.design = name;
           clocks = clocks_spec_of clocks_l;
           flows;
           iis;
           recover;
           point_deadline = None;
           keys = List.map Explore_grid.point_key (Explore_grid.points grid);
           key_of =
             (fun pk ->
               Eval_cache.key ~digest ~lib:lib_name ~config:fingerprint ~point_key:pk);
         }
       in
       Ok { name; klass; grid; build; job }
     in
     let* designs =
       match corpus with
       | None ->
         let* name, base, build = load_builder ~source ~builtin ~clock in
         let* d = resolve ~name ~klass:None ~base ~ii:None build in
         Ok [ d ]
       | Some manifest ->
         let* _seed, entries =
           Result.map_error (fun m -> Usage (manifest ^ ": " ^ m))
             (Corpus.load ~path:manifest)
         in
         let entries =
           match take with
           | None -> entries
           | Some k -> List.filteri (fun i _ -> i < k) entries
         in
         let* () =
           if entries = [] then Error (Usage "corpus selection is empty") else Ok ()
         in
         map_result
           (fun (e : Corpus.entry) ->
             resolve ~name:e.Corpus.name ~klass:(Some e.Corpus.klass)
               ~base:e.Corpus.clock_ps
               ~ii:(if e.Corpus.ii > 0 then Some e.Corpus.ii else None)
               (fun () -> (Corpus.design e).Random_design.dfg))
           entries
     in
     let jobs = if jobs = 0 then None else Some jobs in
     match shard with
     | Some (rank, n, jpath) ->
       (* One shard: evaluate this key range across every design it
          touches, all into one journal. *)
       let all_keys =
         List.concat_map
           (fun d -> List.map d.job.Dispatch.key_of d.job.Dispatch.keys)
           designs
       in
       let mine = Hashtbl.create 256 in
       List.iter
         (fun k -> Hashtbl.replace mine k ())
         (Shard.plan ~shards:n all_keys).(rank - 1);
       let* w =
         match Eval_cache.start ~path:jpath ~fresh:true with
         | w -> Ok w
         | exception Unix.Unix_error (e, _, _) ->
           Error (Internal (jpath ^ ": " ^ Unix.error_message e))
       in
       Fun.protect
         ~finally:(fun () -> Eval_cache.close w)
         (fun () ->
           List.iter
             (fun d ->
               let select pk = Hashtbl.mem mine (d.job.Dispatch.key_of pk) in
               if List.exists select d.job.Dispatch.keys then begin
                 let o =
                   Explore.run ?jobs ~select ~journal:w ~lib ~config ~name:d.name
                     ~build:d.build d.grid
                 in
                 Printf.printf "shard %d/%d %s: %d points, %d ok\n" rank n d.name
                   o.Explore.total (ok_points o)
               end)
             designs;
           Ok ())
     | None ->
       let run_design ?resume ?jobs d =
         match
           Explore.run ?jobs ?resume ~lib ~config ~name:d.name ~build:d.build d.grid
         with
         | o -> Ok (d, o)
         | exception e ->
           Error
             (Internal
                (Printf.sprintf "sweep of %s crashed: %s" d.name (Printexc.to_string e)))
       in
       (* In-process: each design on --jobs domains of this process, then
          every record journaled once into DIR/merged.jnl. *)
       let in_process () =
         let* outcomes = map_result (run_design ?jobs) designs in
         let* _ =
           write_merged ~dir
             (List.concat_map
                (fun (d, o) ->
                  List.map
                    (fun r -> (d.job.Dispatch.key_of r.Explore.pkey, r.Explore.summary))
                    o.Explore.results)
                outcomes)
         in
         Ok outcomes
       in
       let* outcomes =
         match workers_l with
         | None -> in_process ()
         | Some wl -> (
           let dcfg =
             {
               Dispatch.default_config with
               Dispatch.workers = wl;
               lease_points;
               lease_deadline;
               heartbeat;
               steal;
               (* One sweep, one trace: every lease and heartbeat is stamped
                  with this id, so worker request spans parent under the
                  supervisor in the merged fleet trace.  The id never lands
                  in provenance files, so it cannot perturb byte-identity. *)
               trace_id = Some (Printf.sprintf "sweep-%d" (Unix.getpid ()));
             }
           in
           let* dispatched =
             dispatch_sweep ~dir ~progress dcfg (List.map (fun d -> d.job) designs)
           in
           match dispatched with
           | None -> in_process ()
           | Some resume ->
             (* The fold: every point is answered by the returned records,
                so this renders — byte-identically — what one process
                would have. *)
             map_result (run_design ~resume ~jobs:1) designs)
       in
       match outcomes with
       | [ ({ klass = None; _ }, o) ] ->
         let* () = render_outcome ~csv ~json o in
         check_frontier o
       | _ -> render_corpus ~csv ~json outcomes)

let run_t =
  Cmd.v (Cmd.info "run" ~doc:"Run one scheduling flow and print the result")
    Term.(const run_cmd $ source_arg $ design_arg $ clock_arg $ lib_arg $ flow_arg
          $ validate_arg $ max_recoveries_arg $ obs_args)

let compare_t =
  Cmd.v (Cmd.info "compare" ~doc:"Conventional vs slack-based, side by side")
    Term.(const compare_cmd $ source_arg $ design_arg $ clock_arg $ lib_arg
          $ validate_arg $ max_recoveries_arg $ obs_args)

let slack_t =
  Cmd.v (Cmd.info "slack" ~doc:"Pre-schedule sequential-slack report")
    Term.(const slack_cmd $ source_arg $ design_arg $ clock_arg $ lib_arg
          $ validate_arg $ max_recoveries_arg $ obs_args)

let output_arg =
  Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE"
         ~doc:"Output Verilog path.")

let emit_t =
  Cmd.v (Cmd.info "emit" ~doc:"Run a flow and write the Verilog rendering")
    Term.(const emit_cmd $ source_arg $ design_arg $ clock_arg $ lib_arg $ flow_arg
          $ validate_arg $ max_recoveries_arg $ output_arg $ obs_args)

let clocks_arg =
  Arg.(value & opt string "auto" & info [ "clocks" ] ~docv:"SPEC"
         ~doc:"Clock-period axis: comma-separated periods and/or LO:HI:STEP ranges in \
               ps (e.g. 2000,2500:3500:250), or 'auto' for 8 points spanning \
               0.8x-1.5x the design's base clock.")

let grid_flows_arg =
  Arg.(value & opt string "conv,slack" & info [ "flows" ] ~docv:"SPEC"
         ~doc:"Flow axis: comma-separated conv, slowest, slack, or 'all'.")

let iis_arg =
  Arg.(value & opt string "none" & info [ "ii" ] ~docv:"SPEC"
         ~doc:"Initiation-interval axis: comma-separated 'none', N, or LO:HI[:STEP] \
               ranges (e.g. none,4:8:2).")

let recover_arg =
  Arg.(value & opt string "on" & info [ "recover" ] ~docv:"POLICY"
         ~doc:"Area-recovery axis: on, off, or both.")

let jobs_arg =
  Arg.(value & opt int 0 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Worker domains for point evaluation; 0 (default) uses the \
               recommended domain count.  Results are identical for every value.")

let cache_arg =
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"FILE"
         ~doc:"Evaluation cache: load before the sweep (missing file = empty), skip \
               already-evaluated points, save back after.")

let point_deadline_arg =
  Arg.(value & opt (some float) None & info [ "point-deadline" ] ~docv:"SECONDS"
         ~doc:"Per-point evaluation deadline.  A point that exceeds it is \
               reported with status timed_out (the pipeline polls the deadline \
               cooperatively at phase boundaries) — data, not an error.")

let deadline_arg =
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS"
         ~doc:"Sweep-level deadline.  When it fires, workers stop claiming \
               points, in-flight evaluations drain, and the partial results \
               are flushed; the sweep exits 5 and can be finished with \
               --resume.")

let retries_arg =
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N"
         ~doc:"Re-run a point whose evaluation raised up to N extra times \
               before quarantining it with status crashed.")

let strict_arg =
  Arg.(value & flag & info [ "strict" ]
         ~doc:"Abort the sweep (exit 1) on the first point whose evaluation \
               still raises after --retries attempts, instead of quarantining \
               it.  Completed points are journaled before aborting.")

let journal_arg =
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE"
         ~doc:"Start a fresh checkpoint journal: every completed point is \
               appended and fsync'd, so an interrupted sweep can be finished \
               with --resume.")

let resume_arg =
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE"
         ~doc:"Resume an interrupted sweep from its checkpoint journal: \
               recorded points are not re-evaluated, new completions keep \
               being appended, and the final outputs are byte-identical to an \
               uninterrupted run.")

let csv_arg =
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE"
         ~doc:"Write every grid point as CSV ('-' for stdout).")

let json_arg =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
         ~doc:"Write sweep stats and the Pareto frontier as JSON ('-' for stdout).")

let progress_arg =
  Arg.(value & flag & info [ "progress" ]
         ~doc:"Print periodic progress lines (completed/total points, per-worker \
               utilization, ETA) to stderr while the sweep runs, fed by \
               Worker_sample provenance events.")

let explore_t =
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Parallel design-space exploration with an area/delay Pareto frontier")
    Term.(const explore_cmd $ source_arg $ design_arg $ clock_arg $ lib_arg
          $ validate_arg $ max_recoveries_arg $ clocks_arg $ grid_flows_arg
          $ iis_arg $ recover_arg $ jobs_arg $ cache_arg $ point_deadline_arg
          $ deadline_arg $ retries_arg $ strict_arg $ journal_arg $ resume_arg
          $ csv_arg $ json_arg $ obs_args $ progress_arg)

let corpus_out_arg =
  Arg.(value & opt string "corpus/manifest.tsv" & info [ "out"; "o" ] ~docv:"FILE"
         ~doc:"Manifest path (default corpus/manifest.tsv).")

let corpus_seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
         ~doc:"Master seed the whole population derives from (default 42).")

let corpus_count_arg =
  Arg.(value & opt int Corpus.default_count & info [ "count"; "n" ] ~docv:"N"
         ~doc:"Number of designs (default 100, the paper's corpus size).")

let corpus_verify_arg =
  Arg.(value & flag & info [ "verify" ]
         ~doc:"Regenerate the population from the manifest's own header and \
               check every recorded digest reproduces bit-exactly; exit 3 on \
               any drift.  CI runs this so generator changes cannot silently \
               invalidate committed results.")

let corpus_t =
  Cmd.v
    (Cmd.info "corpus"
       ~doc:"Generate or verify the seeded 100-design validation corpus manifest")
    Term.(const corpus_cmd $ corpus_out_arg $ corpus_seed_arg $ corpus_count_arg
          $ corpus_verify_arg $ obs_args)

let merge_inputs_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"JOURNAL"
         ~doc:"Shard journals to merge (shard-1.jnl shard-2.jnl ...).")

let merge_output_arg =
  Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE"
         ~doc:"Merged journal path.")

let merge_journals_t =
  Cmd.v
    (Cmd.info "merge-journals"
       ~doc:"Validate and merge disjoint shard journals into one resumable journal")
    Term.(const merge_journals_cmd $ merge_inputs_arg $ merge_output_arg $ obs_args)

let sweep_corpus_arg =
  Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"MANIFEST"
         ~doc:"Sweep every design of a corpus manifest (written by \
               $(b,hlsc corpus)) instead of a single design.")

let sweep_take_arg =
  Arg.(value & opt (some int) None & info [ "take" ] ~docv:"K"
         ~doc:"Only sweep the first K corpus designs (smoke tests).")

let shard_arg =
  Arg.(value & opt (some string) None & info [ "shard" ] ~docv:"I/N"
         ~doc:"Evaluate only shard I of N (1-based) into --journal FILE: the \
               sweep's canonically sorted full keys, over every selected \
               design, are split into N contiguous disjoint ranges, and this \
               process takes range I.  Run all N shards (any mix of \
               machines), then reassemble with $(b,hlsc merge-journals): the \
               merged journal equals a whole sweep's DIR/merged.jnl, and \
               $(b,hlsc explore --resume) folds a single design's frontier \
               from it byte-identically.")

let sweep_dir_arg =
  Arg.(value & opt string "sweep-out" & info [ "dir" ] ~docv:"DIR"
         ~doc:"Directory for the merged journal DIR/merged.jnl and the fleet \
               telemetry files of a --workers sweep (default sweep-out).")

let workers_arg =
  Arg.(value & opt (some string) None & info [ "workers" ] ~docv:"LIST"
         ~doc:"Comma-separated hlsc serve daemons (HOST:PORT or unix:PATH) to \
               lease key ranges to instead of evaluating in this process. \
               Dead, partitioned or stalled workers are detected, their \
               durable progress salvaged, and their leases reassigned.  The \
               returned records are journaled once, key-sorted, into \
               DIR/merged.jnl.  If no worker is reachable at all the sweep \
               evaluates in-process instead.")

let lease_points_arg =
  Arg.(value & opt int 8 & info [ "lease-points" ] ~docv:"N"
         ~doc:"Maximum grid points per lease (default 8, at least 1): smaller \
               leases lose less work per worker failure and balance better, \
               at more round trips.")

let lease_deadline_arg =
  Arg.(value & opt float 60.0 & info [ "lease-deadline" ] ~docv:"SECONDS"
         ~doc:"Deadline per lease (default 60, must be positive): the worker \
               cancels and reports partial results at the deadline, and the \
               supervisor reassigns a lease it has heard nothing about for \
               this long.")

let heartbeat_arg =
  Arg.(value & opt float 1.0 & info [ "heartbeat" ] ~docv:"SECONDS"
         ~doc:"Health-probe period (default 1.0; 0 disables).  Probes carry \
               each lease's durably recorded lines — the salvage source when \
               a worker dies mid-lease.  Three consecutive misses declare \
               the worker stalled.")

let steal_arg =
  Arg.(value & flag & info [ "steal" ]
         ~doc:"Let idle workers split the unfinished tail off straggler \
               leases.  Duplicated evaluations are byte-identical by the \
               determinism contract, so stealing never changes the result.")

let sweep_progress_arg =
  Arg.(value & flag & info [ "progress" ]
         ~doc:"With --workers: print live dispatch progress (points done, \
               live workers, active leases, reassignments) to stderr.")

let sweep_t =
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Sweep one design or a corpus: evaluate in-process or lease to \
             daemons, journal the records, fold the frontier"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Resolves the sweep into a list of designs — one built-in or \
              source design, or every selected design of a corpus manifest \
              (--corpus) — each with its own grid.  By default every design \
              is evaluated in this process on --jobs domains.  With \
              --workers, key ranges are leased to hlsc serve daemons \
              instead; if none is reachable the sweep evaluates in-process.  \
              Either way every record is journaled once, key-sorted, into \
              DIR/merged.jnl, and the records fold into the frontier (one \
              design) or the per-class summary (--corpus) — byte-identically \
              whichever way they were evaluated.";
           `P
             "The same sweep can be split across machines by hand: hlsc \
              sweep ... --shard i/N --journal shard-i.jnl on each, then hlsc \
              merge-journals -o merged.jnl shard-*.jnl, whose output equals \
              DIR/merged.jnl; for one design, hlsc explore ... --resume \
              merged.jnl folds its frontier.";
         ])
    Term.(const sweep_cmd $ source_arg $ design_arg $ clock_arg $ lib_arg
          $ validate_arg $ max_recoveries_arg $ clocks_arg $ grid_flows_arg
          $ iis_arg $ recover_arg $ sweep_corpus_arg $ sweep_take_arg
          $ shard_arg $ journal_arg $ sweep_dir_arg $ jobs_arg
          $ workers_arg $ lease_points_arg $ lease_deadline_arg $ heartbeat_arg
          $ steal_arg $ sweep_progress_arg $ csv_arg $ json_arg $ obs_args)

let count_arg =
  Arg.(value & opt int 25 & info [ "count"; "n" ] ~docv:"N"
         ~doc:"Number of random designs.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
         ~doc:"Master seed for the random-design suite.")

let fuzz_validate_arg =
  Arg.(value & opt string "paranoid" & info [ "validate" ] ~docv:"LEVEL"
         ~doc:"Phase-boundary invariant checking: off, boundary or paranoid (default).")

let grids_fuzz_arg =
  Arg.(value & opt int 0 & info [ "grids" ] ~docv:"N"
         ~doc:"Also fuzz N random exploration-grid specs (including degenerate \
               ranges) through the grid parsers, sweeping a few of the small \
               accepted grids end to end.")

let fuzz_t =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Random designs through every flow under invariant validation")
    Term.(const fuzz_cmd $ count_arg $ seed_arg $ lib_arg $ fuzz_validate_arg
          $ max_recoveries_arg $ grids_fuzz_arg $ obs_args)

let dot_t =
  Cmd.v
    (Cmd.info "dot" ~doc:"Dump Graphviz renderings (CFG, DFG+spans, timed DFG, schedule)")
    Term.(const dot_cmd $ source_arg $ design_arg $ clock_arg $ lib_arg $ flow_arg
          $ validate_arg $ max_recoveries_arg $ output_arg $ obs_args)

let explain_t =
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Replay a provenance event file into one operation's decision timeline")
    Term.(const explain_cmd $ explain_file_arg $ explain_op_arg $ obs_args)

let diff_events_t =
  Cmd.v
    (Cmd.info "diff-events"
       ~doc:"Localize the first divergence between two provenance event files")
    Term.(const diff_events_cmd $ diff_a_arg $ diff_b_arg $ diff_context_arg $ obs_args)

let serve_t =
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Supervised synthesis daemon: concurrent requests over a socket, \
             with admission control, load shedding and graceful drain")
    Term.(const serve_cmd $ socket_arg $ port_arg $ lib_arg $ validate_arg
          $ max_recoveries_arg $ serve_jobs_arg $ high_water_arg
          $ drain_deadline_arg $ read_timeout_arg $ serve_deadline_arg
          $ point_deadline_arg $ serve_retries_arg $ backoff_arg $ journal_arg
          $ cache_arg $ serve_corpus_arg $ once_arg $ request_script_arg
          $ drain_after_points_arg $ metrics_arg $ serve_telemetry_arg $ obs_args)

let req_retry_arg =
  Arg.(value & opt int 0 & info [ "retry" ] ~docv:"N"
         ~doc:"When the daemon sheds the request with an 'overloaded' \
               response, honor its retry_after_s hint: sleep that long and \
               resend, up to N times, before giving up with exit 5.")

let request_t =
  Cmd.v
    (Cmd.info "request"
       ~doc:"Send one request to a running synthesis daemon and print the \
             response")
    Term.(const request_cmd $ socket_arg $ req_host_arg $ port_arg $ req_op_arg
          $ req_json_arg $ req_id_arg $ req_design_arg $ clock_arg $ flow_arg
          $ clocks_arg $ grid_flows_arg $ iis_arg $ recover_arg
          $ serve_deadline_arg $ point_deadline_arg $ req_retry_arg $ obs_args)

let top_workers_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"ADDR"
         ~doc:"Daemon addresses to poll (HOST:PORT or unix:PATH).")

let top_interval_arg =
  Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SECONDS"
         ~doc:"Seconds between polls (default 1.0).")

let top_iterations_arg =
  Arg.(value & opt int 0 & info [ "iterations"; "n" ] ~docv:"N"
         ~doc:"Stop after N polls; 0 (default) runs until interrupted.")

let top_t =
  Cmd.v
    (Cmd.info "top"
       ~doc:"Poll a fleet of synthesis daemons and render a once-per-interval \
             dashboard: inflight/queue depth, shed and completed requests, \
             active leases, cache hit rate, wasted-work ratio and \
             shard-lease latency p95 per worker")
    Term.(const top_cmd $ top_workers_arg $ top_interval_arg $ top_iterations_arg
          $ obs_args)

let () =
  let doc = "slack-budgeting high-level synthesis (DATE 2012 reproduction)" in
  let man =
    [
      `S "EXIT CODES";
      `P "Every subcommand uses the same contract:";
      `I ("0", "success.");
      `I
        ( "1",
          "internal error (I/O, trace or event emission); for diff-events: \
           the two event streams diverge." );
      `I
        ( "2",
          "usage error (bad flags, malformed source, invalid configuration — \
           including a bad explore grid spec, a corrupt evaluation cache, or an \
           unknown --op name passed to explain)." );
      `I ("3", "validation failure (a pipeline invariant was violated).");
      `I
        ( "4",
          "unrecoverable flow failure (scheduling failed after the full recovery \
           ladder; for explore: every grid point failed, so the sweep produced an \
           empty frontier)." );
      `I
        ( "5",
          "interrupted sweep (SIGINT/SIGTERM or --deadline fired before every \
           point completed; the journal and partial renderings were flushed — \
           re-run with --resume to finish).  For serve: the daemon drained \
           with resumable work left in its journal.  For request: the daemon \
           answered overloaded, draining or partial — retry or resume." );
    ]
  in
  let info = Cmd.info "hlsc" ~version:"1.0.0" ~doc ~man in
  (* A stderr that cannot be written (a full disk, a closed pipe) must not
     change the exit code: Format's exit-time flush of err_formatter would
     raise, and the runtime would exit 2 instead.  Registered last, this
     runs first: it flushes, and closes stderr if that fails, so no later
     flush has bytes left to write. *)
  at_exit (fun () ->
      try Format.pp_print_flush Format.err_formatter ()
      with Sys_error _ -> close_out_noerr stderr);
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            run_t; compare_t; slack_t; emit_t; explore_t; corpus_t; sweep_t;
            merge_journals_t; explain_t; diff_events_t; fuzz_t; dot_t; serve_t;
            request_t; top_t;
          ]))
