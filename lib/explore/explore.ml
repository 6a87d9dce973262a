type origin = Fresh | Cached | Resumed

type point_result = {
  point : Explore_grid.point;
  pkey : string;
  summary : Eval_cache.summary;
  origin : origin;
}

type outcome = {
  design_name : string;
  digest : string;
  results : point_result list;
  frontier : point_result Pareto.entry list;
  total : int;
  evaluated : int;
  hits : int;
  resumed : int;
  failed : int;
  timed_out : int;
  crashed : int;
  pending : int;
}

let partial o = o.pending > 0

let c_points = Obs.counter "explore.points"
let c_evals = Obs.counter "explore.evaluations"
let c_failures = Obs.counter "explore.failures"
let c_timeouts = Obs.counter "explore.timeouts"
let c_crashes = Obs.counter "explore.crashes"
let c_resumed = Obs.counter "explore.resumed"

(* Sweep-constant configuration fingerprint: everything outside the grid
   axes that can change a point's result must appear here, or stale cache
   entries would be served across configurations.  Grading and the two
   budgeting configs are appended only when they differ from
   [Flows.default_config], so the keys of default sweeps (journals, cache
   files, the golden file) do not move.  No field may print a '|': it
   separates the parts of a cache key. *)
let config_fingerprint (c : Flows.config) =
  let d = Flows.default_config in
  (* margin:aligned:rounds:bisection:engine *)
  let budget (b : Budget.config) =
    Printf.sprintf "%h:%b:%d:%d:%s" b.Budget.margin_frac b.Budget.aligned
      b.Budget.max_rounds b.Budget.bisection_steps
      (match b.Budget.engine with
      | Budget.Two_pass -> "two-pass"
      | Budget.Bellman_ford_baseline -> "bellman-ford")
  in
  let unless_default name v default render =
    if v = default then "" else Printf.sprintf ",%s=%s" name (render v)
  in
  (* [iibump=false] names a ladder rung that no longer exists; it stays so
     that no key moves. *)
  Printf.sprintf "validate=%s,maxrec=%d,maxrelax=%d,iibump=false,merge=%b,buckets=%b%s%s%s"
    (Check.level_name c.Flows.validate)
    c.Flows.max_recoveries c.Flows.max_relaxations
    c.Flows.sharing.Flows.merge_add_sub c.Flows.sharing.Flows.width_buckets
    (unless_default "grading" c.Flows.grading d.Flows.grading (function
      | Alloc.Continuous -> "continuous"
      | Alloc.Discrete -> "discrete"))
    (unless_default "budget" c.Flows.budget_config d.Flows.budget_config budget)
    (unless_default "rebudget" c.Flows.rebudget_config d.Flows.rebudget_config
       (function None -> "none" | Some b -> budget b))

let evaluate ?deadline ~lib ~config ~name ~build (p : Explore_grid.point) =
  (* The deadline clock starts when the point starts, not when the sweep
     does: a point stuck in a validator or the recovery ladder trips its
     own budget regardless of queue position. *)
  let cancel =
    match deadline with
    | Some seconds -> Cancel.after ~seconds
    | None -> Cancel.never
  in
  let dfg = build () in
  let design =
    Hls.design ?ii:p.Explore_grid.ii ~name ~clock:p.Explore_grid.clock dfg
  in
  let config = { config with Flows.recover_area = p.Explore_grid.recover } in
  match Hls.run ~lib ~config ~cancel p.Explore_grid.flow design with
  | Ok r ->
    let steps = Schedule.steps_used r.Hls.report.Flows.schedule in
    {
      Eval_cache.status = Eval_cache.Success;
      area = Hls.total_area r;
      steps;
      delay_ps = float_of_int steps *. p.Explore_grid.clock;
      relaxations = r.Hls.report.Flows.relaxations;
      regrades = r.Hls.report.Flows.regrades;
      recoveries = List.length r.Hls.report.Flows.recovery_log;
      error = "";
    }
  | Error e ->
    {
      Eval_cache.status =
        (match e with
        | Flows.Timed_out _ -> Eval_cache.Timeout
        | Flows.Validation_failed _ | Flows.Sched_failed _ | Flows.Invalid _ ->
          Eval_cache.Infeasible);
      area = 0.0;
      steps = 0;
      delay_ps = 0.0;
      relaxations = 0;
      regrades = 0;
      recoveries =
        (match e with
        | Flows.Validation_failed { recovery_log; _ }
        | Flows.Sched_failed { recovery_log; _ }
        | Flows.Timed_out { recovery_log; _ } -> List.length recovery_log
        | Flows.Invalid _ -> 0);
      error = Flows.error_message e;
    }

let crash_summary (c : Domain_pool.crash) =
  {
    Eval_cache.status = Eval_cache.Crash;
    area = 0.0;
    steps = 0;
    delay_ps = 0.0;
    relaxations = 0;
    regrades = 0;
    recoveries = 0;
    error = Printf.sprintf "%s (after %d attempts)" c.Domain_pool.message
        c.Domain_pool.attempts;
  }

let count_status st results =
  List.length
    (List.filter (fun r -> r.summary.Eval_cache.status = st) results)

let run ?jobs ?pool ?(retries = 0) ?(strict = false) ?(recheck_crashes = false)
    ?point_deadline ?(cancel = Cancel.never) ?cache ?journal ?(resume = [])
    ?select ?on_point ~lib ~config ~name ~build grid =
  Obs.span "explore.run" @@ fun () ->
  let digest = Dfg.digest (build ()) in
  let fingerprint = config_fingerprint config in
  let keyed =
    Explore_grid.points grid
    |> List.map (fun p -> (Explore_grid.point_key p, p))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  (* Shard filter: applied to the canonically sorted key list, so the
     same predicate partitions identically in every process. *)
  let keyed =
    match select with
    | None -> keyed
    | Some f -> List.filter (fun (pkey, _) -> f pkey) keyed
  in
  let total = List.length keyed in
  Obs.add c_points total;
  let cache_key pkey =
    Eval_cache.key ~digest ~lib:(Library.name lib) ~config:fingerprint ~point_key:pkey
  in
  (* Journal records carry the full cache key, so entries from another
     design, library or sweep configuration can never match here. *)
  let journal_tbl = Hashtbl.create 64 in
  List.iter (fun (k, s) -> Hashtbl.replace journal_tbl k s) resume;
  let record_journal ck s =
    (match journal with Some w -> Journal.record w ~key:ck s | None -> ());
    (* Completion hook, fired with the full cache key at every site that
       durably records a point (cache hits, fresh results, crash
       summaries) — the dispatch lease registry feeds heartbeat salvage
       from it.  Runs in worker domains: must be thread-safe. *)
    match on_point with Some f -> f ck s | None -> ()
  in
  (* Three-way split: points the resume journal answers, points the cache
     answers, and points that need a pipeline run.  With [recheck_crashes]
     a recorded [Crash] never answers a point — a crash may have been
     transient (the serve daemon's request-level retry policy re-runs the
     sweep with this set after a backoff), so the point is re-evaluated
     and its fresh summary overwrites the quarantined one. *)
  let usable (s : Eval_cache.summary) =
    not (recheck_crashes && s.Eval_cache.status = Eval_cache.Crash)
  in
  let prior, misses =
    List.partition_map
      (fun (pkey, p) ->
        let ck = cache_key pkey in
        match Hashtbl.find_opt journal_tbl ck with
        | Some s when usable s ->
          Left { point = p; pkey; summary = s; origin = Resumed }
        | Some _ | None -> (
          match Option.bind cache (fun c -> Eval_cache.find c ck) with
          | Some s when usable s ->
            Left { point = p; pkey; summary = s; origin = Cached }
          | Some _ | None -> Right (pkey, p)))
      keyed
  in
  let n_resumed =
    List.length (List.filter (fun r -> r.origin = Resumed) prior)
  in
  Obs.add c_resumed n_resumed;
  (* Cache hits are completed points too: journal them so a later resume
     does not depend on the cache file still being around.  Resumed points
     are already in the journal being appended to. *)
  List.iter
    (fun r ->
      if r.origin = Cached then record_journal (cache_key r.pkey) r.summary)
    prior;
  let miss_arr = Array.of_list misses in
  let outcomes =
    Obs.span "explore.evaluate" (fun () ->
        Domain_pool.run ?jobs ?pool ~retries
          ~should_stop:(fun () -> Cancel.cancelled cancel)
          (fun (pkey, p) ->
            let summary = evaluate ?deadline:point_deadline ~lib ~config ~name ~build p in
            (* Journal inside the worker, before the point is reported
               done: once the fsync returns this point survives any kill. *)
            record_journal (cache_key pkey) summary;
            { point = p; pkey; summary; origin = Fresh })
          miss_arr)
  in
  let fresh = ref [] in
  let pending = ref 0 in
  let first_crash = ref None in
  Array.iteri
    (fun i o ->
      let pkey, p = miss_arr.(i) in
      match o with
      | Domain_pool.Done r -> fresh := r :: !fresh
      | Domain_pool.Crashed c ->
        if !first_crash = None then first_crash := Some c;
        let summary = crash_summary c in
        record_journal (cache_key pkey) summary;
        fresh := { point = p; pkey; summary; origin = Fresh } :: !fresh
      | Domain_pool.Skipped -> incr pending)
    outcomes;
  let fresh = List.rev !fresh in
  Obs.add c_evals (List.length fresh);
  (* Strict mode re-raises after the journal has every completed point:
     the sweep dies loudly but resumably.  The lowest-indexed crash wins —
     deterministic whatever the worker interleaving was. *)
  (match !first_crash with
  | Some c when strict ->
    Printexc.raise_with_backtrace c.Domain_pool.exn c.Domain_pool.backtrace
  | Some _ | None -> ());
  (match cache with
  | Some c ->
    List.iter (fun r -> Eval_cache.add c (cache_key r.pkey) r.summary) fresh
  | None -> ());
  let results =
    List.sort (fun a b -> String.compare a.pkey b.pkey) (prior @ fresh)
  in
  let failed = count_status Eval_cache.Infeasible results in
  let timed_out = count_status Eval_cache.Timeout results in
  let crashed = count_status Eval_cache.Crash results in
  Obs.add c_failures (count_status Eval_cache.Infeasible fresh);
  Obs.add c_timeouts (count_status Eval_cache.Timeout fresh);
  Obs.add c_crashes (count_status Eval_cache.Crash fresh);
  let frontier =
    List.fold_left
      (fun acc r ->
        if Eval_cache.ok r.summary then
          Pareto.add
            {
              Pareto.key = r.pkey;
              area = r.summary.Eval_cache.area;
              delay = r.summary.Eval_cache.delay_ps;
              tag = r;
            }
            acc
        else acc)
      Pareto.empty results
    |> Pareto.frontier
  in
  {
    design_name = name;
    digest;
    results;
    frontier;
    total;
    (* Resumed points were evaluated by the same logical sweep — counting
       them here is what makes a resumed run's renderings byte-identical
       to an uninterrupted one. *)
    evaluated = List.length fresh + n_resumed;
    hits = List.length prior - n_resumed;
    resumed = n_resumed;
    failed;
    timed_out;
    crashed;
    pending = !pending;
  }

(* ------------------------------------------------------------------ *)
(* Renderings *)

let csv_header =
  "key,flow,clock_ps,ii,recover,status,area,steps,delay_ps,relaxations,regrades,recoveries,cached,frontier"

let on_frontier outcome r =
  List.exists (fun (e : point_result Pareto.entry) -> e.Pareto.key = r.pkey)
    outcome.frontier

let csv_row outcome r =
  let p = r.point and s = r.summary in
  Printf.sprintf "%s,%s,%.3f,%s,%s,%s,%.1f,%d,%.1f,%d,%d,%d,%d,%d"
    r.pkey
    (Explore_grid.flow_short p.Explore_grid.flow)
    p.Explore_grid.clock
    (match p.Explore_grid.ii with Some i -> string_of_int i | None -> "none")
    (if p.Explore_grid.recover then "on" else "off")
    (Eval_cache.status_name s.Eval_cache.status)
    s.Eval_cache.area s.Eval_cache.steps s.Eval_cache.delay_ps
    s.Eval_cache.relaxations s.Eval_cache.regrades s.Eval_cache.recoveries
    (* A resumed point renders exactly as it did in the run that journaled
       it (where it was fresh), so cached=1 means cache hit only. *)
    (if r.origin = Cached then 1 else 0)
    (if on_frontier outcome r then 1 else 0)

let to_csv outcome =
  String.concat "\n" (csv_header :: List.map (csv_row outcome) outcome.results) ^ "\n"

let to_json outcome =
  let open Obs.Json in
  let point_obj (r : point_result) =
    let p = r.point and s = r.summary in
    Obj
      [
        ("key", String r.pkey);
        ("flow", String (Explore_grid.flow_short p.Explore_grid.flow));
        ("clock_ps", Float p.Explore_grid.clock);
        ("ii", match p.Explore_grid.ii with Some i -> Int i | None -> Null);
        ("recover", Bool p.Explore_grid.recover);
        ("area", Float s.Eval_cache.area);
        ("steps", Int s.Eval_cache.steps);
        ("delay_ps", Float s.Eval_cache.delay_ps);
      ]
  in
  (* No [resumed] field: a resumed run must render byte-identically to an
     uninterrupted one, and the resumed count is the one number that
     differs between them.  The text summary carries it instead. *)
  to_string
    (Obj
       [
         ("design", String outcome.design_name);
         ("digest", String outcome.digest);
         ("total", Int outcome.total);
         ("evaluated", Int outcome.evaluated);
         ("cache_hits", Int outcome.hits);
         ("failed", Int outcome.failed);
         ("timed_out", Int outcome.timed_out);
         ("crashed", Int outcome.crashed);
         ("pending", Int outcome.pending);
         ("partial", Bool (partial outcome));
         ( "frontier",
           List
             (List.map
                (fun (e : point_result Pareto.entry) -> point_obj e.Pareto.tag)
                outcome.frontier) );
       ])

let render_summary outcome =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "explore: design %s (digest %s)\n" outcome.design_name
       (String.sub outcome.digest 0 12));
  Buffer.add_string buf
    (Printf.sprintf "%d points: %d evaluated, %d cached, resumed=%d, %d failed\n"
       outcome.total outcome.evaluated outcome.hits outcome.resumed
       outcome.failed);
  if outcome.timed_out > 0 || outcome.crashed > 0 then
    Buffer.add_string buf
      (Printf.sprintf "supervision: %d timed out, %d crashed\n"
         outcome.timed_out outcome.crashed);
  if partial outcome then
    Buffer.add_string buf
      (Printf.sprintf
         "partial sweep: %d points pending (re-run with --resume to finish)\n"
         outcome.pending);
  let failures =
    List.filter (fun r -> not (Eval_cache.ok r.summary)) outcome.results
  in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %s %s: %s\n"
           (Eval_cache.status_name r.summary.Eval_cache.status)
           r.pkey
           (match String.index_opt r.summary.Eval_cache.error '\n' with
           | Some i -> String.sub r.summary.Eval_cache.error 0 i
           | None -> r.summary.Eval_cache.error)))
    failures;
  Buffer.add_string buf
    (Printf.sprintf "frontier (%d points):\n" (List.length outcome.frontier));
  if outcome.frontier <> [] then begin
    let t =
      Text_table.create
        ~headers:[ "flow"; "clock ps"; "ii"; "recover"; "area"; "delay ps"; "steps" ]
    in
    List.iter
      (fun (e : point_result Pareto.entry) ->
        let r = e.Pareto.tag in
        let p = r.point and s = r.summary in
        Text_table.add_row t
          [
            Explore_grid.flow_short p.Explore_grid.flow;
            Printf.sprintf "%.0f" p.Explore_grid.clock;
            (match p.Explore_grid.ii with Some i -> string_of_int i | None -> "-");
            (if p.Explore_grid.recover then "on" else "off");
            Text_table.cell_float ~decimals:1 s.Eval_cache.area;
            Text_table.cell_float ~decimals:1 s.Eval_cache.delay_ps;
            string_of_int s.Eval_cache.steps;
          ])
      outcome.frontier;
    Buffer.add_string buf (Text_table.render t)
  end;
  Buffer.contents buf
