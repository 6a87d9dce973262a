(* fleet: the user command `hlsc sweep --corpus M --workers unix:a,unix:b`
   against two `hlsc serve --corpus M --jobs 1` daemons, on the corpus
   workload's designs — the only path through leases, heartbeats,
   journal-payload framing, re-journal/merge and the per-design fold.  Its
   inputs are the corpus workload's, so the difference between the two is
   the cost of distribution.  The daemons are fresh every round (their
   caches start cold).  The sweep runs with a 0.1 s heartbeat: at the
   default 1 s period its exit waits for the heartbeat threads' sleep,
   which quantized the wall time to whole seconds (3.1 s or 4.1 s on
   identical inputs).  The inputs do not depend on the seed: permuting
   the manifest order repacks the leases, which moved the sweep's wall
   time by a third between seeds. *)

open Common

let jobs = 2

let leases_of_log log =
  match In_channel.with_open_text log In_channel.input_lines with
  | exception Sys_error _ -> None
  | lines ->
    List.find_map
      (fun l ->
        try Scanf.sscanf l "sweep: dispatched %d points to %d worker%s@: %d leases" (fun _ _ _ n -> Some n)
        with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
      lines

let journal_records path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error m -> Error m
  | _header :: records -> Ok records
  | [] -> Error (path ^ ": empty journal")

let run ~size ~seed:_ ~seconds ~traced ~chrome =
  let failures = ref [] in
  let fail m = failures := m :: !failures in
  let selection = Corpus_wl.selection size in
  let setups = ref [] and bench_rss = ref 0.0 and child_rss = ref [] in
  let ledger = ref Ledger.empty in
  let first = ref None in
  let leases = ref [] and post_merge = ref [] and busy = ref [] in
  let round i =
    let traced = traced_round ~traced i in
    (* Set-up: write the manifest and start both daemons. *)
    let (entries, manifest, ds), setup_s =
      set_up ~probe:both_cores (fun () ->
          let entries = take selection (population ()) in
          let manifest = Proc.path "fleet-manifest.tsv" in
          Corpus.save ~path:manifest ~seed:manifest_seed entries;
          let daemon w =
            Proc.start_daemon ~name:(Printf.sprintf "fleet-%d-%c" i w)
              ([ "--corpus"; manifest; "--jobs"; "1" ] @ if traced then [ "--stats" ] else [])
          in
          (entries, manifest, List.map daemon [ 'a'; 'b' ]))
    in
    setups := setup_s :: !setups;
    Fun.protect ~finally:(fun () -> List.iter (fun (d : Proc.daemon) -> Proc.stop d.Proc.pid) ds)
    @@ fun () ->
    let dir = Proc.path (Printf.sprintf "sweep-%d" i) in
    let workers =
      String.concat ","
        (List.map (fun (d : Proc.daemon) -> match d.Proc.addr with Client.Unix_path p -> "unix:" ^ p | Client.Tcp (h, p) -> Printf.sprintf "%s:%d" h p) ds)
    in
    let log = Printf.sprintf "sweep-%d.log" i in
    (* While the sweep runs, the otherwise idle benchmark samples its peak
       RSS, the machine speed (the sweep is one unit of seconds, too long
       to calibrate only around it, so both cores are probed every 0.1 s)
       and, traced, when the last lease left the daemons (health probes
       bypass admission, so probing does not disturb the sweep), in
       seconds since the sweep started. *)
    let sweep_rss = ref 0.0 and last_lease = ref 0.0 and speeds = ref [ both_cores () ] in
    let (status, wall), _ =
      with_stats ~on:traced ~chrome:(chrome && i = 1) @@ fun () ->
      let t0_ns = Obs.now_ns () and t0 = now () in
      let pid =
        Proc.spawn ~log [ "sweep"; "--corpus"; manifest; "--workers"; workers; "--heartbeat"; "0.1"; "--dir"; dir ]
      in
      let rec wait sampled =
        match Proc.poll pid with
        | Some st -> st
        | None ->
          sweep_rss := Float.max !sweep_rss (vmhwm_mb pid);
          if traced && List.exists Proc.leasing ds then last_lease := now () -. t0;
          let sampled =
            if now () -. sampled < 0.1 then sampled
            else begin
              speeds := both_cores () :: !speeds;
              now ()
            end
          in
          Unix.sleepf 0.01;
          wait sampled
      in
      let st = wait t0 in
      let wall = now () -. t0 in
      Obs.note_span ~name:"bench.dispatch.sweep" ~t0_ns ~t1_ns:(Obs.now_ns ()) ();
      (st, wall)
    in
    let speed = mean (both_cores () :: !speeds) in
    if status <> Unix.WEXITED 0 then fail (Printf.sprintf "round %d: sweep failed (log %s)" (i + 1) (Proc.path log));
    if i = 0 then bench_rss := vmhwm_mb (Unix.getpid ());
    child_rss := (!sweep_rss +. List.fold_left (fun s (d : Proc.daemon) -> s +. vmhwm_mb d.Proc.pid) 0.0 ds) :: !child_rss;
    (match journal_records (Filename.concat dir "merged.jnl") with
    | Error m -> fail m
    | Ok records -> (
      let records = List.sort compare records in
      match !first with
      | None -> first := Some records
      | Some r0 -> if records <> r0 then fail (Printf.sprintf "round %d: merged journal differs from round 1" (i + 1))));
    if traced then begin
      Option.iter (fun n -> leases := float_of_int n :: !leases) (leases_of_log (Proc.path log));
      post_merge := ((wall -. !last_lease) *. speed) :: !post_merge;
      let l =
        List.fold_left
          (fun acc d ->
            match Proc.telemetry d with
            | Ok snap -> Ledger.add acc (Ledger.of_telemetry snap)
            | Error m -> fail ("telemetry: " ^ m); acc)
          Ledger.empty ds
      in
      busy := ratio ((Ledger.span l "serve.shard_explore").Ledger.ns /. 1e9) (float_of_int jobs *. wall) :: !busy;
      ledger := Ledger.add !ledger l
    end;
    {
      traced;
      items = List.fold_left (fun n e -> n + Explore_grid.size (grid_of e)) 0 entries;
      wall_s = wall;
      speed;
      compile = [ ("sweep", wall *. speed *. 1000.0) ];
    }
  in
  let rounds = repeat ~size ~seconds ~traced round in
  (* Correctness: the merged journal holds exactly the records an
     in-process sweep of the same designs produces. *)
  let entries = take selection (population ()) in
  let reference, reference_wall, reference_speed =
    calibrated ~probe:both_cores (fun () -> List.concat_map (fun e -> record_lines (sweep ~jobs e)) entries)
  in
  let reference = List.sort compare reference in
  let records = Option.value ~default:[] !first in
  if records <> reference then fail "merged journal differs from the in-process sweep";
  let feasible =
    List.filter_map
      (fun line ->
        match Eval_cache.parse_line line with
        | Some (_, s) when Eval_cache.ok s -> Some s.Eval_cache.area
        | _ -> None)
      records
  in
  let sweeps_ms = List.map (fun r -> snd (List.hd r.compile)) (untraced rounds) in
  {
    attempted = List.fold_left (fun n r -> n + r.items) 0 rounds;
    failures = List.rev !failures;
    setups = !setups;
    shape = Sequential;
    rounds;
    latencies = sweeps_ms;
    areas = feasible;
    distinct = List.length records;
    rss_mb = !bench_rss +. median !child_rss;
    digest = digest_lines records;
    owned =
      [
        ("dispatch.leases", median !leases);
        ("dispatch.worker_busy_frac", median !busy);
        ("dispatch.post_merge_s", median !post_merge);
        ("dispatch.overhead_ratio", ratio (median sweeps_ms /. 1000.0) (reference_wall *. reference_speed));
      ];
    ledger = !ledger;
  }
