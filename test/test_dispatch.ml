(* The dispatch supervisor: every distributed fault class from Inject is
   presented by a fake worker on a real socket next to a healthy real
   daemon, and the sweep must (a) log exactly the containment response
   the class is bound to and (b) still produce the record set a
   single-process sweep produces, byte for byte.  Salvage, stealing and
   the no-worker fallback ride along. *)

module J = Obs.Json

let fir_build () =
  let f = Fir.build ~taps:8 ~latency:6 () in
  (f.Fir.dfg, 2500.0)

let designs = [ ("fir8", fir_build) ]

let temp_dir () =
  let d = Filename.temp_file "test_dispatch" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let server_config ?(jobs = 2) ?drain_after_points ~sock () =
  {
    Server.default_config with
    Server.address = Server.Unix_sock sock;
    jobs;
    high_water = 4;
    drain_deadline = 10.0;
    designs;
    drain_after_points;
  }

let with_server cfg k =
  match Server.start cfg with
  | Error m -> Alcotest.failf "server start failed: %s" m
  | Ok t ->
    let code = ref (-1) in
    let th = Thread.create (fun () -> code := Server.serve t) () in
    let r =
      Fun.protect
        ~finally:(fun () ->
          Server.drain ~reason:"test done" t;
          Thread.join th)
        (fun () -> k t)
    in
    (r, !code)

(* The canonical 4-point job every scenario sweeps: fir8 across two
   clocks and both flows, keyed exactly as the daemons key it. *)

let clocks_spec = "2400,2600"
let flows_spec = "conv,slack"
let iis_spec = "none"
let recover_spec = "on"

let mk_grid clocks =
  match
    Explore_grid.of_specs ~clocks ~flows:flows_spec ~iis:iis_spec
      ~recover:recover_spec ()
  with
  | Ok g -> g
  | Error m -> failwith m

let base_cfg = Server.default_config

let key_of =
  let dfg, _ = fir_build () in
  let digest = Dfg.digest dfg in
  let fingerprint = Explore.config_fingerprint base_cfg.Server.flow_config in
  let lib_name = Library.name base_cfg.Server.lib in
  fun pk -> Eval_cache.key ~digest ~lib:lib_name ~config:fingerprint ~point_key:pk

let mk_job clocks =
  {
    Dispatch.design = "fir8";
    clocks;
    flows = flows_spec;
    iis = iis_spec;
    recover = recover_spec;
    point_deadline = None;
    keys = List.map Explore_grid.point_key (Explore_grid.points (mk_grid clocks));
    key_of;
    cost = 1.0;
  }

let the_job = mk_job clocks_spec

(* What a single-process sweep of the same grid records, as entry lines. *)
let reference_lines_for clocks =
  let build () = fst (fir_build ()) in
  let outcome =
    Explore.run ~jobs:1 ~lib:base_cfg.Server.lib
      ~config:base_cfg.Server.flow_config ~name:"fir8" ~build (mk_grid clocks)
  in
  List.map
    (fun (r : Explore.point_result) ->
      Eval_cache.entry_line (key_of r.Explore.pkey) r.Explore.summary)
    outcome.Explore.results
  |> List.sort String.compare

let reference_lines = lazy (reference_lines_for clocks_spec)

let lines_of (o : Dispatch.outcome) =
  List.map (fun (ck, s) -> Eval_cache.entry_line ck s) o.Dispatch.records

let dispatch_config ?(lease_points = 1) ?(lease_deadline = 10.0)
    ?(heartbeat = 0.0) ?(heartbeat_misses = 2) ?(worker_strikes = 1)
    ?(steal = false) workers =
  {
    Dispatch.default_config with
    Dispatch.workers;
    lease_points;
    lease_deadline;
    heartbeat;
    heartbeat_misses;
    worker_strikes;
    steal;
  }

let run_ok = function
  | Ok o -> o
  | Error m -> Alcotest.failf "dispatch failed to start: %s" m

(* -- the fault matrix ----------------------------------------------- *)

(* Supervisor timing per class: which detector is supposed to fire is a
   configuration choice (a partitioned worker and a stalled one are
   wire-indistinguishable), so each scenario pins the timing that makes
   its intended detector win. *)
let timing_of = function
  | Inject.Dead_worker -> (10.0, 0.0)  (* connect fails instantly *)
  | Inject.Partitioned_worker -> (1.0, 0.0)  (* lease deadline first *)
  | Inject.Stalled_heartbeat -> (30.0, 0.2)  (* heartbeat misses first *)
  | Inject.Torn_response -> (10.0, 0.0)
  | Inject.Duplicate_lease_reply -> (1.0, 0.0)
  | c -> Alcotest.failf "not a distributed class: %s" (Inject.corruption_name c)

let run_fault c =
  let dir = temp_dir () in
  let sock = Filename.concat dir "real.sock" in
  let fake_path, stop = Inject.fake_worker c in
  let lease_deadline, heartbeat = timing_of c in
  let (result, _) =
    Fun.protect ~finally:stop (fun () ->
        with_server (server_config ~sock ()) (fun _t ->
            let dcfg =
              dispatch_config ~lease_deadline ~heartbeat
                [
                  ("fake", Client.Unix_path fake_path);
                  ("real", Client.Unix_path sock);
                ]
            in
            Dispatch.run dcfg [ the_job ]))
  in
  run_ok result

let test_fault c () =
  let o = run_fault c in
  let detector, response =
    match Inject.intended_dispatch_response c with
    | Some p -> p
    | None -> Alcotest.failf "%s has no intended response" (Inject.corruption_name c)
  in
  if not (List.mem (detector, response) o.Dispatch.responses) then
    Alcotest.failf "expected (%s, %s) in containment log, got [%s]" detector
      response
      (String.concat "; "
         (List.map (fun (d, r) -> d ^ "->" ^ r) o.Dispatch.responses));
  Alcotest.(check bool) "sweep completed" true o.Dispatch.complete;
  Alcotest.(check (list string))
    "records byte-identical to the single-process sweep"
    (Lazy.force reference_lines) (lines_of o)

(* Only the five distributed classes carry a dispatch response; the
   in-process classes are someone else's containment problem. *)
let test_matrix_coverage () =
  List.iter
    (fun c ->
      let is_dispatch = Inject.intended_check_prefix c = "dispatch." in
      Alcotest.(check bool)
        (Inject.corruption_name c)
        is_dispatch
        (Inject.intended_dispatch_response c <> None))
    Inject.all_corruptions

(* -- salvage and reassignment --------------------------------------- *)

(* A worker that drains itself mid-lease answers "partial" with the
   records it already journaled: the supervisor must fold those in
   (salvaged, never re-evaluated), requeue only the tail, and finish on
   the survivor with the exact single-process record set.  The leases
   are 8 points wide so the drain cut (after 1 point, at most 2 with an
   in-flight straggler) always lands strictly inside a lease whichever
   way the schedulers race. *)
let drain_clocks = "2200:2900:100"

let test_drain_salvage () =
  let dir = temp_dir () in
  let s1 = Filename.concat dir "w1.sock" in
  let s2 = Filename.concat dir "w2.sock" in
  let cfg1 = server_config ~jobs:1 ~drain_after_points:1 ~sock:s1 () in
  let cfg2 = server_config ~sock:s2 () in
  let (result, _) =
    with_server cfg2 (fun _ ->
        let (r, _) =
          with_server cfg1 (fun _ ->
              let dcfg =
                dispatch_config ~lease_points:8
                  [ ("w1", Client.Unix_path s1); ("w2", Client.Unix_path s2) ]
              in
              Dispatch.run dcfg [ mk_job drain_clocks ])
        in
        r)
  in
  let o = run_ok result in
  Alcotest.(check bool) "complete" true o.Dispatch.complete;
  Alcotest.(check bool) "reassigned at least one lease" true (o.Dispatch.reassigned >= 1);
  Alcotest.(check bool) "salvaged the drained worker's points" true
    (o.Dispatch.salvaged_points >= 1);
  Alcotest.(check bool) "worker_drained containment logged" true
    (List.mem ("worker_drained", "salvage_reassign") o.Dispatch.responses);
  Alcotest.(check (list string))
    "records byte-identical despite the mid-lease drain"
    (reference_lines_for drain_clocks) (lines_of o)

(* -- stealing ------------------------------------------------------- *)

let test_steal () =
  let dir = temp_dir () in
  let s1 = Filename.concat dir "w1.sock" in
  let s2 = Filename.concat dir "w2.sock" in
  let (result, _) =
    with_server (server_config ~sock:s2 ()) (fun _ ->
        let (r, _) =
          with_server (server_config ~sock:s1 ()) (fun _ ->
              (* one big lease: the second worker has nothing queued and
                 must split the straggler's tail to contribute *)
              let dcfg =
                dispatch_config ~lease_points:16 ~steal:true
                  [ ("w1", Client.Unix_path s1); ("w2", Client.Unix_path s2) ]
              in
              Dispatch.run dcfg [ mk_job drain_clocks ])
        in
        r)
  in
  let o = run_ok result in
  Alcotest.(check bool) "complete" true o.Dispatch.complete;
  Alcotest.(check bool) "stole a tail" true (o.Dispatch.stolen >= 1);
  Alcotest.(check bool) "steal containment logged" true
    (List.mem ("straggler", "steal_tail") o.Dispatch.responses);
  Alcotest.(check (list string))
    "duplicated evaluations collapse byte-identically"
    (reference_lines_for drain_clocks) (lines_of o)

(* -- stop and grant order -------------------------------------------- *)

(* The sweep ends when its last record lands: a heartbeater napping
   through a 20 s probe period must not hold the supervisor's exit. *)
let test_stop_wakes_heartbeat () =
  let dir = temp_dir () in
  let sock = Filename.concat dir "w.sock" in
  let ((result, wall), _) =
    with_server (server_config ~sock ()) (fun _ ->
        let t0 = Unix.gettimeofday () in
        let r =
          Dispatch.run
            (dispatch_config ~heartbeat:20.0 [ ("w", Client.Unix_path sock) ])
            [ the_job ]
        in
        (r, Unix.gettimeofday () -. t0))
  in
  let o = run_ok result in
  Alcotest.(check bool) "complete" true o.Dispatch.complete;
  Alcotest.(check (list string))
    "records byte-identical to the single-process sweep"
    (Lazy.force reference_lines) (lines_of o);
  if wall >= 5.0 then
    Alcotest.failf "a 4-point sweep took %.1f s with a 20 s heartbeat" wall

(* A worker that answers each lease with the reference records of its
   keys and logs (lease id, keys) in arrival order: with one worker that
   is the supervisor's grant order. *)
let recording_worker path answers =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 4;
  let log = ref [] and stopped = Atomic.make false in
  let rec serve conn =
    match Protocol.read_frame ~should_stop:(fun () -> Atomic.get stopped) conn with
    | Protocol.Frame body -> (
      match Protocol.parse_request body with
      | Ok { Protocol.id; req = Protocol.Shard_explore { lease; keys; _ }; _ } ->
        log := (lease, keys) :: !log;
        let records = List.map (fun pk -> J.String (Hashtbl.find answers (key_of pk))) keys in
        Protocol.write_frame (Protocol.fd conn)
          (Protocol.response ~id ~status:"ok"
             [ ("lease", J.String lease); ("records", J.List records) ]);
        serve conn
      | _ -> ())
    | _ -> ()
  in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get stopped) do
          match Unix.select [ fd ] [] [] 0.05 with
          | [], _, _ -> ()
          | _ ->
            let c, _ = Unix.accept fd in
            serve (Protocol.make c);
            Unix.close c
        done)
      ()
  in
  let stop () =
    Atomic.set stopped true;
    Thread.join th;
    Unix.close fd
  in
  ((fun () -> List.rev !log), stop)

(* Two jobs, the cheap one listed first: its leases keep the plan-order
   ids L0 and L1, but the costlier job's L2 and L3 are granted first. *)
let test_costliest_first () =
  let cheap = mk_job clocks_spec in
  let costly = { (mk_job "2200,2300") with Dispatch.cost = 2.0 } in
  let answers = Hashtbl.create 16 in
  let reference =
    List.sort String.compare
      (Lazy.force reference_lines @ reference_lines_for costly.Dispatch.clocks)
  in
  List.iter
    (fun line ->
      match Eval_cache.parse_line line with
      | Some (ck, _) -> Hashtbl.replace answers ck line
      | None -> Alcotest.failf "unparseable reference line %S" line)
    reference;
  let sock = Filename.concat (temp_dir ()) "rec.sock" in
  let arrivals, stop = recording_worker sock answers in
  let result =
    Fun.protect ~finally:stop (fun () ->
        Dispatch.run
          (dispatch_config ~lease_points:2 [ ("rec", Client.Unix_path sock) ])
          [ cheap; costly ])
  in
  let o = run_ok result in
  let log = arrivals () in
  Alcotest.(check (list string))
    "costlier job granted first; ids in plan order" [ "L2"; "L3"; "L0"; "L1" ]
    (List.map fst log);
  Alcotest.(check (list string))
    "L0 and L1 lease the first-listed job's keys"
    (List.sort String.compare cheap.Dispatch.keys)
    (List.sort String.compare
       (List.concat_map (fun (id, ks) -> if id = "L0" || id = "L1" then ks else []) log));
  Alcotest.(check bool) "complete" true o.Dispatch.complete;
  Alcotest.(check (list string)) "records" reference (lines_of o)

(* -- degraded startup ----------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_no_worker_reachable () =
  let dcfg =
    dispatch_config [ ("gone", Client.Unix_path "/nonexistent/nowhere.sock") ]
  in
  match Dispatch.run dcfg [ the_job ] with
  | Ok _ -> Alcotest.fail "expected Error when no worker is reachable"
  | Error m ->
    Alcotest.(check bool) "error names the pool size" true
      (contains m "1 configured")

(* A daemon without the design refuses each lease with an error reply that
   names the lease: the supervisor aborts at once with the worker's name
   and message, instead of dropping the reply as stale and waiting out the
   lease deadline. *)
let test_unknown_design_aborts () =
  let sock = Filename.concat (temp_dir ()) "bare.sock" in
  let ((result, wall), _) =
    with_server { (server_config ~sock ()) with Server.designs = [] } (fun _ ->
        let t0 = Unix.gettimeofday () in
        let r = Dispatch.run (dispatch_config [ ("bare", Client.Unix_path sock) ]) [ the_job ] in
        (r, Unix.gettimeofday () -. t0))
  in
  let o = run_ok result in
  Alcotest.(check bool) "incomplete" false o.Dispatch.complete;
  (match o.Dispatch.abort with
  | Some m when contains m "bare" && contains m "unknown design" -> ()
  | Some m -> Alcotest.failf "the abort names no worker or design: %s" m
  | None -> Alcotest.fail "the sweep did not abort");
  if wall >= 5.0 then
    Alcotest.failf "the abort took %.1f s with a 10 s lease deadline" wall

(* A worker at its high-water mark sheds each lease with an [overloaded]
   reply that names the lease: the supervisor requeues it on the other
   worker at once, instead of dropping the reply as stale and waiting out
   a 20 s lease deadline.  Another client's request holds the busy
   worker's one admission slot: building its design blocks until the
   sweep is over. *)
let test_busy_worker_requeues () =
  let dir = temp_dir () in
  let busy = Filename.concat dir "busy.sock" and spare = Filename.concat dir "spare.sock" in
  let release = Atomic.make false in
  let stalled () =
    while not (Atomic.get release) do Thread.delay 0.01 done;
    fir_build ()
  in
  let busy_cfg =
    {
      (server_config ~jobs:1 ~sock:busy ()) with
      Server.high_water = 1;
      designs = ("stalled", stalled) :: designs;
    }
  in
  let inflight () =
    match Client.one_shot (Client.Unix_path busy) {|{"op":"stats","id":"s"}|} with
    | Ok body -> (
      match J.parse body with
      | Ok (J.Obj fields) -> List.assoc_opt "inflight" fields
      | _ -> None)
    | Error _ -> None
  in
  let ((result, wall), _) =
    with_server (server_config ~sock:spare ()) (fun _ ->
        let (r, _) =
          with_server busy_cfg (fun _ ->
              let holder =
                Thread.create
                  (fun () ->
                    ignore
                      (Client.one_shot (Client.Unix_path busy)
                         {|{"op":"run","id":"hold","design":"stalled"}|}))
                  ()
              in
              Fun.protect
                ~finally:(fun () ->
                  Atomic.set release true;
                  Thread.join holder)
                (fun () ->
                  let t0 = Unix.gettimeofday () in
                  while inflight () <> Some (J.Int 1) do
                    if Unix.gettimeofday () -. t0 > 10.0 then
                      Alcotest.fail "the holding request was never admitted";
                    Thread.delay 0.01
                  done;
                  let t0 = Unix.gettimeofday () in
                  let r =
                    Dispatch.run
                      (dispatch_config ~lease_deadline:20.0
                         [ ("busy", Client.Unix_path busy); ("spare", Client.Unix_path spare) ])
                      [ the_job ]
                  in
                  (r, Unix.gettimeofday () -. t0)))
        in
        r)
  in
  let o = run_ok result in
  Alcotest.(check bool) "complete" true o.Dispatch.complete;
  Alcotest.(check bool) "busy replies requeued" true
    (List.mem ("worker_busy", "requeue") o.Dispatch.responses);
  Alcotest.(check bool) "no busy reply dropped as stale" false
    (List.mem ("duplicate_reply", "drop") o.Dispatch.responses);
  Alcotest.(check (list string))
    "records byte-identical to the single-process sweep"
    (Lazy.force reference_lines) (lines_of o);
  if wall >= 5.0 then
    Alcotest.failf "the sweep took %.1f s with a 20 s lease deadline" wall

let () =
  let fault c =
    Alcotest.test_case
      (Printf.sprintf "%s contained" (Inject.corruption_name c))
      `Slow (test_fault c)
  in
  Alcotest.run "dispatch"
    [
      ( "containment",
        [
          fault Inject.Dead_worker;
          fault Inject.Partitioned_worker;
          fault Inject.Stalled_heartbeat;
          fault Inject.Torn_response;
          fault Inject.Duplicate_lease_reply;
          Alcotest.test_case "matrix covers exactly the distributed classes"
            `Quick test_matrix_coverage;
        ] );
      ( "salvage",
        [ Alcotest.test_case "drained worker salvaged and reassigned" `Slow
            test_drain_salvage ] );
      ( "steal",
        [ Alcotest.test_case "idle worker steals a straggler tail" `Slow
            test_steal ] );
      ( "stop",
        [
          Alcotest.test_case "a long heartbeat does not delay the end" `Slow
            test_stop_wakes_heartbeat;
          Alcotest.test_case "costliest job's leases granted first" `Quick
            test_costliest_first;
        ] );
      ( "fallback",
        [ Alcotest.test_case "no reachable worker is a startup error" `Quick
            test_no_worker_reachable ] );
      ( "refusal",
        [
          Alcotest.test_case "a lease refused for an unknown design aborts" `Quick
            test_unknown_design_aborts;
          Alcotest.test_case "a busy worker's lease is requeued at once" `Quick
            test_busy_worker_requeues;
        ] );
    ]
