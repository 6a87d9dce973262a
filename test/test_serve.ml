(* The synthesis daemon: protocol framing and parsing (pure), then real
   servers on temp Unix sockets — concurrent clients against the shared
   pool/cache, admission-control shedding under an injected overload
   burst, stalled-client containment, and the drain/journal/resume
   contract.  Journal load robustness (torn headers, empty files) rides
   along because the daemon's exit-5 path depends on it. *)

module J = Obs.Json

let fir_build () =
  let f = Fir.build ~taps:8 ~latency:6 () in
  (f.Fir.dfg, 2500.0)

let designs = [ ("fir8", fir_build) ]

let temp_dir () =
  let d = Filename.temp_file "test_serve" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let server_config ?(jobs = 2) ?(high_water = 4) ?journal_path ?drain_after_points
    ?(read_timeout = 5.0) ~sock () =
  {
    Server.default_config with
    Server.address = Server.Unix_sock sock;
    jobs;
    high_water;
    read_timeout;
    drain_deadline = 10.0;
    designs;
    journal_path;
    drain_after_points;
  }

(* Start a daemon, run [k] against it, then drain and return
   (k's result, daemon exit code). *)
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
          Thread.join th;
          Obs.Events.set_hook None)
        (fun () -> k t)
    in
    (r, !code)

let explore_payload ?trace ~id ~clocks () =
  J.to_string
    (Protocol.request_to_json
       {
         Protocol.id;
         deadline_s = None;
         trace;
         req =
           Protocol.Explore
             {
               design = "fir8";
               clocks;
               flows = "slack";
               iis = "none";
               recover = "on";
               point_deadline = None;
             };
       })

let status_of body =
  match Protocol.response_status body with
  | Ok (s, _) -> s
  | Error m -> Alcotest.failf "unparseable response %s: %s" body m

let field body name =
  match J.parse body with
  | Ok (J.Obj fields) -> List.assoc_opt name fields
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Protocol: pure framing *)

let test_frame_roundtrip () =
  let payload = {|{"op":"ping","id":"x"}|} in
  let wire = Protocol.frame payload in
  Alcotest.(check int) "length prefix" (4 + String.length payload)
    (String.length wire);
  (match Protocol.split wire with
  | Protocol.Complete (p, rest) ->
    Alcotest.(check string) "payload survives" payload p;
    Alcotest.(check string) "nothing left over" "" rest
  | _ -> Alcotest.fail "complete frame did not decode");
  (* Two concatenated frames decode in order. *)
  let wire2 = wire ^ Protocol.frame "second" in
  match Protocol.split wire2 with
  | Protocol.Complete (p, rest) ->
    Alcotest.(check string) "first of two" payload p;
    (match Protocol.split rest with
    | Protocol.Complete (p2, "") -> Alcotest.(check string) "second" "second" p2
    | _ -> Alcotest.fail "second frame did not decode")
  | _ -> Alcotest.fail "first of two frames did not decode"

let test_truncated_frame () =
  let wire = Protocol.frame {|{"op":"stats"}|} in
  (* Every strict prefix — including a bare partial length word — is
     Incomplete, never a crash or a bogus decode. *)
  for k = 0 to String.length wire - 1 do
    match Protocol.split (Inject.slow_client ~prefix_bytes:k wire) with
    | Protocol.Incomplete -> ()
    | Protocol.Complete _ -> Alcotest.failf "prefix %d decoded" k
    | Protocol.Oversized _ -> Alcotest.failf "prefix %d oversized" k
  done

let test_oversized_frame () =
  let wire = Protocol.frame (String.make 100 'x') in
  match Protocol.split ~max_bytes:10 wire with
  | Protocol.Oversized n -> Alcotest.(check int) "declared length" 100 n
  | _ -> Alcotest.fail "oversized frame accepted"

(* The size guard is a limit, not an off-by-one: a frame of exactly
   max_bytes decodes, one byte more cannot. *)
let test_oversized_boundary () =
  let at_max = String.make 10 'a' in
  (match Protocol.split ~max_bytes:10 (Protocol.frame at_max) with
  | Protocol.Complete (p, "") ->
    Alcotest.(check string) "len = max decodes" at_max p
  | _ -> Alcotest.fail "frame of exactly max_bytes rejected");
  match Protocol.split ~max_bytes:10 (Protocol.frame (String.make 11 'a')) with
  | Protocol.Oversized n -> Alcotest.(check int) "len = max+1 rejected" 11 n
  | _ -> Alcotest.fail "frame of max_bytes+1 accepted"

(* A peer dribbling one byte at a time keeps the stall clock fed, so
   read_frame must assemble the frame rather than time out — while a
   20ms SIGALRM storm interrupts its select/read with EINTR, which must
   be retried, never surfaced. *)
let test_read_frame_dribble_eintr () =
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  let itimer v =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = v; it_value = v })
  in
  itimer 0.02;
  let payload = {|{"op":"ping","id":"dribble"}|} in
  let wire = Protocol.frame payload in
  let writer =
    Thread.create
      (fun () ->
        String.iter
          (fun ch ->
            ignore (Unix.write_substring w (String.make 1 ch) 0 1);
            Thread.delay 0.005)
          wire;
        Unix.close w)
      ()
  in
  let res =
    Fun.protect
      ~finally:(fun () ->
        itimer 0.0;
        ignore (Sys.signal Sys.sigalrm old);
        Thread.join writer;
        Unix.close r)
      (fun () -> Protocol.read_frame ~stall:1.0 (Protocol.make r))
  in
  match res with
  | Protocol.Frame p ->
    Alcotest.(check string) "dribbled frame assembles" payload p
  | Protocol.Eof -> Alcotest.fail "dribbled frame read as eof"
  | Protocol.Stalled -> Alcotest.fail "dribbled frame read as stalled"
  | Protocol.Too_big n -> Alcotest.failf "dribbled frame read as too_big %d" n
  | Protocol.Stopped -> Alcotest.fail "dribbled frame read as stopped"

(* frame/split are exact inverses on any payload, and split hands back
   trailing bytes untouched; max_bytes pinned to the payload length also
   re-asserts the boundary above on every generated case. *)
let prop_frame_split_roundtrip =
  QCheck.Test.make ~name:"frame/split round-trip on arbitrary payloads"
    ~count:500
    QCheck.(pair string small_string)
    (fun (payload, extra) ->
      let wire = Protocol.frame payload ^ extra in
      match Protocol.split ~max_bytes:(String.length payload) wire with
      | Protocol.Complete (p, rest) -> String.equal p payload && String.equal rest extra
      | Protocol.Incomplete | Protocol.Oversized _ -> false)

let test_parse_request_errors () =
  let err s =
    match Protocol.parse_request s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" s
  in
  err "not json at all";
  err "{\"no_op\":true}";
  err "{\"op\":\"bogus\"}";
  err "{\"op\":\"run\"}";                (* missing design *)
  err "{\"op\":\"run\",\"design\":42}";  (* wrong type *)
  err "{\"op\":\"explore\",\"design\":\"fir8\"}";  (* missing clocks *)
  err "[1,2,3]"

let test_request_roundtrip () =
  let env =
    {
      Protocol.id = "r7";
      deadline_s = Some 2.5;
      trace =
        Some { Protocol.trace_id = "T-abc"; parent = "dispatch"; lease = Some "L3" };
      req =
        Protocol.Explore
          {
            design = "fir8";
            clocks = "2000:3000:100";
            flows = "slack";
            iis = "none";
            recover = "both";
            point_deadline = Some 0.5;
          };
    }
  in
  match Protocol.parse_request (J.to_string (Protocol.request_to_json env)) with
  | Error m -> Alcotest.failf "round-trip rejected: %s" m
  | Ok got ->
    Alcotest.(check bool) "round-trips" true (got = env)

(* Any request ⇒ encode ⇒ decode preserves the whole envelope, trace
   context included: the propagation property every fleet trace rests
   on — a hop that drops or mangles the trace envelope unlinks a worker
   lane from its sweep. *)
let prop_trace_envelope_roundtrip =
  let open QCheck in
  let ident = Gen.(string_size ~gen:printable (int_range 0 12)) in
  let gen_trace =
    Gen.(
      map3
        (fun trace_id parent lease -> { Protocol.trace_id; parent; lease })
        ident ident (opt ident))
  in
  let gen_req =
    Gen.oneof
      [
        Gen.return Protocol.Ping;
        Gen.return Protocol.Stats;
        Gen.return Protocol.Shutdown;
        Gen.return Protocol.Health;
        Gen.return Protocol.Telemetry;
        Gen.map
          (fun design -> Protocol.Run { design; clock = None; flow = "slack" })
          ident;
        Gen.map2
          (fun design clocks ->
            Protocol.Explore
              {
                design;
                clocks;
                flows = "slack";
                iis = "none";
                recover = "on";
                point_deadline = None;
              })
          ident ident;
        Gen.map3
          (fun design lease keys ->
            Protocol.Shard_explore
              {
                design;
                clocks = "2000:2100:100";
                flows = "slack";
                iis = "none";
                recover = "on";
                point_deadline = None;
                lease;
                keys;
              })
          ident ident
          Gen.(list_size (int_range 0 4) ident);
      ]
  in
  let gen_env =
    Gen.(
      map3
        (fun id trace req -> { Protocol.id; deadline_s = None; trace; req })
        ident (opt gen_trace) gen_req)
  in
  Test.make ~name:"request encode/decode preserves the trace envelope"
    ~count:300 (make gen_env)
    (fun env ->
      match
        Protocol.parse_request (J.to_string (Protocol.request_to_json env))
      with
      | Error _ -> false
      | Ok got -> got.Protocol.trace = env.Protocol.trace && got = env)

let test_exit_codes () =
  let c = Protocol.exit_code_of_status in
  Alcotest.(check int) "ok" 0 (c "ok");
  Alcotest.(check int) "crashed" 1 (c "crashed");
  Alcotest.(check int) "error" 2 (c "error");
  Alcotest.(check int) "failed" 4 (c "failed");
  Alcotest.(check int) "timed_out" 4 (c "timed_out");
  Alcotest.(check int) "overloaded" 5 (c "overloaded");
  Alcotest.(check int) "draining" 5 (c "draining");
  Alcotest.(check int) "partial" 5 (c "partial");
  Alcotest.(check int) "garbage" 1 (c "wat")

(* A malformed frame gets a structured error response on the same
   connection — and the connection stays usable. *)
let test_malformed_gets_error_response () =
  let dir = temp_dir () in
  let sock = Filename.concat dir "s.sock" in
  let (), _code =
    with_server (server_config ~sock ()) (fun _t ->
        match Client.connect (Client.Unix_path sock) with
        | Error m -> Alcotest.fail m
        | Ok c ->
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          (match Client.request c "this is not json" with
          | Error m -> Alcotest.failf "no response to malformed request: %s" m
          | Ok body ->
            Alcotest.(check string) "structured error" "error" (status_of body));
          (* Same connection still answers a well-formed request. *)
          match Client.request c {|{"op":"ping","id":"after"}|} with
          | Error m -> Alcotest.failf "connection dead after error: %s" m
          | Ok body -> Alcotest.(check string) "recovers" "ok" (status_of body))
  in
  ()

(* ------------------------------------------------------------------ *)
(* Concurrency: 4 clients against a 2-domain pool, responses
   byte-identical to the same requests served sequentially. *)

let concurrent_grids =
  [ "2000:2300:100"; "2300:2600:100"; "2600:2900:100"; "2100:2800:200" ]

let test_concurrent_matches_sequential () =
  let run_requests ~concurrent =
    let dir = temp_dir () in
    let sock = Filename.concat dir "s.sock" in
    let bodies, _code =
      with_server (server_config ~jobs:2 ~high_water:8 ~sock ()) (fun _t ->
          let send i clocks =
            match
              Client.one_shot (Client.Unix_path sock)
                (explore_payload ~id:(Printf.sprintf "c%d" i) ~clocks ())
            with
            | Ok body -> body
            | Error m -> Alcotest.failf "request %d failed: %s" i m
          in
          if concurrent then
            Inject.overload_burst ~clients:(List.length concurrent_grids)
              (fun i -> send i (List.nth concurrent_grids i))
          else
            List.mapi send concurrent_grids)
    in
    bodies
  in
  let conc = run_requests ~concurrent:true in
  let seq = run_requests ~concurrent:false in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string)
        (Printf.sprintf "request %d byte-identical" i)
        b a)
    (List.combine conc seq);
  List.iter
    (fun body -> Alcotest.(check string) "all ok" "ok" (status_of body))
    conc

(* ------------------------------------------------------------------ *)
(* Overload: a synchronized burst above high water must shed with a
   retry-after hint while at least one request is served. *)

let test_overload_burst_sheds () =
  let dir = temp_dir () in
  let sock = Filename.concat dir "s.sock" in
  let shed_before = Obs.value (Obs.counter "serve.shed") in
  let bodies, _code =
    with_server (server_config ~jobs:1 ~high_water:1 ~sock ()) (fun _t ->
        Inject.overload_burst ~clients:6 (fun i ->
            match
              Client.one_shot (Client.Unix_path sock)
                (explore_payload ~id:(Printf.sprintf "b%d" i)
                   ~clocks:"2000:2500:5" ())
            with
            | Ok body -> body
            | Error m -> Alcotest.failf "burst client %d failed: %s" i m))
  in
  let statuses = List.map status_of bodies in
  Alcotest.(check int) "every client answered" 6 (List.length statuses);
  let count s = List.length (List.filter (String.equal s) statuses) in
  Alcotest.(check bool) "at least one served" true (count "ok" >= 1);
  Alcotest.(check bool) "at least one shed" true (count "overloaded" >= 1);
  List.iter
    (fun s ->
      if not (List.mem s [ "ok"; "overloaded" ]) then
        Alcotest.failf "unexpected status %s" s)
    statuses;
  (* Shed responses carry the retry hint; the shed counter moved. *)
  List.iter
    (fun body ->
      if status_of body = "overloaded" then
        match field body "retry_after_s" with
        | Some (J.Float _) | Some (J.Int _) -> ()
        | _ -> Alcotest.fail "overloaded response lacks retry_after_s")
    bodies;
  Alcotest.(check bool) "serve.shed counted" true
    (Obs.value (Obs.counter "serve.shed") > shed_before)

(* ------------------------------------------------------------------ *)
(* Slow client: a dribbled frame must trip the read timeout, get a
   structured error, and cost a counter — not pin the reader thread. *)

let test_slow_client_contained () =
  let dir = temp_dir () in
  let sock = Filename.concat dir "s.sock" in
  let slow_before = Obs.value (Obs.counter "serve.slow_clients") in
  let (), _code =
    with_server (server_config ~read_timeout:0.3 ~sock ()) (fun _t ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        @@ fun () ->
        Unix.connect fd (Unix.ADDR_UNIX sock);
        let torn =
          Inject.slow_client ~prefix_bytes:7
            (Protocol.frame {|{"op":"ping","id":"slow"}|})
        in
        let _ = Unix.write_substring fd torn 0 (String.length torn) in
        (* ...and now stall.  The daemon must answer with an error frame
           once its stall budget expires. *)
        match Protocol.read_frame ~stall:30.0 (Protocol.make fd) with
        | Protocol.Frame body ->
          Alcotest.(check string) "stall reported" "error" (status_of body)
        | other ->
          Alcotest.failf "expected error frame, got %s"
            (match other with
            | Protocol.Eof -> "eof"
            | Protocol.Stalled -> "stalled"
            | Protocol.Too_big _ -> "too_big"
            | Protocol.Stopped -> "stopped"
            | Protocol.Frame _ -> assert false))
  in
  Alcotest.(check bool) "serve.slow_clients counted" true
    (Obs.value (Obs.counter "serve.slow_clients") > slow_before)

(* ------------------------------------------------------------------ *)
(* Drain: a deterministic mid-sweep drain journals the completed prefix,
   exits 5, and the journal resumes to a byte-identical outcome. *)

let grid_of clocks =
  match Explore_grid.of_specs ~clocks ~flows:"slack" () with
  | Ok g -> g
  | Error m -> Alcotest.fail m

let sweep ?resume clocks =
  Explore.run ?resume ~jobs:2 ~lib:Library.default ~config:Flows.default_config
    ~name:"fir8"
    ~build:(fun () -> fst (fir_build ()))
    (grid_of clocks)

let test_drain_journals_and_resumes () =
  let dir = temp_dir () in
  let sock = Filename.concat dir "s.sock" in
  let journal_path = Filename.concat dir "serve.journal" in
  let clocks = "2000:2900:100" in
  let body, code =
    with_server
      (server_config ~jobs:2 ~sock ~journal_path ~drain_after_points:3 ())
      (fun _t ->
        match
          Client.one_shot (Client.Unix_path sock)
            (explore_payload ~id:"d1" ~clocks ())
        with
        | Ok body -> body
        | Error m -> Alcotest.failf "drained request failed: %s" m)
  in
  Alcotest.(check string) "response is partial" "partial" (status_of body);
  Alcotest.(check int) "daemon exits 5" 5 code;
  match Journal.load ~path:journal_path with
  | Error m -> Alcotest.failf "journal unreadable: %s" m
  | Ok (entries, quarantined) ->
    Alcotest.(check int) "no quarantined records" 0 quarantined;
    Alcotest.(check bool) "journal has completed points" true
      (List.length entries > 0);
    (* The serve daemon ran under the same fingerprint as the CLI
       defaults, so a plain resumed sweep matches an uninterrupted one
       byte for byte. *)
    let resumed = sweep ~resume:entries clocks in
    let full = sweep clocks in
    Alcotest.(check bool) "resumed sweep used the journal" true
      (resumed.Explore.resumed > 0);
    Alcotest.(check string) "byte-identical CSV" (Explore.to_csv full)
      (Explore.to_csv resumed)

(* ------------------------------------------------------------------ *)
(* --once self-test mode *)

let test_once_ping () =
  match
    Server.once
      { Server.default_config with Server.designs }
      ~request_json:"{\"op\":\"ping\",\"id\":\"self\"}"
  with
  | Error m -> Alcotest.fail m
  | Ok (responses, daemon_code) ->
    Obs.Events.set_hook None;
    (match responses with
    | [ (body, code) ] ->
      Alcotest.(check string) "ok" "ok" (status_of body);
      Alcotest.(check int) "request code" 0 code
    | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
    Alcotest.(check int) "clean drain exits 0" 0 daemon_code

(* A run request that names its clock makes the design only for the
   sweep: once for the design digest, plus once to evaluate a cache miss.
   Reading the default clock as well made one more per request. *)
let test_run_makes_design_once () =
  let dir = temp_dir () in
  let sock = Filename.concat dir "s.sock" in
  let calls = Atomic.make 0 in
  let counting () =
    Atomic.incr calls;
    fir_build ()
  in
  let run = {|{"op":"run","id":"r1","design":"fir8","clock":2500.0,"flow":"slack"}|} in
  let made_by_request () =
    let before = Atomic.get calls in
    (match Client.one_shot (Client.Unix_path sock) run with
    | Ok body -> Alcotest.(check string) "ok" "ok" (status_of body)
    | Error m -> Alcotest.fail m);
    Atomic.get calls - before
  in
  let (), _code =
    with_server
      { (server_config ~sock ()) with Server.designs = [ ("fir8", counting) ] }
      (fun _t ->
        Alcotest.(check int) "a miss makes it for the digest and the run" 2
          (made_by_request ());
        Alcotest.(check int) "a hit makes it once, for the digest" 1 (made_by_request ()))
  in
  ()

(* ------------------------------------------------------------------ *)
(* Fleet observability: the request span carries the remote trace
   context end-to-end over a real socket, and the telemetry op ships the
   daemon's typed snapshot plus its Prometheus rendering. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_trace_parents_worker_span () =
  let dir = temp_dir () in
  let sock = Filename.concat dir "s.sock" in
  (* The in-process daemon shares this test binary's Obs singleton, so
     its request spans land in our trace buffer — the worker half of a
     fleet merge, observed directly. *)
  Obs.enable_trace ();
  let payload =
    J.to_string
      (Protocol.request_to_json
         {
           Protocol.id = "t1";
           deadline_s = None;
           trace =
             Some
               {
                 Protocol.trace_id = "T-e2e-49f2";
                 parent = "dispatch";
                 lease = Some "L0";
               };
           req = Protocol.Ping;
         })
  in
  let (), _code =
    with_server (server_config ~sock ()) (fun _t ->
        match Client.one_shot (Client.Unix_path sock) payload with
        | Ok body -> Alcotest.(check string) "ok" "ok" (status_of body)
        | Error m -> Alcotest.fail m)
  in
  let tj = Obs.trace_json () in
  Obs.disable ();
  Alcotest.(check bool) "a serve.ping span was recorded" true
    (contains tj "serve.ping");
  Alcotest.(check bool) "the span is parented under the supervisor's trace id"
    true
    (contains tj "T-e2e-49f2");
  Alcotest.(check bool) "and names its lease" true (contains tj "L0")

let test_telemetry_op () =
  let dir = temp_dir () in
  let sock = Filename.concat dir "s.sock" in
  let (), _code =
    with_server (server_config ~sock ()) (fun _t ->
        match
          Client.one_shot (Client.Unix_path sock)
            {|{"op":"telemetry","id":"tele"}|}
        with
        | Error m -> Alcotest.fail m
        | Ok body ->
          Alcotest.(check string) "ok" "ok" (status_of body);
          (match field body "telemetry" with
          | Some (J.Obj _ as tj) -> (
            match Obs.Telemetry.of_json tj with
            | Error m -> Alcotest.failf "snapshot does not decode: %s" m
            | Ok snap ->
              Alcotest.(check bool) "pid present" true (snap.Obs.Telemetry.pid > 0);
              Alcotest.(check bool) "counters shipped" true
                (List.mem_assoc "serve.requests" (Obs.Telemetry.counters snap)))
          | _ -> Alcotest.fail "response has no telemetry object");
          match field body "expo" with
          | Some (J.String s) ->
            Alcotest.(check bool) "exposition includes serve_requests_total"
              true
              (contains s "serve_requests_total")
          | _ -> Alcotest.fail "response has no expo rendering")
  in
  ()

(* ------------------------------------------------------------------ *)
(* Journal.load robustness (the drain path's other half) *)

let test_journal_empty_file () =
  let path = Filename.temp_file "test_serve_journal" ".tmp" in
  (* Zero bytes: a kill between openfile and the header fsync. *)
  (match Journal.load ~path with
  | Ok ([], 0) -> ()
  | Ok (es, q) ->
    Alcotest.failf "empty file: %d entries, %d quarantined" (List.length es) q
  | Error m -> Alcotest.failf "empty file is not an error: %s" m);
  Sys.remove path

let test_journal_torn_header () =
  let path = Filename.temp_file "test_serve_journal" ".tmp" in
  let oc = open_out path in
  output_string oc "slackhls-explore-jou";  (* torn mid-header *)
  close_out oc;
  (match Journal.load ~path with
  | Ok ([], 1) -> ()
  | Ok (es, q) ->
    Alcotest.failf "torn header: %d entries, %d quarantined" (List.length es) q
  | Error m -> Alcotest.failf "torn header should quarantine, got: %s" m);
  Sys.remove path

let test_journal_foreign_header () =
  let path = Filename.temp_file "test_serve_journal" ".tmp" in
  let oc = open_out path in
  output_string oc "some other file format v9\n";
  close_out oc;
  (match Journal.load ~path with
  | Error m ->
    Alcotest.(check bool) "error names the path" true
      (String.length m >= String.length path
      && String.sub m 0 (String.length path) = path)
  | Ok _ -> Alcotest.fail "foreign header accepted");
  Sys.remove path

let test_journal_unreadable_path_in_error () =
  let dir = temp_dir () in
  (* A directory opens as a file on no platform we run on: Sys_error. *)
  match Journal.load ~path:dir with
  | Error m ->
    Alcotest.(check bool) "error names the path" true
      (String.length m >= String.length dir
      && String.sub m 0 (String.length dir) = dir)
  | Ok _ -> Alcotest.fail "directory loaded as journal"

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "truncated frames are incomplete" `Quick
            test_truncated_frame;
          Alcotest.test_case "oversized frames rejected" `Quick
            test_oversized_frame;
          Alcotest.test_case "oversized boundary is exact" `Quick
            test_oversized_boundary;
          Alcotest.test_case "dribbled frame under EINTR assembles" `Quick
            test_read_frame_dribble_eintr;
          QCheck_alcotest.to_alcotest prop_frame_split_roundtrip;
          QCheck_alcotest.to_alcotest prop_trace_envelope_roundtrip;
          Alcotest.test_case "malformed requests are errors" `Quick
            test_parse_request_errors;
          Alcotest.test_case "request JSON round-trip" `Quick
            test_request_roundtrip;
          Alcotest.test_case "status exit codes" `Quick test_exit_codes;
        ] );
      ( "server",
        [
          Alcotest.test_case "malformed frame gets structured error" `Quick
            test_malformed_gets_error_response;
          Alcotest.test_case "4 concurrent clients match sequential" `Slow
            test_concurrent_matches_sequential;
          Alcotest.test_case "overload burst sheds with retry hint" `Slow
            test_overload_burst_sheds;
          Alcotest.test_case "slow client contained by read timeout" `Slow
            test_slow_client_contained;
          Alcotest.test_case "drain journals and resumes identically" `Slow
            test_drain_journals_and_resumes;
          Alcotest.test_case "once: scripted ping" `Quick test_once_ping;
          Alcotest.test_case "run with a clock makes the design once per use" `Quick
            test_run_makes_design_once;
          Alcotest.test_case "trace context parents the worker span" `Quick
            test_trace_parents_worker_span;
          Alcotest.test_case "telemetry op ships snapshot + exposition" `Quick
            test_telemetry_op;
        ] );
      ( "journal",
        [
          Alcotest.test_case "empty file is an empty journal" `Quick
            test_journal_empty_file;
          Alcotest.test_case "torn header quarantined" `Quick
            test_journal_torn_header;
          Alcotest.test_case "foreign header rejected with path" `Quick
            test_journal_foreign_header;
          Alcotest.test_case "unreadable path named in error" `Quick
            test_journal_unreadable_path_in_error;
        ] );
    ]
