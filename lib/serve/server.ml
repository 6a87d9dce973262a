module J = Obs.Json

let c_connections = Obs.counter "serve.connections"
let c_slow_clients = Obs.counter "serve.slow_clients"
let c_oversized = Obs.counter "serve.oversized"
let c_retried = Obs.counter "serve.request_retries"
let c_interrupted = Obs.counter "serve.interrupted"
let c_metrics_scrapes = Obs.counter "serve.metrics.scrapes"

let op_name = function
  | Protocol.Ping -> "ping"
  | Protocol.Stats -> "stats"
  | Protocol.Shutdown -> "shutdown"
  | Protocol.Health -> "health"
  | Protocol.Telemetry -> "telemetry"
  | Protocol.Run _ -> "run"
  | Protocol.Explore _ -> "explore"
  | Protocol.Shard_explore _ -> "shard_explore"

(* Per-op request latency: counts alone show overload only once the queue
   is already deep; the p95 moves first. *)
let latency_dist op = Obs.dist ("serve.latency." ^ op)

let latency_ops =
  [ "ping"; "stats"; "shutdown"; "health"; "telemetry"; "run"; "explore";
    "shard_explore" ]

type address = Unix_sock of string | Tcp of int

type config = {
  address : address;
  jobs : int;
  high_water : int;
  drain_deadline : float;
  read_timeout : float;
  default_deadline : float option;
  point_deadline : float option;
  request_retries : int;
  backoff : float;
  max_frame_bytes : int;
  lib : Library.t;
  flow_config : Flows.config;
  designs : (string * (unit -> Dfg.t * float)) list;
  resolver : (string -> (unit -> Dfg.t * float) option) option;
  journal_path : string option;
  cache_path : string option;
  drain_after_points : int option;
  telemetry : bool;
  metrics_port : int option;
}

let default_config =
  {
    address = Unix_sock "hlsc.sock";
    jobs = 2;
    high_water = 4;
    drain_deadline = 30.0;
    read_timeout = 5.0;
    default_deadline = None;
    point_deadline = None;
    request_retries = 1;
    backoff = 0.05;
    max_frame_bytes = Protocol.default_max_frame;
    lib = Library.default;
    flow_config = Flows.default_config;
    designs = [];
    resolver = None;
    journal_path = None;
    cache_path = None;
    drain_after_points = None;
    telemetry = false;
    metrics_port = None;
  }

(* Inflight progress of one shard lease, updated from worker domains via
   [Explore.run ~on_point] and snapshotted by the Health probe: the lines
   here are already fsync'd in the daemon's journal, so a supervisor that
   saw them in a heartbeat may salvage them when this daemon dies. *)
type lease_progress = {
  l_total : int;
  l_mu : Mutex.t;
  l_records : (string, string) Hashtbl.t;  (* cache key -> entry line *)
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  metrics_fd : Unix.file_descr option;
  pool : Domain_pool.pool;
  cache : Eval_cache.t;
  journal : Eval_cache.writer option;
  admission : Admission.t;
  drain_tok : Cancel.t;
  interrupted : bool Atomic.t;
  leases : (string, lease_progress) Hashtbl.t;
  leases_mu : Mutex.t;
  note_point : unit -> unit;  (* drain-after-points bookkeeping *)
}

let drain ~reason t = Cancel.trigger ~reason t.drain_tok
let draining t = Cancel.reason t.drain_tok <> None

let metrics_port t =
  Option.map
    (fun fd ->
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> port
      | Unix.ADDR_UNIX _ -> assert false (* bound as [Tcp] in [start] *))
    t.metrics_fd

(* ------------------------------------------------------------------ *)
(* Startup *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Closes a bound listener and removes its socket file. *)
let unbind address fd =
  close_quietly fd;
  match address with
  | Unix_sock p -> ( try Sys.remove p with Sys_error _ -> ())
  | Tcp _ -> ()

(* A listening socket; nothing is left open or on disk when it fails. *)
let listener ~backlog address =
  let fd, bind =
    match address with
    | Unix_sock path ->
      (* A stale socket file from a killed daemon would make bind fail;
         removing it is safe because a live daemon holds the fd, not the
         name. *)
      if Sys.file_exists path then Sys.remove path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (fd, fun () -> Unix.bind fd (Unix.ADDR_UNIX path))
    | Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      ( fd,
        fun () ->
          Unix.setsockopt fd Unix.SO_REUSEADDR true;
          Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) )
  in
  (match bind () with
  | () -> ()
  | exception e ->
    close_quietly fd;
    raise e);
  match Unix.listen fd backlog with
  | () -> fd
  | exception e ->
    unbind address fd;
    raise e

let ( let* ) = Result.bind

let start cfg =
  let* cache =
    match cfg.cache_path with
    | None -> Ok (Eval_cache.create ())
    | Some path -> Eval_cache.load ~path
  in
  let* journal =
    match cfg.journal_path with
    | None -> Ok None
    | Some path -> (
      match Eval_cache.start ~path ~fresh:false with
      | w -> Ok (Some w)
      | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "%s: %s" path (Unix.error_message e)))
  in
  let* listen_fd =
    match listener ~backlog:64 cfg.address with
    | fd -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      Error ("cannot bind socket: " ^ Unix.error_message e)
    | exception Sys_error m -> Error m
  in
  let* metrics_fd =
    match cfg.metrics_port with
    | None -> Ok None
    | Some port -> (
      match listener ~backlog:16 (Tcp port) with
      | fd -> Ok (Some fd)
      | exception Unix.Unix_error (e, _, _) ->
        (* A failed start must not leave its socket file behind: scripts
           that wait for the file would talk to a dead daemon. *)
        unbind cfg.address listen_fd;
        Error
          (Printf.sprintf "cannot bind metrics port %d: %s" port
             (Unix.error_message e)))
  in
  (* A client that dies mid-response must cost one EPIPE, not the whole
     daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let pool = Domain_pool.create ~jobs:(max 1 cfg.jobs) in
  let drain_tok = Cancel.manual () in
  (* Deterministic mid-sweep drain for tests: every completed point in
     this daemon funnels through [sweep_with_retries]'s on_point, so the
     counter fires the drain token after exactly [k] evaluations — and
     only this daemon's, which matters when several servers share a
     process (in-process tests). *)
  let note_point =
    match cfg.drain_after_points with
    | None -> fun () -> ()
    | Some k ->
      let count = Atomic.make 0 in
      fun () ->
        if Atomic.fetch_and_add count 1 + 1 = k then
          Cancel.trigger ~reason:"drain-after-points" drain_tok
  in
  let t =
    {
      cfg;
      listen_fd;
      metrics_fd;
      pool;
      cache;
      journal;
      admission =
        Admission.create ~high_water:cfg.high_water
          ~queue_depth:(fun () -> Domain_pool.pending pool);
      drain_tok;
      interrupted = Atomic.make false;
      leases = Hashtbl.create 8;
      leases_mu = Mutex.create ();
      note_point;
    }
  in
  Ok t

(* ------------------------------------------------------------------ *)
(* Request execution *)

let flow_of_name s =
  match Flows.of_name s with
  | Some flow -> Ok flow
  | None -> Error (Printf.sprintf "unknown flow %S (try: conventional, slowest, slack)" s)

let lookup_design t name =
  let found =
    match List.assoc_opt name t.cfg.designs with
    | Some _ as mk -> mk
    | None ->
      (* The resolver hook lets the embedding CLI answer self-describing
         design names (e.g. corpus entries) without this library knowing
         how to parse them. *)
      Option.bind t.cfg.resolver (fun f -> f name)
  in
  match found with
  | Some mk -> Ok mk
  | None ->
    Error
      (Printf.sprintf "unknown design %S (try: %s)" name
         (String.concat ", " (List.map fst t.cfg.designs)))

(* Run the sweep under the request's cancel token, re-running crashed
   points with exponential backoff: a crash may be transient, and
   [recheck_crashes] makes the re-run treat recorded crashes as misses
   while every completed point still comes from the warm cache. *)
let sweep_with_retries ?select ?on_point t ~cancel ~point_deadline ~name ~build
    grid =
  let on_point ck summary =
    t.note_point ();
    Option.iter (fun f -> f ck summary) on_point
  in
  let rec attempt n recheck =
    let outcome =
      Explore.run ~pool:t.pool ~recheck_crashes:recheck ?point_deadline
        ~cancel ~cache:t.cache ?journal:t.journal ?select ~on_point
        ~lib:t.cfg.lib ~config:t.cfg.flow_config ~name ~build grid
    in
    if
      outcome.Explore.crashed > 0
      && n < t.cfg.request_retries
      && Cancel.reason cancel = None
    then begin
      Obs.incr c_retried;
      Thread.delay (t.cfg.backoff *. (2.0 ** float_of_int n));
      attempt (n + 1) true
    end
    else outcome
  in
  attempt 0 false

let request_cancel t deadline_s =
  let deadline =
    match (deadline_s, t.cfg.default_deadline) with
    | Some s, _ | None, Some s -> Cancel.after ~seconds:s
    | None, None -> Cancel.never
  in
  (* Drain first: when both fire, the drain reason wins and the response
     is [partial] (resumable), not [timed_out]. *)
  Cancel.any [ t.drain_tok; deadline ]

(* A response must expose only what is deterministic across cache state:
   statuses, areas and delays are; evaluated/hit/resumed counts are not.
   The concurrent-vs-sequential byte-identity test depends on this. *)
let summary_fields (s : Eval_cache.summary) =
  [
    ("area", J.Float s.Eval_cache.area);
    ("steps", J.Int s.Eval_cache.steps);
    ("delay_ps", J.Float s.Eval_cache.delay_ps);
    ("recoveries", J.Int s.Eval_cache.recoveries);
  ]
  @
  if s.Eval_cache.error = "" then []
  else [ ("point_error", J.String s.Eval_cache.error) ]

let frontier_json (outcome : Explore.outcome) =
  J.List
    (List.map
       (fun (e : Explore.point_result Pareto.entry) ->
         let r = e.Pareto.tag in
         J.Obj
           (("key", J.String r.Explore.pkey)
           :: summary_fields r.Explore.summary))
       outcome.Explore.frontier)

let note_interrupted t ~cancel (outcome : Explore.outcome) =
  if outcome.Explore.pending > 0 && Cancel.reason cancel <> Some "deadline"
  then begin
    (* Drained mid-sweep: the journal holds the completed prefix, so the
       daemon owes its caller an exit 5. *)
    Atomic.set t.interrupted true;
    Obs.incr c_interrupted
  end

let explore_status ~cancel (outcome : Explore.outcome) =
  if outcome.Explore.pending > 0 then
    if Cancel.reason cancel = Some "deadline" then "timed_out" else "partial"
  else if outcome.Explore.total > 0 && outcome.Explore.frontier = [] then
    "failed"
  else "ok"

let counts_fields (outcome : Explore.outcome) =
  [
    ("total", J.Int outcome.Explore.total);
    ("failed", J.Int outcome.Explore.failed);
    ("timed_out_points", J.Int outcome.Explore.timed_out);
    ("crashed", J.Int outcome.Explore.crashed);
    ("pending", J.Int outcome.Explore.pending);
  ]

let execute_explore t ~id ~deadline_s ~design ~clocks ~flows ~iis ~recover
    ~point_deadline =
  match lookup_design t design with
  | Error m -> Protocol.error_response ~id m
  | Ok mk -> (
    let build () = fst (mk ()) in
    match Explore_grid.of_specs ~clocks ~flows ~iis ~recover () with
    | Error m -> Protocol.error_response ~id m
    | Ok grid ->
      let cancel = request_cancel t deadline_s in
      let point_deadline =
        match point_deadline with Some s -> Some s | None -> t.cfg.point_deadline
      in
      let outcome =
        sweep_with_retries t ~cancel ~point_deadline ~name:design ~build grid
      in
      note_interrupted t ~cancel outcome;
      Protocol.response ~id ~status:(explore_status ~cancel outcome)
        (("design", J.String design)
        :: (counts_fields outcome @ [ ("frontier", frontier_json outcome) ])))

(* One lease of a distributed sweep: evaluate exactly the leased point
   keys, report per-point progress into the lease registry (where the
   Health probe can see it), and answer with every completed record framed
   as a journal payload — full cache keys, so the supervisor can validate
   the configuration fingerprint and merge without re-deriving anything. *)
let execute_shard_explore t ~id ~deadline_s ~design ~clocks ~flows ~iis
    ~recover ~point_deadline ~lease ~keys =
  match lookup_design t design with
  | Error m -> Protocol.error_response ~id m
  | Ok mk -> (
    let build () = fst (mk ()) in
    match Explore_grid.of_specs ~clocks ~flows ~iis ~recover () with
    | Error m -> Protocol.error_response ~id m
    | Ok grid ->
      let mine = Hashtbl.create (List.length keys) in
      List.iter (fun k -> Hashtbl.replace mine k ()) keys;
      let progress =
        {
          l_total = List.length keys;
          l_mu = Mutex.create ();
          l_records = Hashtbl.create 64;
        }
      in
      Mutex.lock t.leases_mu;
      Hashtbl.replace t.leases lease progress;
      Mutex.unlock t.leases_mu;
      Fun.protect
        ~finally:(fun () ->
          Mutex.lock t.leases_mu;
          Hashtbl.remove t.leases lease;
          Mutex.unlock t.leases_mu)
      @@ fun () ->
      let cancel = request_cancel t deadline_s in
      let point_deadline =
        match point_deadline with Some s -> Some s | None -> t.cfg.point_deadline
      in
      let on_point ck summary =
        Mutex.lock progress.l_mu;
        Hashtbl.replace progress.l_records ck (Eval_cache.entry_line ck summary);
        Mutex.unlock progress.l_mu
      in
      (* Pin the event-ring cursor so the reply can ship exactly this
         lease's decision events.  Only deterministic payloads, renumbered
         from 0: the shipped stream is then a pure function of the leased
         keys, independent of which daemon ran it or what it served
         before — the property the supervisor's byte-identical merged
         provenance file rests on. *)
      let ev_mark = Obs.Events.mark () in
      let outcome =
        sweep_with_retries t
          ~select:(fun pkey -> Hashtbl.mem mine pkey)
          ~on_point ~cancel ~point_deadline ~name:design ~build grid
      in
      note_interrupted t ~cancel outcome;
      let lease_events =
        Obs.Events.since ~mark:ev_mark
        |> List.filter Obs.Events.deterministic
        |> Obs.Events.renumber
        |> List.map (fun e -> J.String (Obs.Events.to_jsonl_line e))
      in
      let digest = outcome.Explore.digest in
      let fingerprint = Explore.config_fingerprint t.cfg.flow_config in
      let records =
        List.map
          (fun (r : Explore.point_result) ->
            let ck =
              Eval_cache.key ~digest ~lib:(Library.name t.cfg.lib)
                ~config:fingerprint ~point_key:r.Explore.pkey
            in
            J.String (Eval_cache.entry_line ck r.Explore.summary))
          outcome.Explore.results
      in
      let status =
        if outcome.Explore.pending > 0 then
          if Cancel.reason cancel = Some "deadline" then "timed_out"
          else "partial"
        else "ok"
      in
      Protocol.response ~id ~status
        [
          ("design", J.String design);
          ("lease", J.String lease);
          ("total", J.Int outcome.Explore.total);
          ("done", J.Int (List.length outcome.Explore.results));
          ("pending", J.Int outcome.Explore.pending);
          ("records", J.List records);
          ("events", J.List lease_events);
        ])

(* Liveness probe: answered even while draining or saturated (it bypasses
   admission), carrying per-lease progress plus the already-durable record
   lines so a supervisor can salvage a worker that dies mid-lease. *)
let health_response t ~id =
  Mutex.lock t.leases_mu;
  let snapshot =
    Hashtbl.fold
      (fun lease p acc ->
        Mutex.lock p.l_mu;
        let lines = Hashtbl.fold (fun _ line acc -> line :: acc) p.l_records [] in
        Mutex.unlock p.l_mu;
        (lease, p.l_total, List.sort String.compare lines) :: acc)
      t.leases []
  in
  Mutex.unlock t.leases_mu;
  let leases_json =
    J.List
      (List.map
         (fun (lease, total, lines) ->
           J.Obj
             [
               ("lease", J.String lease);
               ("total", J.Int total);
               ("done", J.Int (List.length lines));
               ("records", J.List (List.map (fun l -> J.String l) lines));
             ])
         (List.sort compare snapshot))
  in
  let telemetry_field =
    if not t.cfg.telemetry then []
    else
      (* Heartbeat-sized: counters + a short event tail, no trace buffer —
         health fires once a second per worker and must not ship the whole
         ledger each time.  The full snapshot travels on the [telemetry]
         op. *)
      [
        ( "telemetry",
          Obs.Telemetry.to_json
            (Obs.Telemetry.capture ~events_limit:64 ~include_trace:false ()) );
      ]
  in
  Protocol.response ~id ~status:"ok"
    ([
       ("draining", J.Bool (draining t));
       ("inflight", J.Int (Admission.inflight t.admission));
       ("leases", leases_json);
     ]
    @ telemetry_field)

let execute_run t ~id ~deadline_s ~design ~clock ~flow =
  match lookup_design t design with
  | Error m -> Protocol.error_response ~id m
  | Ok mk -> (
    match flow_of_name flow with
    | Error m -> Protocol.error_response ~id m
    | Ok flow -> (
      (* Make the design for its default clock only when the request
         names no clock; otherwise the sweep's build is the only call. *)
      let clock = match clock with Some c -> c | None -> snd (mk ()) in
      let build () = fst (mk ()) in
      match Explore_grid.make ~clocks:[ clock ] ~flows:[ flow ] () with
      | Error m -> Protocol.error_response ~id m
      | Ok grid -> (
        let cancel = request_cancel t deadline_s in
        let outcome =
          sweep_with_retries t ~cancel ~point_deadline:t.cfg.point_deadline
            ~name:design ~build grid
        in
        note_interrupted t ~cancel outcome;
        match outcome.Explore.results with
        | [ r ] ->
          let s = r.Explore.summary in
          let status =
            match s.Eval_cache.status with
            | Eval_cache.Success -> "ok"
            | Eval_cache.Infeasible -> "failed"
            | Eval_cache.Timeout -> "timed_out"
            | Eval_cache.Crash -> "crashed"
          in
          Protocol.response ~id ~status
            (("design", J.String design) :: ("key", J.String r.Explore.pkey)
            :: summary_fields s)
        | _ ->
          (* Never claimed: the drain (or deadline) won the race. *)
          Protocol.response
            ~id
            ~status:
              (if Cancel.reason cancel = Some "deadline" then "timed_out"
               else "partial")
            [ ("design", J.String design) ])))

let latency_json () =
  J.Obj
    (List.filter_map
       (fun op ->
         match Obs.dist_stats (latency_dist op) with
         | None -> None
         | Some s ->
           Some
             ( op,
               J.Obj
                 [
                   ("n", J.Int s.Obs.n);
                   ("min_ms", J.Float s.Obs.dmin);
                   ("max_ms", J.Float s.Obs.dmax);
                   ("mean_ms", J.Float s.Obs.mean);
                   ("p50_ms", J.Float s.Obs.p50);
                   ("p95_ms", J.Float s.Obs.p95);
                 ] ))
       latency_ops)

let stats_response t ~id =
  let v name = J.Int (Obs.value (Obs.counter name)) in
  Protocol.response ~id ~status:"ok"
    [
      ("inflight", J.Int (Admission.inflight t.admission));
      ("high_water", J.Int (Admission.high_water t.admission));
      ("queue_depth", J.Int (Domain_pool.pending t.pool));
      ("pool_jobs", J.Int (Domain_pool.pool_jobs t.pool));
      ("requests", v "serve.requests");
      ("admitted", v "serve.admitted");
      ("shed", v "serve.shed");
      ("completed", v "serve.completed");
      ("connections", v "serve.connections");
      ("slow_clients", v "serve.slow_clients");
      ("malformed", v "serve.malformed");
      ("request_retries", v "serve.request_retries");
      ("cache_entries", J.Int (Eval_cache.size t.cache));
      ("cache_hits", v "explore.cache.hits");
      ("cache_misses", v "explore.cache.misses");
      ("evaluations", v "explore.evaluations");
      ("wasted_cone", v "timing.wasted_work_ratio.cone");
      ("wasted_touched", v "timing.wasted_work_ratio.touched");
      ("journal_records", v "explore.journal.records");
      ("journal_quarantined", v "journal.quarantined");
      ("journal_salvaged", v "journal.salvaged");
      ("active_leases", J.Int (Hashtbl.length t.leases));
      ("draining", J.Bool (draining t));
      ("latency_ms", latency_json ());
    ]

(* Full-ledger control reply: the typed snapshot plus its Prometheus
   rendering, so one op serves both the fleet merger and ad-hoc scrapes
   over the existing socket. *)
let telemetry_response ~id =
  Protocol.response ~id ~status:"ok"
    [
      ("telemetry", Obs.Telemetry.to_json (Obs.Telemetry.capture ()));
      ("expo", J.String (Obs.Expo.render ()));
    ]

let control t (env : Protocol.envelope) =
  let id = env.Protocol.id in
  match env.Protocol.req with
  | Protocol.Ping ->
    Protocol.response ~id ~status:"ok" [ ("pong", J.Bool true) ]
  | Protocol.Stats -> stats_response t ~id
  | Protocol.Shutdown ->
    drain ~reason:"shutdown request" t;
    Protocol.response ~id ~status:"ok" [ ("draining", J.Bool true) ]
  | Protocol.Health -> health_response t ~id
  | Protocol.Telemetry -> telemetry_response ~id
  | Protocol.Run _ | Protocol.Explore _ | Protocol.Shard_explore _ ->
    assert false (* dispatched below *)

let execute t (env : Protocol.envelope) =
  let id = env.Protocol.id in
  let deadline_s = env.Protocol.deadline_s in
  match env.Protocol.req with
  | Protocol.Run { design; clock; flow } ->
    execute_run t ~id ~deadline_s ~design ~clock ~flow
  | Protocol.Explore { design; clocks; flows; iis; recover; point_deadline } ->
    execute_explore t ~id ~deadline_s ~design ~clocks ~flows ~iis ~recover
      ~point_deadline
  | Protocol.Shard_explore
      { design; clocks; flows; iis; recover; point_deadline; lease; keys } ->
    execute_shard_explore t ~id ~deadline_s ~design ~clocks ~flows ~iis
      ~recover ~point_deadline ~lease ~keys
  | Protocol.Ping | Protocol.Stats | Protocol.Shutdown | Protocol.Health
  | Protocol.Telemetry ->
    assert false

(* ------------------------------------------------------------------ *)
(* Connections *)

let handle_conn t fd =
  Obs.incr c_connections;
  let conn = Protocol.make fd in
  let alive = ref true in
  let send payload =
    try Protocol.write_frame fd payload
    with Unix.Unix_error _ -> alive := false
  in
  Fun.protect
    ~finally:(fun () -> close_quietly fd)
  @@ fun () ->
  let rec loop () =
    if !alive then
      match
        Protocol.read_frame ~max_bytes:t.cfg.max_frame_bytes
          ~stall:t.cfg.read_timeout
          ~should_stop:(fun () -> draining t)
          conn
      with
      | Protocol.Eof | Protocol.Stopped -> ()
      | Protocol.Stalled ->
        (* A request that started and stopped flowing: the stalled-client
           containment path.  One error frame (best effort), then close —
           the reader thread must not stay pinned to a dead peer. *)
        Obs.incr c_slow_clients;
        send
          (Protocol.error_response ~id:""
             (Printf.sprintf "request stalled mid-frame for %.1fs; closing"
                t.cfg.read_timeout))
      | Protocol.Too_big n ->
        Obs.incr c_oversized;
        send
          (Protocol.error_response ~id:""
             (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n
                t.cfg.max_frame_bytes))
      | Protocol.Frame payload ->
        (match Protocol.parse_request payload with
        | Error m -> send (Protocol.error_response ~id:"" m)
        | Ok env ->
          let op = op_name env.Protocol.req in
          let t0 = Obs.now_ns () in
          (* Close the request span even on a write failure: connection
             handlers are systhreads sharing one domain, so the span is
             recorded as a closed interval ([note_span]) rather than via
             the domain-local nesting stack, carrying the remote trace
             context as attributes — that is what parents this request
             under the supervisor's trace after a fleet merge. *)
          let finally () =
            let t1 = Obs.now_ns () in
            Obs.observe (latency_dist op)
              (Int64.to_float (Int64.sub t1 t0) /. 1e6);
            let attrs =
              match env.Protocol.trace with
              | None -> []
              | Some tc ->
                [
                  ("trace_id", tc.Protocol.trace_id);
                  ("parent", tc.Protocol.parent);
                ]
                @ (match tc.Protocol.lease with
                  | Some l -> [ ("lease", l) ]
                  | None -> [])
            in
            Obs.note_span ~attrs ~name:("serve." ^ op) ~t0_ns:t0 ~t1_ns:t1 ()
          in
          Fun.protect ~finally @@ fun () ->
          (match env.Protocol.req with
          | Protocol.Ping | Protocol.Stats | Protocol.Shutdown
          | Protocol.Health | Protocol.Telemetry ->
            send (control t env)
          | Protocol.Run _ | Protocol.Explore _ | Protocol.Shard_explore _ -> (
            match Admission.try_admit t.admission with
            | Admission.Shed ->
              send
                (Protocol.response ~id:env.Protocol.id ~status:"overloaded"
                   [
                     ("retry_after_s", J.Float t.cfg.backoff);
                     ("inflight", J.Int (Admission.inflight t.admission));
                   ])
            | Admission.Draining ->
              send
                (Protocol.response ~id:env.Protocol.id ~status:"draining" [])
            | Admission.Admitted ->
              (* finish only after the response bytes are out: the drain
                 sequence waits on inflight reaching zero, so responses to
                 in-flight requests cannot race process exit. *)
              Fun.protect
                ~finally:(fun () -> Admission.finish t.admission)
                (fun () -> send (execute t env)))));
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Metrics exposition *)

(* Consume the request head up to its blank line, or EOF, a full buffer or
   a second of silence.  A scraper may send the head in several writes,
   and closing with request bytes still unread makes the kernel answer
   with a reset that can destroy the response before the scraper reads
   it. *)
let read_request_head cfd =
  let buf = Bytes.create 2048 in
  let rec go len =
    let head = Bytes.sub_string buf 0 len in
    let ended suffix = String.ends_with ~suffix head in
    if len < Bytes.length buf && not (ended "\r\n\r\n" || ended "\n\n") then
      match Unix.select [ cfd ] [] [] 1.0 with
      | [], _, _ -> ()
      | _ -> (
        match Unix.read cfd buf len (Bytes.length buf - len) with
        | 0 -> ()
        | n -> go (len + n))
  in
  try go 0 with Unix.Unix_error _ -> ()

(* Minimal HTTP/1.0 scrape endpoint on loopback: read the request head the
   scraper sends (ignored — every path answers the same payload), write
   one Prometheus text rendering, close.  Runs until the drain token
   fires; no keep-alive, no parsing, nothing a scraper can wedge. *)
let metrics_loop t fd =
  let rec go () =
    if not (draining t) then begin
      (match Unix.select [ fd ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept fd with
        | exception Unix.Unix_error _ -> ()
        | cfd, _ ->
          Obs.incr c_metrics_scrapes;
          read_request_head cfd;
          let body = Obs.Expo.render () in
          let resp =
            Printf.sprintf
              "HTTP/1.0 200 OK\r\n\
               Content-Type: text/plain; version=0.0.4\r\n\
               Content-Length: %d\r\n\
               \r\n\
               %s"
              (String.length body) body
          in
          (try
             let n = String.length resp in
             let rec w off =
               if off < n then
                 w (off + Unix.write_substring cfd resp off (n - off))
             in
             w 0
           with Unix.Unix_error _ -> ());
          close_quietly cfd));
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Accept loop and drain sequence *)

let accept_loop t =
  let rec go () =
    if not (draining t) then begin
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept t.listen_fd with
        | exception Unix.Unix_error (_, _, _) -> ()
        | fd, _ -> ignore (Thread.create (handle_conn t) fd)));
      go ()
    end
  in
  go ()

let serve t =
  let metrics_th =
    Option.map (fun fd -> Thread.create (metrics_loop t) fd) t.metrics_fd
  in
  accept_loop t;
  Admission.start_drain t.admission;
  Option.iter Thread.join metrics_th;
  Option.iter close_quietly t.metrics_fd;
  let reason = Option.value ~default:"drain" (Cancel.reason t.drain_tok) in
  Printf.eprintf "hlsc serve: draining (%s), %d request(s) in flight\n%!"
    reason
    (Admission.inflight t.admission);
  unbind t.cfg.address t.listen_fd;
  let drained =
    Admission.wait_idle t.admission ~deadline_s:t.cfg.drain_deadline
  in
  (* Only a clean drain joins the worker domains: past the deadline a
     wedged evaluation must not also wedge the exit path — the fsync'd
     journal already holds every completed point. *)
  if drained then Domain_pool.shutdown t.pool
  else
    Printf.eprintf
      "hlsc serve: drain deadline (%.1fs) expired with %d request(s) in \
       flight\n\
       %!"
      t.cfg.drain_deadline
      (Admission.inflight t.admission);
  Option.iter Eval_cache.close t.journal;
  (match t.cfg.cache_path with
  | None -> ()
  | Some path -> (
    try Eval_cache.save t.cache ~path
    with Sys_error m ->
      Printf.eprintf "hlsc serve: cache save failed: %s\n%!" m));
  let interrupted = Atomic.get t.interrupted || not drained in
  if interrupted then begin
    (match t.cfg.journal_path with
    | Some p ->
      Printf.eprintf
        "hlsc serve: interrupted sweeps journaled; resume with hlsc explore \
         --resume %s\n\
         %!"
        p
    | None -> ());
    5
  end
  else 0

(* ------------------------------------------------------------------ *)
(* --once self-test *)

let once cfg ~request_json =
  let dir = Filename.temp_file "hlsc-serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "once.sock" in
  let cfg = { cfg with address = Unix_sock sock } in
  match start cfg with
  | Error m -> Error m
  | Ok t ->
    let requests =
      String.split_on_char '\n' request_json
      |> List.filter (fun s -> String.trim s <> "")
    in
    let results = ref [] in
    let client () =
      let rs =
        match Client.connect (Client.Unix_path sock) with
        | Error m -> [ (Protocol.error_response ~id:"" m, 1) ]
        | Ok c ->
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          List.map
            (fun r ->
              match Client.request c r with
              | Error m -> (Protocol.error_response ~id:"" m, 1)
              | Ok body ->
                let code =
                  match Protocol.response_status body with
                  | Ok (status, _) -> Protocol.exit_code_of_status status
                  | Error _ -> 1
                in
                (body, code))
            requests
      in
      results := rs;
      drain ~reason:"once" t
    in
    let th = Thread.create client () in
    let daemon_code = serve t in
    Thread.join th;
    (try Sys.remove sock with Sys_error _ -> ());
    (try Unix.rmdir dir with Unix.Unix_error _ -> ());
    Ok (!results, daemon_code)
