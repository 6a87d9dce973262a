(* Shard dispatch supervisor: lease key-ranges to remote hlsc serve
   workers, detect the ways workers die, salvage what they durably
   reported, and reassign the rest — relying on the determinism contract
   (canonical keys, byte-exact records) to make duplicated or salvaged
   work indistinguishable from a single-process sweep. *)

module J = Obs.Json

let c_leases = Obs.counter "dispatch.leases"
let c_reassigned = Obs.counter "dispatch.reassigned"
let c_stolen = Obs.counter "dispatch.stolen"
let c_salvaged = Obs.counter "dispatch.salvaged_points"
let c_fallback = Obs.counter "dispatch.fallback_local"
let c_duplicates = Obs.counter "dispatch.duplicate_replies"
let c_workers_lost = Obs.counter "dispatch.workers_lost"

let note_fallback_local () = Obs.incr c_fallback

type job = {
  design : string;
  clocks : string;
  flows : string;
  iis : string;
  recover : string;
  point_deadline : float option;
  keys : string list;
  key_of : string -> string;
  cost : float;
}

type config = {
  workers : (string * Client.addr) list;
  lease_points : int;
  lease_deadline : float;
  heartbeat : float;
  heartbeat_misses : int;
  retry_budget : int;
  worker_strikes : int;
  backoff : float;
  steal : bool;
  trace_id : string option;
}

let default_config =
  {
    workers = [];
    lease_points = 8;
    lease_deadline = 60.0;
    heartbeat = 1.0;
    heartbeat_misses = 3;
    retry_budget = 5;
    worker_strikes = 3;
    backoff = 0.05;
    steal = false;
    trace_id = None;
  }

type outcome = {
  records : (string * Eval_cache.summary) list;
  complete : bool;
  abort : string option;
  leases : int;
  reassigned : int;
  stolen : int;
  salvaged_points : int;
  duplicate_replies : int;
  workers_lost : int;
  responses : (string * string) list;
  lease_events : (string * string list) list;
  lost_telemetry : (string * string) list;
}

(* -- internal state ------------------------------------------------- *)

type lease = {
  l_id : string;
  l_job : job;
  mutable l_keys : string list;  (* point keys chartered to this lease *)
  mutable l_attempt : int;
  mutable l_eligible : float;  (* backoff gate: not grantable before *)
  mutable l_last_worker : string option;
  mutable l_stolen : bool;  (* tail already split off once *)
}

type worker = {
  w_name : string;
  w_addr : Client.addr;
  mutable w_alive : bool;
  mutable w_strikes : int;  (* consecutive failed leases *)
  mutable w_misses : int;  (* consecutive missed heartbeats *)
  mutable w_hb_killed : bool;  (* the heartbeat detector fired *)
  mutable w_fd : Unix.file_descr option;  (* data connection, for shutdown *)
  mutable w_telemetry : string option;
      (* last telemetry snapshot a health reply carried — the flight
         recorder's remote half: archived when this worker is lost *)
}

type st = {
  cfg : config;
  mu : Mutex.t;
  workers : worker list;
  expected : (string, unit) Hashtbl.t;  (* full cache keys of the sweep *)
  table : (string, Eval_cache.summary) Hashtbl.t;  (* completed records *)
  mutable queue : lease list;
  mutable active : (lease * worker) list;
  salvage : (string, string list) Hashtbl.t;  (* lease id -> record lines *)
  lease_events : (string, string list) Hashtbl.t;
      (* lease id -> decision-event JSONL lines from the completing reply;
         first completion wins (duplicates are byte-identical anyway) *)
  mutable responses : (string * string) list;  (* newest first *)
  mutable next_id : int;
  mutable n_leases : int;
  mutable n_reassigned : int;
  mutable n_stolen : int;
  mutable n_salvaged : int;
  mutable n_duplicates : int;
  mutable n_lost : int;
  mutable abort : string option;
  mutable stop : bool;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
      (* written once, at stop, and never drained: from then on every
         [nap] returns at once *)
}

let now () = Unix.gettimeofday ()

let with_mu st f =
  Mutex.lock st.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.mu) f

(* Sleep up to [secs], or less if the sweep stops meanwhile. *)
let nap st secs =
  try ignore (Unix.select [ st.wake_r ] [] [] secs)
  with Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Stop the sweep as soon as it is over: the last expected record is in,
   it aborted, or no worker is left alive.  Called under [st.mu] at the
   end of every state change that can end it, so the supervisor, idle
   senders and heartbeaters all wake in the same instant. *)
let settle_locked st =
  if
    (not st.stop)
    && (Hashtbl.length st.table >= Hashtbl.length st.expected
       || st.abort <> None
       || not (List.exists (fun w -> w.w_alive) st.workers))
  then begin
    st.stop <- true;
    ignore (Unix.write_substring st.wake_w "x" 0 1)
  end

let contain st detector response = st.responses <- (detector, response) :: st.responses

let fresh_id st =
  let n = st.next_id in
  st.next_id <- n + 1;
  Printf.sprintf "L%d" n

let undone st l =
  List.filter (fun pk -> not (Hashtbl.mem st.table (l.l_job.key_of pk))) l.l_keys

(* Fold worker-reported record lines into the result table.  Lines are
   full journal/cache entries; anything unparseable or outside the
   expected key set is dropped.  Returns how many new points landed. *)
let absorb_locked st lines ~salvaged =
  List.fold_left
    (fun acc line ->
      match Eval_cache.parse_line line with
      | Some (ck, s) when Hashtbl.mem st.expected ck && not (Hashtbl.mem st.table ck) ->
          Hashtbl.replace st.table ck s;
          if salvaged then begin
            st.n_salvaged <- st.n_salvaged + 1;
            Obs.incr c_salvaged
          end;
          acc + 1
      | _ -> acc)
    0 lines

let other_live st w = List.exists (fun ow -> ow != w && ow.w_alive) st.workers

(* Pop the first grantable lease: past its backoff gate, and not one this
   worker just failed while another live worker could take it instead.
   Leases whose keys all completed in the meantime (salvage, duplicates)
   are retired on the spot. *)
let rec take_lease st w =
  let t = now () in
  let grantable l =
    l.l_eligible <= t && (l.l_last_worker <> Some w.w_name || not (other_live st w))
  in
  match List.partition grantable st.queue with
  | [], _ -> None
  | l :: more, rest -> (
      st.queue <- more @ rest;
      match undone st l with
      | [] -> take_lease st w (* finished elsewhere; retire *)
      | remaining ->
          l.l_keys <- remaining;
          st.active <- (l, w) :: st.active;
          st.n_leases <- st.n_leases + 1;
          Obs.incr c_leases;
          Some l)

(* Work stealing: an idle worker splits the unfinished tail off the
   largest straggler lease.  The straggler keeps computing its full
   range — duplicated evaluations are byte-identical, so whichever copy
   reports first wins. *)
let try_steal st w =
  if not st.cfg.steal then None
  else
    with_mu st (fun () ->
        if st.queue <> [] || st.stop then None
        else
          let candidates =
            List.filter_map
              (fun (l, ow) ->
                if ow == w || not ow.w_alive || l.l_stolen then None
                else
                  match undone st l with
                  | u when List.length u >= 2 -> Some (l, u)
                  | _ -> None)
              st.active
          in
          match
            List.sort
              (fun (_, a) (_, b) -> compare (List.length b) (List.length a))
              candidates
          with
          | [] -> None
          | (victim, u) :: _ ->
              let n = List.length u in
              let tail = List.filteri (fun i _ -> i >= n - (n / 2)) u in
              victim.l_stolen <- true;
              let nl =
                {
                  l_id = fresh_id st;
                  l_job = victim.l_job;
                  l_keys = tail;
                  l_attempt = 0;
                  l_eligible = 0.0;
                  l_last_worker = None;
                  l_stolen = true;
                }
              in
              st.active <- (nl, w) :: st.active;
              st.n_stolen <- st.n_stolen + 1;
              Obs.incr c_stolen;
              st.n_leases <- st.n_leases + 1;
              Obs.incr c_leases;
              contain st "straggler" "steal_tail";
              Some nl)

(* A lease ended without (full) success.  Salvage whatever the worker
   durably reported (health probes kept the lines), requeue only the
   lost tail with backoff, and strike the worker if the failure is its
   fault.  [log = false] when the detector already logged (the heartbeat
   thread) or the supervisor itself is stopping. *)
let fail_lease ?(log = true) ~detector ~response ~strike st w l =
  with_mu st (fun () ->
      st.active <- List.filter (fun (al, _) -> al != l) st.active;
      let lines = Option.value ~default:[] (Hashtbl.find_opt st.salvage l.l_id) in
      Hashtbl.remove st.salvage l.l_id;
      ignore (absorb_locked st lines ~salvaged:true);
      if log && not st.stop then contain st detector response;
      (match undone st l with
      | [] -> ()
      | remaining when not st.stop ->
          l.l_keys <- remaining;
          l.l_attempt <- l.l_attempt + 1;
          if l.l_attempt > st.cfg.retry_budget then
            st.abort <-
              Some
                (Printf.sprintf "lease %s exhausted its retry budget (%d)" l.l_id
                   st.cfg.retry_budget)
          else begin
            l.l_eligible <-
              now () +. (st.cfg.backoff *. (2.0 ** float_of_int (l.l_attempt - 1)));
            l.l_last_worker <- Some w.w_name;
            st.queue <- st.queue @ [ l ];
            st.n_reassigned <- st.n_reassigned + 1;
            Obs.incr c_reassigned
          end
      | _ -> ());
      if strike && w.w_alive then begin
        w.w_strikes <- w.w_strikes + 1;
        if w.w_strikes >= st.cfg.worker_strikes then begin
          w.w_alive <- false;
          st.n_lost <- st.n_lost + 1;
          Obs.incr c_workers_lost
        end
      end;
      settle_locked st)

(* Requeue without blame: the worker answered [overloaded]/[draining] —
   back off briefly and let another worker take it. *)
let requeue_busy st w l ~eligible_in =
  with_mu st (fun () ->
      st.active <- List.filter (fun (al, _) -> al != l) st.active;
      (match undone st l with
      | [] -> ()
      | remaining when not st.stop ->
          l.l_keys <- remaining;
          l.l_eligible <- now () +. eligible_in;
          l.l_last_worker <- Some w.w_name;
          st.queue <- st.queue @ [ l ];
          contain st "worker_busy" "requeue"
      | _ -> ()))

let finish_lease st w l ?(events = []) lines =
  with_mu st (fun () ->
      ignore (absorb_locked st lines ~salvaged:false);
      if events <> [] && not (Hashtbl.mem st.lease_events l.l_id) then
        Hashtbl.replace st.lease_events l.l_id events;
      st.active <- List.filter (fun (al, _) -> al != l) st.active;
      Hashtbl.remove st.salvage l.l_id;
      w.w_strikes <- 0;
      (match undone st l with
      | [] -> ()
      | remaining when not st.stop ->
          (* an [ok] reply that somehow missed keys: requeue the gap *)
          l.l_keys <- remaining;
          l.l_eligible <- now ();
          l.l_last_worker <- Some w.w_name;
          st.queue <- st.queue @ [ l ]
      | _ -> ());
      settle_locked st)

let set_abort st msg =
  with_mu st (fun () ->
      if st.abort = None then st.abort <- Some msg;
      settle_locked st)

(* -- the per-worker sender ------------------------------------------ *)

(* Stamp the supervisor's trace context on every lease: the worker opens
   its request span with these attributes, which is what links its lane to
   this sweep in the merged fleet trace. *)
let trace_ctx st ~lease =
  Option.map
    (fun tid -> { Protocol.trace_id = tid; parent = "dispatch"; lease })
    st.cfg.trace_id

let lease_request st l =
  let j = l.l_job in
  Protocol.request_to_json
    {
      Protocol.id = l.l_id;
      deadline_s = Some st.cfg.lease_deadline;
      trace = trace_ctx st ~lease:(Some l.l_id);
      req =
        Protocol.Shard_explore
          {
            design = j.design;
            clocks = j.clocks;
            flows = j.flows;
            iis = j.iis;
            recover = j.recover;
            point_deadline = j.point_deadline;
            lease = l.l_id;
            keys = l.l_keys;
          };
    }
  |> J.to_string

let close_client st w client =
  (match !client with Some c -> ( try Client.close c with _ -> ()) | None -> ());
  client := None;
  with_mu st (fun () -> w.w_fd <- None)

let run_lease st w client l =
  let conn_res =
    match !client with
    | Some c -> Ok c
    | None -> (
        match Client.connect w.w_addr with
        | Ok c ->
            client := Some c;
            with_mu st (fun () -> w.w_fd <- Some (Protocol.fd (Client.conn c)));
            Ok c
        | Error e -> Error e)
  in
  match conn_res with
  | Error _ -> fail_lease ~detector:"connect_failed" ~response:"reassign" ~strike:true st w l
  | Ok c -> (
      let sent =
        try
          Protocol.write_frame (Protocol.fd (Client.conn c)) (lease_request st l);
          true
        with _ -> false
      in
      if not sent then begin
        close_client st w client;
        fail_lease ~detector:"connect_failed" ~response:"reassign" ~strike:true st w l
      end
      else
        (* The server cancels the lease at [lease_deadline] and answers
           [timed_out] with its partial records; we wait a little past
           that so a live worker's deadline reply can arrive. *)
        let deadline = now () +. st.cfg.lease_deadline +. 1.0 in
        let should_stop () = st.stop || (not w.w_alive) || now () > deadline in
        let rec read_reply () =
          match Protocol.read_frame ~stall:5.0 ~should_stop (Client.conn c) with
          | Protocol.Stopped ->
              close_client st w client;
              if st.stop then fail_lease ~log:false ~detector:"stop" ~response:"stop" ~strike:false st w l
              else if w.w_hb_killed then
                (* the heartbeat thread already logged and killed *)
                fail_lease ~log:false ~detector:"missed_heartbeats" ~response:"salvage_reassign"
                  ~strike:false st w l
              else
                fail_lease ~detector:"lease_expired" ~response:"salvage_reassign" ~strike:true st
                  w l
          | Protocol.Eof | Protocol.Stalled ->
              close_client st w client;
              fail_lease
                ~log:((not w.w_hb_killed) && not st.stop)
                ~detector:"torn_response" ~response:"salvage_reassign" ~strike:true st w l
          | Protocol.Too_big _ ->
              close_client st w client;
              fail_lease ~detector:"oversized_response" ~response:"salvage_reassign" ~strike:true
                st w l
          | Protocol.Frame body -> handle_reply body
        and handle_reply body =
          match Protocol.response_status body with
          | Error _ ->
              close_client st w client;
              fail_lease ~detector:"torn_response" ~response:"salvage_reassign" ~strike:true st w
                l
          | Ok (status, json) -> (
              let fields = match json with J.Obj f -> f | _ -> [] in
              let reply_lease =
                match List.assoc_opt "lease" fields with Some (J.String s) -> s | _ -> ""
              in
              if reply_lease <> l.l_id then begin
                (* a completion for a lease we are not waiting on — a
                   replay or a stale worker; progress is keyed, so
                   dropping it is always safe *)
                with_mu st (fun () ->
                    st.n_duplicates <- st.n_duplicates + 1;
                    Obs.incr c_duplicates;
                    contain st "duplicate_reply" "drop");
                read_reply ()
              end
              else
                let lines =
                  match Protocol.str_list_field fields "records" with
                  | Ok ls -> ls
                  | Error _ -> []
                in
                let events =
                  match Protocol.str_list_field fields "events" with
                  | Ok es -> es
                  | Error _ -> []
                in
                match status with
                | "ok" ->
                  (* Only a completed lease ships its events: a partial
                     window depends on where the cancel landed and would
                     break the merged file's byte-identity. *)
                  finish_lease st w l ~events lines
                | "partial" ->
                    (* graceful drain mid-lease: the reply is the durable
                       journal payload — salvage it, requeue the rest *)
                    with_mu st (fun () -> Hashtbl.replace st.salvage l.l_id lines);
                    close_client st w client;
                    fail_lease ~detector:"worker_drained" ~response:"salvage_reassign"
                      ~strike:false st w l
                | "timed_out" ->
                    with_mu st (fun () -> Hashtbl.replace st.salvage l.l_id lines);
                    fail_lease ~detector:"lease_expired" ~response:"salvage_reassign"
                      ~strike:false st w l
                | "overloaded" | "draining" ->
                    if status = "draining" then close_client st w client;
                    requeue_busy st w l ~eligible_in:(st.cfg.backoff *. 2.0)
                | "error" ->
                    let msg =
                      match List.assoc_opt "error" fields with
                      | Some (J.String e) -> e
                      | _ -> "worker rejected the lease"
                    in
                    with_mu st (fun () ->
                        st.active <- List.filter (fun (al, _) -> al != l) st.active;
                        contain st "worker_error" "abort");
                    set_abort st (Printf.sprintf "%s: %s" w.w_name msg)
                | other ->
                    with_mu st (fun () ->
                        st.active <- List.filter (fun (al, _) -> al != l) st.active);
                    set_abort st (Printf.sprintf "%s: unexpected lease status %S" w.w_name other))
        in
        read_reply ())

let sender st w =
  let client = ref None in
  let rec loop () =
    if st.stop || not w.w_alive then ()
    else begin
      let next =
        match with_mu st (fun () -> take_lease st w) with
        | Some _ as l -> l
        | None -> try_steal st w
      in
      match next with
      | None ->
          nap st 0.03;
          loop ()
      | Some l ->
          run_lease st w client l;
          loop ()
    end
  in
  loop ();
  close_client st w client

(* -- the per-worker heartbeat --------------------------------------- *)

let record_salvage st fields =
  match List.assoc_opt "leases" fields with
  | Some (J.List ls) ->
      List.iter
        (fun entry ->
          match entry with
          | J.Obj lf ->
              let id =
                match List.assoc_opt "lease" lf with Some (J.String s) -> s | _ -> ""
              in
              let lines =
                match Protocol.str_list_field lf "records" with Ok x -> x | Error _ -> []
              in
              if id <> "" then Hashtbl.replace st.salvage id lines
          | _ -> ())
        ls
  | _ -> ()

let heartbeater st w =
  if st.cfg.heartbeat > 0.0 then begin
    let payload =
      J.to_string
        (Protocol.request_to_json
           {
             Protocol.id = "hb";
             deadline_s = None;
             trace = trace_ctx st ~lease:None;
             req = Protocol.Health;
           })
    in
    let rec loop () =
      if st.stop || not w.w_alive then ()
      else begin
        nap st st.cfg.heartbeat;
        if st.stop || not w.w_alive then ()
        else begin
          (match Client.one_shot ~deadline_s:(st.cfg.heartbeat +. 0.5) w.w_addr payload with
          | Ok body -> (
              w.w_misses <- 0;
              match Protocol.response_status body with
              | Ok (_, J.Obj fields) ->
                  with_mu st (fun () ->
                      record_salvage st fields;
                      (* keep the newest heartbeat-sized snapshot — the
                         postmortem artifact if this worker dies *)
                      match List.assoc_opt "telemetry" fields with
                      | Some tj -> w.w_telemetry <- Some (J.to_string tj)
                      | None -> ())
              | _ -> ())
          | Error _ ->
              w.w_misses <- w.w_misses + 1;
              if w.w_misses >= st.cfg.heartbeat_misses then
                with_mu st (fun () ->
                    if w.w_alive then begin
                      (* alive on the wire, or not even that — either way
                         unresponsive: log once, declare the worker lost,
                         and shut its data connection down so the sender
                         blocked on a reply wakes and salvages *)
                      w.w_hb_killed <- true;
                      w.w_alive <- false;
                      st.n_lost <- st.n_lost + 1;
                      Obs.incr c_workers_lost;
                      contain st "missed_heartbeats" "salvage_reassign";
                      (match w.w_fd with
                      | Some fd -> ( try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
                      | None -> ());
                      settle_locked st
                    end));
          loop ()
        end
      end
    in
    loop ()
  end

(* -- the supervisor ------------------------------------------------- *)

let run (cfg : config) jobs =
  if cfg.workers = [] then Error "no workers configured"
  else if cfg.lease_points < 1 then invalid_arg "Dispatch.run: lease_points < 1"
  else if
    not
      (List.exists
         (fun (_, addr) ->
           match Client.connect addr with
           | Ok c ->
               Client.close c;
               true
           | Error _ -> false)
         cfg.workers)
  then
    Error
      (Printf.sprintf "no worker reachable (%d configured)" (List.length cfg.workers))
  else begin
    (* A worker dying mid-write must surface as EPIPE on that send, not
       kill the supervisor. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    let workers =
      List.map
        (fun (name, addr) ->
          {
            w_name = name;
            w_addr = addr;
            w_alive = true;
            w_strikes = 0;
            w_misses = 0;
            w_hb_killed = false;
            w_fd = None;
            w_telemetry = None;
          })
        cfg.workers
    in
    let wake_r, wake_w = Unix.pipe ~cloexec:true () in
    let st =
      {
        cfg;
        mu = Mutex.create ();
        workers;
        expected = Hashtbl.create 256;
        table = Hashtbl.create 256;
        queue = [];
        active = [];
        salvage = Hashtbl.create 16;
        lease_events = Hashtbl.create 16;
        responses = [];
        next_id = 0;
        n_leases = 0;
        n_reassigned = 0;
        n_stolen = 0;
        n_salvaged = 0;
        n_duplicates = 0;
        n_lost = 0;
        abort = None;
        stop = false;
        wake_r;
        wake_w;
      }
    in
    List.iter
      (fun j ->
        let keys = List.sort_uniq String.compare j.keys in
        List.iter (fun pk -> Hashtbl.replace st.expected (j.key_of pk) ()) keys;
        let total = List.length keys in
        if total > 0 then begin
          let shards = (total + cfg.lease_points - 1) / cfg.lease_points in
          Array.iter
            (fun range ->
              if range <> [] then
                st.queue <-
                  st.queue
                  @ [
                      {
                        l_id = fresh_id st;
                        l_job = j;
                        l_keys = range;
                        l_attempt = 0;
                        l_eligible = 0.0;
                        l_last_worker = None;
                        l_stolen = false;
                      };
                    ])
            (Shard.plan ~shards keys)
        end)
      jobs;
    (* Grant the costliest designs first, so the sweep's tail is small
       leases.  Ids were minted in plan order above and stay with their
       leases: the stable sort moves only the grant order. *)
    st.queue <- List.stable_sort (fun a b -> Float.compare b.l_job.cost a.l_job.cost) st.queue;
    let total = Hashtbl.length st.expected in
    let emit () =
      if Obs.Events.enabled () then
        with_mu st (fun () ->
            Obs.Events.emit
              (Obs.Events.Dispatch_sample
                 {
                   workers = List.length (List.filter (fun w -> w.w_alive) st.workers);
                   leases = List.length st.active;
                   done_points = Hashtbl.length st.table;
                   total_points = total;
                   reassigned = st.n_reassigned;
                   stolen = st.n_stolen;
                   salvaged = st.n_salvaged;
                 }))
    in
    with_mu st (fun () -> settle_locked st);
    let threads =
      List.concat_map
        (fun w -> [ Thread.create (sender st) w; Thread.create (heartbeater st) w ])
        workers
    in
    while not st.stop do
      emit ();
      nap st 0.2
    done;
    List.iter Thread.join threads;
    Unix.close wake_r;
    Unix.close wake_w;
    emit ();
    let done_n = Hashtbl.length st.table in
    let abort =
      match st.abort with
      | Some _ as a -> a
      | None when done_n < total -> Some "all workers lost"
      | None -> None
    in
    let records =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.table []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    (* Lease ids are L0, L1, … minted in plan order — sorting the event
       streams by that deterministic id (numerically, so L10 follows L9)
       is what makes the merged provenance file independent of which
       worker happened to run which lease. *)
    let lease_order a b =
      let num s =
        if String.length s > 1 && s.[0] = 'L' then
          int_of_string_opt (String.sub s 1 (String.length s - 1))
        else None
      in
      match (num a, num b) with
      | Some x, Some y -> compare x y
      | _ -> String.compare a b
    in
    let lease_events =
      Hashtbl.fold (fun id evs acc -> (id, evs) :: acc) st.lease_events []
      |> List.sort (fun (a, _) (b, _) -> lease_order a b)
    in
    let lost_telemetry =
      List.filter_map
        (fun w ->
          if w.w_alive then None
          else Option.map (fun tj -> (w.w_name, tj)) w.w_telemetry)
        st.workers
    in
    Ok
      {
        records;
        complete = done_n >= total && st.abort = None;
        abort;
        leases = st.n_leases;
        reassigned = st.n_reassigned;
        stolen = st.n_stolen;
        salvaged_points = st.n_salvaged;
        duplicate_replies = st.n_duplicates;
        workers_lost = st.n_lost;
        responses = List.rev st.responses;
        lease_events;
        lost_telemetry;
      }
  end
