let c_tasks = Obs.counter "explore.pool.tasks"
let c_spawns = Obs.counter "explore.pool.domains"
let c_retries = Obs.counter "explore.pool.retries"
let c_crashes = Obs.counter "explore.pool.crashes"
let c_skipped = Obs.counter "explore.pool.skipped"

let default_jobs () = max 1 (Domain.recommended_domain_count ())

type crash = {
  attempts : int;
  message : string;
  exn : exn;
  backtrace : Printexc.raw_backtrace;
}

type 'b outcome = Done of 'b | Crashed of crash | Skipped

(* Run one task under the retry policy.  Retries happen immediately, in
   the same worker, so the schedule of attempts is deterministic per
   task. *)
let attempt_task ~retries f x =
  let rec go attempt =
    match f x with
    | v -> Done v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      if attempt <= retries then begin
        Obs.incr c_retries;
        go (attempt + 1)
      end
      else begin
        Obs.incr c_crashes;
        Crashed
          { attempts = attempt; message = Printexc.to_string e; exn = e;
            backtrace = bt }
      end
  in
  go 1

let no_stop () = false

(* Per-drainer provenance context: one [Worker_sample] per completed task,
   carrying the drainer's index (stable across runs, unlike domain ids) and
   its busy/elapsed utilization.  A persistent pool's workers keep one
   context across batches, so their utilization spans the pool's life; a
   shared batch gives each of its drainers a fresh one. *)
type wctx = { w : int; t0 : int64; busy : float ref; tasks_done : int ref }

let new_wctx w = { w; t0 = Obs.now_ns (); busy = ref 0.0; tasks_done = ref 0 }

let timed_task ctx ~retries f x =
  let s = Obs.now_ns () in
  (* Obs.Prof.sample reads this domain's allocation counters: the delta
     is this task's own churn, whatever the other workers allocate. *)
  let g0 = Obs.Prof.sample () in
  let r = attempt_task ~retries f x in
  let g = Obs.Prof.delta ~before:g0 ~after:(Obs.Prof.sample ()) in
  ctx.busy := !(ctx.busy) +. Int64.to_float (Int64.sub (Obs.now_ns ()) s);
  incr ctx.tasks_done;
  let elapsed = Int64.to_float (Int64.sub (Obs.now_ns ()) ctx.t0) in
  let utilization =
    if elapsed <= 0.0 then 1.0 else Float.min 1.0 (!(ctx.busy) /. elapsed)
  in
  Obs.Events.emit
    (Obs.Events.Worker_sample
       {
         domain = ctx.w;
         tasks_done = !(ctx.tasks_done);
         utilization;
         minor_words = g.Obs.Prof.minor_words;
         major_words = g.Obs.Prof.major_words;
       });
  r

(* All timing reads are skipped when events are off. *)
let exec_task ctx ~retries f x =
  if Obs.Events.enabled () then timed_task ctx ~retries f x
  else attempt_task ~retries f x

(* ------------------------------------------------------------------ *)
(* Worker sets

   Worker domains pulling jobs off one shared FIFO queue.  The serve
   daemon creates one at startup ({!create}) and submits one job per task
   ({!run} with [?pool]); concurrent batches interleave in FIFO order,
   which is what lets it multiplex many requests onto one set of domains.
   {!run} without [?pool] posts its drain jobs to [shared], one
   process-wide set that starts empty and grows on demand.  A job must
   never raise: the worker loop does not guard it. *)

type job = wctx -> unit

type pool = {
  q : job Queue.t;
  m : Mutex.t;
  work_cv : Condition.t;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
}

let pool_jobs p = List.length p.domains

let pending p =
  Mutex.lock p.m;
  let n = Queue.length p.q in
  Mutex.unlock p.m;
  n

let empty_pool () =
  {
    q = Queue.create ();
    m = Mutex.create ();
    work_cv = Condition.create ();
    stopping = false;
    domains = [];
  }

let worker p w () =
  let ctx = new_wctx w in
  let rec loop () =
    Mutex.lock p.m;
    while Queue.is_empty p.q && not p.stopping do
      Condition.wait p.work_cv p.m
    done;
    (* Shutdown drains: a worker only exits once the queue is empty, so
       no submitted batch can be left waiting forever. *)
    if Queue.is_empty p.q then Mutex.unlock p.m
    else begin
      let job = Queue.pop p.q in
      Mutex.unlock p.m;
      job ctx;
      loop ()
    end
  in
  loop ()

(* Spawn workers until [p] has at least [n].  [Domain.spawn] raises past
   the runtime's domain limit; the lock must not stay held when it does. *)
let grow p n =
  Mutex.protect p.m (fun () ->
      for w = List.length p.domains to n - 1 do
        p.domains <- Domain.spawn (worker p w) :: p.domains;
        Obs.incr c_spawns
      done)

let submit p jobs =
  Mutex.lock p.m;
  if p.stopping then begin
    Mutex.unlock p.m;
    invalid_arg "Domain_pool.run: pool is shut down"
  end;
  List.iter (fun j -> Queue.add j p.q) jobs;
  Condition.broadcast p.work_cv;
  Mutex.unlock p.m

let create ~jobs =
  let p = empty_pool () in
  grow p (max 1 jobs);
  p

let shutdown p =
  Mutex.lock p.m;
  if p.stopping then Mutex.unlock p.m
  else begin
    p.stopping <- true;
    Condition.broadcast p.work_cv;
    Mutex.unlock p.m;
    List.iter Domain.join p.domains
  end

(* Submit a batch and wait for it.  [results] writes happen in worker
   domains; the batch mutex/condvar pair orders them before the waiting
   thread reads the array.  Jobs never raise: [attempt_task] catches
   everything, so [remaining] always reaches zero. *)
let run_on_pool p ~retries ~should_stop f tasks =
  let n = Array.length tasks in
  let results = Array.make n Skipped in
  if n > 0 then begin
    let bm = Mutex.create () in
    let bcv = Condition.create () in
    let remaining = ref n in
    let job i ctx =
      (* The stop poll gates execution only: a stopped batch's queued jobs
         drain as fast no-ops and report [Skipped]. *)
      if not (should_stop ()) then
        results.(i) <- exec_task ctx ~retries f tasks.(i);
      Mutex.lock bm;
      decr remaining;
      if !remaining = 0 then Condition.broadcast bcv;
      Mutex.unlock bm
    in
    submit p (List.init n job);
    Mutex.lock bm;
    while !remaining > 0 do
      Condition.wait bcv bm
    done;
    Mutex.unlock bm
  end;
  results

(* ------------------------------------------------------------------ *)
(* Shared batches

   A batch without [?pool] runs on [k = min jobs n] drainers: the caller
   (drainer 0) and [k - 1] drain jobs posted to [shared], all claiming
   task indices from one atomic cursor.  The caller never waits for a
   drain job that has not started: when its own drain ends it closes the
   batch and waits only for the drainers already running, and a drain job
   that starts after the close returns at once.  So concurrent (or
   nested) batches never wait on each other's queued jobs, and at most
   [k] tasks of a batch run at once. *)

let shared = empty_pool ()

type batch = {
  bm : Mutex.t;
  idle : Condition.t;
  mutable closed : bool;
  mutable joined : int;  (* drain jobs that started before the close *)
  mutable running : int;
  mutable failure : (exn * Printexc.raw_backtrace) option;
}

let run_shared ~k ~retries ~should_stop f tasks =
  let n = Array.length tasks in
  let results = Array.make n Skipped in
  let next = Atomic.make 0 in
  let b =
    {
      bm = Mutex.create ();
      idle = Condition.create ();
      closed = false;
      joined = 0;
      running = 0;
      failure = None;
    }
  in
  (* An exception that escapes a task's bookkeeping (an event hook, say)
     ends only this drainer; it is kept for the caller to re-raise after
     the batch, and a worker domain survives it. *)
  let drain d =
    let ctx = new_wctx d in
    let rec loop () =
      (* The stop poll gates task claiming only: in-flight tasks drain to
         completion (bounded by their own point deadlines), so a cancelled
         sweep still journals everything it finished. *)
      if not (should_stop ()) then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- exec_task ctx ~retries f tasks.(i);
          loop ()
        end
      end
    in
    match loop () with
    | () -> None
    | exception e -> Some (e, Printexc.get_raw_backtrace ())
  in
  let keep_failure r = if Option.is_none b.failure then b.failure <- r in
  let drain_job _ =
    Mutex.lock b.bm;
    if b.closed then Mutex.unlock b.bm
    else begin
      b.joined <- b.joined + 1;
      b.running <- b.running + 1;
      let d = b.joined in
      Mutex.unlock b.bm;
      let r = drain d in
      Mutex.lock b.bm;
      keep_failure r;
      b.running <- b.running - 1;
      if b.running = 0 then Condition.broadcast b.idle;
      Mutex.unlock b.bm
    end
  in
  if k >= 2 then begin
    grow shared (k - 1);
    submit shared (List.init (k - 1) (fun _ -> drain_job))
  end;
  let r = drain 0 in
  (* Worker writes to [results] happen before their drainer's last
     unlock of [b.bm], so they are visible once [running] reads 0. *)
  Mutex.lock b.bm;
  b.closed <- true;
  keep_failure r;
  while b.running > 0 do
    Condition.wait b.idle b.bm
  done;
  Mutex.unlock b.bm;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) b.failure;
  results

(* ------------------------------------------------------------------ *)
(* Batch runs *)

let run ?jobs ?pool ?(retries = 0) ?(should_stop = no_stop) f tasks =
  Obs.add c_tasks (Array.length tasks);
  let results =
    match pool with
    | Some p -> run_on_pool p ~retries ~should_stop f tasks
    | None ->
      let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
      run_shared ~k:(min jobs (Array.length tasks)) ~retries ~should_stop f tasks
  in
  Array.iter (function Skipped -> Obs.incr c_skipped | Done _ | Crashed _ -> ()) results;
  results

let map ?jobs f tasks =
  let results = run ?jobs ~retries:0 f tasks in
  (* Strict semantics: re-raise the lowest-indexed crash (deterministic
     regardless of worker interleaving); with no stop predicate nothing is
     ever Skipped. *)
  Array.iter
    (function
      | Crashed c -> Printexc.raise_with_backtrace c.exn c.backtrace
      | Done _ | Skipped -> ())
    results;
  Array.map
    (function
      | Done v -> v
      | Crashed _ | Skipped -> assert false (* raised / impossible above *))
    results
