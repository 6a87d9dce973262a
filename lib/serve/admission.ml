let c_requests = Obs.counter "serve.requests"
let c_admitted = Obs.counter "serve.admitted"
let c_shed = Obs.counter "serve.shed"
let c_completed = Obs.counter "serve.completed"
let d_inflight = Obs.dist "serve.inflight"

type decision = Admitted | Shed | Draining

type t = {
  hw : int;
  queue_depth : unit -> int;
  m : Mutex.t;
  mutable inflight : int;
  mutable draining : bool;
}

let create ~high_water ~queue_depth =
  {
    hw = max 1 high_water;
    queue_depth;
    m = Mutex.create ();
    inflight = 0;
    draining = false;
  }

let high_water t = t.hw

(* Called with [t.m] held.  Events.emit takes the events mutex inside; no
   hook in this codebase takes admission locks, so the order is safe. *)
let sample t =
  Obs.observe d_inflight (float_of_int t.inflight);
  Obs.Events.emit
    (Obs.Events.Serve_sample
       {
         queue_depth = t.queue_depth ();
         inflight = t.inflight;
         admitted = Obs.value c_admitted;
         shed = Obs.value c_shed;
       })

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let try_admit t =
  Obs.incr c_requests;
  locked t (fun () ->
      let d =
        if t.draining then Draining
        else if t.inflight >= t.hw then begin
          Obs.incr c_shed;
          Shed
        end
        else begin
          t.inflight <- t.inflight + 1;
          Obs.incr c_admitted;
          Admitted
        end
      in
      sample t;
      d)

let finish t =
  locked t (fun () ->
      t.inflight <- t.inflight - 1;
      Obs.incr c_completed;
      sample t)

let inflight t = locked t (fun () -> t.inflight)
let start_drain t = locked t (fun () -> t.draining <- true)

let wait_idle t ~deadline_s =
  let deadline = Unix.gettimeofday () +. deadline_s in
  let rec go () =
    if inflight t = 0 then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()
