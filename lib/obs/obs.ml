external now_ns : unit -> int64 = "hls_obs_monotonic_ns"
external os_pid : unit -> int = "hls_obs_pid"

let epoch_ns = now_ns ()

(* The ledger is shared by every domain (the explore engine evaluates
   design points on a Domain pool): interning and aggregate mutation go
   through one mutex, counter bumps are lock-free atomics, and the span
   path is domain-local state.  Contention is negligible — interning
   happens at module initialisation, aggregates only when a sink is on. *)
let mu = Mutex.create ()

let locked f = Mutex.protect mu f

(* ------------------------------------------------------------------ *)
(* Counters *)

type counter = { c_name : string; c_value : int Atomic.t }

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter name =
  locked @@ fun () ->
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_value = Atomic.make 0 } in
    Hashtbl.replace counters name c;
    c

let incr c = Atomic.incr c.c_value

let add c n =
  if n < 0 then invalid_arg "Obs.add: counters are monotone";
  ignore (Atomic.fetch_and_add c.c_value n)

let value c = Atomic.get c.c_value

(* ------------------------------------------------------------------ *)
(* Distributions *)

type dist = {
  d_name : string;
  mutable d_sum : float;
  mutable d_min : float;
  mutable d_max : float;
  d_values : float Vec.t;
}

let dists : (string, dist) Hashtbl.t = Hashtbl.create 16

let dist name =
  locked @@ fun () ->
  match Hashtbl.find_opt dists name with
  | Some d -> d
  | None ->
    let d =
      {
        d_name = name;
        d_sum = 0.0;
        d_min = infinity;
        d_max = neg_infinity;
        d_values = Vec.create ();
      }
    in
    Hashtbl.replace dists name d;
    d

let observe d v =
  locked @@ fun () ->
  d.d_sum <- d.d_sum +. v;
  if v < d.d_min then d.d_min <- v;
  if v > d.d_max then d.d_max <- v;
  ignore (Vec.push d.d_values v)

type dist_stats = {
  n : int;
  dmin : float;
  dmax : float;
  mean : float;
  p50 : float;
  p95 : float;
}

let percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) rank))

(* One locked read, so that a concurrent [observe] cannot make [n], the
   mean and the percentiles describe different sample sets. *)
let dist_stats d =
  let sorted, sum, dmin, dmax =
    locked (fun () -> (Vec.to_array d.d_values, d.d_sum, d.d_min, d.d_max))
  in
  let n = Array.length sorted in
  if n = 0 then None
  else begin
    Array.sort Float.compare sorted;
    Some
      {
        n;
        dmin;
        dmax;
        mean = sum /. float_of_int n;
        p50 = percentile sorted 50.0;
        p95 = percentile sorted 95.0;
      }
  end

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let rec emit buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
      else Buffer.add_string buf "null"
    | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf x)
        l;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          emit buf v)
        kvs;
      Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 256 in
    emit buf t;
    Buffer.contents buf

  (* Minimal recursive-descent parser for the subset this module emits —
     enough to replay event files and diff benchmark snapshots without a
     JSON package dependency. *)
  exception Parse_error of string

  let parse s =
    let incr = Stdlib.incr in
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected %C" c)
    in
    let lit word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let utf8 buf code =
      if code < 0x80 then Buffer.add_char buf (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
      end
    in
    let string_body () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
            incr pos;
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; incr pos
               | '\\' -> Buffer.add_char buf '\\'; incr pos
               | '/' -> Buffer.add_char buf '/'; incr pos
               | 'n' -> Buffer.add_char buf '\n'; incr pos
               | 'r' -> Buffer.add_char buf '\r'; incr pos
               | 't' -> Buffer.add_char buf '\t'; incr pos
               | 'b' -> Buffer.add_char buf '\b'; incr pos
               | 'f' -> Buffer.add_char buf '\012'; incr pos
               | 'u' ->
                 if !pos + 4 >= n then fail "truncated \\u escape";
                 let hex = String.sub s (!pos + 1) 4 in
                 (match int_of_string_opt ("0x" ^ hex) with
                 | Some code -> utf8 buf code; pos := !pos + 5
                 | None -> fail "bad \\u escape")
               | c -> fail (Printf.sprintf "bad escape %C" c));
            go ()
          | c -> Buffer.add_char buf c; incr pos; go ()
      in
      go ();
      Buffer.contents buf
    in
    let number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do incr pos done;
      let tok = String.sub s start (!pos - start) in
      let floaty =
        String.exists (function '.' | 'e' | 'E' -> true | _ -> false) tok
      in
      if floaty then
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" tok)
      else
        match int_of_string_opt tok with
        | Some i -> Int i
        | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "bad number %S" tok))
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin incr pos; Obj [] end
        else begin
          let rec members acc =
            skip_ws ();
            let k = string_body () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; members ((k, v) :: acc)
            | Some '}' -> incr pos; List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
      | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin incr pos; List [] end
        else begin
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; elements (v :: acc)
            | Some ']' -> incr pos; List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (elements [])
        end
      | Some '"' -> String (string_body ())
      | Some 't' -> lit "true" (Bool true)
      | Some 'f' -> lit "false" (Bool false)
      | Some 'n' -> lit "null" Null
      | Some ('-' | '0' .. '9') -> number ()
      | Some c -> fail (Printf.sprintf "unexpected character %C" c)
    in
    match
      let v = value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error m -> Error m
end

(* ------------------------------------------------------------------ *)
(* Spans and sinks *)

type span_agg = {
  mutable s_count : int;
  mutable s_total_ns : int64;
  (* GC/alloc deltas, accumulated only while profiling is enabled. *)
  mutable s_minor_w : float;
  mutable s_major_w : float;
  mutable s_minor_c : int;
  mutable s_major_c : int;
}

let new_span_agg () =
  {
    s_count = 0;
    s_total_ns = 0L;
    s_minor_w = 0.0;
    s_major_w = 0.0;
    s_minor_c = 0;
    s_major_c = 0;
  }

(* The trace buffers' records, which [Telemetry] ships as they are.
   Times are nanoseconds relative to [epoch_ns]. *)
module Trace = struct
  type trace_entry = {
    t_name : string;
    t_path : string;
    t_ts_ns : int;
    t_dur_ns : int;
    t_tid : int;  (* the recording domain's id: one trace lane per worker *)
    t_attrs : (string * string) list;
  }

  (* One heap-pressure sample per closed profiled span, rendered as
     Chrome-trace counter events (ph:"C"): cumulative words allocated by
     the recording domain, so traces show memory pressure alongside the
     span lanes. *)
  type heap_entry = {
    h_ts_ns : int;
    h_tid : int;
    h_minor_w : float;
    h_major_w : float;
  }
end

open Trace

type state = {
  mutable stats_on : bool;
  mutable trace_on : bool;
  mutable prof_on : bool;  (* take Gc.quick_stat deltas around spans *)
  mutable collecting : bool;  (* stats_on || trace_on, the fast-path test *)
  span_aggs : (string, span_agg) Hashtbl.t;
  mutable trace_buf : trace_entry Vec.t;
  mutable gc_buf : heap_entry Vec.t;
}

let st =
  {
    stats_on = false;
    trace_on = false;
    prof_on = false;
    collecting = false;
    span_aggs = Hashtbl.create 32;
    trace_buf = Vec.create ();
    gc_buf = Vec.create ();
  }

(* The open-span path is per domain: concurrent workers each nest their
   own spans without seeing each other's stack. *)
let path_key : string list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let collecting () = st.collecting
let enable_stats () = st.stats_on <- true; st.collecting <- true
let enable_trace () = st.trace_on <- true; st.collecting <- true
let disable () = st.stats_on <- false; st.trace_on <- false; st.collecting <- false

(* ------------------------------------------------------------------ *)
(* Decision provenance: typed events in a bounded ring buffer.

   Events carry sequence numbers, never wall-clock timestamps, so two
   identical runs write byte-identical JSONL files.  The off path is a
   single flag test, matching the counter/span discipline. *)

module Events = struct
  type payload =
    | Slack_computed of { op : string; phase : string; round : int; slack_ps : float }
    | Delay_update of {
        op : string;
        phase : string;
        round : int;
        from_ps : float;
        to_ps : float;
      }
    | Budget_round of { round : int; updates : int }
    | Edge_scheduled of { edge : int; step : int; placed : int; deferred : int }
    | Op_picked of {
        op : string;
        edge : int;
        step : int;
        priority : float;
        ready_set_size : int;
      }
    | Recovery_step of { rung : string; outcome : string }
    | Worker_sample of {
        domain : int;
        tasks_done : int;
        utilization : float;
        minor_words : float;  (* allocation delta of the sampled task *)
        major_words : float;
      }
    | Serve_sample of {
        queue_depth : int;  (* admitted requests currently in the system *)
        inflight : int;  (* requests currently executing *)
        admitted : int;  (* cumulative admission decisions *)
        shed : int;  (* cumulative load-shed decisions *)
      }
    | Dispatch_sample of {
        workers : int;  (* workers currently believed alive *)
        leases : int;  (* leases currently outstanding *)
        done_points : int;  (* points durably recorded so far *)
        total_points : int;
        reassigned : int;  (* cumulative lease reassignments *)
        stolen : int;  (* cumulative tail-steal splits *)
        salvaged : int;  (* cumulative points salvaged from failed workers *)
      }

  type t = { seq : int; payload : payload }

  (* Registered at module init: [emit] may run while [mu] is held by
     nobody else, but [counter] itself takes [mu], so the lookup must
     not happen inside the ring's critical section. *)
  let c_dropped = counter "obs.events.dropped"

  let default_capacity = 65536
  let on = ref false
  let cap = ref default_capacity
  let ring : t option array ref = ref [||]
  let start = ref 0
  let len = ref 0
  let next_seq = ref 0
  let hook : (t -> unit) option ref = ref None

  let enabled () = !on

  let reset_unlocked () =
    ring := [||];
    start := 0;
    len := 0;
    next_seq := 0

  let clear () = locked reset_unlocked

  let enable ?(capacity = default_capacity) () =
    locked (fun () ->
        cap := max 1 capacity;
        reset_unlocked ();
        on := true)

  let disable () = on := false
  let set_hook h = locked (fun () -> hook := h)

  let emit payload =
    if not !on then ()
    else
      locked (fun () ->
          let seq = !next_seq in
          next_seq := seq + 1;
          let ev = { seq; payload } in
          if Array.length !ring < !cap then ring := Array.make !cap None;
          if !len = !cap then begin
            (* Full: overwrite the oldest slot and advance the window. *)
            !ring.(!start) <- Some ev;
            start := (!start + 1) mod !cap;
            incr c_dropped
          end
          else begin
            !ring.((!start + !len) mod !cap) <- Some ev;
            len := !len + 1
          end;
          match !hook with Some h -> h ev | None -> ())

  let events () =
    locked (fun () ->
        List.init !len (fun i ->
            match !ring.((!start + i) mod !cap) with
            | Some e -> e
            | None -> assert false))

  (* Windowed capture: [mark] pins the current sequence cursor; [since]
     returns only the events emitted after it.  A worker daemon uses the
     pair to ship each lease's decision events without also shipping every
     earlier request's — the ring is shared process state, the window is
     not. *)
  let mark () = locked (fun () -> !next_seq)

  let since ~mark = List.filter (fun e -> e.seq >= mark) (events ())

  let renumber evs = List.mapi (fun i e -> { e with seq = i }) evs

  (* Sample payloads carry wall-clock-derived quantities (utilization,
     queue gauges), so they differ across identical runs; everything else
     is a pure function of the input and belongs in deterministic
     provenance files. *)
  let deterministic e =
    match e.payload with
    | Worker_sample _ | Serve_sample _ | Dispatch_sample _ -> false
    | Slack_computed _ | Delay_update _ | Budget_round _ | Edge_scheduled _
    | Op_picked _ | Recovery_step _ ->
      true

  let to_json e =
    let open Json in
    let base tag fields = Obj (("type", String tag) :: ("seq", Int e.seq) :: fields) in
    match e.payload with
    | Slack_computed { op; phase; round; slack_ps } ->
      base "slack"
        [
          ("op", String op);
          ("phase", String phase);
          ("round", Int round);
          ("slack_ps", Float slack_ps);
        ]
    | Delay_update { op; phase; round; from_ps; to_ps } ->
      base "delay"
        [
          ("op", String op);
          ("phase", String phase);
          ("round", Int round);
          ("from_ps", Float from_ps);
          ("to_ps", Float to_ps);
        ]
    | Budget_round { round; updates } ->
      base "budget_round" [ ("round", Int round); ("updates", Int updates) ]
    | Edge_scheduled { edge; step; placed; deferred } ->
      base "edge"
        [
          ("edge", Int edge);
          ("step", Int step);
          ("placed", Int placed);
          ("deferred", Int deferred);
        ]
    | Op_picked { op; edge; step; priority; ready_set_size } ->
      base "pick"
        [
          ("op", String op);
          ("edge", Int edge);
          ("step", Int step);
          ("priority", Float priority);
          ("ready", Int ready_set_size);
        ]
    | Recovery_step { rung; outcome } ->
      base "recovery" [ ("rung", String rung); ("outcome", String outcome) ]
    | Worker_sample { domain; tasks_done; utilization; minor_words; major_words } ->
      base "worker"
        [
          ("domain", Int domain);
          ("done", Int tasks_done);
          ("utilization", Float utilization);
          ("minor_w", Float minor_words);
          ("major_w", Float major_words);
        ]
    | Serve_sample { queue_depth; inflight; admitted; shed } ->
      base "serve"
        [
          ("queue_depth", Int queue_depth);
          ("inflight", Int inflight);
          ("admitted", Int admitted);
          ("shed", Int shed);
        ]
    | Dispatch_sample { workers; leases; done_points; total_points; reassigned; stolen; salvaged }
      ->
      base "dispatch"
        [
          ("workers", Int workers);
          ("leases", Int leases);
          ("done", Int done_points);
          ("total", Int total_points);
          ("reassigned", Int reassigned);
          ("stolen", Int stolen);
          ("salvaged", Int salvaged);
        ]

  let of_json j =
    let fail msg = raise (Json.Parse_error msg) in
    let decode () =
      match j with
      | Json.Obj fields ->
        let str k =
          match List.assoc_opt k fields with
          | Some (Json.String s) -> s
          | _ -> fail (Printf.sprintf "missing string field %S" k)
        in
        let int k =
          match List.assoc_opt k fields with
          | Some (Json.Int i) -> i
          | _ -> fail (Printf.sprintf "missing int field %S" k)
        in
        let num k =
          match List.assoc_opt k fields with
          | Some (Json.Float f) -> f
          | Some (Json.Int i) -> float_of_int i
          | _ -> fail (Printf.sprintf "missing number field %S" k)
        in
        (* For fields added after a payload shipped: event files written by
           older builds decode with the default instead of failing. *)
        let num_or default k =
          match List.assoc_opt k fields with
          | Some (Json.Float f) -> f
          | Some (Json.Int i) -> float_of_int i
          | _ -> default
        in
        let seq = int "seq" in
        let payload =
          match str "type" with
          | "slack" ->
            Slack_computed
              {
                op = str "op";
                phase = str "phase";
                round = int "round";
                slack_ps = num "slack_ps";
              }
          | "delay" ->
            Delay_update
              {
                op = str "op";
                phase = str "phase";
                round = int "round";
                from_ps = num "from_ps";
                to_ps = num "to_ps";
              }
          | "budget_round" ->
            Budget_round { round = int "round"; updates = int "updates" }
          | "edge" ->
            Edge_scheduled
              {
                edge = int "edge";
                step = int "step";
                placed = int "placed";
                deferred = int "deferred";
              }
          | "pick" ->
            Op_picked
              {
                op = str "op";
                edge = int "edge";
                step = int "step";
                priority = num "priority";
                ready_set_size = int "ready";
              }
          | "recovery" ->
            Recovery_step { rung = str "rung"; outcome = str "outcome" }
          | "serve" ->
            Serve_sample
              {
                queue_depth = int "queue_depth";
                inflight = int "inflight";
                admitted = int "admitted";
                shed = int "shed";
              }
          | "dispatch" ->
            Dispatch_sample
              {
                workers = int "workers";
                leases = int "leases";
                done_points = int "done";
                total_points = int "total";
                reassigned = int "reassigned";
                stolen = int "stolen";
                salvaged = int "salvaged";
              }
          | "worker" ->
            Worker_sample
              {
                domain = int "domain";
                tasks_done = int "done";
                utilization = num "utilization";
                minor_words = num_or 0.0 "minor_w";
                major_words = num_or 0.0 "major_w";
              }
          | tag -> fail (Printf.sprintf "unknown event type %S" tag)
        in
        { seq; payload }
      | _ -> fail "event is not a JSON object"
    in
    match decode () with
    | e -> Ok e
    | exception Json.Parse_error m -> Error m

  let to_jsonl_line e = Json.to_string (to_json e)

  let write_jsonl ~path =
    let evs = events () in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        List.iter
          (fun e ->
            output_string oc (to_jsonl_line e);
            output_char oc '\n')
          evs)

  (* ---------------------------------------------------------------- *)
  (* Tagged multi-worker streams.  A merged provenance file interleaves
     several independent seq streams, one per lease; each line carries a
     "worker" tag naming its stream, and untagged lines form one
     anonymous stream.  The loader enforces the per-stream contract:
     within one stream, sequence numbers strictly increase.  A violation
     names the offending stream and line instead of silently replaying a
     corrupted merge. *)

  type tagged = { stream : string option; event : t }

  let tagged_to_json ~stream e =
    match to_json e with
    | Json.Obj fields -> Json.Obj (("worker", Json.String stream) :: fields)
    | j -> j

  let tagged_to_jsonl_line ~stream e = Json.to_string (tagged_to_json ~stream e)

  let of_json_tagged j =
    match of_json j with
    | Error _ as e -> e
    | Ok event ->
      let stream =
        match j with
        | Json.Obj fields -> (
          match List.assoc_opt "worker" fields with
          | Some (Json.String s) -> Some s
          | _ -> None)
        | _ -> None
      in
      Ok { stream; event }

  let stream_name = function
    | Some s -> Printf.sprintf "stream %S" s
    | None -> "untagged stream"

  let load_tagged ~path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        (* Last seen seq per stream; the untagged stream keys as "". *)
        let last : (string, int) Hashtbl.t = Hashtbl.create 8 in
        let key = function Some s -> "s:" ^ s | None -> "" in
        let rec go lineno acc =
          match input_line ic with
          | exception End_of_file -> Ok (List.rev acc)
          | "" -> go (lineno + 1) acc
          | line -> (
            match Json.parse line with
            | Error m -> Error (Printf.sprintf "line %d: %s" lineno m)
            | Ok j -> (
              match of_json_tagged j with
              | Error m -> Error (Printf.sprintf "line %d: %s" lineno m)
              | Ok te -> (
                let k = key te.stream in
                match Hashtbl.find_opt last k with
                | Some prev when te.event.seq <= prev ->
                  Error
                    (Printf.sprintf
                       "line %d: %s: seq %d after seq %d — per-stream \
                        sequence numbers must increase"
                       lineno (stream_name te.stream) te.event.seq prev)
                | _ ->
                  Hashtbl.replace last k te.event.seq;
                  go (lineno + 1) (te :: acc))))
        in
        go 1 [])

  (* Divergence localization: two runs that should be identical (the
     byte-identical-equivalence proof of an incremental engine) are
     compared positionally; the first mismatching event, with its
     per-payload field diff, is where the runs' decisions split. *)

  type field_diff = { field : string; a_val : string; b_val : string }

  type divergence = {
    index : int;  (* position in the aligned streams *)
    a : t option;  (* [None]: this stream ended before the other *)
    b : t option;
    fields : field_diff list;  (* differing payload fields, both present *)
  }

  let field_diffs ea eb =
    let flat e = match to_json e with Json.Obj kvs -> kvs | j -> [ ("event", j) ] in
    let fa = flat ea and fb = flat eb in
    let keys =
      List.fold_left
        (fun acc (k, _) -> if List.mem k acc then acc else acc @ [ k ])
        [] (fa @ fb)
    in
    List.filter_map
      (fun k ->
        let show kvs =
          match List.assoc_opt k kvs with
          | Some v -> Json.to_string v
          | None -> "<absent>"
        in
        let va = show fa and vb = show fb in
        if String.equal va vb then None
        else Some { field = k; a_val = va; b_val = vb })
      keys

  (* Two files diverge when either the event or the stream it belongs to
     differs; a stream mismatch shows up as a synthetic "worker" field
     diff. *)
  let diff_tagged a b =
    let show = function Some s -> Printf.sprintf "%S" s | None -> "<untagged>" in
    let rec go index a b =
      match (a, b) with
      | [], [] -> None
      | ta :: _, [] -> Some { index; a = Some ta.event; b = None; fields = [] }
      | [], tb :: _ -> Some { index; a = None; b = Some tb.event; fields = [] }
      | ta :: ra, tb :: rb ->
        if ta.stream = tb.stream && ta.event = tb.event then go (index + 1) ra rb
        else
          let fields =
            let base = field_diffs ta.event tb.event in
            if ta.stream = tb.stream then base
            else
              { field = "worker"; a_val = show ta.stream; b_val = show tb.stream }
              :: base
          in
          Some { index; a = Some ta.event; b = Some tb.event; fields }
    in
    go 0 a b
end

let reset () =
  locked @@ fun () ->
  Hashtbl.iter (fun _ c -> Atomic.set c.c_value 0) counters;
  Hashtbl.reset dists;
  Hashtbl.reset st.span_aggs;
  Domain.DLS.set path_key [];
  st.trace_buf <- Vec.create ();
  st.gc_buf <- Vec.create ();
  Events.reset_unlocked ()

(* Words come from the calling domain's own counters, so a delta is the
   measured region's own churn (children included, like wall clock) even
   while other domains allocate: on OCaml 5 [Gc.quick_stat] sums major
   words over every domain, so it supplies only the (process-wide)
   collection counts.  [Gc.minor_words ()] also counts the live young
   generation, which [Gc.quick_stat]'s minor count omits, making small
   deltas exact.  Major words are the direct major allocations (major
   minus promoted): a minor collection stops every domain, so what a
   region promotes depends on when the other domains fill their minor
   heaps. *)
let gc_sample () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words (), major -. promoted, Gc.quick_stat ())

(* Record one closed span: its path's aggregate and its trace slice.
   [gc] is a profiled span's (open, close) GC bracket, which adds the
   alloc columns and a heap sample. *)
let record ~name ~path ~attrs ~t0 ~t1 gc =
  let dur = Int64.sub t1 t0 in
  let tid = (Domain.self () :> int) in
  locked (fun () ->
      if st.stats_on then begin
        let a =
          match Hashtbl.find_opt st.span_aggs path with
          | Some a -> a
          | None ->
            let a = new_span_agg () in
            Hashtbl.replace st.span_aggs path a;
            a
        in
        a.s_count <- a.s_count + 1;
        a.s_total_ns <- Int64.add a.s_total_ns dur;
        match gc with
        | Some ((bm, bmaj, b), (em, emaj, e)) ->
          a.s_minor_w <- a.s_minor_w +. (em -. bm);
          a.s_major_w <- a.s_major_w +. (emaj -. bmaj);
          a.s_minor_c <- a.s_minor_c + (e.Gc.minor_collections - b.Gc.minor_collections);
          a.s_major_c <- a.s_major_c + (e.Gc.major_collections - b.Gc.major_collections)
        | None -> ()
      end;
      if st.trace_on then begin
        ignore
          (Vec.push st.trace_buf
             {
               t_name = name;
               t_path = path;
               t_ts_ns = Int64.to_int (Int64.sub t0 epoch_ns);
               t_dur_ns = Int64.to_int dur;
               t_tid = tid;
               t_attrs = attrs;
             });
        match gc with
        | Some (_, (em, emaj, _)) ->
          ignore
            (Vec.push st.gc_buf
               {
                 h_ts_ns = Int64.to_int (Int64.sub t1 epoch_ns);
                 h_tid = tid;
                 h_minor_w = em;
                 h_major_w = emaj;
               })
        | None -> ()
      end)

let span ?(attrs = []) name f =
  if not st.collecting then f ()
  else begin
    let outer = Domain.DLS.get path_key in
    let path = String.concat "/" (List.rev (name :: outer)) in
    Domain.DLS.set path_key (name :: outer);
    let g0 = if st.prof_on then Some (gc_sample ()) else None in
    let t0 = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now_ns () in
        let gc = Option.map (fun g0 -> (g0, gc_sample ())) g0 in
        Domain.DLS.set path_key outer;
        record ~name ~path ~attrs ~t0 ~t1 gc)
      f
  end

(* A span recorded after the fact, without the domain-local nesting
   stack.  The serve daemon handles every connection on systhreads that
   share domain 0, so nested [span] calls from concurrent requests would
   corrupt each other's DLS path; request spans instead measure with
   [now_ns] and record the closed interval here.  Attrs carry the remote
   trace context, which is how a worker's request slice ends up under the
   supervisor's trace id in a merged Chrome trace. *)
let note_span ?(attrs = []) ~name ~t0_ns ~t1_ns () =
  if st.collecting then record ~name ~path:name ~attrs ~t0:t0_ns ~t1:t1_ns None

(* Both trace buffers, copied under the ledger lock. *)
let trace_buffers () = locked (fun () -> (Vec.to_list st.trace_buf, Vec.to_list st.gc_buf))

(* The calling domain's currently open span stack, outermost first — the
   flight recorder dumps it so a crash names the phase it died in. *)
let open_spans () = List.rev (Domain.DLS.get path_key)

(* ------------------------------------------------------------------ *)
(* Outputs *)

let counters_snapshot () =
  locked (fun () ->
      Hashtbl.fold (fun _ c acc -> (c.c_name, Atomic.get c.c_value) :: acc) counters [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let dists_snapshot () =
  (* Collect handles under the lock, compute stats outside it —
     [dist_stats] takes the lock itself. *)
  locked (fun () -> Hashtbl.fold (fun _ d acc -> d :: acc) dists [])
  |> List.filter_map (fun d ->
         Option.map (fun s -> (d.d_name, s)) (dist_stats d))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Work-attribution profiling: GC deltas per span, and the snapshot
   document shared by `bench --json` and its baseline gate. *)

module Prof = struct
  type sample = {
    minor_words : float;
    major_words : float;
    promoted_words : float;
    minor_collections : int;
    major_collections : int;
  }

  (* Same sources as [gc_sample]. *)
  let sample () =
    let _, promoted_words, major_words = Gc.counters () in
    let g = Gc.quick_stat () in
    {
      minor_words = Gc.minor_words ();
      major_words;
      promoted_words;
      minor_collections = g.Gc.minor_collections;
      major_collections = g.Gc.major_collections;
    }

  let delta ~before ~after =
    {
      minor_words = after.minor_words -. before.minor_words;
      major_words = after.major_words -. before.major_words;
      promoted_words = after.promoted_words -. before.promoted_words;
      minor_collections = after.minor_collections - before.minor_collections;
      major_collections = after.major_collections - before.major_collections;
    }

  let enabled () = st.prof_on
  let enable () = st.prof_on <- true
  let disable () = st.prof_on <- false

  type row = {
    path : string;
    calls : int;
    total_ns : float;
    minor_words : float;
    major_words : float;
    minor_collections : int;
    major_collections : int;
  }

  let rows () =
    locked (fun () ->
        Hashtbl.fold
          (fun path a acc ->
            {
              path;
              calls = a.s_count;
              total_ns = Int64.to_float a.s_total_ns;
              minor_words = a.s_minor_w;
              major_words = a.s_major_w;
              minor_collections = a.s_minor_c;
              major_collections = a.s_major_c;
            }
            :: acc)
          st.span_aggs [])
    |> List.sort (fun a b -> String.compare a.path b.path)

  type snapshot = {
    mode : string;  (* "quick" | "full": only like-for-like runs compare *)
    sections : row list;
    counters : (string * int) list;
  }

  let snapshot ~mode = { mode; sections = rows (); counters = counters_snapshot () }

  let snapshot_to_json ?(harness = "slackhls") s =
    let open Json in
    let sections =
      List.map
        (fun r ->
          Obj
            [
              ("span", String r.path);
              ("calls", Int r.calls);
              ("total_ns", Float r.total_ns);
              ("minor_words", Float r.minor_words);
              ("major_words", Float r.major_words);
              ("minor_collections", Int r.minor_collections);
              ("major_collections", Int r.major_collections);
            ])
        s.sections
    in
    Obj
      [
        ("harness", String harness);
        ("mode", String s.mode);
        ("sections", List sections);
        ("counters", Obj (List.map (fun (name, v) -> (name, Int v)) s.counters));
      ]

  let snapshot_of_json doc =
    let open Json in
    match doc with
    | Obj fields ->
      let mode =
        match List.assoc_opt "mode" fields with Some (String m) -> m | _ -> "full"
      in
      let num = function
        | Some (Float f) -> Some f
        | Some (Int i) -> Some (float_of_int i)
        | _ -> None
      in
      let sections =
        match List.assoc_opt "sections" fields with
        | Some (List rws) ->
          List.filter_map
            (function
              | Obj rw -> (
                (* Alloc fields default to 0 so snapshots written before
                   the profiler existed still load and diff. *)
                let fnum k d = Option.value ~default:d (num (List.assoc_opt k rw)) in
                let fint k d =
                  match List.assoc_opt k rw with Some (Int i) -> i | _ -> d
                in
                match (List.assoc_opt "span" rw, num (List.assoc_opt "total_ns" rw))
                with
                | Some (String span), Some total_ns ->
                  Some
                    {
                      path = span;
                      calls = fint "calls" 0;
                      total_ns;
                      minor_words = fnum "minor_words" 0.0;
                      major_words = fnum "major_words" 0.0;
                      minor_collections = fint "minor_collections" 0;
                      major_collections = fint "major_collections" 0;
                    }
                | _ -> None)
              | _ -> None)
            rws
        | _ -> []
      in
      let counters =
        match List.assoc_opt "counters" fields with
        | Some (Obj rws) ->
          List.filter_map (function name, Int v -> Some (name, v) | _ -> None) rws
        | _ -> []
      in
      Ok { mode; sections; counters }
    | _ -> Error "snapshot is not a JSON object"
end

(* ------------------------------------------------------------------ *)
(* Shippable telemetry: the whole ledger of one process as a typed,
   JSON-serialisable snapshot.  A worker daemon answers a [telemetry]
   request with one of these; the sweep supervisor merges snapshots from
   every worker into a fleet Chrome trace (one lane per worker), a
   namespaced counter snapshot and a merged provenance event file.
   Timestamps are nanoseconds on this process's monotonic clock relative
   to its own epoch — cross-process alignment is the merger's job (it
   estimates the clock offset from the request round-trip). *)

module Telemetry = struct
  include Trace

  type snapshot = {
    pid : int;
    clock_ns : int;  (* capture time on the captured process's clock *)
    prof : Prof.snapshot;  (* span tree with GC columns + counters *)
    dists : (string * dist_stats) list;
    trace : trace_entry list;
    heap : heap_entry list;
    events : string list;  (* event ring tail as JSONL lines, seq-stamped *)
  }

  let c_captures = counter "obs.telemetry.captures"

  let uptime_ns () = Int64.to_int (Int64.sub (now_ns ()) epoch_ns)

  let rec drop k l =
    if k <= 0 then l else match l with [] -> [] | _ :: t -> drop (k - 1) t

  let capture ?(events_limit = 4096) ?(include_trace = true) () =
    incr c_captures;
    let trace, heap = if include_trace then trace_buffers () else ([], []) in
    let evs = Events.events () in
    let evs = drop (List.length evs - max 0 events_limit) evs in
    {
      pid = os_pid ();
      clock_ns = uptime_ns ();
      prof = Prof.snapshot ~mode:"telemetry";
      dists = dists_snapshot ();
      trace;
      heap;
      events = List.map Events.to_jsonl_line evs;
    }

  let counters s = s.prof.Prof.counters

  let dist_to_json (d : dist_stats) =
    let open Json in
    Obj
      [
        ("n", Int d.n);
        ("min", Float d.dmin);
        ("max", Float d.dmax);
        ("mean", Float d.mean);
        ("p50", Float d.p50);
        ("p95", Float d.p95);
      ]

  let to_json s =
    let open Json in
    Obj
      [
        ("pid", Int s.pid);
        ("clock_ns", Int s.clock_ns);
        ("prof", Prof.snapshot_to_json ~harness:"slackhls-telemetry" s.prof);
        ("dists", Obj (List.map (fun (n, d) -> (n, dist_to_json d)) s.dists));
        ( "trace",
          List
            (List.map
               (fun t ->
                 Obj
                   ([
                      ("name", String t.t_name);
                      ("path", String t.t_path);
                      ("ts_ns", Int t.t_ts_ns);
                      ("dur_ns", Int t.t_dur_ns);
                      ("tid", Int t.t_tid);
                    ]
                   @
                   match t.t_attrs with
                   | [] -> []
                   | attrs ->
                     [
                       ( "attrs",
                         Obj (List.map (fun (k, v) -> (k, String v)) attrs) );
                     ]))
               s.trace) );
        ( "heap",
          List
            (List.map
               (fun h ->
                 Obj
                   [
                     ("ts_ns", Int h.h_ts_ns);
                     ("tid", Int h.h_tid);
                     ("minor_w", Float h.h_minor_w);
                     ("major_w", Float h.h_major_w);
                   ])
               s.heap) );
        ("events", List (List.map (fun l -> String l) s.events));
      ]

  let of_json doc =
    let open Json in
    let fail m = raise (Parse_error m) in
    let decode () =
      match doc with
      | Obj fields ->
        let int k d =
          match List.assoc_opt k fields with Some (Int i) -> i | _ -> d
        in
        let num = function
          | Some (Float f) -> f
          | Some (Int i) -> float_of_int i
          | _ -> 0.0
        in
        let prof =
          match List.assoc_opt "prof" fields with
          | Some p -> (
            match Prof.snapshot_of_json p with
            | Ok s -> s
            | Error m -> fail (Printf.sprintf "prof: %s" m))
          | None -> { Prof.mode = "telemetry"; sections = []; counters = [] }
        in
        let dists =
          match List.assoc_opt "dists" fields with
          | Some (Obj ds) ->
            List.filter_map
              (function
                | name, Obj dv ->
                  let f k = num (List.assoc_opt k dv) in
                  let n =
                    match List.assoc_opt "n" dv with Some (Int i) -> i | _ -> 0
                  in
                  Some
                    ( name,
                      {
                        n;
                        dmin = f "min";
                        dmax = f "max";
                        mean = f "mean";
                        p50 = f "p50";
                        p95 = f "p95";
                      } )
                | _ -> None)
              ds
          | _ -> []
        in
        let trace =
          match List.assoc_opt "trace" fields with
          | Some (List ts) ->
            List.filter_map
              (function
                | Obj tv ->
                  let str k =
                    match List.assoc_opt k tv with
                    | Some (String s) -> s
                    | _ -> ""
                  in
                  let i k =
                    match List.assoc_opt k tv with Some (Int v) -> v | _ -> 0
                  in
                  let attrs =
                    match List.assoc_opt "attrs" tv with
                    | Some (Obj avs) ->
                      List.filter_map
                        (function k, String v -> Some (k, v) | _ -> None)
                        avs
                    | _ -> []
                  in
                  Some
                    {
                      t_name = str "name";
                      t_path = str "path";
                      t_ts_ns = i "ts_ns";
                      t_dur_ns = i "dur_ns";
                      t_tid = i "tid";
                      t_attrs = attrs;
                    }
                | _ -> None)
              ts
          | _ -> []
        in
        let heap =
          match List.assoc_opt "heap" fields with
          | Some (List hs) ->
            List.filter_map
              (function
                | Obj hv ->
                  let i k =
                    match List.assoc_opt k hv with Some (Int v) -> v | _ -> 0
                  in
                  Some
                    {
                      h_ts_ns = i "ts_ns";
                      h_tid = i "tid";
                      h_minor_w = num (List.assoc_opt "minor_w" hv);
                      h_major_w = num (List.assoc_opt "major_w" hv);
                    }
                | _ -> None)
              hs
          | _ -> []
        in
        let events =
          match List.assoc_opt "events" fields with
          | Some (List ls) ->
            List.filter_map (function String l -> Some l | _ -> None) ls
          | _ -> []
        in
        { pid = int "pid" 0; clock_ns = int "clock_ns" 0; prof; dists; trace; heap; events }
      | _ -> fail "telemetry snapshot is not a JSON object"
    in
    match decode () with
    | s -> Ok s
    | exception Parse_error m -> Error m

  (* Chrome-trace records of span slices ("X") and heap samples ("C"),
     shifted by [offset_ns] and tagged with lane id [pid].  Perfetto
     renders the heap samples as a stacked area chart. *)
  let chrome_events ~pid ~offset_ns trace heap =
    let open Json in
    let ts ns = Float (float_of_int (ns + offset_ns) /. 1e3) in
    let slice t =
      Obj
        [
          ("name", String t.t_name);
          ("cat", String "hls");
          ("ph", String "X");
          ("ts", ts t.t_ts_ns);
          ("dur", Float (float_of_int t.t_dur_ns /. 1e3));
          ("pid", Int pid);
          ("tid", Int t.t_tid);
          ( "args",
            Obj
              (("path", String t.t_path)
              :: List.map (fun (k, v) -> (k, String v)) t.t_attrs) );
        ]
    in
    let sample h =
      Obj
        [
          ("name", String "heap words");
          ("cat", String "hls");
          ("ph", String "C");
          ("ts", ts h.h_ts_ns);
          ("pid", Int pid);
          ("tid", Int h.h_tid);
          ( "args",
            Obj
              [ ("minor_words", Float h.h_minor_w); ("major_words", Float h.h_major_w) ]
          );
        ]
    in
    List.map slice trace @ List.map sample heap

  (* One worker's lane of a merged Chrome trace, shifted by the
     supervisor-estimated clock offset, plus a process_name metadata
     record so the trace viewer labels the lane. *)
  let lane_events ~pid ~offset_ns ?process_name s =
    let meta =
      match process_name with
      | None -> []
      | Some label ->
        Json.
          [
            Obj
              [
                ("name", String "process_name");
                ("ph", String "M");
                ("pid", Int pid);
                ("tid", Int 0);
                ("args", Obj [ ("name", String label) ]);
              ];
          ]
    in
    meta @ chrome_events ~pid ~offset_ns s.trace s.heap
end

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition: every counter as a monotone `<name>_total`
   and every distribution as a summary with p50/p95 quantiles.  Dots and
   other non-metric characters become underscores, so `serve.requests`
   scrapes as `serve_requests_total`. *)

module Expo = struct
  let sanitize name =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      name

  let render_into ~counters ~dists =
    let buf = Buffer.create 2048 in
    List.iter
      (fun (name, v) ->
        let m = sanitize name ^ "_total" in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" m);
        Buffer.add_string buf (Printf.sprintf "%s %d\n" m v))
      counters;
    List.iter
      (fun (name, (s : dist_stats)) ->
        let m = sanitize name in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" m);
        Buffer.add_string buf
          (Printf.sprintf "%s{quantile=\"0.5\"} %g\n" m s.p50);
        Buffer.add_string buf
          (Printf.sprintf "%s{quantile=\"0.95\"} %g\n" m s.p95);
        Buffer.add_string buf
          (Printf.sprintf "%s_sum %g\n" m (s.mean *. float_of_int s.n));
        Buffer.add_string buf (Printf.sprintf "%s_count %d\n" m s.n))
      dists;
    Buffer.contents buf

  let render () =
    render_into ~counters:(counters_snapshot ()) ~dists:(dists_snapshot ())
end

let pp_ns ns =
  if ns >= 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.1f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let pp_words w =
  if w >= 1e9 then Printf.sprintf "%.2f Gw" (w /. 1e9)
  else if w >= 1e6 then Printf.sprintf "%.2f Mw" (w /. 1e6)
  else if w >= 1e3 then Printf.sprintf "%.1f kw" (w /. 1e3)
  else Printf.sprintf "%.0f w" w

let report () =
  let buf = Buffer.create 1024 in
  let spans = Prof.rows () in
  if spans <> [] then begin
    let with_alloc =
      List.exists
        (fun r -> r.Prof.minor_words > 0.0 || r.Prof.major_words > 0.0)
        spans
    in
    Buffer.add_string buf
      (if with_alloc then "== phases (wall clock, GC/alloc) ==\n"
       else "== phases (wall clock) ==\n");
    let headers =
      [ "span"; "calls"; "total"; "mean" ]
      @ if with_alloc then [ "minor"; "major"; "gcs" ] else []
    in
    let t = Text_table.create ~headers in
    List.iter
      (fun (r : Prof.row) ->
        let path = r.Prof.path in
        let depth =
          String.fold_left (fun acc ch -> if ch = '/' then acc + 1 else acc) 0 path
        in
        let leaf =
          match String.rindex_opt path '/' with
          | Some i -> String.sub path (i + 1) (String.length path - i - 1)
          | None -> path
        in
        Text_table.add_row t
          ([
             String.make (2 * depth) ' ' ^ leaf;
             string_of_int r.Prof.calls;
             pp_ns r.Prof.total_ns;
             pp_ns (r.Prof.total_ns /. float_of_int (max 1 r.Prof.calls));
           ]
          @
          if with_alloc then
            [
              pp_words r.Prof.minor_words;
              pp_words r.Prof.major_words;
              string_of_int (r.Prof.minor_collections + r.Prof.major_collections);
            ]
          else []))
      spans;
    Buffer.add_string buf (Text_table.render t)
  end;
  let nonzero = List.filter (fun (_, v) -> v <> 0) (counters_snapshot ()) in
  if nonzero <> [] then begin
    (* Counters grouped by subsystem prefix (the text before the first
       '.'), pipeline phases first in flow order, then the engines that sit
       around the pipeline (explore, cache, obs, ...), then anything else
       alphabetically — so sweeps and caches summarise next to the phases
       instead of dumping unsorted at the bottom. *)
    let phase_order =
      [
        "frontend"; "graph"; "timed_dfg"; "slack"; "budget"; "sched"; "flow";
        "recovery"; "bind"; "rtl"; "area"; "check"; "explore"; "cache"; "obs";
      ]
    in
    let prefix_of name =
      match String.index_opt name '.' with
      | Some i -> String.sub name 0 i
      | None -> name
    in
    let rank p =
      let rec go i = function
        | [] -> (List.length phase_order, p)
        | q :: _ when String.equal q p -> (i, p)
        | _ :: rest -> go (i + 1) rest
      in
      go 0 phase_order
    in
    let groups =
      List.fold_left
        (fun acc ((name, _) as row) ->
          let p = prefix_of name in
          match List.assoc_opt p acc with
          | Some rows ->
            rows := row :: !rows;
            acc
          | None -> (p, ref [ row ]) :: acc)
        [] nonzero
      |> List.sort (fun (a, _) (b, _) -> compare (rank a) (rank b))
    in
    Buffer.add_string buf "== counters ==\n";
    List.iter
      (fun (p, rows) ->
        let rows = List.rev !rows in
        let total = List.fold_left (fun acc (_, v) -> acc + v) 0 rows in
        Buffer.add_string buf (Printf.sprintf "  [%s] (%d events)\n" p total);
        List.iter
          (fun (name, v) ->
            Buffer.add_string buf (Printf.sprintf "    %-42s %12d\n" name v))
          rows)
      groups
  end;
  let dist_rows = dists_snapshot () in
  if dist_rows <> [] then begin
    Buffer.add_string buf "== distributions ==\n";
    let t =
      Text_table.create ~headers:[ "dist"; "n"; "min"; "mean"; "p50"; "p95"; "max" ]
    in
    List.iter
      (fun (name, s) ->
        Text_table.add_row t
          [
            name;
            string_of_int s.n;
            Printf.sprintf "%.1f" s.dmin;
            Printf.sprintf "%.1f" s.mean;
            Printf.sprintf "%.1f" s.p50;
            Printf.sprintf "%.1f" s.p95;
            Printf.sprintf "%.1f" s.dmax;
          ])
      dist_rows;
    Buffer.add_string buf (Text_table.render t)
  end;
  if Buffer.length buf = 0 then "== no telemetry collected ==\n" else Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON *)

let trace_json () =
  let trace, heap = trace_buffers () in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (Telemetry.chrome_events ~pid:1 ~offset_ns:0 trace heap));
         ("displayTimeUnit", Json.String "ms");
       ])

let write_trace ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (trace_json ()))
