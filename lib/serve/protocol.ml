module J = Obs.Json

let c_frames = Obs.counter "serve.frames"
let c_malformed = Obs.counter "serve.malformed"

let default_max_frame = 1 lsl 20

(* ------------------------------------------------------------------ *)
(* Framing (pure) *)

let frame payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

type split =
  | Complete of string * string
  | Incomplete
  | Oversized of int

let split ?(max_bytes = default_max_frame) buf =
  let len = String.length buf in
  if len < 4 then Incomplete
  else
    let n = Int32.to_int (String.get_int32_be buf 0) in
    if n < 0 || n > max_bytes then Oversized n
    else if len < 4 + n then Incomplete
    else Complete (String.sub buf 4 n, String.sub buf (4 + n) (len - 4 - n))

(* ------------------------------------------------------------------ *)
(* Framed connections *)

type conn = { cfd : Unix.file_descr; mutable pending : string }

let make cfd = { cfd; pending = "" }
let fd c = c.cfd

type read_result =
  | Frame of string
  | Eof
  | Stalled
  | Too_big of int
  | Stopped

(* The poll tick bounds both the should_stop latency while idle and the
   stall-detection granularity mid-frame. *)
let tick = 0.2

let read_frame ?(max_bytes = default_max_frame) ?(stall = 30.0)
    ?(should_stop = fun () -> false) c =
  let chunk = Bytes.create 4096 in
  let rec wait stall_deadline =
    match split ~max_bytes c.pending with
    | Complete (payload, rest) ->
      c.pending <- rest;
      Obs.incr c_frames;
      Frame payload
    | Oversized n -> Too_big n
    | Incomplete ->
      let mid = c.pending <> "" in
      if mid && Unix.gettimeofday () > stall_deadline then Stalled
      else if (not mid) && should_stop () then Stopped
      else begin
        match Unix.select [ c.cfd ] [] [] tick with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait stall_deadline
        | [], _, _ -> wait stall_deadline
        | _ -> (
          match Unix.read c.cfd chunk 0 (Bytes.length chunk) with
          | 0 -> if mid then Stalled else Eof
          | k ->
            c.pending <- c.pending ^ Bytes.sub_string chunk 0 k;
            wait (Unix.gettimeofday () +. stall)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait stall_deadline
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
            if mid then Stalled else Eof)
      end
  in
  wait (Unix.gettimeofday () +. stall)

let write_frame fd payload =
  let b = frame payload in
  let n = String.length b in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd b off (n - off))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Requests *)

type request =
  | Ping
  | Stats
  | Shutdown
  | Run of { design : string; clock : float option; flow : string }
  | Explore of {
      design : string;
      clocks : string;
      flows : string;
      iis : string;
      recover : string;
      point_deadline : float option;
    }
  | Shard_explore of {
      design : string;
      clocks : string;
      flows : string;
      iis : string;
      recover : string;
      point_deadline : float option;
      lease : string;
      keys : string list;
    }
  | Health
  | Telemetry

type trace_ctx = {
  trace_id : string;
  parent : string;
  lease : string option;
}

type envelope = {
  id : string;
  deadline_s : float option;
  trace : trace_ctx option;
  req : request;
}

let ( let* ) = Result.bind

let obj_fields = function
  | J.Obj fields -> Ok fields
  | _ -> Error "request must be a JSON object"

let str_field ?default fields name =
  match (List.assoc_opt name fields, default) with
  | Some (J.String s), _ -> Ok s
  | Some _, _ -> Error (Printf.sprintf "field %S must be a string" name)
  | None, Some d -> Ok d
  | None, None -> Error (Printf.sprintf "missing field %S" name)

let float_field_opt fields name =
  match List.assoc_opt name fields with
  | None | Some J.Null -> Ok None
  | Some (J.Float f) -> Ok (Some f)
  | Some (J.Int i) -> Ok (Some (float_of_int i))
  | Some _ -> Error (Printf.sprintf "field %S must be a number" name)

let str_list_field fields name =
  match List.assoc_opt name fields with
  | Some (J.List items) ->
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        match item with
        | J.String s -> Ok (s :: acc)
        | _ ->
          Error (Printf.sprintf "field %S must be a list of strings" name))
      (Ok []) items
    |> Result.map List.rev
  | Some _ -> Error (Printf.sprintf "field %S must be a list of strings" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let trace_of_fields fields =
  match List.assoc_opt "trace" fields with
  | None | Some J.Null -> Ok None
  | Some j ->
    let* tf = obj_fields j in
    let* trace_id = str_field tf "id" in
    let* parent = str_field ~default:"" tf "parent" in
    let* lease =
      match List.assoc_opt "lease" tf with
      | None | Some J.Null -> Ok None
      | Some (J.String s) -> Ok (Some s)
      | Some _ -> Error "trace field \"lease\" must be a string"
    in
    Ok (Some { trace_id; parent; lease })

let trace_to_json { trace_id; parent; lease } =
  J.Obj
    ([ ("id", J.String trace_id); ("parent", J.String parent) ]
    @ match lease with Some l -> [ ("lease", J.String l) ] | None -> [])

let parse_request payload =
  match J.parse payload with
  | Error m ->
    Obs.incr c_malformed;
    Error ("malformed JSON: " ^ m)
  | Ok json ->
    let r =
      let* fields = obj_fields json in
      let* id = str_field ~default:"" fields "id" in
      let* deadline_s = float_field_opt fields "deadline_s" in
      let* trace = trace_of_fields fields in
      let* op = str_field fields "op" in
      let* req =
        match op with
        | "ping" -> Ok Ping
        | "stats" -> Ok Stats
        | "shutdown" -> Ok Shutdown
        | "health" -> Ok Health
        | "telemetry" -> Ok Telemetry
        | "run" ->
          let* design = str_field fields "design" in
          let* clock = float_field_opt fields "clock" in
          let* flow = str_field ~default:"slack" fields "flow" in
          Ok (Run { design; clock; flow })
        | "explore" ->
          let* design = str_field fields "design" in
          let* clocks = str_field fields "clocks" in
          let* flows = str_field ~default:"slack" fields "flows" in
          let* iis = str_field ~default:"none" fields "iis" in
          let* recover = str_field ~default:"on" fields "recover" in
          let* point_deadline = float_field_opt fields "point_deadline_s" in
          Ok (Explore { design; clocks; flows; iis; recover; point_deadline })
        | "shard_explore" ->
          let* design = str_field fields "design" in
          let* clocks = str_field fields "clocks" in
          let* flows = str_field ~default:"slack" fields "flows" in
          let* iis = str_field ~default:"none" fields "iis" in
          let* recover = str_field ~default:"on" fields "recover" in
          let* point_deadline = float_field_opt fields "point_deadline_s" in
          let* lease = str_field fields "lease" in
          let* keys = str_list_field fields "keys" in
          Ok
            (Shard_explore
               { design; clocks; flows; iis; recover; point_deadline; lease; keys })
        | op ->
          Error
            (Printf.sprintf
               "unknown op %S (try: ping, stats, shutdown, health, telemetry, \
                run, explore, shard_explore)" op)
      in
      Ok { id; deadline_s; trace; req }
    in
    (match r with Error _ -> Obs.incr c_malformed | Ok _ -> ());
    r

let request_to_json { id; deadline_s; trace; req } =
  let common = [ ("id", J.String id) ] in
  let deadline =
    match deadline_s with Some s -> [ ("deadline_s", J.Float s) ] | None -> []
  in
  let trace_fields =
    match trace with Some t -> [ ("trace", trace_to_json t) ] | None -> []
  in
  let op_fields =
    match req with
    | Ping -> [ ("op", J.String "ping") ]
    | Stats -> [ ("op", J.String "stats") ]
    | Shutdown -> [ ("op", J.String "shutdown") ]
    | Health -> [ ("op", J.String "health") ]
    | Telemetry -> [ ("op", J.String "telemetry") ]
    | Run { design; clock; flow } ->
      [ ("op", J.String "run"); ("design", J.String design);
        ("flow", J.String flow) ]
      @ (match clock with Some c -> [ ("clock", J.Float c) ] | None -> [])
    | Explore { design; clocks; flows; iis; recover; point_deadline } ->
      [ ("op", J.String "explore"); ("design", J.String design);
        ("clocks", J.String clocks); ("flows", J.String flows);
        ("iis", J.String iis); ("recover", J.String recover) ]
      @ (match point_deadline with
        | Some s -> [ ("point_deadline_s", J.Float s) ]
        | None -> [])
    | Shard_explore { design; clocks; flows; iis; recover; point_deadline; lease; keys }
      ->
      [ ("op", J.String "shard_explore"); ("design", J.String design);
        ("clocks", J.String clocks); ("flows", J.String flows);
        ("iis", J.String iis); ("recover", J.String recover) ]
      @ (match point_deadline with
        | Some s -> [ ("point_deadline_s", J.Float s) ]
        | None -> [])
      @ [ ("lease", J.String lease);
          ("keys", J.List (List.map (fun k -> J.String k) keys)) ]
  in
  J.Obj (common @ deadline @ trace_fields @ op_fields)

(* ------------------------------------------------------------------ *)
(* Responses *)

let response ~id ~status fields =
  J.to_string
    (J.Obj (("id", J.String id) :: ("status", J.String status) :: fields))

let error_response ?lease ~id msg =
  let lease_field = match lease with Some l -> [ ("lease", J.String l) ] | None -> [] in
  response ~id ~status:"error" (("error", J.String msg) :: lease_field)

let response_status payload =
  match J.parse payload with
  | Error m -> Error ("malformed response JSON: " ^ m)
  | Ok json -> (
    let* fields = obj_fields json in
    match List.assoc_opt "status" fields with
    | Some (J.String s) -> Ok (s, json)
    | Some _ | None -> Error "response has no string \"status\" field")

let exit_code_of_status = function
  | "ok" -> 0
  | "error" -> 2
  | "failed" | "timed_out" -> 4
  | "crashed" -> 1
  | "overloaded" | "draining" | "partial" -> 5
  | _ -> 1
