(** Wire protocol of the synthesis daemon: length-prefixed JSON frames
    over a stream socket.

    A frame is a 4-byte big-endian payload length followed by that many
    bytes of JSON ({!Obs.Json} — the repo's own emitter/parser, so the
    daemon adds no dependency).  One request frame yields exactly one
    response frame; a connection carries any number of request/response
    pairs in sequence.

    The framing layer is split so it can be tested without sockets:
    {!frame} and {!split} are pure string functions; {!read_frame} adds
    the fd loop, the size guard and the idle/stall distinction on top.
    Malformed input is data, never an exception: an unparseable frame
    becomes an [Error] the server answers with a structured
    [status = "error"] response. *)

val default_max_frame : int
(** 1 MiB — far above any legitimate request, far below a memory risk. *)

(** {1 Framing (pure)} *)

val frame : string -> string
(** [frame payload] is the on-wire bytes: big-endian length, then
    [payload]. *)

type split =
  | Complete of string * string
      (** decoded payload and the unconsumed remainder of the buffer *)
  | Incomplete  (** not enough bytes yet — keep reading *)
  | Oversized of int
      (** declared length (or a negative/garbage prefix) beyond the
          limit; the connection cannot resynchronise and must close *)

val split : ?max_bytes:int -> string -> split
(** Decode the first frame of a byte buffer. *)

(** {1 Framed connections} *)

type conn
(** An fd plus the bytes read past the last complete frame. *)

val make : Unix.file_descr -> conn
val fd : conn -> Unix.file_descr

type read_result =
  | Frame of string  (** one complete payload *)
  | Eof  (** peer closed cleanly between frames *)
  | Stalled
      (** mid-frame and no byte for [stall] seconds, or the peer died
          mid-frame — a torn or deliberately dribbled request *)
  | Too_big of int  (** {!Oversized} frame; connection must close *)
  | Stopped  (** [should_stop] fired while idle between frames *)

val read_frame :
  ?max_bytes:int ->
  ?stall:float ->
  ?should_stop:(unit -> bool) ->
  conn ->
  read_result
(** Block until one of the outcomes above.  The clock only runs {e inside}
    a frame: an idle connection (no bytes of the next frame yet) waits
    indefinitely — that is the client-waiting-for-a-slow-sweep case — but
    once the first byte of a frame arrives the rest must keep flowing, one
    byte at least every [stall] (default 30) seconds.  [should_stop]
    (default never) is polled roughly every 200ms while idle; the server
    passes its drain token so quiescent keep-alive connections fold
    during a drain. *)

val write_frame : Unix.file_descr -> string -> unit
(** Frame and write the whole payload (looping over short writes).
    Raises [Unix.Unix_error] if the peer is gone — callers treat that as
    the connection closing. *)

(** {1 Requests} *)

type request =
  | Ping
  | Stats
  | Shutdown  (** ask the daemon to drain and exit *)
  | Run of { design : string; clock : float option; flow : string }
      (** one synthesis run — a singleton sweep *)
  | Explore of {
      design : string;
      clocks : string;  (** grid specs, {!Explore_grid} syntax *)
      flows : string;
      iis : string;
      recover : string;
      point_deadline : float option;
    }
  | Shard_explore of {
      design : string;
      clocks : string;  (** full grid axes — must cover every leased key *)
      flows : string;
      iis : string;
      recover : string;
      point_deadline : float option;
      lease : string;  (** lease id, echoed in the response *)
      keys : string list;
          (** the leased point keys; the worker evaluates exactly these *)
    }
      (** one lease of a distributed sweep: evaluate the named key-range
          subset of the grid and answer with the completed records framed
          as a journal payload *)
  | Health
      (** liveness/progress probe — a control request that bypasses
          admission, answered even while draining or saturated; carries
          per-lease inflight progress and the durably recorded lines so a
          supervisor can salvage a worker that dies mid-lease *)
  | Telemetry
      (** ship the daemon's full {!Obs.Telemetry} snapshot (span tree,
          counters, distributions, trace slices, event-ring tail) plus a
          Prometheus rendering — a control request like [Health] *)

(** Cross-process trace context.  A supervisor stamps every request it
    sends with its own trace id and the span it is under; the server opens
    its request span with these as attributes, so the merged fleet trace
    links worker spans causally under the supervisor's sweep. *)
type trace_ctx = {
  trace_id : string;  (** one id per sweep/session, minted by the root *)
  parent : string;  (** the sender's span under which this request runs *)
  lease : string option;  (** lease id when the request executes a lease *)
}

type envelope = {
  id : string;  (** echoed verbatim in the response *)
  deadline_s : float option;  (** whole-request deadline *)
  trace : trace_ctx option;  (** absent for untraced/interactive clients *)
  req : request;
}

val parse_request : string -> (envelope, string) result
(** Parse one frame payload.  Never raises: malformed JSON, a missing or
    unknown ["op"], and wrongly-typed fields all come back [Error] with a
    one-line reason. *)

val request_to_json : envelope -> Obs.Json.t
(** Inverse of {!parse_request} (for clients and tests). *)

(** {2 Field helpers}

    Exposed for response decoding on the dispatch side: responses are
    plain JSON objects, and the supervisor needs the same tolerant field
    accessors the request parser uses. *)

val obj_fields : Obs.Json.t -> ((string * Obs.Json.t) list, string) result

val str_list_field :
  (string * Obs.Json.t) list -> string -> (string list, string) result

(** {1 Responses} *)

val response :
  id:string -> status:string -> (string * Obs.Json.t) list -> string
(** [{"id":..,"status":..,fields...}] marshalled.  Statuses: [ok],
    [error] (bad request), [failed] (all points infeasible), [timed_out],
    [crashed], [overloaded] (shed — retry after backoff), [draining]
    (daemon is shutting down), [partial] (drain interrupted the sweep;
    resume from the daemon's journal). *)

val error_response : id:string -> string -> string

val response_status : string -> (string * Obs.Json.t, string) result
(** Parse a response payload; returns its [status] and the whole object. *)

val exit_code_of_status : string -> int
(** The CLI contract mapping for [hlsc request] / [hlsc serve --once]:
    [ok] 0, [crashed] 1, [error] 2, [failed]/[timed_out] 4,
    [overloaded]/[draining]/[partial] 5 (retryable / resumable), anything
    unrecognised 1. *)
