(* Child processes — hlsc daemons and sweeps, and the calibration
   helpers — and the scratch directory.

   Every child is registered when spawned and reaped on every exit path
   ([cleanup] runs under [Fun.protect] in main): SIGTERM, then SIGKILL
   once the grace period is over.  Sockets, manifests, journals and logs
   live in a private directory under .perfbench/ in the working directory,
   removed at exit; relative paths keep socket names short whatever the
   checkout path is. *)

open Common

let hlsc =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "hlsc.exe" ]

let out_dir = ".perfbench"
let scratch = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ()))
let path name = Filename.concat scratch name

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun n -> rm_rf (Filename.concat p n)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let live : (int, unit) Hashtbl.t = Hashtbl.create 8

let spawn ~log args =
  let fd = Unix.openfile (path log) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process hlsc (Array.of_list (hlsc :: args)) Unix.stdin fd fd)
  in
  Hashtbl.replace live pid ();
  pid

(* [Some status] once the child has exited; it is then reaped. *)
let poll pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, st ->
    Hashtbl.remove live pid;
    Some st

let stop ?(grace = 10.0) pid =
  if Hashtbl.mem live pid then begin
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now () +. grace in
    let rec go () =
      match poll pid with
      | Some _ -> ()
      | None when now () > deadline ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        Hashtbl.remove live pid
      | None ->
        Unix.sleepf 0.005;
        go ()
    in
    go ()
  end

let cleanup () =
  List.iter (fun pid -> stop pid) (Hashtbl.fold (fun pid () acc -> pid :: acc) live []);
  Calib.stop_helpers ();
  rm_rf scratch

(* ------------------------------------------------------------------ *)
(* Daemons *)

type daemon = { pid : int; addr : Client.addr }

let ping = {|{"op":"ping","id":"ready"}|}

(* Spawn [hlsc serve] on a private socket and wait until it answers a
   ping.  A short drain deadline bounds [stop] on an idle daemon. *)
let start_daemon ~name args =
  let socket = path (name ^ ".sock") in
  let pid =
    spawn ~log:(name ^ ".log")
      ([ "serve"; "--socket"; socket; "--drain-deadline"; "5" ] @ args)
  in
  let addr = Client.Unix_path socket in
  let deadline = now () +. 30.0 in
  let rec ready () =
    if poll pid <> None then
      failwith (Printf.sprintf "hlsc serve exited during start-up (log %s)" (path (name ^ ".log")));
    match Client.one_shot ~deadline_s:5.0 addr ping with
    | Ok _ -> ()
    | Error m ->
      if now () > deadline then failwith m;
      Unix.sleepf 0.002;
      ready ()
  in
  ready ();
  { pid; addr }

let reply_fields body =
  Result.bind (Protocol.response_status body) (fun (status, j) ->
      Result.map (fun f -> (status, f)) (Protocol.obj_fields j))

(* The daemon's whole ledger, through the control-plane telemetry op. *)
let telemetry d =
  Result.bind (Client.one_shot ~deadline_s:30.0 d.addr {|{"op":"telemetry","id":"bench"}|})
    (fun body ->
      Result.bind (reply_fields body) (fun (_, f) ->
          match List.assoc_opt "telemetry" f with
          | Some tj -> Obs.Telemetry.of_json tj
          | None -> Error "telemetry reply without a snapshot"))

(* Whether the daemon holds any lease right now (a health probe bypasses
   admission, so probing never queues behind work). *)
let leasing d =
  match Client.one_shot ~deadline_s:5.0 d.addr {|{"op":"health","id":"bench"}|} with
  | Error _ -> false
  | Ok body -> (
    match reply_fields body with
    | Ok (_, f) -> ( match List.assoc_opt "leases" f with Some (Obs.Json.List (_ :: _)) -> true | _ -> false)
    | Error _ -> false)
