(* The daemon under test as a child process: the built
   [shades_cli serve], on a Unix socket and a fresh cache directory of
   its own, so client and server never share a heap and the daemon's
   peak memory is its own. *)

module Json = Shades_json.Json
module Server = Shades_server

let cli = "_build/default/bin/shades_cli.exe"

type t = { pid : int; endpoint : Server.Protocol.endpoint; dir : string }

let live : t list ref = ref []

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let connect endpoint =
  match Server.Client.connect endpoint with
  | Ok c -> c
  | Error e -> failwith ("cannot connect to the daemon: " ^ e)

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* The socket path is relative to the working directory: an absolute
   path under a deep checkout could exceed the 108-byte sun_path. *)
let start ~dir ~capacity =
  if not (Sys.file_exists cli) then failwith (cli ^ " is not built");
  rm_rf dir;
  mkdir_p dir;
  let sock = Filename.concat dir "d.sock" in
  let endpoint = Server.Protocol.Unix_path sock in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "-l"; "unix:" ^ sock; "--domains"; "2"; "--cache-dir";
         Filename.concat dir "cache"; "--cache-capacity";
         string_of_int capacity; "-q" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let t = { pid; endpoint; dir } in
  live := t :: !live;
  let rec wait n =
    if exited pid then failwith "the daemon exited during start-up"
    else
      match Server.Client.connect endpoint with
      | Ok c -> Server.Client.close c
      | Error e ->
          if n = 0 then failwith ("the daemon never came up: " ^ e);
          Unix.sleepf 0.001;
          wait (n - 1)
  in
  wait 10_000;
  t

let stats t =
  let c = connect t.endpoint in
  let reply =
    Server.Client.request c (Json.Obj [ ("op", Json.String "stats") ])
  in
  Server.Client.close c;
  match reply with
  | Ok r -> (
      match Option.bind (Json.member "result" r) (Json.member "counters") with
      | Some (Json.Obj counters) -> counters
      | _ -> failwith "stats reply has no counters")
  | Error e -> failwith ("stats failed: " ^ e)

(* A counter's value, or a timing's observation count. *)
let counter counters name =
  match List.assoc_opt name counters with
  | Some j -> (
      match (Json.member "value" j, Json.member "count" j) with
      | Some (Json.Int n), _ | _, Some (Json.Int n) -> n
      | _ -> 0)
  | None -> 0

(* Peak resident set (VmHWM) of a process, in MiB. *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith "no VmHWM line"
      in
      scan ())

let stop t =
  live := List.filter (fun d -> d.pid <> t.pid) !live;
  (match Server.Client.connect t.endpoint with
  | Ok c ->
      ignore
        (Server.Client.request c (Json.Obj [ ("op", Json.String "shutdown") ]));
      Server.Client.close c
  | Error _ -> Unix.kill t.pid Sys.sigkill);
  (* a daemon that ignores the shutdown is killed after five seconds *)
  let rec reap n =
    if not (exited t.pid) then
      if n = 0 then begin
        Unix.kill t.pid Sys.sigkill;
        ignore (Unix.waitpid [] t.pid)
      end
      else begin
        Unix.sleepf 0.01;
        reap (n - 1)
      end
  in
  reap 500;
  rm_rf t.dir

(* Whatever happens to the benchmark, no daemon outlives it. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun t ->
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
          rm_rf t.dir)
        !live)
