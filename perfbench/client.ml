(* The server under test — a `diag serve --socket --once` child — and the
   one connection the benchmark drives it over. Paths are relative: the
   benchmark runs inside its scratch directory, so the socket path stays
   short however deep the checkout is. *)

let socket_path = "serve.sock"
let store_dir = "ckpt"

type t = {
  pid : int;
  fd : Unix.file_descr;
  chunk : Bytes.t;
  partial : Buffer.t;
  lines : string Queue.t;
}

let now = Unix.gettimeofday

let rec retry_eintr f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

let alive pid =
  match retry_eintr (fun () -> Unix.waitpid [ Unix.WNOHANG ] pid) with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

let connect pid =
  let deadline = now () +. 30. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EINTR), _, _) ->
      Unix.close fd;
      if now () > deadline then failwith "diag serve did not open its socket"
      else if not (alive pid) then failwith "diag serve exited before accepting"
      else begin
        Unix.sleepf 1e-4;
        go ()
      end
  in
  go ()

let spawn ~diag =
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let log = Unix.openfile "serve.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close null;
        Unix.close log)
      (fun () ->
        Unix.create_process diag
          [| diag; "serve"; "--socket"; socket_path; "--once"; "--checkpoint-dir"; store_dir |]
          null log log)
  in
  match connect pid with
  | fd ->
    { pid; fd; chunk = Bytes.create 65536; partial = Buffer.create 256; lines = Queue.create () }
  | exception e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (retry_eintr (fun () -> Unix.waitpid [] pid));
    raise e

let write t s =
  let rec go off =
    if off < String.length s then
      go (off + retry_eintr (fun () -> Unix.write_substring t.fd s off (String.length s - off)))
  in
  go 0

let send t line = write t (line ^ "\n")

(* read what the socket holds and split it into complete lines *)
let fill t =
  let n = retry_eintr (fun () -> Unix.read t.fd t.chunk 0 (Bytes.length t.chunk)) in
  if n = 0 then raise End_of_file;
  let start = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.get t.chunk i = '\n' then begin
      Buffer.add_subbytes t.partial t.chunk !start (i - !start);
      Queue.add (Buffer.contents t.partial) t.lines;
      Buffer.clear t.partial;
      start := i + 1
    end
  done;
  Buffer.add_subbytes t.partial t.chunk !start (n - !start)

let rec read_line t =
  match Queue.take_opt t.lines with
  | Some l -> l
  | None ->
    fill t;
    read_line t

(* wait up to [timeout] seconds for a reply line; true when one is ready *)
let wait_line t timeout =
  Queue.length t.lines > 0
  ||
  match retry_eintr (fun () -> Unix.select [ t.fd ] [] [] (Float.max 0. timeout)) with
  | [], _, _ -> false
  | _ ->
    fill t;
    Queue.length t.lines > 0

let take_line t = Queue.take_opt t.lines

(* the server's peak resident set (VmHWM), in MB; nan once it is gone *)
let peak_rss_mb t =
  let rec scan ic =
    match input_line ic with
    | l when String.starts_with ~prefix:"VmHWM:" l ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ic
    | exception End_of_file -> nan
  in
  match open_in (Printf.sprintf "/proc/%d/status" t.pid) with
  | exception Sys_error _ -> nan
  | ic -> Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> scan ic)

let read_proc t file = In_channel.with_open_bin (Printf.sprintf "/proc/%d/%s" t.pid file) input_line

(* the server's scheduler state: 'R' while it runs or waits for a CPU *)
let state t =
  match read_proc t "stat" with
  | l -> l.[String.rindex l ')' + 2]
  | exception (Sys_error _ | End_of_file | Not_found | Invalid_argument _) -> '?'

(* The seconds the server has spent on a CPU (schedstat's run time, which
   leaves out the time the host stole from the guest), read once the
   server has gone back to waiting for input: a running task's figure
   lags by up to a scheduler tick. nan once the server is gone. *)
let cpu_s t =
  let deadline = now () +. 1. in
  while state t = 'R' && now () < deadline do
    Unix.sleepf 2e-5
  done;
  match read_proc t "schedstat" with
  | l -> Scanf.sscanf l "%d" (fun ns -> float_of_int ns /. 1e9)
  | exception (Sys_error _ | End_of_file | Scanf.Scan_failure _ | Failure _) -> nan

let close_fd t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* orderly stop: [quit], then reap the process *)
let quit t =
  (try
     send t "quit";
     ignore (read_line t)
   with End_of_file | Unix.Unix_error _ -> ());
  close_fd t;
  try ignore (retry_eintr (fun () -> Unix.waitpid [] t.pid)) with Unix.Unix_error _ -> ()

let kill t =
  close_fd t;
  if alive t.pid then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (retry_eintr (fun () -> Unix.waitpid [] t.pid))
    with Unix.Unix_error _ -> ()
  end
