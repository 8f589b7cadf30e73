(* Driving `diag serve` over its socket: the closed-loop batch client and
   the open-loop stream client. Latencies are recorded per verb; every
   reply is checked, the report bodies against the in-process answers
   once the timed part is over. *)

open Printf

type run = {
  mutable attempted : int;  (* requests sent *)
  mutable answered : int;  (* requests whose reply arrived *)
  mutable failed : int;  (* err replies, wrong or missing answers *)
  mutable errors : string list;  (* the first few failures, for the log *)
  lat : (string, float list) Hashtbl.t;  (* verb -> reply times, s *)
  mutable sessions : int;  (* batch sessions or streams completed *)
  mutable wire_bytes : int list;  (* per `run` reply *)
  mutable snap_per_alarm : float list;  (* per `checkpoint` reply *)
  mutable lag : float list;  (* stream: how late each alarm was sent *)
  mutable busy : float;  (* seconds spent driving, checks excluded *)
  mutable served : float;  (* seconds with at least one request unanswered *)
  mutable reports : int;  (* report bodies checked *)
  mutable alarms : int;  (* stream alarms sent *)
  mutable refs : float list;  (* {!Calib.sample}s taken while the server idled *)
  mutable solo : (int * float) list;
      (* stream alarms sent with none ahead of them in flight: (ordinal,
         latency), the ones whose reply time is service plus transport *)
  corrupt : int;  (* self-test: alter the n-th report body received (0: off) *)
}

let create ?(corrupt = 0) () =
  {
    attempted = 0;
    answered = 0;
    failed = 0;
    errors = [];
    lat = Hashtbl.create 8;
    sessions = 0;
    wire_bytes = [];
    snap_per_alarm = [];
    lag = [];
    busy = 0.;
    served = 0.;
    reports = 0;
    alarms = 0;
    refs = [];
    solo = [];
    corrupt;
  }

let record r verb dt =
  Hashtbl.replace r.lat verb (dt :: Option.value ~default:[] (Hashtbl.find_opt r.lat verb))

let samples r verb = Option.value ~default:[] (Hashtbl.find_opt r.lat verb)

let fail r fmt =
  ksprintf
    (fun m ->
      r.failed <- r.failed + 1;
      if List.length r.errors < 5 then r.errors <- m :: r.errors)
    fmt

let now = Client.now

(* the connection died: every request still unanswered is a failure *)
let lost r =
  let missing = r.attempted - r.answered in
  fail r "connection to diag serve lost with %d requests unanswered" missing;
  r.failed <- r.failed + max 0 (missing - 1)

(* one synchronous request, timed from send to its reply *)
let call r c verb line =
  r.attempted <- r.attempted + 1;
  let t0 = now () in
  Client.send c line;
  let reply = Client.read_line c in
  let dt = now () -. t0 in
  record r verb dt;
  r.served <- r.served +. dt;
  r.answered <- r.answered + 1;
  reply

let expect_line r got want = if got <> want then fail r "expected %S, got %S" want got

let scan r line fmt k =
  try Some (Scanf.sscanf line fmt k)
  with Scanf.Scan_failure _ | Failure _ | End_of_file ->
    fail r "unexpected reply %S" line;
    None

(* [report]: the header, the body lines, then [end]; timed to [end] *)
let report_call r c sid =
  r.attempted <- r.attempted + 1;
  let t0 = now () in
  Client.send c (sprintf "report %d" sid);
  let head = Client.read_line c in
  let body =
    if String.starts_with ~prefix:"ok report" head then
      let rec go acc = match Client.read_line c with "end" -> List.rev acc | l -> go (l :: acc) in
      go []
    else []
  in
  let dt = now () -. t0 in
  record r "report" dt;
  r.served <- r.served +. dt;
  r.answered <- r.answered + 1;
  (head, body)

(* compare a received report against the expected answer *)
let check_report r ~sid (head, body) (want : Expect.answer) =
  r.reports <- r.reports + 1;
  let body =
    if r.reports = r.corrupt then List.mapi (fun i l -> if i = 0 then l ^ "#" else l) body
    else body
  in
  let strip l =
    if String.starts_with ~prefix:"  " l then Some (String.sub l 2 (String.length l - 2)) else None
  in
  if head <> sprintf "ok report %d" sid then fail r "report %d: header %S" sid head
  else if List.map strip body <> List.map Option.some want.Expect.body then
    fail r "report %d: body differs from the in-process diagnosis" sid

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)
(* ------------------------------------------------------------------ *)

(* spawn the server and register every tenant; returns the connection
   and the seconds it took *)
let setup r ~diag (w : Gen.t) =
  let t0 = now () in
  let c = Client.spawn ~diag in
  List.iter
    (fun (t : Gen.tenant) ->
      let reply = call r c "tenant" (sprintf "tenant %s %s" t.Gen.t_name (Gen.net_file t)) in
      if not (String.starts_with ~prefix:(sprintf "ok tenant %s peers " t.Gen.t_name) reply)
      then fail r "tenant %s: %S" t.Gen.t_name reply)
    w.Gen.tenants;
  (c, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Batch: closed loop, one client                                      *)
(* ------------------------------------------------------------------ *)

type batch_reply = { b_key : int; b_sid : int; b_done : string; b_report : string * string list }

let batch_session r c key (s : Gen.session) =
  match scan r (call r c "open" ("open " ^ s.Gen.s_tenant)) "ok session %d%!" Fun.id with
  | None -> None
  | Some sid ->
    List.iter
      (fun (a, p) -> expect_line r (call r c "alarm" (sprintf "alarm %d %s %s" sid a p)) "ok")
      s.Gen.s_alarms;
    (* the server's CPU time for [run] and for [report] *)
    let c0 = Client.cpu_s c in
    let d = call r c "run" (sprintf "run %d" sid) in
    let c1 = Client.cpu_s c in
    record r "cpu.run" (c1 -. c0);
    let rep = report_call r c sid in
    record r "cpu.report" (Client.cpu_s c -. c1);
    expect_line r (call r c "close" (sprintf "close %d" sid)) (sprintf "ok closed %d" sid);
    r.sessions <- r.sessions + 1;
    Some { b_key = key; b_sid = sid; b_done = d; b_report = rep }

(* run the sessions [keys] of [pool] in order, with a host-speed sample
   after each; replies are kept for {!check_batch} *)
let batch r c (pool : Gen.session array) keys =
  let t0 = now () and calib = ref 0. in
  let out =
    List.filter_map
      (fun k ->
        let b = batch_session r c k pool.(k) in
        let dt = Calib.sample () in
        r.refs <- dt :: r.refs;
        calib := !calib +. dt;
        b)
      keys
  in
  r.busy <- r.busy +. (now () -. t0 -. !calib);
  out

let check_batch r (expected : int -> Expect.answer) replies =
  List.iter
    (fun b ->
      let want = expected b.b_key in
      (match
         scan r b.b_done "ok done %d explanations %d deliveries %d wire_bytes %d%!"
           (fun s e _ w -> (s, e, w))
       with
      | Some (s, e, w) ->
        if s <> b.b_sid || e <> want.Expect.explanations then
          fail r "run %d: %S, expected %d explanations" b.b_sid b.b_done want.Expect.explanations
        else r.wire_bytes <- w :: r.wire_bytes
      | None -> ());
      check_report r ~sid:b.b_sid b.b_report want)
    replies

(* ------------------------------------------------------------------ *)
(* Stream: open loop at a fixed alarm rate                             *)
(* ------------------------------------------------------------------ *)

(* One long stream. Alarms arrive in bursts of [burst]: alarm [i] is due
   [burst * (i / burst) / rate] seconds after the stream opened and is
   sent then, without waiting for earlier replies; its latency runs from
   the due time to its [ok], so it counts the alarms ahead of it in its
   burst. Reports, checkpoints and the restore are synchronous: they wait
   for the alarms in flight, then for their own reply, and the schedule
   pauses while they run, so their stalls are timed as themselves and do
   not queue the alarms behind them. Returns the report replies (prefix,
   session, reply), checked by {!check_stream} once the stream is over. *)
let stream r c ~rate ~burst (st : Gen.stream) =
  let t_open = now () in
  match scan r (call r c "stream" ("stream " ^ st.Gen.st_tenant)) "ok stream %d%!" Fun.id with
  | None -> []
  | Some sid0 ->
    let sid = ref sid0 and last_ckpt = ref None and reports = ref [] in
    let pending = Queue.create () in
    (* since when the alarms in [pending] have been outstanding *)
    let since = ref 0. in
    (* The server's CPU time as of its last idle moment, if nothing was
       sent since, and the burst being timed: its CPU time at the start
       and its size. A burst is timed when it is sent to an idle server
       and nothing else is sent before it is answered. *)
    let idle_cpu = ref (Some (Client.cpu_s c)) and timed = ref None in
    let cpu_now () = match !idle_cpu with Some x -> x | None -> Client.cpu_s c in
    let ack line =
      let due, ordinal, solo = Queue.pop pending in
      let t = now () in
      let dt = t -. due in
      record r "alarm" dt;
      r.answered <- r.answered + 1;
      if Queue.is_empty pending then begin
        r.served <- r.served +. (t -. !since);
        let c1 = Client.cpu_s c in
        Option.iter (fun (c0, k) -> record r "cpu.alarm" ((c1 -. c0) /. float_of_int k)) !timed;
        timed := None;
        idle_cpu := Some c1
      end;
      if solo then r.solo <- (ordinal, dt) :: r.solo;
      expect_line r line "ok"
    in
    let consume_ready () =
      let rec go () =
        if not (Queue.is_empty pending) then
          match Client.take_line c with
          | Some l ->
            ack l;
            go ()
          | None -> ()
      in
      go ()
    in
    let drain () =
      while not (Queue.is_empty pending) do
        ack (Client.read_line c)
      done
    in
    let n = Array.length st.Gen.st_alarms in
    let t0 = now () in
    (* the time the schedule was paused for synchronous requests *)
    let paused = ref 0. in
    let due i = t0 +. !paused +. (float_of_int (i / burst * burst) /. rate) in
    let is_control k =
      List.mem k st.Gen.st_reports || List.mem k st.Gen.st_checkpoints || k = st.Gen.st_restore_at
    in
    (* block until a millisecond before [t], then poll: a sleep can
       overshoot, which would read as latency. Once a burst is answered,
       and if there is time, take a host-speed sample first *)
    let sampled = ref false in
    let rec wait t =
      let dt = t -. now () in
      if dt > 0. then begin
        let block = if dt > 1e-3 then dt -. 1e-3 else 0. in
        if Queue.is_empty pending then begin
          if (not !sampled) && dt > 4e-3 then begin
            r.refs <- Calib.sample () :: r.refs;
            sampled := true
          end
          else if block > 0. then Unix.sleepf block
        end
        else if Client.wait_line c block then consume_ready ();
        wait t
      end
    in
    let out = Buffer.create 4096 in
    let i = ref 0 in
    while !i < n do
      wait (due !i);
      (* every alarm due by now goes out in one write, up to the next
         synchronous request *)
      let t = now () in
      let rec add () =
        let a, p = st.Gen.st_alarms.(!i) in
        Buffer.add_string out (sprintf "alarm %d %s %s\n" !sid a p);
        if Queue.is_empty pending then since := t;
        Queue.add (due !i, r.alarms, Queue.is_empty pending) pending;
        r.alarms <- r.alarms + 1;
        r.lag <- (t -. due !i) :: r.lag;
        r.attempted <- r.attempted + 1;
        incr i;
        if !i < n && (not (is_control !i)) && due !i <= t then add ()
      in
      let idle = Queue.is_empty pending and first = !i in
      add ();
      timed := (match !idle_cpu with Some c0 when idle -> Some (c0, !i - first) | _ -> None);
      idle_cpu := None;
      sampled := false;
      Client.write c (Buffer.contents out);
      Buffer.clear out;
      if Client.wait_line c 0. then consume_ready ();
      let k = !i in
      if is_control k then begin
        drain ();
        if List.mem k st.Gen.st_reports then begin
          let c0 = cpu_now () in
          reports := (k, !sid, report_call r c !sid) :: !reports;
          record r "cpu.report" (Client.cpu_s c -. c0)
        end;
        if List.mem k st.Gen.st_checkpoints then begin
          match
            scan r (call r c "checkpoint" (sprintf "checkpoint %d" !sid))
              "ok checkpoint %d %s %d%!" (fun s name bytes -> (s, name, bytes))
          with
          | Some (s, name, bytes) when s = !sid ->
            last_ckpt := Some name;
            r.snap_per_alarm <- (float_of_int bytes /. float_of_int k) :: r.snap_per_alarm
          | Some (s, _, _) -> fail r "checkpoint of session %d answered for %d" !sid s
          | None -> ()
        end;
        if k = st.Gen.st_restore_at then begin
          match !last_ckpt with
          | None -> fail r "no checkpoint to restore at alarm %d" k
          | Some name -> (
            match
              scan r (call r c "restore" ("restore " ^ name)) "ok restored %d tenant %s alarms %d%!"
                (fun s t a -> (s, t, a))
            with
            | Some (s, t, a) when t = st.Gen.st_tenant && a = k ->
              expect_line r (call r c "close" (sprintf "close %d" !sid)) (sprintf "ok closed %d" !sid);
              sid := s
            | Some (_, t, a) -> fail r "restore of %s: tenant %s at %d alarms" name t a
            | None -> ())
        end;
        idle_cpu := Some (Client.cpu_s c);
        (* alarm [k] falls due now *)
        paused := !paused +. Float.max 0. (now () -. due k)
      end
    done;
    drain ();
    expect_line r (call r c "close" (sprintf "close %d" !sid)) (sprintf "ok closed %d" !sid);
    r.sessions <- r.sessions + 1;
    r.busy <- r.busy +. (now () -. t_open);
    List.rev !reports

let check_stream r (expected : (int, Expect.answer) Hashtbl.t) reports =
  List.iter
    (fun (k, sid, reply) ->
      match Hashtbl.find_opt expected k with
      | Some want -> check_report r ~sid reply want
      | None -> fail r "report at %d alarms was not scheduled" k)
    reports
