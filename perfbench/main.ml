(* perfbench: drive `diag serve` end to end on a seeded workload.

     main.exe --diag PATH --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 one client process starts the server, drives the
   workload over one socket connection for the passes S seconds buy,
   checks every answer and prints the end-to-end metrics. With --trace 1
   it runs every workload briefly over the socket, replays the same
   requests in process against the coordinator with spans around each
   call, and prints the per-layer table (see README.md). The last stdout
   line is the JSON result. *)

open Printf

let workload = ref "batch_small"
let seed = ref 1
let seconds = ref 30.
let trace = ref 0
let diag = ref "_build/default/bin/diag.exe"
let corrupt = ref 0

let spec =
  [ ("--workload", Arg.Set_string workload, "NAME batch_small | batch_deep | stream_long");
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_float seconds, "S measured time");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
    ("--diag", Arg.Set_string diag, "PATH the diag executable");
    ("--corrupt", Arg.Set_int corrupt, "K self-test: alter the K-th report received") ]

(* ------------------------------------------------------------------ *)
(* Scratch directory                                                   *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Sockets, nets and the snapshot store live in a fresh directory under
   the working directory, removed at exit. *)
let with_scratch root f =
  let parent = Filename.concat root ".perfbench-tmp" in
  (try Unix.mkdir parent 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat parent (sprintf "run-%d" (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Unix.mkdir (Filename.concat dir Client.store_dir) 0o755;
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir root;
      rm_rf dir;
      try Unix.rmdir parent with Unix.Unix_error _ -> ())
    f

let write_nets (w : Gen.t) =
  List.iter
    (fun t -> Out_channel.with_open_bin (Gen.net_file t) (fun oc -> output_string oc (Gen.net_text t)))
    w.Gen.tenants

let net_of (w : Gen.t) name = (List.find (fun t -> t.Gen.t_name = name) w.Gen.tenants).Gen.t_net

(* expected answers of the batch sessions, computed on first use *)
let expected_batch (w : Gen.t) (pool : Gen.session array) =
  let memo = Hashtbl.create 16 in
  fun k ->
    match Hashtbl.find_opt memo k with
    | Some a -> a
    | None ->
      let s = pool.(k) in
      let a = Expect.batch (net_of w s.Gen.s_tenant) s.Gen.s_alarms in
      Hashtbl.add memo k a;
      a

let expected_streams (w : Gen.t) streams =
  Array.map (fun (st : Gen.stream) -> Expect.stream (net_of w st.Gen.st_tenant) st) streams

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let json_result ~correct ~attempted ~failed metrics =
  sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted
    failed
    (String.concat ", "
       (List.map
          (fun x -> sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" x.name x.value x.unit)
          metrics))

(* The tail: the highest of p99, p95, p90 and p75 with at least ten
   samples, and at least 5% of them (rounded down), beyond it. Passes are
   whole, so a workload collects the same number of samples on every run
   of the same length, and the percentile follows from it. The 5% keeps
   the tail of millisecond requests off the host: a shared host holds
   about 1% of them up for milliseconds, so their p99 measures the host
   rather than the program. *)
let tail_pct n =
  let beyond p = n - Float.to_int (Float.ceil (p /. 100. *. float_of_int n)) in
  List.find_opt (fun p -> beyond p >= 10 && beyond p >= n / 20) [ 99.; 95.; 90.; 75. ]
  |> Option.value ~default:50.

let pct_label p = if Float.is_integer p then sprintf "p%.0f" p else sprintf "p%g" p

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)
(* ------------------------------------------------------------------ *)

let setups = 41

(* whole passes over the workload, as many as --seconds buys at the
   workload's nominal pass time *)
let passes (w : Gen.t) = max 1 (Float.to_int (Float.round (!seconds /. w.Gen.pass_s)))

let end_to_end ~diag (w : Gen.t) =
  let r = Drive.create ~corrupt:!corrupt () in
  write_nets w;
  (* set-up: spawn, connect, register every tenant. The driven server is
     set up first; the other set-ups start and stop a server before each
     pass, so their median spans the whole run, not its first moment *)
  let setup_times = ref [] in
  let setup () =
    let c, dt = Drive.setup r ~diag w in
    setup_times := dt :: !setup_times;
    c
  in
  let per_pass = (setups - 1 + passes w - 1) / passes w in
  let run_passes pass =
    for _ = 1 to passes w do
      for _ = 1 to per_pass do
        Client.quit (setup ())
      done;
      pass ()
    done
  in
  (* the expected answers come first, so nothing timed waits for them;
     batch replies are checked after the last pass, stream reports after
     each stream *)
  let drive =
    match w.Gen.kind with
    | Gen.Batch pool ->
      let expected = expected_batch w pool in
      Array.iteri (fun k _ -> ignore (expected k)) pool;
      let keys = List.init (Array.length pool) Fun.id in
      fun c ->
        let replies = ref [] in
        run_passes (fun () -> replies := Drive.batch r c pool keys :: !replies);
        List.iter (Drive.check_batch r expected) !replies
    | Gen.Stream { streams; rate; burst } ->
      let expected = expected_streams w streams in
      fun c ->
        run_passes (fun () ->
            Array.iteri
              (fun i st -> Drive.check_stream r expected.(i) (Drive.stream r c ~rate ~burst st))
              streams)
  in
  let c = setup () in
  let server = ref (Some c) in
  Fun.protect
    ~finally:(fun () -> Option.iter Client.kill !server)
    (fun () ->
      (* a server that dies mid-run leaves its missing replies as failures *)
      let cpu0 = Client.cpu_s c in
      (try drive c with End_of_file | Unix.Unix_error _ -> Drive.lost r);
      let cpu = Client.cpu_s c -. cpu0 in
      let rss = Client.peak_rss_mb c in
      Client.quit c;
      server := None;
      (r, Stats.median !setup_times, rss, cpu))

let report_end_to_end (w : Gen.t) (r : Drive.run) setup_s rss cpu =
  let ms l = List.map (fun x -> x *. 1e3) l in
  let primary, scale, unit =
    match w.Gen.kind with Gen.Batch _ -> ("run", 1e3, "ms") | Gen.Stream _ -> ("alarm", 1e6, "us")
  in
  let prim = Drive.samples r primary in
  let tail = tail_pct (List.length prim) in
  let failed_ratio = Stats.ratio (float_of_int r.Drive.failed) (float_of_int r.Drive.attempted) in
  printf "%s: %d requests, %d sessions, %.1f s driven\n" w.Gen.name r.Drive.attempted
    r.Drive.sessions r.Drive.busy;
  let line name unit v = printf "  %-26s %14.4f %s\n" name v unit in
  line "setup_s" "s" setup_s;
  line (primary ^ "_p50_" ^ unit) unit (Stats.median prim *. scale);
  line (primary ^ "_tail_" ^ unit) unit (Stats.pct prim tail *. scale);
  printf "  %-26s %s of %d samples, %d beyond\n" "" (pct_label tail) (List.length prim)
    (Stats.beyond prim tail);
  (match w.Gen.kind with
  | Gen.Batch _ ->
    line "sessions_per_s" "1/s" (float_of_int r.Drive.sessions /. r.Drive.busy);
    line "wire_bytes_per_session" "B" (Stats.mean (List.map float_of_int r.Drive.wire_bytes));
    line "report_p50_ms" "ms" (Stats.median (ms (Drive.samples r "report")))
  | Gen.Stream _ ->
    line "alarm_p99_us" "us" (Stats.pct prim 99. *. scale);
    line "alarm_p99.9_us" "us" (Stats.pct prim 99.9 *. scale);
    line "report_p50_ms" "ms" (Stats.median (ms (Drive.samples r "report")));
    line "checkpoint_p50_ms" "ms" (Stats.median (ms (Drive.samples r "checkpoint")));
    line "restore_p50_ms" "ms" (Stats.median (ms (Drive.samples r "restore")));
    line "snapshot_bytes_per_alarm" "B" (Stats.median r.Drive.snap_per_alarm);
    printf "  %-26s p50 %.1f us, max %.1f ms (generator lag)\n" "" (Stats.median r.Drive.lag *. 1e6)
      (List.fold_left Float.max 0. r.Drive.lag *. 1e3));
  line "requests_per_s" "1/s" (float_of_int r.Drive.answered /. r.Drive.served);
  line "server_peak_rss_mb" "MB" rss;
  line "failed_ratio" "-" failed_ratio;
  (* The server's CPU time for the same requests, and in multiples of the
     host-speed reference (see Calib): what the JSON reports, because the
     wall-clock figures above move with the host's steal and speed *)
  let cpu_prim = Drive.samples r ("cpu." ^ primary) and cpu_report = Drive.samples r "cpu.report" in
  let cpu_tail = tail_pct (List.length cpu_prim) in
  let per_request = cpu /. float_of_int r.Drive.answered in
  line ("cpu_" ^ primary ^ "_p50_" ^ unit) unit (Stats.median cpu_prim *. scale);
  line ("cpu_" ^ primary ^ "_tail_" ^ unit) unit (Stats.pct cpu_prim cpu_tail *. scale);
  printf "  %-26s %s of %d samples, %d beyond\n" "" (pct_label cpu_tail) (List.length cpu_prim)
    (Stats.beyond cpu_prim cpu_tail);
  line "cpu_report_p50_ms" "ms" (Stats.median (ms cpu_report));
  line "cpu_per_request_us" "us" (per_request *. 1e6);
  let ref_s = Stats.median r.Drive.refs in
  let in_refs x = x /. ref_s in
  line "ref_ms" "ms" (ref_s *. 1e3);
  printf "  %-26s median of %d samples\n" "" (List.length r.Drive.refs);
  line "latency_p50_ref" "ref" (in_refs (Stats.median prim));
  line "latency_tail_ref" "ref" (in_refs (Stats.pct prim tail));
  line "report_p50_ref" "ref" (in_refs (Stats.median (Drive.samples r "report")));
  let metrics =
    [ m "setup_s" "s" setup_s;
      m "service_cpu_p50_ref" "ref" (in_refs (Stats.median cpu_prim));
      m "service_cpu_tail_ref" "ref" (in_refs (Stats.pct cpu_prim cpu_tail));
      m "report_cpu_p50_ref" "ref" (in_refs (Stats.median cpu_report));
      m "cpu_per_request_ref" "ref" (in_refs per_request);
      m "server_peak_rss_mb" "MB" rss ]
  in
  List.iter (fun x -> if x.unit = "ref" then line x.name x.unit x.value) metrics;
  List.iter (printf "  failure: %s\n") (List.rev r.Drive.errors);
  metrics

(* ------------------------------------------------------------------ *)
(* Traced per-layer run                                                *)
(* ------------------------------------------------------------------ *)

let fl = float_of_int
let med_ms l = Stats.median l *. 1e3
let med_us l = Stats.median l *. 1e6

(* e2e reply time minus the in-process span of the same request, paired
   request by request (both lists are in request order), median over the
   requests of the verb *)
let overhead (r : Drive.run) tr verb =
  let e2e = Drive.samples r verb and span = Replay.durations tr ("serve." ^ verb) in
  if List.length e2e = List.length span then med_us (List.map2 ( -. ) e2e span)
  else med_us e2e -. med_us span

(* the same for stream alarms, over those sent with nothing ahead of them
   in flight: the others also wait for the rest of their burst *)
let alarm_overhead (r : Drive.run) tr =
  let span = Array.of_list (List.rev (Replay.durations tr "serve.alarm")) in
  med_us
    (List.filter_map
       (fun (i, dt) -> if i < Array.length span then Some (dt -. span.(i)) else None)
       r.Drive.solo)

(* The wall-clock side of the socket pass: the end-to-end timings as a
   user sees them, which move with the host too much to carry a bound,
   and the host-speed reference. The pass is short, so there is no tail. *)
let wall_metrics (r : Drive.run) primary =
  let prim = Drive.samples r primary in
  [ ("serve.latency_p50_ms", "ms", med_ms prim);
    ("serve.report_p50_ms", "ms", med_ms (Drive.samples r "report"));
    ("serve.requests_per_s", "1/s", fl r.Drive.answered /. r.Drive.served);
    ("host.ref_ms", "ms", med_ms r.Drive.refs) ]

(* per-layer metrics as (name, unit, value); batch ones per session *)
let batch_metrics (r : Drive.run) base (x : Replay.result) =
  let tr = x.Replay.tr in
  let n = fl x.Replay.starts in
  let per name = fl (Replay.count tr name) /. n in
  let facts = per "eval.facts_derived" and cands = per "fact_store.candidates" in
  let engine_s =
    List.fold_left ( +. ) 0.
      (Replay.durations tr "coordinator.start" @ Replay.durations tr "coordinator.drive")
  in
  let interned = per "term.interned" and hits = per "term.hashcons_hits" in
  let gc f = List.fold_left (fun a q -> a +. f q) 0. tr.Replay.requests /. n in
  [ ("serve.overhead_us.open", "us", overhead r tr "open");
    ("serve.overhead_us.alarm", "us", overhead r tr "alarm");
    ("serve.overhead_us.run", "us", overhead r tr "run");
    ("serve.overhead_us.report", "us", overhead r tr "report");
    ("serve.overhead_us.close", "us", overhead r tr "close");
    ("serve.sessions_per_s", "1/s", fl r.Drive.sessions /. r.Drive.busy);
    ("wire.bytes_per_session", "B", Stats.mean (List.map fl r.Drive.wire_bytes));
    ("coordinator.start_ms", "ms", med_ms (Replay.durations tr "coordinator.start"));
    ("coordinator.drive_ms", "ms", med_ms (Replay.durations tr "coordinator.drive"));
    ("coordinator.add_alarm_us", "us", med_us (Replay.durations tr "coordinator.add_alarm"));
    ("coordinator.pool_hit_ratio", "ratio", fl x.Replay.pool_hits /. n);
    ("qsq.delegations", "count", per "qsq.delegations");
    ("qsq.subscriptions", "count", per "qsq.subscriptions");
    ("qsq.fact_messages", "count", per "qsq.fact_messages");
    ("qsq.envelopes", "count", per "qsq.envelopes");
    ("sim.delivered", "count", per "sim.delivered");
    ("sim.sent", "count", per "sim.sent");
    ("eval.facts_derived", "count", facts);
    ("eval.rules_fired", "count", per "eval.rules_fired");
    ("fact_store.probes", "count", per "fact_store.probes");
    ("fact_store.candidates", "count", cands);
    ("fact_store.full_scans", "count", per "fact_store.full_scans");
    ("fact_store.index_builds", "count", per "fact_store.index_builds");
    ("fact_store.yield", "ratio", Stats.ratio facts cands);
    ("fact_store.candidates_per_s", "1/s", Stats.ratio (cands *. n) engine_s);
    ( "fact_store.minor_words_per_fact",
      "words",
      Stats.ratio (Replay.words tr [ "coordinator.start"; "coordinator.drive" ]) (facts *. n) );
    ("term.interned", "count", interned);
    ("term.hashcons_hits", "count", hits);
    ("term.hit_ratio", "ratio", Stats.ratio hits (hits +. interned));
    ("wire.bytes_sent", "B", per "wire.bytes_sent");
    ("wire.frames", "count", per "wire.frames");
    ("wire.bytes_per_frame", "B", Stats.ratio (per "wire.bytes_sent") (per "wire.frames"));
    ("gc.minor_words", "words", gc (fun q -> q.Replay.minor));
    ("gc.promoted_words", "words", gc (fun q -> q.Replay.promoted));
    ("gc.major_collections", "count", gc (fun q -> fl q.Replay.majors));
    ("trace.overhead_ratio", "ratio", x.Replay.wall /. base) ]

(* stream ones per alarm or per call *)
let stream_metrics (r : Drive.run) base (x : Replay.result) =
  let tr = x.Replay.tr in
  let alarms = fl (List.length (Replay.requests tr "alarm")) in
  let per name = fl (Replay.count tr ~verb:"alarm" name) /. alarms in
  let interned = per "term.interned" and hits = per "term.hashcons_hits" in
  let module C = Service.Coordinator in
  (* [infos] holds two segments per stream, newest first; the restored
     segment's counters carry on from the checkpoint, so the even ones
     cover each whole stream *)
  let whole = List.filteri (fun i _ -> i mod 2 = 0) x.Replay.infos in
  let sum f = fl (List.fold_left (fun a i -> a + f i) 0 whole) in
  let consumed = sum (fun i -> i.C.si_alarms) in
  let report_s = List.fold_left ( +. ) 0. (Replay.durations tr "coordinator.report") in
  let report_mb = fl (List.fold_left ( + ) 0 x.Replay.report_bytes) /. 1e6 in
  let gc f = List.fold_left (fun a q -> a +. f q) 0. tr.Replay.requests /. alarms in
  [ ("serve.overhead_us.alarm", "us", alarm_overhead r tr);
    ("serve.overhead_us.report", "us", overhead r tr "report");
    ("serve.overhead_us.checkpoint", "us", overhead r tr "checkpoint");
    ("serve.overhead_us.restore", "us", overhead r tr "restore");
    ("serve.checkpoint_p50_ms", "ms", med_ms (Drive.samples r "checkpoint"));
    ("serve.restore_p50_ms", "ms", med_ms (Drive.samples r "restore"));
    ("snapshot.bytes_per_alarm", "B", Stats.median r.Drive.snap_per_alarm);
    ("coordinator.add_alarm_us", "us", med_us (Replay.durations tr "coordinator.add_alarm"));
    ("coordinator.report_ms", "ms", med_ms (Replay.durations tr "coordinator.report"));
    ("term.interned", "count", interned);
    ("term.hashcons_hits", "count", hits);
    ("term.hit_ratio", "ratio", Stats.ratio hits (hits +. interned));
    ("online.words_per_alarm", "words", Replay.words tr [ "coordinator.add_alarm" ] /. alarms);
    ( "online.states_per_alarm",
      "count",
      sum (fun i -> i.C.si_live_states + i.C.si_gc_reclaimed) /. consumed );
    ( "online.live_states_peak",
      "count",
      fl (List.fold_left (fun a i -> max a i.C.si_peak_live_states) 0 x.Replay.infos) );
    ("online.gc_reclaimed_per_alarm", "count", sum (fun i -> i.C.si_gc_reclaimed) /. consumed);
    ("report.bytes", "B", Stats.median (List.map fl x.Replay.report_bytes));
    ("report.ms_per_mb", "ms/MB", Stats.ratio (report_s *. 1e3) report_mb);
    ("snapshot.checkpoint_ms", "ms", med_ms (Replay.durations tr "coordinator.checkpoint_stream"));
    ("snapshot.write_ms", "ms", med_ms (Replay.durations tr "snapshot.write"));
    ("snapshot.read_ms", "ms", med_ms (Replay.durations tr "snapshot.read"));
    ("snapshot.restore_ms", "ms", med_ms (Replay.durations tr "coordinator.restore_stream"));
    ( "snapshot.bytes_written",
      "B",
      fl (Replay.count tr ~verb:"checkpoint" "snapshot.bytes_written")
      /. fl (List.length (Replay.requests tr "checkpoint")) );
    ("gc.minor_words", "words", gc (fun q -> q.Replay.minor));
    ("gc.promoted_words", "words", gc (fun q -> q.Replay.promoted));
    ("gc.major_collections", "count", gc (fun q -> fl q.Replay.majors));
    ("trace.overhead_ratio", "ratio", x.Replay.wall /. base) ]

(* one workload, briefly: a socket pass for the e2e side of the serve
   overhead, then the same requests in process without and with spans *)
let traced_workload ~diag ~budget (w : Gen.t) =
  write_nets w;
  let r = Drive.create () in
  let c, _ = Drive.setup r ~diag w in
  let server = ref (Some c) in
  let socket_pass f =
    Fun.protect
      ~finally:(fun () -> Option.iter Client.kill !server)
      (fun () ->
        let v = f () in
        Client.quit c;
        server := None;
        v)
  in
  (* untraced, traced, untraced again: the traced replay against the mean
     of the two around it, so warm-up and drift do not read as overhead *)
  let replays f =
    let a = f false in
    let x = f true in
    let b = f false in
    r.Drive.failed <- r.Drive.failed + a.Replay.mismatches + x.Replay.mismatches + b.Replay.mismatches;
    (x, (a.Replay.wall +. b.Replay.wall) /. 2.)
  in
  let metrics, tr =
    match w.Gen.kind with
    | Gen.Batch pool ->
      let expected = expected_batch w pool in
      let keys =
        socket_pass (fun () ->
            let t0 = Client.now () in
            let rec go k acc =
              if k < Array.length pool && (k < 2 || Client.now () -. t0 < budget) then begin
                Drive.check_batch r expected (Drive.batch r c pool [ k ]);
                go (k + 1) (k :: acc)
              end
              else List.rev acc
            in
            go 0 [])
      in
      let x, base = replays (fun traced -> Replay.batch ~traced w pool keys expected) in
      (batch_metrics r base x @ wall_metrics r "run", x.Replay.tr)
    | Gen.Stream { streams; rate; burst } ->
      let expected = expected_streams w [| streams.(0) |] in
      socket_pass (fun () ->
          Drive.check_stream r expected.(0) (Drive.stream r c ~rate ~burst streams.(0)));
      let x, base = replays (fun traced -> Replay.stream ~traced w streams [ 0 ] expected) in
      (stream_metrics r base x @ wall_metrics r "alarm", x.Replay.tr)
  in
  (r, metrics, tr)

let print_self_times name tr =
  printf "\nspans of %s: calls, total ms, self ms, self us/call\n" name;
  List.iter
    (fun (n, calls, tot, slf) ->
      printf "  %-34s %8d %12.2f %12.2f %12.2f\n" n calls (tot *. 1e3) (slf *. 1e3)
        (slf *. 1e6 /. fl calls))
    (Replay.self_times tr)

(* the per-layer table, workloads side by side *)
let print_layer_table results =
  let names = List.map (fun (w, _) -> w) results in
  printf "\nper-layer metrics (batch: per session; stream: per alarm or per call)\n";
  printf "  %-34s %-6s" "metric" "unit";
  List.iter (printf " %16s") names;
  print_newline ();
  let rows =
    List.fold_left
      (fun acc (_, ms) ->
        List.fold_left
          (fun acc (s, u, _) -> if List.mem_assoc s acc then acc else acc @ [ (s, u) ])
          acc ms)
      [] results
  in
  List.iter
    (fun (s, u) ->
      printf "  %-34s %-6s" s u;
      List.iter
        (fun (_, ms) ->
          match List.find_opt (fun (s', _, _) -> s' = s) ms with
          | Some (_, _, v) -> printf " %16.4f" v
          | None -> printf " %16s" "-")
        results;
      print_newline ())
    rows

(* every workload in turn; the JSON names its metrics
   <workload>.<layer>.<metric> *)
let trace_all ~diag ~root =
  let budget = !seconds /. 3. *. 0.3 in
  let out_dir = Filename.concat root ".perfbench-out" in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let results =
    List.map
      (fun (name, _) ->
        let w = Gen.make name !seed in
        printf "%s: script %s\n%!" name (Gen.digest w);
        let r, ms, tr = traced_workload ~diag ~budget w in
        List.iter (printf "  failure: %s\n") (List.rev r.Drive.errors);
        print_self_times name tr;
        Replay.write_spans (Filename.concat out_dir (sprintf "spans-%s.tsv" name)) tr;
        (name, r, ms))
      Gen.all
  in
  print_layer_table (List.map (fun (n, _, ms) -> (n, ms)) results);
  printf "(spans written to %s)\n" out_dir;
  let attempted = List.fold_left (fun a (_, r, _) -> a + r.Drive.attempted) 0 results
  and failed = List.fold_left (fun a (_, r, _) -> a + r.Drive.failed) 0 results in
  ( attempted,
    failed,
    List.concat_map (fun (n, _, ms) -> List.map (fun (s, u, v) -> m (n ^ "." ^ s) u v) ms) results )

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad a)) "main.exe [options]";
  (* an interrupted run still stops the server and removes its directory *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> raise Exit))) [ Sys.sigint; Sys.sigterm ];
  (* writing to a server that died must fail the write, not end the run
     (a handler, unlike ignoring, is reset for the spawned server) *)
  Sys.set_signal Sys.sigpipe (Sys.Signal_handle ignore);
  let root = Sys.getcwd () in
  let diag = if Filename.is_relative !diag then Filename.concat root !diag else !diag in
  if not (Sys.file_exists diag) then (eprintf "perfbench: no %s\n" diag; exit 2);
  let w = Gen.make !workload !seed in
  printf "perfbench %s seed %d: script %s\n%!" w.Gen.name !seed (Gen.digest w);
  let attempted, failed, metrics =
    with_scratch root (fun () ->
        if !trace = 0 then begin
          let r, setup_s, rss, cpu = end_to_end ~diag w in
          let metrics = report_end_to_end w r setup_s rss cpu in
          (r.Drive.attempted, r.Drive.failed, metrics)
        end
        else trace_all ~diag ~root)
  in
  (* every value must have been measured: a metric with no samples or a
     zero denominator is left out and fails the run, rather than read as a
     perfect 0 *)
  let unmeasured = List.filter (fun x -> not (Float.is_finite x.value)) metrics in
  List.iter (fun x -> printf "  failure: %s was not measured\n" x.name) unmeasured;
  let failed = failed + List.length unmeasured in
  let metrics = List.filter (fun x -> Float.is_finite x.value) metrics in
  let correct = failed = 0 in
  print_endline (json_result ~correct ~attempted ~failed metrics);
  if not correct then exit 1
