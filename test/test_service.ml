(* Tests for lib/service: multi-tenant isolation, warm-engine recycling,
   and the coordinator session lifecycle. *)

open Service

let running_net () = Petri.Examples.running_example ()

(* A deliberately clashing tenant: the same peer ids (p1, p2), place ids,
   transition ids, and alarm symbols as the running example — but different
   behavior, so any state bleeding between tenant stores would change a
   report. *)
let clashing_net () =
  Petri.Net.make
    ~places:
      [ Petri.Net.mk_place ~peer:"p1" "1";
        Petri.Net.mk_place ~peer:"p1" "2";
        Petri.Net.mk_place ~peer:"p2" "4" ]
    ~transitions:
      [ Petri.Net.mk_transition ~peer:"p1" ~alarm:"b" ~pre:[ "1" ] ~post:[ "2" ] "i";
        Petri.Net.mk_transition ~peer:"p1" ~alarm:"c" ~pre:[ "2" ] ~post:[] "iii";
        Petri.Net.mk_transition ~peer:"p2" ~alarm:"a" ~pre:[ "4" ] ~post:[] "ii" ]
    ~marking:[ "1"; "4" ]

let ok = function Ok v -> v | Error m -> Alcotest.fail m
let seq = [ ("b", "p1"); ("a", "p2"); ("c", "p1") ]

let start_one coord tenant alarms =
  let sid = ok (Coordinator.open_session coord ~tenant) in
  List.iter
    (fun (symbol, peer) -> ok (Coordinator.add_alarm coord sid ~symbol ~peer))
    alarms;
  ok (Coordinator.start coord sid);
  sid

let finish_one coord sid =
  ok (Coordinator.drive ~only:sid coord);
  ok (Coordinator.report coord sid)

(* a tenant alone on a fresh coordinator: the isolation baseline *)
let solo net alarms =
  let coord = Coordinator.create () in
  ignore (ok (Coordinator.add_tenant coord ~name:"t" net));
  (finish_one coord (start_one coord "t" alarms)).Coordinator.body

(* A Batch envelope prices as ONE frame: encoding [Batch [m1; m2]] costs
   less than encoding m1 and m2 as separate frames on the same channel,
   because the members amortize the frame header and version tag. *)
let test_batch_prices_as_one_frame () =
  let atom name =
    Datalog.Atom.make name [ Datalog.Term.const "c1"; Datalog.Term.const "c2" ]
  in
  let m1 = Dqsq.Message.Fact (atom "r1") and m2 = Dqsq.Message.Fact (atom "r2") in
  let separate =
    let e = Dqsq.Wire.encoder () in
    String.length (Dqsq.Wire.encode_message e m1)
    + String.length (Dqsq.Wire.encode_message e m2)
  in
  let together =
    String.length
      (Dqsq.Wire.encode_message (Dqsq.Wire.encoder ()) (Dqsq.Message.Batch [ m1; m2 ]))
  in
  Alcotest.(check bool)
    (Printf.sprintf "batch frame (%d) < separate frames (%d)" together separate)
    true (together < separate)

let test_tenant_isolation () =
  let solo_a = solo (running_net ()) seq in
  let solo_b = solo (clashing_net ()) seq in
  Alcotest.(check bool) "the two tenants really differ" false (solo_a = solo_b);
  let coord = Coordinator.create () in
  ignore (ok (Coordinator.add_tenant coord ~name:"a" (running_net ())));
  ignore (ok (Coordinator.add_tenant coord ~name:"b" (clashing_net ())));
  (* both sessions started before either runs *)
  let sa = start_one coord "a" seq in
  let sb = start_one coord "b" seq in
  Alcotest.(check int) "two sessions running" 2 (Coordinator.stats coord).Coordinator.running;
  ok (Coordinator.drive coord);
  let ra = ok (Coordinator.report coord sa) in
  let rb = ok (Coordinator.report coord sb) in
  Alcotest.(check string) "tenant a report unchanged by b" solo_a ra.Coordinator.body;
  Alcotest.(check string) "tenant b report unchanged by a" solo_b rb.Coordinator.body;
  Alcotest.(check bool) "bytes on the wire" true (ra.Coordinator.wire_bytes > 0);
  Alcotest.(check bool) "deliveries counted" true (ra.Coordinator.deliveries > 0)

let test_warm_recycling () =
  (* the second round reuses pooled engines (reset stores, warm codec
     dictionaries) and must reproduce the same reports *)
  let coord = Coordinator.create () in
  ignore (ok (Coordinator.add_tenant coord ~name:"a" (running_net ())));
  ignore (ok (Coordinator.add_tenant coord ~name:"b" (clashing_net ())));
  let round () =
    let sa = start_one coord "a" seq in
    let sb = start_one coord "b" seq in
    ok (Coordinator.drive coord);
    let ra = ok (Coordinator.report coord sa) in
    let rb = ok (Coordinator.report coord sb) in
    ok (Coordinator.close coord sa);
    ok (Coordinator.close coord sb);
    (ra, rb)
  in
  let ra1, rb1 = round () in
  Alcotest.(check int) "two engines pooled" 2 (Coordinator.stats coord).Coordinator.pooled;
  let ra2, rb2 = round () in
  Alcotest.(check string) "a: recycled engine, same report" ra1.Coordinator.body
    ra2.Coordinator.body;
  Alcotest.(check string) "b: recycled engine, same report" rb1.Coordinator.body
    rb2.Coordinator.body;
  Alcotest.(check bool) "warm codec: second session cheaper on the wire" true
    (ra2.Coordinator.wire_bytes < ra1.Coordinator.wire_bytes);
  Alcotest.(check int) "still two engines pooled" 2
    (Coordinator.stats coord).Coordinator.pooled;
  let s = Coordinator.stats coord in
  Alcotest.(check int) "four sessions started" 4 s.Coordinator.started;
  Alcotest.(check int) "four sessions completed" 4 s.Coordinator.completed

let test_lifecycle_errors () =
  let coord = Coordinator.create () in
  (match Coordinator.open_session coord ~tenant:"ghost" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tenant accepted");
  ignore (ok (Coordinator.add_tenant coord ~name:"t" (running_net ())));
  (match Coordinator.add_tenant coord ~name:"t" (running_net ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate tenant accepted");
  let sid = ok (Coordinator.open_session coord ~tenant:"t") in
  (match Coordinator.add_alarm coord sid ~symbol:"b" ~peer:"nope" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "alarm on an unknown peer accepted");
  (match Coordinator.report coord sid with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "report before start accepted");
  ok (Coordinator.add_alarm coord sid ~symbol:"b" ~peer:"p1");
  ok (Coordinator.start coord sid);
  (match Coordinator.start coord sid with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double start accepted");
  ignore (finish_one coord sid);
  ok (Coordinator.close coord sid);
  match Coordinator.report coord sid with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "report after close accepted"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* every per-alarm report of a streaming session must be byte-identical to
   rendering the direct [Online] engine at the same prefix — the service
   adds codec framing, pooling, and session plumbing but zero bytes of
   divergence *)
let test_stream_matches_direct () =
  let coord = Coordinator.create () in
  ignore (ok (Coordinator.add_tenant coord ~name:"t" (running_net ())));
  let sid = ok (Coordinator.open_stream coord ~tenant:"t") in
  let net = Petri.Net.binarize (running_net ()) in
  let direct = Diagnosis.Online.start net in
  List.iteri
    (fun k (symbol, peer) ->
      ok (Coordinator.add_alarm coord sid ~symbol ~peer);
      Diagnosis.Online.observe direct (symbol, peer);
      let r = ok (Coordinator.report coord sid) in
      let expected =
        Diagnosis.Report.to_string net (Diagnosis.Online.diagnosis direct)
      in
      Alcotest.(check string) "per-alarm report byte-identical" expected
        r.Coordinator.body;
      Alcotest.(check int) "deliveries = alarms consumed" (k + 1)
        r.Coordinator.deliveries)
    seq;
  Alcotest.(check int) "one live stream" 1 (Coordinator.stats coord).Coordinator.streaming;
  let si = ok (Coordinator.stream_info coord sid) in
  Alcotest.(check int) "alarms counted" 3 si.Coordinator.si_alarms;
  Alcotest.(check int) "reports counted" 3 si.Coordinator.si_reports;
  Alcotest.(check bool) "peak live >= live" true
    (si.Coordinator.si_peak_live_states >= si.Coordinator.si_live_states);
  Alcotest.(check bool) "live states bounded" true (si.Coordinator.si_live_states > 0);
  Alcotest.(check bool) "report frames accounted" true (si.Coordinator.si_wire_bytes > 0);
  ok (Coordinator.close coord sid);
  Alcotest.(check int) "stream gone" 0 (Coordinator.stats coord).Coordinator.streaming;
  Diagnosis.Online.release direct

(* a tripped state budget fails the one session, not the coordinator *)
let test_stream_budget_failure () =
  let coord = Coordinator.create ~stream_max_states:1 () in
  ignore (ok (Coordinator.add_tenant coord ~name:"t" (running_net ())));
  let sid = ok (Coordinator.open_stream coord ~tenant:"t") in
  (match Coordinator.add_alarm coord sid ~symbol:"b" ~peer:"p1" with
  | Error m ->
    Alcotest.(check bool) "error names the budget" true (contains m "state budget exceeded")
  | Ok () -> Alcotest.fail "stream budget not enforced");
  (match Coordinator.report coord sid with
  | Error m -> Alcotest.(check bool) "report reports the failure" true (contains m "failed")
  | Ok _ -> Alcotest.fail "report on a failed stream accepted");
  (match Coordinator.add_alarm coord sid ~symbol:"a" ~peer:"p2" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "alarm on a failed stream accepted");
  Alcotest.(check int) "failed stream not streaming" 0
    (Coordinator.stats coord).Coordinator.streaming;
  ok (Coordinator.close coord sid);
  (* the coordinator survives: a batch session and a fresh stream with an
     explicit (sufficient) budget both still work *)
  let b = start_one coord "t" seq in
  ignore (finish_one coord b);
  let s2 = ok (Coordinator.open_stream ~max_states:1000 coord ~tenant:"t") in
  List.iter
    (fun (symbol, peer) -> ok (Coordinator.add_alarm coord s2 ~symbol ~peer))
    seq;
  let r = ok (Coordinator.report coord s2) in
  Alcotest.(check int) "fresh stream diagnoses" 3 r.Coordinator.explanations;
  ok (Coordinator.close coord s2)

(* ------------------------------------------------------------------ *)
(* Durability: migration, the snapshot store, graceful shutdown       *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let feed coord sid l =
  List.iter (fun (symbol, peer) -> ok (Coordinator.add_alarm coord sid ~symbol ~peer)) l

(* a stream checkpointed on one coordinator and restored on another (a
   different process in spirit) must report byte-identically after both
   consume the same suffix *)
let test_stream_migration () =
  let a = Coordinator.create () in
  ignore (ok (Coordinator.add_tenant a ~name:"t" (running_net ())));
  let sa = ok (Coordinator.open_stream a ~tenant:"t") in
  feed a sa [ ("b", "p1") ];
  let img = ok (Coordinator.checkpoint_stream a sa) in
  Alcotest.(check string) "image names the tenant" "t" img.Snapshot.tenant;
  Alcotest.(check int) "image counts the prefix" 1 img.Snapshot.alarms;
  let b = Coordinator.create () in
  ignore (ok (Coordinator.add_tenant b ~name:"t" (running_net ())));
  let sb = ok (Coordinator.restore_stream b img) in
  let suffix = [ ("a", "p2"); ("c", "p1") ] in
  feed a sa suffix;
  feed b sb suffix;
  let ra = ok (Coordinator.report a sa) in
  let rb = ok (Coordinator.report b sb) in
  Alcotest.(check string) "migrated stream reports byte-identically" ra.Coordinator.body
    rb.Coordinator.body;
  Alcotest.(check int) "restored stream is streaming" 1
    (Coordinator.stats b).Coordinator.streaming;
  ok (Coordinator.close a sa);
  ok (Coordinator.close b sb)

(* only streaming sessions checkpoint *)
let test_checkpoint_rejects_batch () =
  let coord = Coordinator.create () in
  ignore (ok (Coordinator.add_tenant coord ~name:"t" (running_net ())));
  let sid = start_one coord "t" seq in
  (match Coordinator.checkpoint_stream coord sid with
  | Error m -> Alcotest.(check bool) "error names the session" true (contains m "stream")
  | Ok _ -> Alcotest.fail "batch session checkpointed");
  ignore (finish_one coord sid);
  ok (Coordinator.close coord sid)

let test_snapshot_store () =
  let dir = "tmp_snap_store_test" in
  rm_rf dir;
  let store = Snapshot.open_store dir in
  let coord = Coordinator.create () in
  ignore (ok (Coordinator.add_tenant coord ~name:"t" (running_net ())));
  let sid = ok (Coordinator.open_stream coord ~tenant:"t") in
  feed coord sid [ ("b", "p1") ];
  let img1 = ok (Coordinator.checkpoint_stream coord sid) in
  let n1 = Snapshot.write store img1 in
  let back = Snapshot.read store n1 in
  Alcotest.(check string) "tenant round-trips" img1.Snapshot.tenant back.Snapshot.tenant;
  Alcotest.(check int) "alarms round-trip" img1.Snapshot.alarms back.Snapshot.alarms;
  Alcotest.(check string) "engine bytes round-trip" img1.Snapshot.engine
    back.Snapshot.engine;
  (* a later checkpoint of the same session prunes the earlier file *)
  feed coord sid [ ("a", "p2") ];
  let n2 = Snapshot.write store (ok (Coordinator.checkpoint_stream coord sid)) in
  Alcotest.(check bool) "old snapshot pruned" false
    (Sys.file_exists (Filename.concat dir n1));
  (* scan returns the surviving image and skips torn files *)
  let garbage = open_out (Filename.concat dir "stream-7-3.snap") in
  output_string garbage "not a snapshot";
  close_out garbage;
  (match Snapshot.scan store with
  | [ (name, img) ] ->
    Alcotest.(check string) "scan finds the live snapshot" n2 name;
    Alcotest.(check int) "at the latest prefix" 2 img.Snapshot.alarms
  | l -> Alcotest.fail (Printf.sprintf "scan returned %d entries" (List.length l)));
  ok (Coordinator.close coord sid);
  rm_rf dir

(* The codec-table gauges ([wire_syms]/[wire_terms] in `serve stats`)
   count the entries of the simulator's channel encoders only: the
   one-shot tables behind report frames, checkpoints, snapshot files and
   restores leave them where they were, while a batch session on a fresh
   engine grows them. *)
let test_table_gauges () =
  let syms = Obs.Metrics.gauge "wire.table_symbols" in
  let terms = Obs.Metrics.gauge "wire.table_terms" in
  let gauges () = (Obs.Metrics.gauge_value syms, Obs.Metrics.gauge_value terms) in
  let dir = "tmp_snap_gauge_test" in
  rm_rf dir;
  let store = Snapshot.open_store dir in
  let coord = Coordinator.create () in
  ignore (ok (Coordinator.add_tenant coord ~name:"t" (running_net ())));
  let sid = ok (Coordinator.open_stream coord ~tenant:"t") in
  feed coord sid seq;
  let before = gauges () in
  ignore (ok (Coordinator.report coord sid));
  let img = ok (Coordinator.checkpoint_stream coord sid) in
  let back = Snapshot.read store (Snapshot.write store img) in
  let restored = ok (Coordinator.restore_stream coord back) in
  ignore (ok (Coordinator.report coord restored));
  Alcotest.(check (pair int int)) "stream report, checkpoint, snapshot, restore" before
    (gauges ());
  ok (Coordinator.close coord sid);
  ok (Coordinator.close coord restored);
  let b = start_one coord "t" seq in
  let (s0, t0) = gauges () in
  ignore (finish_one coord b);
  let (s1, t1) = gauges () in
  Alcotest.(check bool) "a batch session grows the symbol tables" true (s1 > s0);
  Alcotest.(check bool) "a batch session grows the term tables" true (t1 > t0);
  rm_rf dir

(* SIGTERM while [Serve.socket] blocks in accept: the child must flush its
   live stream to the store, unlink the socket, and exit cleanly *)
let test_graceful_shutdown () =
  let dir = "tmp_snap_shutdown_test" in
  let path = "tmp_serve_shutdown.sock" in
  rm_rf dir;
  (try Sys.remove path with Sys_error _ -> ());
  match Unix.fork () with
  | 0 ->
    (try
       let coord = Coordinator.create () in
       ignore (ok (Coordinator.add_tenant coord ~name:"t" (running_net ())));
       let sid = ok (Coordinator.open_stream coord ~tenant:"t") in
       feed coord sid [ ("b", "p1") ];
       let checkpoints =
         { Serve.store = Snapshot.open_store dir; every = None; recover = false }
       in
       Serve.socket ~checkpoints coord ~path ~once:false
     with _ -> ());
    (* skip the inherited Alcotest at_exit machinery *)
    Unix._exit 0
  | pid ->
    let deadline = Unix.gettimeofday () +. 10. in
    while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.02
    done;
    Alcotest.(check bool) "server came up" true (Sys.file_exists path);
    (* let the child reach accept before the signal lands *)
    Unix.sleepf 0.05;
    Unix.kill pid Sys.sigterm;
    let _, status = Unix.waitpid [] pid in
    Alcotest.(check bool) "clean exit" true (status = Unix.WEXITED 0);
    Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path);
    (match Snapshot.scan (Snapshot.open_store dir) with
    | [ (_, img) ] ->
      Alcotest.(check string) "flushed stream names the tenant" "t" img.Snapshot.tenant;
      Alcotest.(check int) "at the observed prefix" 1 img.Snapshot.alarms
    | l ->
      Alcotest.fail (Printf.sprintf "expected one flushed snapshot, found %d" (List.length l)));
    rm_rf dir

let () =
  Alcotest.run "service"
    [ ( "coordinator",
        [ Alcotest.test_case "tenant isolation" `Quick test_tenant_isolation;
          Alcotest.test_case "warm-engine recycling" `Quick test_warm_recycling;
          Alcotest.test_case "lifecycle errors" `Quick test_lifecycle_errors ] );
      ( "streaming",
        [ Alcotest.test_case "per-alarm reports == direct Online" `Quick
            test_stream_matches_direct;
          Alcotest.test_case "state budget fails gracefully" `Quick
            test_stream_budget_failure ] );
      ( "durability",
        [ Alcotest.test_case "stream migration" `Quick test_stream_migration;
          Alcotest.test_case "checkpoint rejects batch sessions" `Quick
            test_checkpoint_rejects_batch;
          Alcotest.test_case "snapshot store" `Quick test_snapshot_store;
          Alcotest.test_case "graceful shutdown flushes" `Quick
            test_graceful_shutdown ] );
      ( "wire batching",
        [ Alcotest.test_case "batch prices as one frame" `Quick
            test_batch_prices_as_one_frame;
          Alcotest.test_case "table gauges count channel encoders" `Quick
            test_table_gauges ] ) ]
