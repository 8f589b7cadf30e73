(* In-process replay of the requests a socket run sent: the same
   [Service.Coordinator] and [Snapshot] calls `diag serve` makes for each
   request line, on a fresh coordinator, optionally with spans.

   A span records name, start, end, parent and request id, plus the minor
   words allocated inside it. Each request is one root span
   ([serve.<verb>]) whose children are the public calls the server would
   make. Counter deltas and [Gc.quick_stat] deltas are taken at the root
   span boundaries. Spans stay in memory until the run ends. *)

open Printf

type span = {
  id : int;
  parent : int;  (* -1 for a request's root span *)
  req : int;
  name : string;
  t0 : float;
  mutable t1 : float;
  w0 : float;  (* Gc.minor_words at entry *)
  mutable w1 : float;
}

(* what a request did, at its root span's boundaries *)
type request = {
  verb : string;
  counts : int array;  (* deltas of [counters] *)
  minor : float;
  promoted : float;
  majors : int;
}

let counters =
  [| "qsq.delegations"; "qsq.subscriptions"; "qsq.fact_messages"; "qsq.envelopes";
     "sim.delivered"; "sim.sent"; "eval.facts_derived"; "eval.rules_fired";
     "fact_store.probes"; "fact_store.candidates"; "fact_store.full_scans";
     "fact_store.index_builds"; "term.interned"; "term.hashcons_hits"; "wire.bytes_sent";
     "wire.frames"; "snapshot.bytes_written" |]

let handles = Array.map (fun n -> Obs.Metrics.counter n) counters
let counter_index name =
  let rec go i = if counters.(i) = name then i else go (i + 1) in
  go 0

type tracer = {
  on : bool;
  mutable spans : span list;  (* completed, newest first *)
  mutable stack : int list;
  mutable next : int;
  mutable req : int;
  mutable requests : request list;  (* newest first *)
}

let tracer on = { on; spans = []; stack = []; next = 0; req = 0; requests = [] }

let now = Unix.gettimeofday

let span tr name f =
  if not tr.on then f ()
  else begin
    let parent = match tr.stack with p :: _ -> p | [] -> -1 in
    let sp = { id = tr.next; parent; req = tr.req; name; t0 = now (); t1 = 0.; w0 = Gc.minor_words (); w1 = 0. } in
    tr.next <- tr.next + 1;
    tr.stack <- sp.id :: tr.stack;
    let finish () =
      sp.t1 <- now ();
      sp.w1 <- Gc.minor_words ();
      tr.stack <- List.tl tr.stack;
      tr.spans <- sp :: tr.spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* one request line: a root span plus counter and GC deltas *)
let request tr verb f =
  if not tr.on then f ()
  else begin
    tr.req <- tr.req + 1;
    let c0 = Array.map Obs.Metrics.value handles in
    let g0 = Gc.quick_stat () in
    let v = span tr ("serve." ^ verb) f in
    let g1 = Gc.quick_stat () in
    let c1 = Array.map Obs.Metrics.value handles in
    tr.requests <-
      {
        verb;
        counts = Array.mapi (fun i v -> v - c0.(i)) c1;
        minor = g1.Gc.minor_words -. g0.Gc.minor_words;
        promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
        majors = g1.Gc.major_collections - g0.Gc.major_collections;
      }
      :: tr.requests;
    v
  end

(* ------------------------------------------------------------------ *)
(* The replay                                                          *)
(* ------------------------------------------------------------------ *)

type result = {
  tr : tracer;
  wall : float;
  pool_hits : int;
  starts : int;
  report_bytes : int list;
  infos : Service.Coordinator.stream_info list;  (* each stream segment, before close *)
  mismatches : int;  (* replies that differ from the expected answers *)
}

let ok = function Ok v -> v | Error m -> failwith ("replay: " ^ m)

(* A fresh coordinator with the workload's tenants. The full major GC
   first drops the terms earlier passes left in the hash-cons table, so
   [term.interned] counts what this replay creates. *)
let load_tenants coord (w : Gen.t) =
  Gc.full_major ();
  List.iter
    (fun t ->
      let f = Petri.Parse.parse (In_channel.with_open_bin (Gen.net_file t) In_channel.input_all) in
      ignore (ok (Service.Coordinator.add_tenant coord ~name:t.Gen.t_name f.Petri.Parse.net)))
    w.Gen.tenants

let batch ~traced (w : Gen.t) pool keys (expected : int -> Expect.answer) =
  let tr = tracer traced in
  let module C = Service.Coordinator in
  let coord = C.create () in
  load_tenants coord w;
  let hits = ref 0 and starts = ref 0 and bad = ref 0 in
  let t0 = now () in
  List.iter
    (fun k ->
      let s : Gen.session = pool.(k) in
      let sid =
        request tr "open" (fun () ->
            span tr "coordinator.open_session" (fun () ->
                ok (C.open_session coord ~tenant:s.Gen.s_tenant)))
      in
      List.iter
        (fun (symbol, peer) ->
          request tr "alarm" (fun () ->
              span tr "coordinator.add_alarm" (fun () -> ok (C.add_alarm coord sid ~symbol ~peer))))
        s.Gen.s_alarms;
      let r =
        request tr "run" (fun () ->
            let pooled = (C.stats coord).C.pooled in
            span tr "coordinator.start" (fun () -> ok (C.start coord sid));
            (* a warm engine left the tenant's pool *)
            if (C.stats coord).C.pooled < pooled then incr hits;
            span tr "coordinator.drive" (fun () -> ok (C.drive ~only:sid coord));
            span tr "coordinator.report" (fun () -> ok (C.report coord sid)))
      in
      incr starts;
      let body =
        request tr "report" (fun () ->
            span tr "coordinator.report" (fun () -> ok (C.report coord sid)))
      in
      request tr "close" (fun () -> span tr "coordinator.close" (fun () -> ok (C.close coord sid)));
      let want = expected k in
      if r.C.explanations <> want.Expect.explanations
         || Expect.lines body.C.body <> want.Expect.body
      then incr bad)
    keys;
  let wall = now () -. t0 in
  { tr; wall; pool_hits = !hits; starts = !starts; report_bytes = []; infos = []; mismatches = !bad }

let stream ~traced (w : Gen.t) streams keys (expected : (int, Expect.answer) Hashtbl.t array) =
  let tr = tracer traced in
  let module C = Service.Coordinator in
  let coord = C.create () in
  load_tenants coord w;
  let store = Snapshot.open_store "replay-ckpt" in
  let bytes = ref [] and infos = ref [] and bad = ref 0 in
  let close sid =
    infos := ok (C.stream_info coord sid) :: !infos;
    request tr "close" (fun () -> span tr "coordinator.close" (fun () -> ok (C.close coord sid)))
  in
  let t0 = now () in
  List.iter
    (fun key ->
      let st : Gen.stream = streams.(key) in
      let sid =
        ref
          (request tr "stream" (fun () ->
               span tr "coordinator.open_stream" (fun () -> ok (C.open_stream coord ~tenant:st.Gen.st_tenant))))
      in
      let last = ref "" in
      Array.iteri
        (fun i (symbol, peer) ->
          request tr "alarm" (fun () ->
              span tr "coordinator.add_alarm" (fun () -> ok (C.add_alarm coord !sid ~symbol ~peer)));
          let k = i + 1 in
          if List.mem k st.Gen.st_reports then begin
            let r =
              request tr "report" (fun () -> span tr "coordinator.report" (fun () -> ok (C.report coord !sid)))
            in
            bytes := String.length r.C.body :: !bytes;
            match Hashtbl.find_opt expected.(key) k with
            | Some want when Expect.lines r.C.body = want.Expect.body -> ()
            | _ -> incr bad
          end;
          if List.mem k st.Gen.st_checkpoints then
            last :=
              request tr "checkpoint" (fun () ->
                  let img =
                    span tr "coordinator.checkpoint_stream" (fun () -> ok (C.checkpoint_stream coord !sid))
                  in
                  span tr "snapshot.write" (fun () -> Snapshot.write store img));
          if k = st.Gen.st_restore_at then begin
            let sid' =
              request tr "restore" (fun () ->
                  let img = span tr "snapshot.read" (fun () -> Snapshot.read store !last) in
                  span tr "coordinator.restore_stream" (fun () -> ok (C.restore_stream coord img)))
            in
            close !sid;
            sid := sid'
          end)
        st.Gen.st_alarms;
      close !sid)
    keys;
  let wall = now () -. t0 in
  { tr; wall; pool_hits = 0; starts = 0; report_bytes = !bytes; infos = !infos; mismatches = !bad }

(* ------------------------------------------------------------------ *)
(* Reading the spans                                                   *)
(* ------------------------------------------------------------------ *)

let durations tr name =
  List.filter_map (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None) tr.spans

let words tr names =
  List.fold_left
    (fun acc s -> if List.mem s.name names then acc +. (s.w1 -. s.w0) else acc)
    0. tr.spans

let requests tr verb = List.filter (fun r -> r.verb = verb) tr.requests

let count tr ?verb name =
  let i = counter_index name in
  List.fold_left
    (fun acc r -> match verb with Some v when v <> r.verb -> acc | _ -> acc + r.counts.(i))
    0 tr.requests

(* per span name: calls, total seconds, self seconds (the part of the
   interval no child span covers) *)
let self_times tr =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    tr.spans;
  let agg = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      let n, tot, slf = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt agg s.name) in
      Hashtbl.replace agg s.name (n + 1, tot +. d, slf +. self))
    tr.spans;
  Hashtbl.fold (fun name (n, tot, slf) acc -> (name, n, tot, slf) :: acc) agg []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

let write_spans path tr =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "id\tparent\treq\tname\tstart_us\tend_us\tminor_words\n";
      match tr.spans with
      | [] -> ()
      | _ ->
        let base = List.fold_left (fun m s -> Float.min m s.t0) infinity tr.spans in
        List.iter
          (fun s ->
            fprintf oc "%d\t%d\t%d\t%s\t%.1f\t%.1f\t%.0f\n" s.id s.parent s.req s.name
              ((s.t0 -. base) *. 1e6) ((s.t1 -. base) *. 1e6) (s.w1 -. s.w0))
          (List.rev tr.spans))
