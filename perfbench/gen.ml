(* Seeded workload generation. Everything the server receives is made
   here from the seed: the tenants' nets (written to disk with
   [Petri.Parse.print]) and the request script. The same seed always
   yields the same script; [digest] hashes it so runs can prove that. *)

type tenant = { t_name : string; t_net : Petri.Net.t }

(* a batch session: open, one [alarm] line per alarm, run, report, close *)
type session = { s_tenant : string; s_alarms : (string * string) list }

(* A long streaming session: [st_alarms] are sent open-loop; a [report]
   follows each alarm count in [st_reports], a [checkpoint] each one in
   [st_checkpoints], and after [st_restore_at] alarms the latest
   checkpoint is restored and the stream carries on in the restored
   session. *)
type stream = {
  st_tenant : string;
  st_alarms : (string * string) array;
  st_reports : int list;
  st_checkpoints : int list;
  st_restore_at : int;
}

type kind =
  | Batch of session array  (* closed loop, cycled until time is up *)
  | Stream of { streams : stream array; rate : float; burst : int }
      (* open loop at [rate] alarms/s in bursts of [burst] alarms due
         together, cycled until time is up *)

(* [pass_s] is how long one pass over [kind] takes on a typical 2-core
   host; it fixes how many passes a run's --seconds buys, so every run of
   a workload does the same work however fast the host is that minute *)
type t = { name : string; tenants : tenant list; kind : kind; pass_s : float }

let rng seed salt = Random.State.make [| 0x5ca1ab1e; seed; salt |]

(* ------------------------------------------------------------------ *)
(* Batch sessions                                                      *)
(* ------------------------------------------------------------------ *)

(* A random execution of exactly [steps] firings (drawn again until it
   is that long, so every session has its nominal size). *)
let rec execution rng net ~steps =
  let firing = Petri.Exec.random_execution ~rng ~steps net in
  if List.length firing = steps then Petri.Exec.alarms_of_execution net firing
  else execution rng net ~steps

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* [strata] lists (tenant, alarms per session, sessions). The executions
   are drawn once from a fixed stream, so every seed asks for the same
   diagnoses and runs stay comparable; the seed re-interleaves each
   session's alarms as the asynchronous channels to the supervisor would
   (the supervisor encodes per-peer words, so the work is the same) and
   sets the session order, which decides how warm each engine is. *)
let batch_sessions ~seed strata =
  let pool = rng 0 1 and r = rng seed 1 in
  List.concat_map
    (fun ((t : tenant), steps, n) ->
      List.init n (fun _ ->
          let alarms = execution pool t.t_net ~steps in
          { s_tenant = t.t_name; s_alarms = Petri.Exec.async_shuffle ~rng:r alarms }))
    strata
  |> Array.of_list |> shuffle r

(* Short sessions: fixed per-session work (engine start and recycle,
   rewriting, delegation, wire verification, serve I/O) dominates. *)
let batch_small seed =
  let running = { t_name = "running"; t_net = Petri.Examples.running_example () } in
  let ring3 = { t_name = "ring3"; t_net = Petri.Examples.ring ~peers:3 () } in
  {
    name = "batch_small";
    tenants = [ running; ring3 ];
    pass_s = 5.5;
    kind =
      Batch
        (batch_sessions ~seed
           (* the running example deadlocks after 3 firings *)
           [ (running, 3, 20); (ring3, 3, 11); (ring3, 4, 11); (ring3, 5, 11); (ring3, 6, 11) ]);
  }

(* Deep sessions: join evaluation, the fact store and term interning
   dominate; per-session costs and serve are noise. *)
let batch_deep seed =
  let ring4 = { t_name = "ring4"; t_net = Petri.Examples.ring ~peers:4 () } in
  let ring5 = { t_name = "ring5"; t_net = Petri.Examples.ring ~peers:5 () } in
  {
    name = "batch_deep";
    tenants = [ ring4; ring5 ];
    pass_s = 9.5;
    kind =
      Batch
        (batch_sessions ~seed
           (* the lighter 5-alarm sessions put the median inside the 20k-35k
              fact sessions instead of on the gap below the 55k-fact ones *)
           [ (ring4, 6, 10); (ring5, 5, 6); (ring4, 5, 8) ]);
  }

(* ------------------------------------------------------------------ *)
(* Streams: synchronized cycles with conflict traps                    *)
(* ------------------------------------------------------------------ *)

(* Peer [i] runs a cycle of [len.(i)] places; its last step needs the
   baton place [s<i>] and passes the baton to the next peer, so the peers'
   rounds are synchronized. The first step of every cycle has a twin with
   the same alarm that moves the token into a dead place (the conflict
   trap): each round's first alarm is ambiguous until the peer's next
   alarm. The 2-peer member with cycles of 3 is E21's net. *)
let cycle_net len =
  let k = Array.length len in
  let peer i = Printf.sprintf "p%d" i in
  let c i j = Printf.sprintf "c%d_%d" i j in
  let sym i j = Printf.sprintf "%c%d" (Char.chr (Char.code 'a' + j)) i in
  let places =
    List.concat
      (List.init k (fun i ->
           List.init len.(i) (fun j -> Petri.Net.mk_place ~peer:(peer i) (c i j))
           @ [ Petri.Net.mk_place ~peer:(peer i) (Printf.sprintf "x%d" i);
               Petri.Net.mk_place ~peer:(peer i) (Printf.sprintf "s%d" i) ]))
  in
  let transitions =
    List.concat
      (List.init k (fun i ->
           let tr = Petri.Net.mk_transition ~peer:(peer i) in
           let last = len.(i) - 1 in
           List.init last (fun j ->
               tr ~alarm:(sym i j) ~pre:[ c i j ] ~post:[ c i (j + 1) ]
                 (Printf.sprintf "t%d_%d" i j))
           @ [ tr ~alarm:(sym i 0) ~pre:[ c i 0 ] ~post:[ Printf.sprintf "x%d" i ]
                 (Printf.sprintf "trap%d" i);
               tr ~alarm:(sym i last)
                 ~pre:[ c i last; Printf.sprintf "s%d" i ]
                 ~post:[ c i 0; Printf.sprintf "s%d" ((i + 1) mod k) ]
                 (Printf.sprintf "t%d_%d" i last) ]))
  in
  Petri.Net.make ~places ~transitions
    ~marking:("s0" :: List.init k (fun i -> c i 0))

(* A run that never fires a trap, until [n] alarms have been emitted
   and the prefix is settled; the seed picks which enabled transition
   fires next, i.e. the interleaving of the peers. A prefix is settled
   when no peer's last alarm is the first step of its cycle: only then is
   the trap ruled out for every peer, so the diagnosis has one
   explanation. Returns the alarms and the settled prefix lengths. *)
let trap_free_run rng net n =
  let is_trap tid = String.starts_with ~prefix:"trap" tid in
  let first_step tid = String.ends_with ~suffix:"_0" tid in
  let last = Hashtbl.create 4 in
  let out = ref [] and settled = ref [] and now_settled = ref false in
  let m = ref (Petri.Exec.initial net) and k = ref 0 in
  while !k < n || not !now_settled do
    let choices = List.filter (fun t -> not (is_trap t)) (Petri.Exec.enabled net !m) in
    let tid = List.nth choices (Random.State.int rng (List.length choices)) in
    m := Petri.Exec.fire net !m tid;
    let tr = Petri.Net.transition net tid in
    out := (tr.Petri.Net.t_alarm, tr.Petri.Net.t_peer) :: !out;
    Hashtbl.replace last tr.Petri.Net.t_peer tid;
    incr k;
    now_settled := Hashtbl.fold (fun _ t ok -> ok && not (first_step t)) last true;
    if !now_settled then settled := !k :: !settled
  done;
  (Array.of_list (List.rev !out), List.rev !settled)

(* the first settled prefix at or after [k] *)
let settle settled k = List.find (fun s -> s >= k) settled

(* Streams alternate between two 2-peer members of the family. A 3-peer
   member explores ~8x more states per alarm and saturates near 3.5k
   alarms/s, so it stays out: the offered rate must sit below saturation
   for the alarm latency to measure service rather than a growing queue.
   Reports, checkpoints and the restore are timed on their own: the
   schedule pauses while they run. *)
let stream_long seed =
  let r = rng seed 2 in
  let a = { t_name = "cycle33"; t_net = cycle_net [| 3; 3 |] }
  and b = { t_name = "cycle43"; t_net = cycle_net [| 4; 3 |] } in
  let long i =
    let t = if i mod 2 = 0 then a else b in
    (* a report about every 1000 alarms, a checkpoint about every 2500,
       each where the diagnosis is settled, so report and checkpoint sizes
       follow the prefix alone *)
    let alarms, settled = trap_free_run r t.t_net 5_000 in
    let at k = settle settled k in
    {
      st_tenant = t.t_name;
      st_alarms = alarms;
      st_reports = List.map at [ 1_000; 2_000; 3_000; 4_000; 5_000 ];
      st_checkpoints = List.map at [ 2_500; 5_000 ];
      st_restore_at = at 2_500;
    }
  in
  {
    name = "stream_long";
    tenants = [ a; b ];
    pass_s = 16.;
    kind = Stream { streams = Array.init 8 long; rate = 3000.; burst = 64 };
  }

let all = [ ("batch_small", batch_small); ("batch_deep", batch_deep); ("stream_long", stream_long) ]

let make name seed =
  match List.assoc_opt name all with
  | Some f -> f seed
  | None -> invalid_arg ("unknown workload " ^ name)

let net_file (t : tenant) = t.t_name ^ ".net"

let net_text (t : tenant) = Petri.Parse.print { Petri.Parse.net = t.t_net; alarms = None }

(* The request script in its canonical text form (session ids symbolic):
   what [digest] hashes. *)
let script w =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  List.iter
    (fun t ->
      line "tenant %s %s" t.t_name (net_file t);
      Buffer.add_string b (net_text t))
    w.tenants;
  (match w.kind with
  | Batch sessions ->
    Array.iter
      (fun s ->
        line "open %s" s.s_tenant;
        List.iter (fun (a, p) -> line "alarm $ %s %s" a p) s.s_alarms;
        line "run $";
        line "report $";
        line "close $")
      sessions
  | Stream { streams; rate; burst } ->
    line "rate %g burst %d" rate burst;
    Array.iter
      (fun st ->
        let ints l = String.concat "," (List.map string_of_int l) in
        line "stream %s reports %s checkpoints %s restore %d" st.st_tenant (ints st.st_reports)
          (ints st.st_checkpoints) st.st_restore_at;
        Array.iter (fun (a, p) -> line "alarm $ %s %s" a p) st.st_alarms)
      streams);
  Buffer.contents b

let digest w = Digest.to_hex (Digest.string (script w))
