(** Deterministic simulator of an asynchronous peer-to-peer network.

    The paper's peers are "autonomous and distributed" and communicate
    asynchronously; the only ordering guarantee the diagnosis setting relies
    on is per-channel FIFO (a peer's alarms reach the supervisor in emission
    order, but streams from different peers interleave arbitrarily). The
    simulator models exactly that: one FIFO queue per (source, destination)
    pair, and a seeded scheduler that picks which nonempty channel delivers
    next. With the same seed and policy, runs are reproducible.

    Peers are registered with a message handler; a handler may send further
    messages (and do arbitrary local work). The network is quiescent when
    every channel is empty; [run] drives the simulation there and returns
    delivery statistics.

    Accounting lives in an {!Obs.Metrics} registry owned by the instance
    ([sim.sent], [sim.delivered], [sim.dropped], [sim.bytes]); the {!stats}
    record is a thin view over it. Every update is mirrored into the
    process-wide default registry under the same names, so CLI snapshots
    see network totals without holding the instance. *)

type peer_id = string

type policy =
  | Random_interleaving  (** pick a random nonempty channel (seeded) *)
  | Round_robin  (** cycle over channels in creation order *)
  | Global_fifo  (** deliver strictly in send order (a synchronous-ish run) *)

(* Process-wide mirrors, registered eagerly so snapshots always carry the
   sim.* keys even before any network is created. *)
let g_sent = Obs.Metrics.counter "sim.sent"
let g_delivered = Obs.Metrics.counter "sim.delivered"
let g_dropped = Obs.Metrics.counter "sim.dropped"
let g_bytes = Obs.Metrics.counter "sim.bytes"

(* Per-channel totals. The global mirror counter is cached here so the hot
   path pays one Hashtbl lookup per send, not one per-name registry probe. *)
type channel_book = {
  mutable pc_msgs : int;
  mutable pc_bytes : int;
  pc_global : Obs.Metrics.counter;  (* sim.channel_bytes.<src>-><dst> *)
}

type 'msg t = {
  rng : Random.State.t;
  loss_rng : Random.State.t;
  loss : float;  (* probability that a sent message is silently dropped *)
  policy : policy;
  size_of : src:peer_id -> dst:peer_id -> 'msg -> int;
      (** on-the-wire size in bytes, from the channel's codec; the default
          reports 0 (no codec, no bytes) *)
  handlers : (peer_id, 'msg t -> src:peer_id -> 'msg -> unit) Hashtbl.t;
  channels : (peer_id * peer_id, 'msg Queue.t) Hashtbl.t;
  (* channels in creation order, as a growable array: registering the N-th
     channel is O(1) amortized (the former list-append made it O(N)) *)
  mutable channel_order : (peer_id * peer_id) array;
  mutable channel_count : int;
  mutable rr_cursor : int;
  pending : (peer_id * peer_id) Queue.t;
      (** [Global_fifo] only: the channel of every queued message, in send
          order; the other policies never read it, so never fill it *)
  metrics : Obs.Metrics.registry;  (** per-instance accounting *)
  c_sent : Obs.Metrics.counter;
  c_delivered : Obs.Metrics.counter;
  c_dropped : Obs.Metrics.counter;
  c_bytes : Obs.Metrics.counter;
  per_channel : (peer_id * peer_id, channel_book) Hashtbl.t;
  mutable trace : (peer_id * peer_id * 'msg) list;  (** reverse delivery log *)
  mutable tracing : bool;
}

let create ?(seed = 0) ?(policy = Random_interleaving) ?(loss = 0.0)
    ?(size_of = fun ~src:_ ~dst:_ _ -> 0) () =
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Sim.create: loss must be in [0, 1)";
  let metrics = Obs.Metrics.create_registry () in
  {
    rng = Random.State.make [| seed |];
    loss_rng = Random.State.make [| seed + 7919 |];
    loss;
    policy;
    size_of;
    handlers = Hashtbl.create 16;
    channels = Hashtbl.create 16;
    channel_order = [||];
    channel_count = 0;
    rr_cursor = 0;
    pending = Queue.create ();
    metrics;
    c_sent = Obs.Metrics.counter ~registry:metrics "sim.sent";
    c_delivered = Obs.Metrics.counter ~registry:metrics "sim.delivered";
    c_dropped = Obs.Metrics.counter ~registry:metrics "sim.dropped";
    c_bytes = Obs.Metrics.counter ~registry:metrics "sim.bytes";
    per_channel = Hashtbl.create 16;
    trace = [];
    tracing = false;
  }

let metrics t = t.metrics

let set_tracing t b = t.tracing <- b

exception Unknown_peer of peer_id

let add_peer t id handler =
  if Hashtbl.mem t.handlers id then invalid_arg ("Sim.add_peer: duplicate " ^ id);
  Hashtbl.add t.handlers id handler

let has_peer t id = Hashtbl.mem t.handlers id
let peers t = Hashtbl.fold (fun id _ acc -> id :: acc) t.handlers []

let push_channel t key =
  let n = Array.length t.channel_order in
  if t.channel_count = n then begin
    let grown = Array.make (max 8 (2 * n)) key in
    Array.blit t.channel_order 0 grown 0 n;
    t.channel_order <- grown
  end;
  t.channel_order.(t.channel_count) <- key;
  t.channel_count <- t.channel_count + 1

let channel t key =
  match Hashtbl.find_opt t.channels key with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.add t.channels key q;
    push_channel t key;
    q

let tick local global = Obs.Metrics.incr local; Obs.Metrics.incr global
let tick_by n local global = Obs.Metrics.incr ~by:n local; Obs.Metrics.incr ~by:n global

let bump_per_channel t ((src, dst) as key) bytes =
  let book =
    match Hashtbl.find_opt t.per_channel key with
    | Some b -> b
    | None ->
      let b =
        { pc_msgs = 0; pc_bytes = 0;
          pc_global =
            Obs.Metrics.counter (Printf.sprintf "sim.channel_bytes.%s->%s" src dst) }
      in
      Hashtbl.add t.per_channel key b;
      b
  in
  book.pc_msgs <- book.pc_msgs + 1;
  book.pc_bytes <- book.pc_bytes + bytes;
  Obs.Metrics.incr ~by:bytes book.pc_global

(** Send a message; it is queued, not delivered synchronously — even a peer
    sending to itself goes through its own channel. *)
let send t ~src ~dst msg =
  if not (Hashtbl.mem t.handlers dst) then raise (Unknown_peer dst);
  if t.loss > 0.0 && Random.State.float t.loss_rng 1.0 < t.loss then begin
    (* failure injection: the channel silently loses the message *)
    tick t.c_dropped g_dropped;
    tick t.c_sent g_sent
  end
  else begin
    let key = (src, dst) in
    let sz = t.size_of ~src ~dst msg in
    Queue.add msg (channel t key);
    if t.policy = Global_fifo then Queue.add key t.pending;
    tick t.c_sent g_sent;
    tick_by sz t.c_bytes g_bytes;
    bump_per_channel t key sz
  end

let nonempty_channels t =
  let out = ref [] in
  for i = t.channel_count - 1 downto 0 do
    let key = t.channel_order.(i) in
    match Hashtbl.find_opt t.channels key with
    | Some q when not (Queue.is_empty q) -> out := key :: !out
    | Some _ | None -> ()
  done;
  !out

let is_quiescent t = nonempty_channels t = []

let pick_channel t =
  match t.policy with
  | Global_fifo ->
    (* skip stale entries whose channel head was already delivered *)
    let rec go () =
      if Queue.is_empty t.pending then None
      else
        let key = Queue.pop t.pending in
        match Hashtbl.find_opt t.channels key with
        | Some q when not (Queue.is_empty q) -> Some key
        | Some _ | None -> go ()
    in
    go ()
  | Random_interleaving -> (
    match nonempty_channels t with
    | [] -> None
    | chans -> Some (List.nth chans (Random.State.int t.rng (List.length chans))))
  | Round_robin -> (
    match nonempty_channels t with
    | [] -> None
    | chans ->
      let n = List.length chans in
      t.rr_cursor <- (t.rr_cursor + 1) mod n;
      Some (List.nth chans t.rr_cursor))

(** Deliver one message if any is pending; returns [false] at quiescence. *)
let step t =
  match pick_channel t with
  | None -> false
  | Some ((src, dst) as key) ->
    let q = channel t key in
    let msg = Queue.pop q in
    tick t.c_delivered g_delivered;
    if t.tracing then t.trace <- (src, dst, msg) :: t.trace;
    let handler = Hashtbl.find t.handlers dst in
    handler t ~src msg;
    true

exception Budget_exhausted of int

(** Run to quiescence. [max_steps] guards against protocols that never
    terminate: it bounds the deliveries, so a budget of k performs at most
    k of them. Returns the number of deliveries performed by this call. *)
let run ?(max_steps = 10_000_000) t =
  Obs.Trace.with_span "sim.run" @@ fun () ->
  let rec go n =
    if n >= max_steps then
      if is_quiescent t then n else raise (Budget_exhausted max_steps)
    else if step t then go (n + 1)
    else n
  in
  go 0

type channel_stats = { msgs : int; bytes : int }

type stats = {
  sent : int;
  delivered : int;
  dropped : int;  (** lost to failure injection *)
  bytes : int;
  channels : ((peer_id * peer_id) * channel_stats) list;
      (** per-channel messages and codec bytes *)
}

(* The record is read off the instance registry — the registry is the
   source of truth, [stats] only a view. *)
let stats (t : _ t) =
  {
    sent = Obs.Metrics.value t.c_sent;
    delivered = Obs.Metrics.value t.c_delivered;
    dropped = Obs.Metrics.value t.c_dropped;
    bytes = Obs.Metrics.value t.c_bytes;
    channels =
      List.sort compare
        (Hashtbl.fold
           (fun k b acc -> (k, { msgs = b.pc_msgs; bytes = b.pc_bytes }) :: acc)
           t.per_channel []);
  }

let delivery_trace t = List.rev t.trace
