(** Deterministic simulator of an asynchronous peer-to-peer network.

    One FIFO queue per (source, destination) pair; a seeded scheduler picks
    which nonempty channel delivers next — per-channel FIFO with arbitrary
    cross-channel interleaving, exactly what the paper assumes of its
    communication layer. Same seed and policy: same run. *)

type peer_id = string

type policy =
  | Random_interleaving  (** pick a random nonempty channel (seeded) *)
  | Round_robin  (** cycle over channels in creation order *)
  | Global_fifo  (** deliver strictly in send order *)

type 'msg t

val create :
  ?seed:int ->
  ?policy:policy ->
  ?loss:float ->
  ?size_of:(src:peer_id -> dst:peer_id -> 'msg -> int) ->
  unit ->
  'msg t
(** [size_of] reports the on-the-wire size of a message in bytes and feeds
    all byte accounting; it receives the channel endpoints so a caller can
    thread per-channel codec state (e.g. a symbol table that makes the
    first occurrence of a symbol cost its name and later ones a small id).
    The default reports 0: without a codec there are no bytes, only
    message counts. [loss] in [0, 1) injects failures: each sent message
    is silently dropped with that probability (the paper assumes reliable
    channels — the injection shows the assumption is load-bearing).
    @raise Invalid_argument on a loss outside [0, 1). *)

val set_tracing : 'msg t -> bool -> unit

exception Unknown_peer of peer_id

val add_peer : 'msg t -> peer_id -> ('msg t -> src:peer_id -> 'msg -> unit) -> unit
(** Register a peer with its message handler. Handlers may send. *)

val has_peer : 'msg t -> peer_id -> bool
val peers : 'msg t -> peer_id list

val send : 'msg t -> src:peer_id -> dst:peer_id -> 'msg -> unit
(** Queue a message; delivery is always asynchronous, even to self.
    @raise Unknown_peer on an unregistered destination. *)

val is_quiescent : 'msg t -> bool

exception Budget_exhausted of int
(** The payload is the exhausted budget ([max_steps]) itself. *)

val run : ?max_steps:int -> 'msg t -> int
(** Deliver until quiescent; returns the number of deliveries.
    @raise Budget_exhausted when the network is still not quiescent after
    [max_steps] deliveries (so a budget of k performs at most k). *)

type channel_stats = { msgs : int; bytes : int }

type stats = {
  sent : int;
  delivered : int;
  dropped : int;  (** lost to failure injection *)
  bytes : int;  (** sum of [size_of] over sent messages — real codec bytes *)
  channels : ((peer_id * peer_id) * channel_stats) list;
      (** per-channel message and byte totals, sorted by endpoint pair *)
}

val stats : 'msg t -> stats
(** A thin view over the instance's metrics registry (see {!metrics}). *)

val metrics : 'msg t -> Obs.Metrics.registry
(** Per-instance accounting: counters [sim.sent], [sim.delivered],
    [sim.dropped], [sim.bytes]. Every update is also mirrored into the
    process-wide {!Obs.Metrics.default} registry under the same names;
    per-channel byte totals are additionally mirrored as
    [sim.channel_bytes.<src>-><dst>] counters, so [--stats=json] can
    report the byte matrix without holding the instance. *)

val delivery_trace : 'msg t -> (peer_id * peer_id * 'msg) list
(** The delivered messages themselves, in delivery order; empty unless
    tracing was enabled. *)
