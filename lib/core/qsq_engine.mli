(** dQSQ: the distributed Query-Sub-Query protocol (Sections 3.2 and 4.3).

    Each peer rewrites its own rules exactly as centralized QSQ would; on
    meeting a remote relation, it delegates the remainder of the rule to
    the owning peer (the paper's rule (†)), which installs the
    supplementary machinery, subscribes to the bindings left behind, and
    continues. Rewriting and evaluation messages share one asynchronous
    network, so results may flow before the rewriting completes (Remark 2).
    Generated relation names match the centralized {!Datalog.Qsq} rewriting
    up to peer suffixes, realizing the zeta surjection of Theorem 1. *)

open Datalog

type t

(** How the distributed fixpoint is detected: by the simulator's omniscient
    quiescence test, or by the peers themselves running Dijkstra-Scholten
    termination detection (the "standard termination detection algorithms"
    the paper points at) — the latter roughly doubles the message count
    with acknowledgements but needs no global observer. *)
type termination_mode =
  | God_view
  | Dijkstra_scholten

val create :
  ?seed:int ->
  ?policy:Network.Sim.policy ->
  ?loss:float ->
  ?eval_options:Eval.options ->
  ?termination:termination_mode ->
  Dprogram.t ->
  edb:Datom.t list ->
  query:Datom.t ->
  t
(** Byte accounting runs every message through the {!Wire} codec with one
    connection per directed channel (first occurrence of a symbol or term
    spine costs its definition, later ones a varint id). {e All} protocol
    messages a handler activation produces — delegations, subscriptions
    and answer facts alike — are flushed as one {!Message.Batch} envelope
    per destination when the activation ends; the receiver coalesces the
    whole delta into a single semi-naive pass (sound: monotone Datalog,
    confluent protocol). *)

type outcome = {
  answers : Atom.t list;
  deliveries : int;
  net_stats : Network.Sim.stats;
  delegations : int;  (** rule remainders shipped between peers *)
  subscriptions : int;
  fact_messages : int;
  total_facts : int;
  facts_per_peer : (string * int) list;
  clipped : int;  (** facts dropped by depth gadgets; 0 on true fixpoints *)
  ds_terminated : bool option;
      (** Dijkstra-Scholten mode: did the detector announce termination?
          [None] in god-view mode. *)
}

val run : ?max_steps:int -> t -> outcome
(** Seed the input relation of the query given to {!create} or {!recycle}
    at its peer, start the local rewriting, and run the network to
    quiescence. [net_stats] in the outcome is cumulative over the engine's
    lifetime, so per-session byte deltas of a recycled engine come from
    counter differences.
    @raise Network.Sim.Budget_exhausted after [max_steps] deliveries. *)

val solve :
  ?seed:int ->
  ?policy:Network.Sim.policy ->
  ?loss:float ->
  ?eval_options:Eval.options ->
  ?termination:termination_mode ->
  ?max_steps:int ->
  Dprogram.t ->
  edb:Datom.t list ->
  query:Datom.t ->
  outcome

(** {2 Warm-engine recycling}

    The service layer keeps warm engines per tenant: after a session's
    {!run}, it {!recycle}s the engine for the next scenario of the same
    tenant and {!run}s it again. *)

val recycle : t -> Dprogram.t -> edb:Datom.t list -> query:Datom.t -> unit
(** Point a quiescent warm engine at its next session: peer runtimes are
    reset in place (tables stay allocated, per-channel wire codec state
    survives, so later sessions' symbols ride the established
    dictionaries), then the new program's rules and EDB are installed.
    Every peer of the new scenario must already exist in the engine.
    @raise Invalid_argument on unknown peers, a non-quiescent network, or
    a Dijkstra-Scholten engine. *)

val peer_store : t -> string -> Fact_store.t

val set_tracing : t -> bool -> unit
(** Enable the underlying simulator's delivery trace (before {!run}). *)

val delivery_trace : t -> (string * string * Message.t Network.Termination.wrapped) list
(** [(src, dst, message)] per delivery, in delivery order; empty unless
    tracing was enabled. The determinism contract of {!Network.Sim}
    ("same seed and policy: same run") lifts to this trace, which is what
    the [seed-determinism] property of [lib/check] pins down (over
    {!Message.describe} strings: traced messages share Skolem DAGs, which
    polymorphic equality would unfold). The [codec-roundtrip] property
    replays it through the {!Wire} codec. *)

val metrics : t -> Obs.Metrics.registry
(** The underlying simulator's per-instance registry ([sim.sent],
    [sim.delivered], [sim.dropped], [sim.bytes]) — counters only, so its
    {!Obs.Snapshot} is byte-identical across same-seed runs (unlike the
    process-wide registry, whose histograms record wall-clock times). *)

val zeta_facts : t -> string list
(** Union of all peer stores with every ["@peer"] segment stripped from the
    relation names — the zeta mapping of Theorem 1, comparable to the
    centralized QSQ evaluation of the localized program. Sorted, distinct. *)
