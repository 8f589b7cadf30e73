(** Per-peer runtime shared by the distributed engines.

    Each peer owns a fact store over mangled located relations, a growing
    set of installed (rewritten or original) rules, compiled into join
    plans as they arrive, and a subscriber table.
    Local evaluation reuses the centralized semi-naive engine: a peer is a
    little deductive database of its own, exactly the paper's picture of
    autonomous peers holding rules and data. *)

open Datalog

type t = {
  peer : string;
  store : Fact_store.t;
  mutable program : Eval.compiled;  (** installed rules, planned at install *)
  installed : (string, unit) Hashtbl.t;  (** dedup of installed rules *)
  subscribers : (Symbol.t, string list ref) Hashtbl.t;
  mutable eval_options : Eval.options;
  mutable derivations : int;  (** cumulative local rule firings *)
  mutable clipped : int;  (** facts discarded by the depth bound *)
}

let create ?(eval_options = Eval.default_options) peer =
  {
    peer;
    store = Fact_store.create ();
    program = Eval.empty ();
    installed = Hashtbl.create 64;
    subscribers = Hashtbl.create 16;
    eval_options;
    derivations = 0;
    clipped = 0;
  }

(** Forget rules, facts and subscribers but keep every table allocated
    (the store clears-and-reuses its indexes): the cheap per-session reset
    behind warm-engine recycling. [eval_options] survive — they belong to
    the engine, not the session. *)
let reset t =
  Fact_store.reset t.store;
  t.program <- Eval.empty ();
  Hashtbl.clear t.installed;
  Hashtbl.clear t.subscribers;
  t.derivations <- 0;
  t.clipped <- 0

(** Install a rule; returns [true] if it was new. *)
let install t (r : Rule.t) : bool =
  let key = Rule.to_string r in
  if Hashtbl.mem t.installed key then false
  else begin
    Hashtbl.add t.installed key ();
    Eval.add_rule t.program r;
    true
  end

(** Record that [dst] wants the tuples of [rel]; returns the tuples to ship
    immediately (the current extent). *)
let subscribe t (rel : Symbol.t) ~dst : Atom.t list =
  let subs =
    match Hashtbl.find_opt t.subscribers rel with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.add t.subscribers rel l;
      l
  in
  if List.mem dst !subs then []
  else begin
    subs := dst :: !subs;
    Fact_store.facts_of t.store rel
  end

let subscribers_of t rel =
  match Hashtbl.find_opt t.subscribers rel with Some l -> !l | None -> []

(** Add a fact received from the network (or seeded); [true] if new. *)
let add_fact t (a : Atom.t) : bool = Fact_store.add t.store a

(* The same registry names the centralized {!Qsq.solve} increments: the
   distributed engine's local fixpoints count toward the one qsq.* total. *)
let facts_derived_c = Obs.Metrics.counter "qsq.facts_derived"
let rules_fired_c = Obs.Metrics.counter "qsq.rules_fired"
let rounds_c = Obs.Metrics.counter "qsq.fixpoint_rounds"

(** Run local semi-naive evaluation. [delta], when given, restricts the
    initial delta to the given freshly arrived facts. Returns the newly
    derived facts paired with the peers subscribed to their relations at
    derivation time. *)
let evaluate ?delta t : (Atom.t * string list) list =
  let out = ref [] in
  let on_new a = out := (a, subscribers_of t a.Atom.rel) :: !out in
  let result =
    Eval.seminaive_compiled ~options:t.eval_options ?init_delta:delta ~on_new t.program
      t.store
  in
  t.derivations <- t.derivations + result.Eval.stats.Eval.derivations;
  t.clipped <- t.clipped + result.Eval.stats.Eval.clipped;
  Obs.Metrics.incr ~by:result.Eval.stats.Eval.new_facts facts_derived_c;
  Obs.Metrics.incr ~by:result.Eval.stats.Eval.derivations rules_fired_c;
  Obs.Metrics.incr ~by:result.Eval.stats.Eval.rounds rounds_c;
  List.rev !out

let facts_count t = Fact_store.count t.store
let store t = t.store
