(** Per-peer runtime shared by the distributed engines: a fact store over
    mangled located relations, a growing set of installed rules (planned
    once, at install), and a subscriber table. Each peer is a little
    deductive database of its own. *)

open Datalog

type t = {
  peer : string;
  store : Fact_store.t;
  mutable program : Eval.compiled;
  installed : (string, unit) Hashtbl.t;
  subscribers : (Symbol.t, string list ref) Hashtbl.t;
  mutable eval_options : Eval.options;
  mutable derivations : int;
  mutable clipped : int;  (** facts dropped by the depth gadget *)
}

val create : ?eval_options:Eval.options -> string -> t

val reset : t -> unit
(** Forget rules, facts and subscribers, keeping tables allocated (via
    {!Datalog.Fact_store.reset}) — the per-session reset for warm engines.
    [eval_options] are preserved. *)

val install : t -> Rule.t -> bool
(** Install a rule; [true] iff new (idempotent otherwise). *)

val subscribe : t -> Symbol.t -> dst:string -> Atom.t list
(** Record the subscriber and return the current extent to ship at once. *)

val subscribers_of : t -> Symbol.t -> string list
val add_fact : t -> Atom.t -> bool

val evaluate : ?delta:Atom.t list -> t -> (Atom.t * string list) list
(** Local semi-naive evaluation; returns the newly derived facts with the
    peers subscribed to their relations. [delta] restricts the initial
    delta to freshly arrived facts (rule installs need a full pass). *)

val facts_count : t -> int
val store : t -> Fact_store.t
