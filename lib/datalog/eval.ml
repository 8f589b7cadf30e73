(** Bottom-up evaluation: naive and semi-naive fixpoints.

    Because the paper's programs contain function symbols, the least model
    may be infinite and bottom-up evaluation may diverge (Section 3). The
    engine therefore supports two safety valves, both reported in the result
    status:
    - [max_depth]: derived facts containing a term deeper than the bound are
      discarded ("bounding the depth of the unfolding", Section 4.4);
    - [max_facts] / [max_rounds]: hard budgets. *)

type status =
  | Fixpoint  (** a genuine least fixpoint was reached *)
  | Depth_clipped  (** fixpoint of the depth-bounded program *)
  | Budget_exhausted  (** stopped by [max_facts] or [max_rounds] *)

type stats = {
  mutable derivations : int;  (** successful rule firings, incl. duplicates *)
  mutable new_facts : int;  (** facts actually added *)
  mutable clipped : int;  (** facts discarded by the depth bound *)
  mutable rounds : int;
}

type result = { status : status; stats : stats }

let fresh_stats () = { derivations = 0; new_facts = 0; clipped = 0; rounds = 0 }

type options = {
  max_depth : int option;
  max_facts : int option;
  max_rounds : int option;
}

let default_options = { max_depth = None; max_facts = None; max_rounds = None }

let atom_depth (a : Atom.t) =
  List.fold_left (fun acc t -> max acc (Term.depth t)) 0 a.Atom.args

(** A join plan: the body literals of one rule in the fixed order they are
    matched and checked. Matching binds every variable of an atom to a
    ground term, so which arguments are ground before each step depends
    only on the rule and on which positive atom is driven from the delta:
    the order is planned once, when the rule is compiled, and never
    re-derived per firing. *)
type step =
  | Scan of Atom.t * int list
      (** match against the store, probing the index over the (ascending)
          argument positions ground on entry *)
  | Delta of Atom.t  (** match against the semi-naive delta tuples *)
  | Neq of Term.t * Term.t
  | Absent of Atom.t  (** negation as failure: the store as it stands *)

type plan = { rule : Rule.t; steps : step list }

(** [plan r ~delta] orders [r]'s body for a firing whose [delta]-th
    positive atom, if any, is matched against the semi-naive delta: as the
    most selective literal it drives the join and goes first. The other
    positive atoms follow most-bound-first: the atom with the most
    arguments ground so far comes next; on ties the earlier leader stays,
    and a leader displaced by a better atom is re-inserted behind the atoms
    it was compared with. This maximizes the chance of an indexed probe
    over a full relation scan. Each disequality is checked at the first
    step where both sides are ground: it reads no store, so checking it
    early only prunes. Bodies containing negation keep the
    static literal order (delta first): [not] reads the store, which the
    surrounding fixpoint mutates between derivations, so its check time is
    part of the (alternating/stratified) semantics and must not float.
    There each constraint is checked at its own position if it is ground
    there, and otherwise once per derivation, after the last atom. A
    constraint never ground (a rule that is not range restricted) fails
    every derivation. *)
let plan (r : Rule.t) ~delta =
  let bound = ref [] and steps = ref [] in
  let ground t = Term.vars_fold (fun acc x -> acc && List.mem x !bound) true t in
  (* atoms can always be matched, constraints once their terms are ground *)
  let ready = function
    | Scan _ | Delta _ -> true
    | Neq (x, y) -> ground x && ground y
    | Absent a -> List.for_all ground a.Atom.args
  in
  (* a [Scan] gets its mask when emitted, from the variables bound so far *)
  let emit step =
    let step =
      match step with
      | Scan (a, _) ->
        Scan (a, List.concat (List.mapi (fun i t -> if ground t then [ i ] else []) a.Atom.args))
      | Delta _ | Neq _ | Absent _ -> step
    in
    steps := step :: !steps;
    match step with
    | Scan (a, _) | Delta a -> bound := Atom.vars a @ !bound
    | Neq _ | Absent _ -> ()
  in
  let j = ref (-1) in
  let lits =
    List.map
      (function
        | Rule.Pos a ->
          incr j;
          if delta = Some !j then Delta a else Scan (a, [])
        | Rule.Neq (x, y) -> Neq (x, y)
        | Rule.Neg a -> Absent a)
      r.Rule.body
  in
  let first, lits = List.partition (function Delta _ -> true | _ -> false) lits in
  if Rule.has_negation r then begin
    let deferred = ref [] in
    List.iter (fun l -> if ready l then emit l else deferred := l :: !deferred) (first @ lits);
    List.iter emit (List.rev !deferred)
  end
  else begin
    let atoms, pending = List.partition (function Scan _ -> true | _ -> false) lits in
    let pending = ref pending in
    let flush () =
      let now, later = List.partition ready !pending in
      List.iter emit now;
      pending := later
    in
    let score = function Scan (a, _) -> List.length (List.filter ground a.Atom.args) | _ -> 0 in
    (* the leader wins ties; a displaced leader goes behind the atoms it
       was compared with *)
    let rec pick_most_bound best best_score seen = function
      | [] -> (best, List.rev seen)
      | a :: rest ->
        let sc = score a in
        if sc > best_score then pick_most_bound a sc (best :: seen) rest
        else pick_most_bound best best_score (a :: seen) rest
    in
    let rec join = function
      | [] -> List.iter emit !pending (* never ground: they fail when run *)
      | a :: rest ->
        let next, rest = pick_most_bound a (score a) [] rest in
        emit next;
        flush ();
        join rest
    in
    flush ();
    List.iter (fun d -> emit d; flush ()) first;
    join atoms
  end;
  { rule = r; steps = List.rev !steps }

(** The one executor: call [f s] for every substitution [s] satisfying the
    plan's steps in order, [Delta] steps matching [tuples]. *)
let rec exec store tuples steps s f =
  match steps with
  | [] -> f s
  | Scan (a, mask) :: rest ->
    Fact_store.iter_matches store a ~mask s (fun s -> exec store tuples rest s f)
  | Delta a :: rest -> Fact_store.iter_matches_in a tuples s (fun s -> exec store tuples rest s f)
  | Neq (x, y) :: rest ->
    let x = Subst.apply s x and y = Subst.apply s y in
    if Term.is_ground x && Term.is_ground y && not (Term.equal x y) then
      exec store tuples rest s f
  | Absent a :: rest ->
    let a = Atom.apply s a in
    if Atom.is_ground a && not (Fact_store.mem store a) then exec store tuples rest s f

exception Stop of status

(* Cumulative engine instrumentation (lib/obs): [stats] stays the per-call
   result, the registry carries the process-wide totals. *)
let rules_fired_c = Obs.Metrics.counter "eval.rules_fired"
let facts_derived_c = Obs.Metrics.counter "eval.facts_derived"
let clipped_c = Obs.Metrics.counter "eval.clipped"
let rounds_c = Obs.Metrics.counter "eval.rounds"
let delta_size_h = Obs.Metrics.histogram "eval.delta_size"

(** Run one plan against the store, adding derived heads. *)
let fire store opts stats { rule = r; steps } ?(tuples = []) add_new =
  exec store tuples steps Subst.empty (fun s ->
      stats.derivations <- stats.derivations + 1;
      Obs.Metrics.incr rules_fired_c;
      let head = Atom.apply s r.Rule.head in
      if not (Atom.is_ground head) then
        invalid_arg
          (Printf.sprintf "Eval: rule %s derived non-ground fact %s"
             (Rule.to_string r) (Atom.to_string head));
      let clipped =
        match opts.max_depth with Some d -> atom_depth head > d | None -> false
      in
      if clipped then begin
        stats.clipped <- stats.clipped + 1;
        Obs.Metrics.incr clipped_c
      end
      else if Fact_store.add store head then begin
        stats.new_facts <- stats.new_facts + 1;
        Obs.Metrics.incr facts_derived_c;
        add_new head;
        match opts.max_facts with
        | Some m when Fact_store.count store >= m -> raise (Stop Budget_exhausted)
        | Some _ | None -> ()
      end)

let check_rounds opts stats =
  stats.rounds <- stats.rounds + 1;
  Obs.Metrics.incr rounds_c;
  match opts.max_rounds with
  | Some m when stats.rounds > m -> raise (Stop Budget_exhausted)
  | Some _ | None -> ()

let final_status opts stats =
  if stats.clipped > 0 && opts.max_depth <> None then Depth_clipped else Fixpoint

(** Naive evaluation: every round re-evaluates every rule against the full
    store, until no round adds a fact. *)
let naive ?(options = default_options) (program : Program.t) (store : Fact_store.t) : result =
  let facts, program = Program.partition_facts program in
  List.iter (fun a -> ignore (Fact_store.add store a)) facts;
  let plans = List.map (fun r -> plan r ~delta:None) (Program.rules program) in
  let stats = fresh_stats () in
  let rec loop () =
    check_rounds options stats;
    let before = Fact_store.count store in
    List.iter (fun p -> fire store options stats p (fun _ -> ())) plans;
    if Fact_store.count store > before then loop ()
  in
  match loop () with
  | () -> { status = final_status options stats; stats }
  | exception Stop st -> { status = st; stats }

(** A program compiled for semi-naive evaluation: its ground facts, and
    every rule planned once per positive body atom, for the firings driven
    by a delta on that atom's relation (once with no delta for a rule
    without positive atoms). It grows in place, one rule at a time; a
    fixpoint never re-plans. *)
type compiled = {
  mutable facts : Atom.t list;  (* newest first *)
  mutable bodyless : plan list;  (* newest first *)
  occurrences : (Symbol.t, plan list) Hashtbl.t;
      (* the plans driven by a delta on the key relation, newest first:
         a round only touches the rules whose delta is nonempty *)
}

let empty () = { facts = []; bodyless = []; occurrences = Hashtbl.create 64 }

let add_rule c (r : Rule.t) =
  if Rule.is_fact r && Atom.is_ground r.Rule.head then c.facts <- r.Rule.head :: c.facts
  else
    match Rule.body_atoms r with
    | [] ->
      (* Non-ground fact rules are rejected when fired. Rules whose body
         is only constraints cannot be range restricted unless
         variable-free. *)
      c.bodyless <- plan r ~delta:None :: c.bodyless
    | atoms ->
      List.iteri
        (fun j (atom : Atom.t) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt c.occurrences atom.Atom.rel) in
          Hashtbl.replace c.occurrences atom.Atom.rel (plan r ~delta:(Some j) :: prev))
        atoms

let compile program =
  let c = empty () in
  List.iter (add_rule c) (Program.rules program);
  c

(** Semi-naive evaluation: each round only considers rule instantiations in
    which at least one body atom matches a fact derived in the previous
    round. [init_delta], when given, replaces the default initial delta (the
    whole store) — used for incremental re-evaluation when new facts arrive
    from the network. [on_new] observes every fact added to the store. *)
let seminaive_compiled ?(options = default_options) ?init_delta
    ?(on_new = fun (_ : Atom.t) -> ()) (c : compiled) (store : Fact_store.t) : result =
  let stats = fresh_stats () in
  let delta : (Symbol.t, Term.t list list) Hashtbl.t = Hashtbl.create 64 in
  let delta_add (a : Atom.t) =
    let prev = Option.value ~default:[] (Hashtbl.find_opt delta a.Atom.rel) in
    Hashtbl.replace delta a.Atom.rel (a.Atom.args :: prev)
  in
  (match init_delta with
  | None ->
    (* Initial delta: all facts currently in the store plus program facts. *)
    List.iter
      (fun rel -> List.iter delta_add (Fact_store.facts_of store rel))
      (Fact_store.relations store)
  | Some atoms -> List.iter delta_add atoms);
  List.iter
    (fun a ->
      if Fact_store.add store a then begin
        delta_add a;
        on_new a
      end)
    (List.rev c.facts);
  let rec loop () =
    check_rounds options stats;
    Obs.Metrics.observe_int delta_size_h
      (Hashtbl.fold (fun _ tuples acc -> acc + List.length tuples) delta 0);
    let next : (Symbol.t, Term.t list list) Hashtbl.t = Hashtbl.create 64 in
    let next_add (a : Atom.t) =
      let prev = Option.value ~default:[] (Hashtbl.find_opt next a.Atom.rel) in
      Hashtbl.replace next a.Atom.rel (a.Atom.args :: prev)
    in
    let fired = ref false in
    let add_new a =
      fired := true;
      next_add a;
      on_new a
    in
    List.iter (fun p -> fire store options stats p add_new) c.bodyless;
    Hashtbl.iter
      (fun rel tuples ->
        List.iter
          (fun p -> fire store options stats p ~tuples add_new)
          (Option.value ~default:[] (Hashtbl.find_opt c.occurrences rel)))
      delta;
    if !fired then begin
      Hashtbl.reset delta;
      Hashtbl.iter (fun rel tuples -> Hashtbl.replace delta rel tuples) next;
      loop ()
    end
  in
  match loop () with
  | () -> { status = final_status options stats; stats }
  | exception Stop st -> { status = st; stats }

let seminaive ?options ?init_delta ?on_new program store =
  seminaive_compiled ?options ?init_delta ?on_new (compile program) store

(* ------------------------------------------------------------------ *)
(* Negation (Remark 4)                                                 *)
(* ------------------------------------------------------------------ *)

(** Classical stratification: split the program into strata such that every
    negated relation is fully defined in a strictly lower stratum (positive
    dependencies may stay within a stratum). [Error rel] names a relation on
    a negative cycle. *)
let stratify (program : Program.t) : (Program.t list, string) Stdlib.result =
  let rules = Program.rules program in
  let rels =
    List.sort_uniq Symbol.compare
      (List.concat_map
         (fun r ->
           (r.Rule.head.Atom.rel :: List.map (fun a -> a.Atom.rel) (Rule.body_atoms r))
           @ List.map (fun a -> a.Atom.rel) (Rule.negated_atoms r))
         rules)
  in
  let stratum : (Symbol.t, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace stratum r 0) rels;
  let get r = Option.value ~default:0 (Hashtbl.find_opt stratum r) in
  let n = List.length rels in
  let changed = ref true in
  let iterations = ref 0 in
  let overflow = ref None in
  while !changed && !overflow = None do
    changed := false;
    incr iterations;
    List.iter
      (fun r ->
        let h = r.Rule.head.Atom.rel in
        let bump v =
          if v > get h then begin
            Hashtbl.replace stratum h v;
            changed := true;
            if v > n then overflow := Some h
          end
        in
        List.iter (fun a -> bump (get a.Atom.rel)) (Rule.body_atoms r);
        List.iter (fun a -> bump (get a.Atom.rel + 1)) (Rule.negated_atoms r))
      rules
  done;
  match !overflow with
  | Some rel -> Error (Symbol.name rel)
  | None ->
    let max_stratum = List.fold_left (fun acc r -> max acc (get r)) 0 rels in
    Ok
      (List.init (max_stratum + 1) (fun i ->
           Program.make
             (List.filter (fun r -> get r.Rule.head.Atom.rel = i) rules)))

exception Not_stratifiable of string

(* Add [r]'s counts to [merged]; the worse of [status] and [r]'s wins. *)
let merge merged status (r : result) =
  merged.derivations <- merged.derivations + r.stats.derivations;
  merged.new_facts <- merged.new_facts + r.stats.new_facts;
  merged.clipped <- merged.clipped + r.stats.clipped;
  merged.rounds <- merged.rounds + r.stats.rounds;
  match status, r.status with
  | Budget_exhausted, _ | _, Budget_exhausted -> Budget_exhausted
  | Depth_clipped, _ | _, Depth_clipped -> Depth_clipped
  | Fixpoint, Fixpoint -> Fixpoint

(** Evaluate a stratified program bottom-up: semi-naive per stratum, lowest
    first, so every negated atom is tested against a complete relation.
    @raise Not_stratifiable on negative cycles. *)
let stratified ?(options = default_options) (program : Program.t) (store : Fact_store.t) :
    result =
  match stratify program with
  | Error rel -> raise (Not_stratifiable rel)
  | Ok strata ->
    let merged = fresh_stats () in
    let status =
      List.fold_left
        (fun acc stratum -> merge merged acc (seminaive ~options stratum store))
        Fixpoint strata
    in
    { status; stats = merged }

(** Alternating fixpoint for programs with a "stratified flavor" (Remark 4):
    not classically stratifiable, but {e monotone under derivation} — once a
    negated atom is false of the saturated current store, later derivations
    never make it true (in the unfolding program, new nodes never add
    causality or conflict between existing nodes). Each round saturates the
    negation-free rules, then fires the rules with negation against that
    saturated store; rounds repeat to fixpoint. Sound and complete exactly
    under the monotonicity precondition, which is the caller's obligation. *)
let alternating ?(options = default_options) (program : Program.t) (store : Fact_store.t) :
    result =
  let facts, program = Program.partition_facts program in
  List.iter (fun a -> ignore (Fact_store.add store a)) facts;
  let positive, negated =
    List.partition (fun r -> not (Rule.has_negation r)) (Program.rules program)
  in
  let positive = compile (Program.make positive) in
  let negated = List.map (fun r -> plan r ~delta:None) negated in
  let merged = fresh_stats () in
  let status = ref Fixpoint in
  let rec loop () =
    let before = Fact_store.count store in
    status := merge merged !status (seminaive_compiled ~options positive store);
    if !status <> Budget_exhausted then begin
      (* one pass of the negation rules against the saturated store *)
      List.iter
        (fun p ->
          match fire store options merged p (fun _ -> ()) with
          | () -> ()
          | exception Stop st -> status := st)
        negated;
      if Fact_store.count store > before && !status <> Budget_exhausted then loop ()
    end
  in
  loop ();
  let status = if !status = Fixpoint && merged.clipped > 0 then Depth_clipped else !status in
  { status; stats = merged }

(** Answers to a query atom: all ground instantiations of [query] present in
    the store. *)
let answers store (query : Atom.t) =
  List.map (fun s -> Atom.apply s query) (Fact_store.matches store query)

(** Convenience wrapper: evaluate [program] from scratch with the given
    strategy and return the store, the result, and the answers to [query]. *)
let run ?(options = default_options) ~strategy program query =
  let store = Fact_store.create () in
  let result =
    match strategy with
    | `Naive -> naive ~options program store
    | `Seminaive -> seminaive ~options program store
  in
  (store, result, answers store query)
