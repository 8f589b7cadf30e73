(** The Query-Sub-Query rewriting (Fig. 4 of the paper).

    Given a program and a query, QSQ rewrites the program "based on the
    propagation of bindings": for each adorned version of a rule it creates
    supplementary relations [sup_{i,j}] accumulating the bindings of the
    variables relevant at each body position, and input relations [in-R^ad]
    accumulating the subqueries asked of each adorned relation. Evaluating
    the rewritten program bottom-up (we use the semi-naive engine) computes
    exactly the query's answers while materializing only binding-reachable
    facts — the property the diagnosis application exploits.

    We generalize the textbook rewriting to function terms in heads and
    bodies: the input relation for [R^ad] carries the head's bound *argument
    terms*, so that a subquery is connected to a rule by unification (this is
    what lets the supervisor's demand [trans(x, g(u,c), g(v,c'))] select the
    event-creation rules of Section 4.1). *)

module Var_set = Adornment.Var_set

exception Negation_unsupported of Rule.t

type t = {
  program : Program.t;  (** the rewritten rules *)
  seed : Atom.t;  (** the initial input fact [in-Q^ad(constants)] *)
  query : Atom.t;  (** the original query *)
  query_rel : Symbol.t;
  query_ad : Adornment.t;
  answer_pattern : Atom.t;  (** [Q^ad(query args)], to read answers back *)
}

let var_atom sym vars = Atom.cmake sym (List.map (fun x -> Term.var x) vars)

(* Variables of a list of terms, in order of first occurrence. Runs inside
   the rewriting loop for every rule/adornment pair, so membership is a set
   test and the order list is reverse-accumulated, not appended to. *)
let terms_vars terms =
  let seen = ref Var_set.empty in
  let add acc x =
    if Var_set.mem x !seen then acc
    else begin
      seen := Var_set.add x !seen;
      x :: acc
    end
  in
  List.rev (List.fold_left (Term.vars_fold add) [] terms)

let rewrite (program : Program.t) (query : Atom.t) : t =
  let idb = Program.idb_relations program in
  let is_idb rel = List.mem rel idb in
  let q_ad = Adornment.of_query query in
  let out : Rule.t list ref = ref [] in
  let emit r = out := r :: !out in
  let seen : (Symbol.t * string, unit) Hashtbl.t = Hashtbl.create 32 in
  let queue = Queue.create () in
  let demand rel ad =
    let key = (rel, Adornment.to_string ad) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      Queue.add (rel, ad) queue
    end
  in
  demand query.Atom.rel q_ad;
  while not (Queue.is_empty queue) do
    let rel, ad = Queue.pop queue in
    (* Bridge rule: facts of an IDB relation stored extensionally (rather
       than as body-less program rules) are answers to any subquery that
       matches them. *)
    let xs = List.init (Array.length ad) (fun k -> Printf.sprintf "X%d" k) in
    let plain = var_atom rel xs in
    let in_bridge =
      Atom.cmake (Adornment.input_sym rel ad)
        (Adornment.bound_args ad (List.map (fun x -> Term.var x) xs))
    in
    emit
      (Rule.make
         (var_atom (Adornment.adorned_sym rel ad) xs)
         [ Rule.Pos in_bridge; Rule.Pos plain ]);
    let rules = Program.rules_for program rel in
    List.iteri
      (fun i r0 ->
        let r = Rule.freshen r0 in
        let head = r.Rule.head in
        let head_vars = Atom.vars head in
        let bound_head_terms = Adornment.bound_args ad head.Atom.args in
        let bound0 = Var_set.of_list (terms_vars bound_head_terms) in
        (* Variables needed by the literals at positions >= j, or by the head. *)
        let needed_from j =
          let later = List.filteri (fun k _ -> k >= j) r.Rule.body in
          Var_set.of_list (head_vars @ List.concat_map Rule.literal_vars later)
        in
        let attrs bound j =
          let need = needed_from j in
          List.filter (fun x -> Var_set.mem x need) (Var_set.elements bound)
        in
        let in_atom = Atom.cmake (Adornment.input_sym rel ad) bound_head_terms in
        let sup_atom ~pos vars = var_atom (Adornment.sup_sym rel ad ~rule_index:i ~pos) vars in
        let sup0 = sup_atom ~pos:0 (attrs bound0 0) in
        emit (Rule.make sup0 [ Rule.Pos in_atom ]);
        (* Walk the body left to right. [pending] holds disequalities whose
           variables are not yet all bound. *)
        let rec walk j pos_count bound prev_sup pending lits =
          match lits with
          | [] ->
            let answer = Atom.cmake (Adornment.adorned_sym rel ad) head.Atom.args in
            let extra = List.map (fun (x, y) -> Rule.Neq (x, y)) pending in
            emit (Rule.make answer (Rule.Pos prev_sup :: extra))
          | Rule.Neg _ :: _ ->
            (* "Extensions of Magic Sets for Datalog with negation were
               studied, e.g. in [29, 15]" — out of scope here (Remark 4);
               use the bottom-up Eval.stratified / Eval.alternating. *)
            raise (Negation_unsupported r0)
          | Rule.Neq (x, y) :: rest ->
            (* Disequalities are folded into the next rule whose bindings
               ground them (or into the final answer rule). *)
            walk j pos_count bound prev_sup (pending @ [ (x, y) ]) rest
          | Rule.Pos a :: rest ->
            let pre_ground, pending =
              List.partition
                (fun (x, y) ->
                  List.for_all (fun v -> Var_set.mem v bound) (Term.vars x @ Term.vars y))
                pending
            in
            let pre_neqs = List.map (fun (x, y) -> Rule.Neq (x, y)) pre_ground in
            let a_ad = Adornment.of_atom bound a in
            let body_atom =
              if is_idb a.Atom.rel then begin
                (* Demand: in-S^ad(bound args) :- sup_{i,j-1}, <ground neqs>. *)
                let in_s =
                  Atom.cmake
                    (Adornment.input_sym a.Atom.rel a_ad)
                    (Adornment.bound_args a_ad a.Atom.args)
                in
                emit (Rule.make in_s (Rule.Pos prev_sup :: pre_neqs));
                demand a.Atom.rel a_ad;
                Atom.cmake (Adornment.adorned_sym a.Atom.rel a_ad) a.Atom.args
              end
              else a
            in
            let bound' = Var_set.union bound (Var_set.of_list (Atom.vars a)) in
            let post_ground, pending =
              List.partition
                (fun (x, y) ->
                  List.for_all (fun v -> Var_set.mem v bound') (Term.vars x @ Term.vars y))
                pending
            in
            let post_neqs = List.map (fun (x, y) -> Rule.Neq (x, y)) post_ground in
            let sup_j = sup_atom ~pos:(pos_count + 1) (attrs bound' (j + 1)) in
            emit
              (Rule.make sup_j
                 ((Rule.Pos prev_sup :: pre_neqs) @ (Rule.Pos body_atom :: post_neqs)));
            walk (j + 1) (pos_count + 1) bound' sup_j pending rest
        in
        walk 0 0 bound0 sup0 [] r.Rule.body)
      rules
  done;
  let seed =
    Atom.cmake (Adornment.input_sym query.Atom.rel q_ad)
      (Adornment.bound_args q_ad query.Atom.args)
  in
  let answer_pattern =
    Atom.cmake (Adornment.adorned_sym query.Atom.rel q_ad) query.Atom.args
  in
  {
    program = Program.make (List.rev !out);
    seed;
    query;
    query_rel = query.Atom.rel;
    query_ad = q_ad;
    answer_pattern;
  }

(** Materialization report: how many facts of each kind the evaluation of a
    rewritten program produced. [answers_by_base] strips adornments and
    deduplicates, so it counts *distinct original facts* materialized —
    the quantity Theorem 4 is about. *)
type materialization = {
  total : int;
  answer_facts : int;
  input_facts : int;
  sup_facts : int;
  answers_by_base : (string * int) list;
}

let materialization (store : Fact_store.t) : materialization =
  let answers = ref 0 and inputs = ref 0 and sups = ref 0 in
  let by_base : (string, (Term.t list, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun rel ->
      let n = Fact_store.count_rel store rel in
      match Adornment.classify rel with
      | `Answer (base, _) ->
        answers := !answers + n;
        let tbl =
          match Hashtbl.find_opt by_base base with
          | Some t -> t
          | None ->
            let t = Hashtbl.create 64 in
            Hashtbl.add by_base base t;
            t
        in
        List.iter (fun args -> Hashtbl.replace tbl args ()) (Fact_store.tuples_of store rel)
      | `Input _ -> inputs := !inputs + n
      | `Sup _ -> sups := !sups + n
      | `Plain -> ())
    (Fact_store.relations store);
  let answers_by_base =
    Hashtbl.fold (fun base tbl acc -> (base, Hashtbl.length tbl) :: acc) by_base []
    |> List.sort compare
  in
  {
    total = Fact_store.count store;
    answer_facts = !answers;
    input_facts = !inputs;
    sup_facts = !sups;
    answers_by_base;
  }

(** Distinct base-relation tuples materialized for [base], as term lists. *)
let materialized_tuples (store : Fact_store.t) (base : string) : Term.t list list =
  let tbl : (Term.t list, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun rel ->
      match Adornment.classify rel with
      | `Answer (b, _) when String.equal b base ->
        List.iter (fun args -> Hashtbl.replace tbl args ()) (Fact_store.tuples_of store rel)
      | `Answer _ | `Input _ | `Sup _ | `Plain -> ())
    (Fact_store.relations store);
  Hashtbl.fold (fun args () acc -> args :: acc) tbl []

(* Shared with the distributed engine ({!Runtime} increments the same
   names): totals across every QSQ-rewritten evaluation in the process. *)
let queries_c = Obs.Metrics.counter "qsq.queries"
let facts_derived_c = Obs.Metrics.counter "qsq.facts_derived"
let rules_fired_c = Obs.Metrics.counter "qsq.rules_fired"
let rounds_c = Obs.Metrics.counter "qsq.fixpoint_rounds"

(** Evaluate a query with QSQ: rewrite, seed, run semi-naive to fixpoint on
    the rewritten program against [edb], and read the answers back as
    instantiations of the original query atom. *)
let solve ?(options = Eval.default_options) (program : Program.t) (query : Atom.t)
    (edb : Fact_store.t) : Fact_store.t * Eval.result * Atom.t list =
  Obs.Trace.with_span "qsq.solve" ~attrs:[ ("query", Atom.to_string query) ] @@ fun () ->
  let rw = Obs.Trace.with_span "qsq.rewrite" (fun () -> rewrite program query) in
  let store = Fact_store.copy edb in
  ignore (Fact_store.add store rw.seed);
  let result = Eval.seminaive ~options rw.program store in
  Obs.Metrics.incr queries_c;
  Obs.Metrics.incr ~by:result.Eval.stats.Eval.new_facts facts_derived_c;
  Obs.Metrics.incr ~by:result.Eval.stats.Eval.derivations rules_fired_c;
  Obs.Metrics.incr ~by:result.Eval.stats.Eval.rounds rounds_c;
  let answers =
    List.map
      (fun s -> Atom.apply s rw.query)
      (Fact_store.matches store rw.answer_pattern)
  in
  (store, result, answers)
