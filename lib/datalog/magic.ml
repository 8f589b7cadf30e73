(** Plain magic-sets rewriting (Bancilhon–Maier–Sagiv–Ullman [7]).

    Included as the classical alternative to QSQ: instead of chaining
    supplementary relations, each magic rule re-joins the prefix of the body.
    Both techniques materialize the same answer facts; they differ in the
    auxiliary facts and in evaluation cost, which the strategy-sweep bench
    (E10) measures. *)

module Var_set = Adornment.Var_set

exception Negation_unsupported of Rule.t

type t = {
  program : Program.t;
  seed : Atom.t;
  query : Atom.t;
  answer_pattern : Atom.t;
}

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
    (* Bridge rule for extensionally stored facts of IDB relations (see the
       corresponding rule in {!Qsq.rewrite}). *)
    let xs = List.init (Array.length ad) (fun k -> Term.var (Printf.sprintf "X%d" k)) in
    emit
      (Rule.make
         (Atom.cmake (Adornment.adorned_sym rel ad) xs)
         [ Rule.Pos (Atom.cmake (Adornment.magic_sym rel ad) (Adornment.bound_args ad xs));
           Rule.Pos (Atom.cmake rel xs) ]);
    List.iter
      (fun r0 ->
        let r = Rule.freshen r0 in
        let head = r.Rule.head in
        let magic_head =
          Atom.cmake (Adornment.magic_sym rel ad) (Adornment.bound_args ad head.Atom.args)
        in
        (* Walk the body, accumulating the adorned prefix. *)
        let rec walk bound prefix_rev pending lits =
          match lits with
          | [] ->
            let answer = Atom.cmake (Adornment.adorned_sym rel ad) head.Atom.args in
            let extra = List.map (fun (x, y) -> Rule.Neq (x, y)) pending in
            emit
              (Rule.make answer ((Rule.Pos magic_head :: List.rev prefix_rev) @ extra))
          | Rule.Neg _ :: _ -> raise (Negation_unsupported r0)
          | Rule.Neq (x, y) :: rest -> walk bound prefix_rev (pending @ [ (x, y) ]) rest
          | Rule.Pos a :: rest ->
            let ground_now, pending =
              List.partition
                (fun (x, y) ->
                  List.for_all (fun v -> Var_set.mem v bound) (Term.vars x @ Term.vars y))
                pending
            in
            let neqs = List.map (fun (x, y) -> Rule.Neq (x, y)) ground_now in
            let a_ad = Adornment.of_atom bound a in
            let body_atom =
              if is_idb a.Atom.rel then begin
                let magic_a =
                  Atom.cmake (Adornment.magic_sym a.Atom.rel a_ad)
                    (Adornment.bound_args a_ad a.Atom.args)
                in
                emit
                  (Rule.make magic_a
                     ((Rule.Pos magic_head :: List.rev prefix_rev) @ neqs));
                demand a.Atom.rel a_ad;
                Atom.cmake (Adornment.adorned_sym a.Atom.rel a_ad) a.Atom.args
              end
              else a
            in
            let bound' = Var_set.union bound (Var_set.of_list (Atom.vars a)) in
            walk bound' ((Rule.Pos body_atom :: neqs) @ prefix_rev) pending rest
        in
        let bound0 =
          Var_set.of_list
            (List.concat_map Term.vars (Adornment.bound_args ad head.Atom.args))
        in
        walk bound0 [] [] r.Rule.body)
      (Program.rules_for program rel)
  done;
  let seed =
    Atom.cmake (Adornment.magic_sym query.Atom.rel q_ad)
      (Adornment.bound_args q_ad query.Atom.args)
  in
  let answer_pattern =
    Atom.cmake (Adornment.adorned_sym query.Atom.rel q_ad) query.Atom.args
  in
  { program = Program.make (List.rev !out); seed; query; answer_pattern }

let queries_c = Obs.Metrics.counter "magic.queries"
let facts_derived_c = Obs.Metrics.counter "magic.facts_derived"

let solve ?(options = Eval.default_options) (program : Program.t) (query : Atom.t)
    (edb : Fact_store.t) : Fact_store.t * Eval.result * Atom.t list =
  Obs.Trace.with_span "magic.solve" ~attrs:[ ("query", Atom.to_string query) ] @@ fun () ->
  let rw = rewrite program query in
  let store = Fact_store.copy edb in
  ignore (Fact_store.add store rw.seed);
  let result = Eval.seminaive ~options rw.program store in
  Obs.Metrics.incr queries_c;
  Obs.Metrics.incr ~by:result.Eval.stats.Eval.new_facts facts_derived_c;
  let answers =
    List.map
      (fun s -> Atom.apply s rw.query)
      (Fact_store.matches store rw.answer_pattern)
  in
  (store, result, answers)
