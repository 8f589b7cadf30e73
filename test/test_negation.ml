(* Tests for the negation extension (Remark 4): parsing, stratification,
   stratified evaluation, the alternating fixpoint, and the negation-based
   unfolding encoding against the two positive ones. *)

open Datalog
open Diagnosis

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

let test_parse_not () =
  let p = Parser.parse_program "alone(X) :- person(X), not paired(X)." in
  match Program.rules p with
  | [ r ] ->
    Alcotest.(check int) "one negated atom" 1 (List.length (Rule.negated_atoms r));
    Alcotest.(check string) "roundtrip" "alone(X) :- person(X), not paired(X)."
      (Rule.to_string r);
    Alcotest.(check bool) "range restricted" true (Rule.is_range_restricted r)
  | _ -> Alcotest.fail "expected one rule"

let test_not_requires_positive_binding () =
  let p = Parser.parse_program "bad(X) :- not q(X)." in
  Alcotest.(check bool) "negated var must be positively bound" false
    (Result.is_ok (Program.check_range_restricted p))

let test_ddatalog_rejects_not () =
  match Dqsq.Dprogram.parse "P@r(X) :- Q@r(X), not S@r(X)." with
  | exception Dqsq.Dprogram.Parse_error _ -> ()
  | _ -> Alcotest.fail "dDatalog must stay positive"

let test_qsq_rejects_not () =
  let p = Parser.parse_program "p(X) :- q(X), not r(X)." in
  (match Qsq.rewrite p (Parser.parse_atom "p(Y)") with
  | exception Qsq.Negation_unsupported _ -> ()
  | _ -> Alcotest.fail "QSQ should reject negation");
  match Magic.rewrite p (Parser.parse_atom "p(Y)") with
  | exception Magic.Negation_unsupported _ -> ()
  | _ -> Alcotest.fail "magic should reject negation"

(* ------------------------------------------------------------------ *)
(* Stratification                                                     *)
(* ------------------------------------------------------------------ *)

let test_stratify_ok () =
  let p =
    Parser.parse_program
      {| reach(X) :- source(X).
         reach(Y) :- reach(X), edge(X, Y).
         unreach(X) :- node(X), not reach(X). |}
  in
  match Eval.stratify p with
  | Ok strata ->
    Alcotest.(check int) "two strata" 2 (List.length strata);
    let top = List.nth strata 1 in
    Alcotest.(check int) "unreach on top" 1 (Program.size top)
  | Error r -> Alcotest.fail ("unexpected negative cycle at " ^ r)

let test_stratify_cycle () =
  let p =
    Parser.parse_program {| win(X) :- move(X, Y), not win(Y). |}
  in
  match Eval.stratify p with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "win/move is not stratifiable"

let test_stratified_eval () =
  let p =
    Parser.parse_program
      {| node(a). node(b). node(c). node(d).
         edge(a, b). edge(b, c).
         source(a).
         reach(X) :- source(X).
         reach(Y) :- reach(X), edge(X, Y).
         unreach(X) :- node(X), not reach(X). |}
  in
  let store = Fact_store.create () in
  let res = Eval.stratified p store in
  Alcotest.(check bool) "fixpoint" true (res.Eval.status = Eval.Fixpoint);
  let answers = Eval.answers store (Atom.make "unreach" [ Term.var "X" ]) in
  Alcotest.(check (list string)) "unreachable nodes" [ "unreach(d)" ]
    (List.sort compare (List.map Atom.to_string answers))

let test_stratified_raises_on_cycle () =
  let p = Parser.parse_program "win(X) :- move(X, Y), not win(Y)." in
  match Eval.stratified p (Fact_store.create ()) with
  | exception Eval.Not_stratifiable _ -> ()
  | _ -> Alcotest.fail "expected Not_stratifiable"

let test_alternating_on_stratified_program () =
  (* on a genuinely stratified program the alternating fixpoint computes the
     same model as stratum-by-stratum evaluation *)
  let text =
    {| node(a). node(b). node(c).
       edge(a, b). source(a).
       reach(X) :- source(X).
       reach(Y) :- reach(X), edge(X, Y).
       unreach(X) :- node(X), not reach(X). |}
  in
  let s1 = Fact_store.create () and s2 = Fact_store.create () in
  ignore (Eval.stratified (Parser.parse_program text) s1);
  ignore (Eval.alternating (Parser.parse_program text) s2);
  Alcotest.(check (list string)) "same model"
    (Fact_store.to_sorted_strings s1) (Fact_store.to_sorted_strings s2)

let test_deferred_not_checked_per_derivation () =
  (* [not s(Y)] is not ground where it stands, so it is checked once per
     derivation, after [u(X)], against the store as it is then: the first
     derivation adds s(b), which blocks the second. Checking it as soon as
     [t(Y)] binds Y would pass it once for both u-facts and derive s(a). *)
  let p = Parser.parse_program "t(b). u(a). u(b). s(X) :- not s(Y), t(Y), u(X)." in
  let store = Fact_store.create () in
  ignore (Eval.naive p store);
  Alcotest.(check (list string)) "model" [ "s(b)"; "t(b)"; "u(a)"; "u(b)" ]
    (Fact_store.to_sorted_strings store)

(* qcheck: stratified vs alternating on random reachability instances *)
let prop_alternating_eq_stratified =
  QCheck.Test.make ~count:80 ~name:"alternating == stratified (random graphs)"
    (QCheck.make
       ~print:(fun l -> String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) l))
       QCheck.Gen.(list_size (1 -- 25) (pair (0 -- 8) (0 -- 8))))
    (fun edges ->
      let base =
        String.concat "\n"
          (List.map (fun (a, b) -> Printf.sprintf "edge(n%d, n%d)." a b) edges)
        ^ "\n"
        ^ String.concat "\n" (List.init 9 (fun i -> Printf.sprintf "node(n%d)." i))
        ^ {| source(n0).
             reach(X) :- source(X).
             reach(Y) :- reach(X), edge(X, Y).
             unreach(X) :- node(X), not reach(X). |}
      in
      let s1 = Fact_store.create () and s2 = Fact_store.create () in
      ignore (Eval.stratified (Parser.parse_program base) s1);
      ignore (Eval.alternating (Parser.parse_program base) s2);
      Fact_store.to_sorted_strings s1 = Fact_store.to_sorted_strings s2)

(* ------------------------------------------------------------------ *)
(* The negation-based unfolding encoding                               *)
(* ------------------------------------------------------------------ *)

let test_negation_encoding_not_stratifiable () =
  let net = Petri.Net.binarize (Petri.Examples.running_example ()) in
  let p = Encode_negation.unfolding_program net in
  match Eval.stratify p with
  | Error _ -> ()  (* trans -not-> conf -> trans: the "stratified flavor" *)
  | Ok _ -> Alcotest.fail "expected a negative cycle (Remark 4's situation)"

let check_same_nodes name net depth =
  let co_events, co_conds, _ =
    Diagnoser.full_unfolding_materialization ~encoding:Diagnoser.Co ~depth net
  in
  let neg_events, neg_conds, _ = Encode_negation.materialize ~depth net in
  Alcotest.(check bool)
    (Printf.sprintf "%s: same events (co %d vs neg %d)" name
       (Datalog.Term.Set.cardinal co_events)
       (Datalog.Term.Set.cardinal neg_events))
    true
    (Datalog.Term.Set.equal co_events neg_events);
  Alcotest.(check bool) (name ^ ": same conditions") true
    (Datalog.Term.Set.equal co_conds neg_conds);
  Alcotest.(check bool) (name ^ ": nonempty") true
    (not (Datalog.Term.Set.is_empty co_events))

let test_negation_encoding_running () =
  check_same_nodes "running" (Petri.Net.binarize (Petri.Examples.running_example ())) 10

let test_negation_encoding_toggles () =
  check_same_nodes "toggles"
    (Petri.Net.binarize (Petri.Examples.toggles ~width:2 ~peer:"p" ()))
    7

let rng seed = Random.State.make [| seed |]

let prop_negation_encoding_random =
  QCheck.Test.make ~count:10 ~name:"negation encoding == co encoding (random nets)"
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 10000))
    (fun seed ->
      let spec =
        {
          Petri.Generator.peers = 2;
          components_per_peer = 1;
          places_per_component = 3;
          local_transitions = 2;
          sync_transitions = 1;
          alarm_symbols = 2;
        }
      in
      let net = Petri.Net.binarize (Petri.Generator.generate ~rng:(rng seed) spec) in
      let depth = 6 in
      let co_events, co_conds, _ =
        Diagnoser.full_unfolding_materialization ~encoding:Diagnoser.Co ~depth net
      in
      let neg_events, neg_conds, _ = Encode_negation.materialize ~depth net in
      Datalog.Term.Set.equal co_events neg_events
      && Datalog.Term.Set.equal co_conds neg_conds)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [ ( "syntax",
      [ Alcotest.test_case "parse not" `Quick test_parse_not;
        Alcotest.test_case "range restriction" `Quick test_not_requires_positive_binding;
        Alcotest.test_case "dDatalog stays positive" `Quick test_ddatalog_rejects_not;
        Alcotest.test_case "QSQ/magic reject negation" `Quick test_qsq_rejects_not ] );
    ( "stratification",
      [ Alcotest.test_case "stratify ok" `Quick test_stratify_ok;
        Alcotest.test_case "negative cycle detected" `Quick test_stratify_cycle;
        Alcotest.test_case "stratified eval" `Quick test_stratified_eval;
        Alcotest.test_case "raises on cycle" `Quick test_stratified_raises_on_cycle;
        Alcotest.test_case "alternating on stratified" `Quick
          test_alternating_on_stratified_program;
        Alcotest.test_case "deferred not checked per derivation" `Quick
          test_deferred_not_checked_per_derivation ]
      @ qcheck [ prop_alternating_eq_stratified ] );
    ( "negation-encoding",
      [ Alcotest.test_case "not classically stratifiable" `Quick
          test_negation_encoding_not_stratifiable;
        Alcotest.test_case "running example" `Quick test_negation_encoding_running;
        Alcotest.test_case "toggles" `Quick test_negation_encoding_toggles ]
      @ qcheck [ prop_negation_encoding_random ] ) ]

let () = Alcotest.run "negation" suite
