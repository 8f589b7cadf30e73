(* The Figure 3/4/5 walkthrough: one dDatalog program, four evaluation
   strategies.

   Shows (i) the three-peer program of Figure 3, (ii) its QSQ rewriting
   (Figure 4) on the localized version, (iii) the dQSQ evaluation with
   remainder delegation (Figure 5), and (iv) a comparison of naive,
   semi-naive, QSQ, magic-set and distributed evaluation on the same query.

   Run with:  dune exec examples/engines.exe *)

open Datalog
open Dqsq

let edb_datoms () =
  let d rel peer a b = Datom.make ~rel ~peer [ Term.const a; Term.const b ] in
  [ d "A" "r" "1" "2"; d "A" "r" "2" "3";
    d "B" "s" "2" "7"; d "B" "s" "3" "8";
    d "C" "t" "7" "4"; d "C" "t" "8" "5" ]

let () =
  (* (i) the distributed program *)
  let dprog = Dprogram.figure3 () in
  Printf.printf "== The dDatalog program of Figure 3 ==\n%s\n\n" (Dprogram.to_string dprog);

  (* (ii) its QSQ rewriting, on the localized (single-site) version *)
  let local = Dprogram.localize dprog in
  let query = Parser.parse_atom {| R("1", Y) |} in
  let rw = Qsq.rewrite local query in
  Printf.printf "== QSQ rewriting of R(\"1\", Y) (Figure 4) ==\n";
  Printf.printf "%% seed fact: %s\n%s\n\n" (Atom.to_string rw.Qsq.seed)
    (Program.to_string rw.Qsq.program);

  (* centralized evaluations of the localized program *)
  let local_store () =
    let store = Fact_store.create () in
    List.iter
      (fun (d : Datom.t) -> ignore (Fact_store.add store (Datom.to_local_atom d)))
      (edb_datoms ());
    store
  in
  let naive_store = local_store () in
  let naive_res = Eval.naive local naive_store in
  let naive_answers = Eval.answers naive_store query in
  let semi_store = local_store () in
  let semi_res = Eval.seminaive local semi_store in
  let qsq_store, qsq_res, qsq_answers = Qsq.solve local query (local_store ()) in
  let magic_store, magic_res, _ = Magic.solve local query (local_store ()) in

  (* (iii) dQSQ on the distributed program *)
  let dquery = Datom.make ~rel:"R" ~peer:"r" [ Term.const "1"; Term.var "Y" ] in
  let t = Qsq_engine.create ~seed:42 dprog ~edb:(edb_datoms ()) ~query:dquery in
  let out = Qsq_engine.run t in
  Printf.printf "== dQSQ evaluation (Figure 5) ==\n";
  Printf.printf "answers: %s\n"
    (String.concat ", " (List.map Atom.to_string out.Qsq_engine.answers));
  Printf.printf "delegations (rule remainders sent between peers): %d\n"
    out.Qsq_engine.delegations;
  Printf.printf "subscriptions: %d, fact messages: %d, total deliveries: %d\n"
    out.Qsq_engine.subscriptions out.Qsq_engine.fact_messages out.Qsq_engine.deliveries;
  Printf.printf "facts per peer: %s\n\n"
    (String.concat ", "
       (List.map (fun (p, n) -> Printf.sprintf "%s=%d" p n) out.Qsq_engine.facts_per_peer));

  (* (iv) the comparison table *)
  Printf.printf "== Strategy comparison on R(\"1\", Y) ==\n";
  Printf.printf "%-22s %10s %12s %10s\n" "strategy" "answers" "derivations" "facts";
  Printf.printf "%-22s %10d %12d %10d\n" "naive" (List.length naive_answers)
    naive_res.Eval.stats.Eval.derivations (Fact_store.count naive_store);
  Printf.printf "%-22s %10s %12d %10d\n" "semi-naive" "-"
    semi_res.Eval.stats.Eval.derivations (Fact_store.count semi_store);
  Printf.printf "%-22s %10d %12d %10d\n" "QSQ" (List.length qsq_answers)
    qsq_res.Eval.stats.Eval.derivations (Fact_store.count qsq_store);
  Printf.printf "%-22s %10s %12d %10d\n" "magic sets" "-"
    magic_res.Eval.stats.Eval.derivations (Fact_store.count magic_store);
  Printf.printf "%-22s %10d %12s %10d\n" "dQSQ (3 peers)"
    (List.length out.Qsq_engine.answers) "-" out.Qsq_engine.total_facts;

  (* Theorem 1, visibly: dQSQ's facts modulo zeta == QSQ's facts *)
  let zeta = Qsq_engine.zeta_facts t in
  let qsq_facts = Fact_store.to_sorted_strings qsq_store in
  Printf.printf "\nTheorem 1 check: dQSQ facts modulo zeta == centralized QSQ facts? %b\n"
    (List.sort_uniq String.compare qsq_facts = zeta)
