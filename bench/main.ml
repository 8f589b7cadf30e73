(* Benchmark harness: regenerates every figure and quantitative claim of the
   paper (experiments E1–E16 of DESIGN.md), printing one deterministic table
   per experiment, then runs bechamel timings for the performance-sensitive
   kernels. Results are recorded in EXPERIMENTS.md.

   Run with:  dune exec bench/main.exe            (full output)
              dune exec bench/main.exe -- --no-timings   (tables only) *)

open Datalog
open Dqsq
open Diagnosis

let rng seed = Random.State.make [| seed |]
let line = String.make 78 '-'

let section id title =
  Printf.printf "\n%s\n%s  %s\n%s\n" line id title line

let alarms l = Petri.Alarm.make l
let running_net () = Petri.Net.binarize (Petri.Examples.running_example ())

(* ------------------------------------------------------------------ *)
(* E1: Figures 1 and 2 — the running example and its unfolding          *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1" "Figures 1-2: running example, unfolding, shaded diagnosis";
  let net = Petri.Examples.running_example () in
  Printf.printf "net: %d places, %d transitions, peers %s, safe=%b\n"
    (Petri.Net.num_places net) (Petri.Net.num_transitions net)
    (String.concat "," (Petri.Net.peers net))
    (Petri.Exec.is_safe net);
  Printf.printf "initially enabled: %s   (paper: i, ii and v)\n"
    (String.concat ", " (List.sort compare (Petri.Exec.enabled net (Petri.Exec.initial net))));
  let bnet = Petri.Net.binarize net in
  let u = Petri.Unfolding.unfold bnet in
  Printf.printf "unfolding (binarized): %d conditions, %d events, complete=%b\n"
    (Petri.Unfolding.num_conds u) (Petri.Unfolding.num_events u)
    (Petri.Unfolding.is_complete u);
  let diagnose a = (Diagnoser.diagnose bnet (alarms a)).Diagnoser.diagnosis in
  let show a =
    let d = diagnose a in
    Printf.printf "  %-30s -> %d explanation(s): %s\n"
      (Petri.Alarm.to_string (alarms a))
      (List.length d)
      (String.concat " | "
         (List.map (fun c -> "{" ^ String.concat "," (Canon.config_transitions c) ^ "}") d))
  in
  Printf.printf "diagnoses (Section 2):\n";
  show [ ("b", "p1"); ("a", "p2"); ("c", "p1") ];
  show [ ("b", "p1"); ("c", "p1"); ("a", "p2") ];
  show [ ("c", "p1"); ("b", "p1"); ("a", "p2") ]

(* ------------------------------------------------------------------ *)
(* E2: Figure 3 — the three-peer dDatalog program                       *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2" "Figure 3: the dDatalog program (3 peers)";
  let p = Dprogram.figure3 () in
  print_endline (Dprogram.to_string p);
  let roundtrip = Dprogram.parse (Dprogram.to_string p) in
  Printf.printf "parse/print roundtrip: %b; rules per peer: %s\n"
    (Dprogram.to_string roundtrip = Dprogram.to_string p)
    (String.concat ", "
       (List.map
          (fun peer -> Printf.sprintf "%s=%d" peer (List.length (Dprogram.rules_at p peer)))
          (Dprogram.peers p)))

(* shared Fig. 3 instance *)
let fig3_edb () =
  let d rel peer a b = Datom.make ~rel ~peer [ Term.const a; Term.const b ] in
  [ d "A" "r" "1" "2"; d "A" "r" "2" "3"; d "B" "s" "2" "7"; d "B" "s" "3" "8";
    d "C" "t" "7" "4"; d "C" "t" "8" "5" ]

let fig3_query () = Datom.make ~rel:"R" ~peer:"r" [ Term.const "1"; Term.var "Y" ]

(* ------------------------------------------------------------------ *)
(* E3: Figure 4 — the QSQ rewriting                                     *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3" "Figure 4: QSQ rewriting of the localized program";
  let local = Dprogram.localize (Dprogram.figure3 ()) in
  let query = Parser.parse_atom {| R("1", Y) |} in
  let rw = Qsq.rewrite local query in
  print_endline (Program.to_string rw.Qsq.program);
  let edb = Fact_store.create () in
  List.iter
    (fun (d : Datom.t) -> ignore (Fact_store.add edb (Datom.to_local_atom d)))
    (fig3_edb ());
  let store, _, answers = Qsq.solve local query (Fact_store.copy edb) in
  let m = Qsq.materialization store in
  let naive_store = Fact_store.copy edb in
  ignore (Eval.naive local naive_store);
  Printf.printf
    "\nanswers: %s\nmaterialized: total=%d answers=%d inputs=%d sups=%d (naive total=%d)\n"
    (String.concat ", " (List.map Atom.to_string answers))
    m.Qsq.total m.Qsq.answer_facts m.Qsq.input_facts m.Qsq.sup_facts
    (Fact_store.count naive_store)

(* ------------------------------------------------------------------ *)
(* E4: Figure 5 — the distributed dQSQ rewriting                        *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4" "Figure 5: dQSQ over peers r, s, t (delegated remainders)";
  let t =
    Qsq_engine.create ~seed:42 (Dprogram.figure3 ()) ~edb:(fig3_edb ()) ~query:(fig3_query ())
  in
  let out = Qsq_engine.run t ~query:(fig3_query ()) in
  Printf.printf "answers: %s\n"
    (String.concat ", " (List.map Atom.to_string out.Qsq_engine.answers));
  Printf.printf "delegations=%d subscriptions=%d fact-messages=%d deliveries=%d\n"
    out.Qsq_engine.delegations out.Qsq_engine.subscriptions out.Qsq_engine.fact_messages
    out.Qsq_engine.deliveries;
  Printf.printf "facts per peer: %s (total %d)\n"
    (String.concat ", "
       (List.map (fun (p, n) -> Printf.sprintf "%s=%d" p n) out.Qsq_engine.facts_per_peer))
    out.Qsq_engine.total_facts

(* ------------------------------------------------------------------ *)
(* E5: Theorem 1 — dQSQ == QSQ modulo zeta                              *)
(* ------------------------------------------------------------------ *)

let ring_program k =
  let v x = Term.var x in
  let rules =
    List.concat_map
      (fun i ->
        let next = (i + 1) mod k in
        let pi = Printf.sprintf "p%d" i and pn = Printf.sprintf "p%d" next in
        let ri = Printf.sprintf "R%d" i and rn = Printf.sprintf "R%d" next in
        let ei = Printf.sprintf "E%d" i in
        [ Drule.make
            (Datom.make ~rel:ri ~peer:pi [ v "X"; v "Y" ])
            [ Drule.Pos (Datom.make ~rel:ei ~peer:pi [ v "X"; v "Y" ]) ];
          Drule.make
            (Datom.make ~rel:ri ~peer:pi [ v "X"; v "Z" ])
            [ Drule.Pos (Datom.make ~rel:ei ~peer:pi [ v "X"; v "Y" ]);
              Drule.Pos (Datom.make ~rel:rn ~peer:pn [ v "Y"; v "Z" ]) ] ])
      (List.init k Fun.id)
  in
  Dprogram.make rules

let ring_edb ~seed ?(domain = 10) k ~edges =
  let rg = rng seed in
  List.init edges (fun _ ->
      let i = Random.State.int rg k in
      let c () = Term.const (Printf.sprintf "n%d" (Random.State.int rg domain)) in
      Datom.make ~rel:(Printf.sprintf "E%d" i) ~peer:(Printf.sprintf "p%d" i) [ c (); c () ])

let e5 () =
  section "E5" "Theorem 1: dQSQ facts == QSQ facts (modulo zeta), random programs";
  Printf.printf "%6s %6s %6s | %10s %10s %6s\n" "peers" "edges" "seed" "dQSQ-facts"
    "QSQ-facts" "equal";
  let checked = ref 0 and equal = ref 0 in
  List.iter
    (fun (k, edges, seed) ->
      let program = ring_program k in
      let edb = ring_edb ~seed k ~edges in
      let query = Datom.make ~rel:"R0" ~peer:"p0" [ Term.const "n0"; Term.var "Y" ] in
      let t = Qsq_engine.create ~seed program ~edb ~query in
      let _ = Qsq_engine.run t ~query in
      let dqsq_facts = Qsq_engine.zeta_facts t in
      let local_store = Fact_store.create () in
      List.iter
        (fun (a : Datom.t) -> ignore (Fact_store.add local_store (Datom.to_local_atom a)))
        edb;
      let qsq_store, _, _ =
        Qsq.solve (Dprogram.localize program) (Datom.to_local_atom query) local_store
      in
      let qsq_facts = List.sort_uniq String.compare (Fact_store.to_sorted_strings qsq_store) in
      let eq = dqsq_facts = qsq_facts in
      incr checked;
      if eq then incr equal;
      Printf.printf "%6d %6d %6d | %10d %10d %6b\n" k edges seed (List.length dqsq_facts)
        (List.length qsq_facts) eq)
    [ (2, 10, 1); (2, 30, 2); (3, 20, 3); (3, 50, 4); (4, 40, 5); (4, 80, 6); (5, 60, 7) ];
  Printf.printf "Theorem 1 holds on %d/%d instances\n" !equal !checked

(* ------------------------------------------------------------------ *)
(* E6: Theorem 2 — encoded unfolding == reference unfolding             *)
(* ------------------------------------------------------------------ *)

(* Nodes of the reference unfolding with canonical names of depth <= depth —
   the exact set the depth-clipped bottom-up evaluation derives (the
   unfolder itself keeps postset conditions one level deeper than its event
   bound, so we filter). *)
let nodes_of_reference net depth =
  let u =
    Petri.Unfolding.unfold
      ~bound:{ Petri.Unfolding.max_events = Some 50_000; max_depth = Some depth }
      net
  in
  let events =
    List.fold_left
      (fun acc e ->
        if Petri.Unfolding.name_depth e.Petri.Unfolding.e_name <= depth then
          Term.Set.add (Canon.term_of_name e.Petri.Unfolding.e_name) acc
        else acc)
      Term.Set.empty (Petri.Unfolding.events u)
  in
  let conds =
    List.fold_left
      (fun acc c ->
        if Petri.Unfolding.name_depth c.Petri.Unfolding.c_name <= depth then
          Term.Set.add (Canon.term_of_name c.Petri.Unfolding.c_name) acc
        else acc)
      Term.Set.empty (Petri.Unfolding.conds u)
  in
  (events, conds)

let e6 () =
  section "E6" "Theorem 2: bottom-up encoded unfolding == reference unfolder";
  Printf.printf "%-18s %5s | %8s %8s | %8s %8s | %6s\n" "net" "depth" "ref-ev" "ref-cond"
    "dl-ev" "dl-cond" "equal";
  List.iter
    (fun (name, net, depth) ->
      let ref_events, ref_conds = nodes_of_reference net depth in
      let dl_events, dl_conds, _ = Diagnoser.full_unfolding_materialization ~depth net in
      Printf.printf "%-18s %5d | %8d %8d | %8d %8d | %6b\n" name depth
        (Term.Set.cardinal ref_events) (Term.Set.cardinal ref_conds)
        (Term.Set.cardinal dl_events) (Term.Set.cardinal dl_conds)
        (Term.Set.equal ref_events dl_events && Term.Set.equal ref_conds dl_conds))
    [ ("running-example", running_net (), 10);
      ("toggles-3", Petri.Net.binarize (Petri.Examples.toggles ~width:3 ~peer:"p" ()), 8);
      ("ring-3", Petri.Net.binarize (Petri.Examples.ring ~peers:3 ()), 7) ]

(* ------------------------------------------------------------------ *)
(* E7: Theorem 3 — the three diagnosers agree                           *)
(* ------------------------------------------------------------------ *)

let scenario_of ~seed ~steps ~peers =
  let spec =
    {
      Petri.Generator.peers;
      components_per_peer = 1;
      places_per_component = 3;
      local_transitions = 2;
      sync_transitions = 1;
      alarm_symbols = 2;
    }
  in
  let net = Petri.Generator.generate ~rng:(rng seed) spec in
  let _, a = Petri.Generator.scenario ~rng:(rng (seed + 1)) ~steps net in
  (Petri.Net.binarize net, a)

let e7 () =
  section "E7" "Theorem 3: diagnosis sets agree (reference == product == datalog)";
  let agree = ref 0 and total = ref 0 in
  Printf.printf "%5s %5s %6s | %8s %8s %8s | %6s\n" "seed" "steps" "peers" "ref" "prod" "qsq"
    "agree";
  List.iter
    (fun (seed, steps, peers) ->
      let net, a = scenario_of ~seed ~steps ~peers in
      if Petri.Alarm.length a > 0 then begin
        let r_ref = (Reference.diagnose net a).Reference.diagnosis in
        let r_prod = (Product.diagnose net a).Product.diagnosis in
        let r_dat = (Diagnoser.diagnose net a).Diagnoser.diagnosis in
        let ok = Canon.equal_diagnosis r_ref r_prod && Canon.equal_diagnosis r_ref r_dat in
        incr total;
        if ok then incr agree;
        Printf.printf "%5d %5d %6d | %8d %8d %8d | %6b\n" seed steps peers
          (List.length r_ref) (List.length r_prod) (List.length r_dat) ok
      end)
    [ (11, 2, 2); (12, 3, 2); (13, 4, 2); (14, 3, 3); (15, 4, 3); (16, 5, 2); (17, 5, 3);
      (18, 2, 3); (19, 4, 2); (20, 3, 2) ];
  Printf.printf "Theorem 3 holds on %d/%d scenarios\n" !agree !total

(* ------------------------------------------------------------------ *)
(* E8: Theorem 4 — materialization vs the dedicated algorithm [8]       *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8" "Theorem 4: materialized prefix == dedicated algorithm [8]; << full unfolding";
  Printf.printf "%4s | %8s %8s %6s | %9s %9s | %10s\n" "|A|" "[8]-ev" "qsq-ev" "equal"
    "conds<=" "full-ev" "qsq/full";
  let net = Petri.Net.binarize (Petri.Examples.ring ~peers:3 ()) in
  List.iter
    (fun steps ->
      let firing = Petri.Exec.random_execution ~rng:(rng (100 + steps)) ~steps net in
      let a = alarms (Petri.Exec.alarms_of_execution net firing) in
      let n = Petri.Alarm.length a in
      if n > 0 then begin
        let prod = Product.diagnose net a in
        let qsq = Diagnoser.diagnose ~engine:Diagnoser.Centralized_qsq net a in
        let full_events, _, _ =
          Diagnoser.full_unfolding_materialization ~depth:((2 * n) + 2) net
        in
        let pe = Term.Set.cardinal prod.Product.events_materialized in
        let qe = Term.Set.cardinal qsq.Diagnoser.events_materialized in
        let fe = Term.Set.cardinal full_events in
        Printf.printf "%4d | %8d %8d %6b | %9b %9d | %9.3f\n" n pe qe
          (Term.Set.equal prod.Product.events_materialized qsq.Diagnoser.events_materialized)
          (Term.Set.subset qsq.Diagnoser.conds_materialized prod.Product.conds_materialized)
          fe
          (float_of_int qe /. float_of_int (max 1 fe))
      end)
    [ 1; 2; 3; 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* E9: Proposition 1 — dQSQ terminates on diagnosis inputs              *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9" "Proposition 1: dQSQ reaches a fixpoint (no depth gadget, no clipping)";
  Printf.printf "%5s %5s | %10s %10s %8s | %10s\n" "seed" "|A|" "deliveries" "facts" "clipped"
    "explains";
  List.iter
    (fun (seed, steps) ->
      let net, a = scenario_of ~seed ~steps ~peers:2 in
      if Petri.Alarm.length a > 0 then begin
        let prepared = Diagnoser.prepare net a in
        let out =
          Diagnoser.run prepared
            (Diagnoser.Distributed { seed; policy = Network.Sim.Random_interleaving })
        in
        match out.Diagnoser.comm with
        | Some c ->
          Printf.printf "%5d %5d | %10d %10d %8d | %10d\n" seed (Petri.Alarm.length a)
            c.Diagnoser.deliveries out.Diagnoser.facts_total 0
            (List.length out.Diagnoser.diagnosis)
        | None -> ()
      end)
    [ (31, 2); (32, 3); (33, 4); (34, 5); (35, 6); (36, 4); (37, 5); (38, 6); (39, 3) ];
  Printf.printf "(termination itself is the result: every run above completed)\n"

(* ------------------------------------------------------------------ *)
(* E10: strategy sweep — naive / semi-naive / QSQ / magic               *)
(* ------------------------------------------------------------------ *)

let tc_program =
  Parser.parse_program {| tc(X, Y) :- edge(X, Y).  tc(X, Z) :- edge(X, Y), tc(Y, Z). |}

let chain_edb n =
  let store = Fact_store.create () in
  for i = 0 to n - 1 do
    ignore
      (Fact_store.add store
         (Atom.make "edge"
            [ Term.const (Printf.sprintf "n%d" i); Term.const (Printf.sprintf "n%d" (i + 1)) ]))
  done;
  store

let e10 () =
  section "E10" "Strategy sweep: tuples materialized on tc(n_{k-1}, Y), chain of k edges";
  Printf.printf "%6s | %10s %12s %10s %10s\n" "k" "naive" "semi-naive" "QSQ" "magic";
  List.iter
    (fun k ->
      let query = Atom.make "tc" [ Term.const (Printf.sprintf "n%d" (k - 1)); Term.var "Y" ] in
      let s_naive = chain_edb k in
      ignore (Eval.naive tc_program s_naive);
      let s_semi = chain_edb k in
      ignore (Eval.seminaive tc_program s_semi);
      let s_qsq, _, _ = Qsq.solve tc_program query (chain_edb k) in
      let s_magic, _, _ = Magic.solve tc_program query (chain_edb k) in
      Printf.printf "%6d | %10d %12d %10d %10d\n" k (Fact_store.count s_naive)
        (Fact_store.count s_semi) (Fact_store.count s_qsq) (Fact_store.count s_magic))
    [ 8; 16; 32; 64; 128 ];
  Printf.printf
    "(bound queries: QSQ/magic stay linear in the reachable suffix; bottom-up is quadratic)\n"

(* ------------------------------------------------------------------ *)
(* E11: communication — distributed naive vs dQSQ                       *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "E11" "Communication: whole-relation shipping (naive) vs bindings (dQSQ)";
  Printf.printf "%6s %6s | %12s %10s | %12s %10s\n" "peers" "edges" "naive-msgs" "bytes"
    "dqsq-msgs" "bytes";
  List.iter
    (fun (k, edges, seed) ->
      let program = ring_program k in
      (* a guaranteed chain from n0 keeps the query productive; the random
         bulk is what distributed naive ships and dQSQ avoids *)
      let chain =
        List.init k (fun i ->
            Datom.make ~rel:(Printf.sprintf "E%d" i) ~peer:(Printf.sprintf "p%d" i)
              [ Term.const (Printf.sprintf "n%d" i); Term.const (Printf.sprintf "n%d" (i + 1)) ])
      in
      let edb = chain @ ring_edb ~seed ~domain:30 k ~edges in
      let query = Datom.make ~rel:"R0" ~peer:"p0" [ Term.const "n0"; Term.var "Y" ] in
      let nv = Naive_engine.solve ~seed program ~edb ~query in
      let dq = Qsq_engine.solve ~seed program ~edb ~query in
      Printf.printf "%6d %6d | %12d %10d | %12d %10d\n" k edges
        nv.Naive_engine.net_stats.Network.Sim.sent nv.Naive_engine.net_stats.Network.Sim.bytes
        dq.Qsq_engine.net_stats.Network.Sim.sent dq.Qsq_engine.net_stats.Network.Sim.bytes)
    [ (2, 40, 1); (3, 60, 2); (4, 80, 3); (5, 100, 4); (6, 120, 5) ]

(* ------------------------------------------------------------------ *)
(* E12: hidden transitions                                              *)
(* ------------------------------------------------------------------ *)

let e12 () =
  section "E12" "Extension: hidden transitions (depth-gadget bounded)";
  let net = running_net () in
  let hidden = [ "ii" ] in
  let observations = [ ("p1", Supervisor.Word (alarms [ ("b", "p1"); ("c", "p1") ])) ] in
  Printf.printf "%10s | %10s %10s %8s | %6s\n" "max-size" "datalog" "reference" "product"
    "agree";
  List.iter
    (fun k ->
      let r = Reference.diagnose_general ~max_config_size:k ~hidden net observations in
      let p = Product.diagnose_general ~max_config_size:k ~hidden net observations in
      let prepared, _ = Diagnoser.prepare_general ~hidden net observations in
      let eval_options =
        { Eval.default_options with
          Eval.max_depth = Some (Diagnoser.gadget_depth ~max_config_size:k) }
      in
      let d = Diagnoser.run ~eval_options prepared Diagnoser.Centralized_qsq in
      let dd = Diagnoser.restrict_size d.Diagnoser.diagnosis k in
      Printf.printf "%10d | %10d %10d %8d | %6b\n" k (List.length dd)
        (List.length r.Reference.diagnosis) (List.length p.Product.diagnosis)
        (Canon.equal_diagnosis dd r.Reference.diagnosis
        && Canon.equal_diagnosis dd p.Product.diagnosis))
    [ 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* E13: alarm patterns                                                  *)
(* ------------------------------------------------------------------ *)

let e13 () =
  section "E13" "Extension: regular alarm patterns (b.c* at p1, word a at p2)";
  let net = running_net () in
  let p1_pattern =
    Pattern.concat (Pattern.word [ "b" ]) (Pattern.star (Pattern.word [ "c" ]))
  in
  let observations =
    [ ("p1", Supervisor.Regex p1_pattern); ("p2", Supervisor.Word (alarms [ ("a", "p2") ])) ]
  in
  Printf.printf "%10s | %10s %10s %8s | %6s\n" "max-size" "datalog" "reference" "product"
    "agree";
  List.iter
    (fun k ->
      let r = Reference.diagnose_general ~max_config_size:k ~hidden:[] net observations in
      let p = Product.diagnose_general ~max_config_size:k ~hidden:[] net observations in
      let prepared, _ = Diagnoser.prepare_general net observations in
      let eval_options =
        { Eval.default_options with
          Eval.max_depth = Some (Diagnoser.gadget_depth ~max_config_size:k) }
      in
      let d = Diagnoser.run ~eval_options prepared Diagnoser.Centralized_qsq in
      let dd = Diagnoser.restrict_size d.Diagnoser.diagnosis k in
      Printf.printf "%10d | %10d %10d %8d | %6b\n" k (List.length dd)
        (List.length r.Reference.diagnosis) (List.length p.Product.diagnosis)
        (Canon.equal_diagnosis dd r.Reference.diagnosis
        && Canon.equal_diagnosis dd p.Product.diagnosis))
    [ 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* E14: encoding ablation — co vs the literal paper rules               *)
(* ------------------------------------------------------------------ *)

let e14 () =
  section "E14"
    "Ablation: the three Section 4.1 encodings (co / literal rules / Remark 4 negation)";
  Printf.printf "%-16s | %6s %8s %7s %6s | %8s %11s %9s\n" "net" "co-ev" "paper-ev" "neg-ev"
    "equal" "co-facts" "paper-facts" "neg-facts";
  List.iter
    (fun (name, net, depth) ->
      let co_events, _, co_total =
        Diagnoser.full_unfolding_materialization ~encoding:Diagnoser.Co ~depth net
      in
      let paper_events, _, paper_total =
        Diagnoser.full_unfolding_materialization ~encoding:Diagnoser.Paper ~depth net
      in
      let neg_events, _, neg_total = Encode_negation.materialize ~depth net in
      Printf.printf "%-16s | %6d %8d %7d %6b | %8d %11d %9d\n" name
        (Term.Set.cardinal co_events) (Term.Set.cardinal paper_events)
        (Term.Set.cardinal neg_events)
        (Term.Set.equal co_events paper_events && Term.Set.equal co_events neg_events)
        co_total paper_total neg_total)
    [ ("running-example", running_net (), 10);
      ("toggles-2", Petri.Net.binarize (Petri.Examples.toggles ~width:2 ~peer:"p" ()), 7);
      ("ring-2", Petri.Net.binarize (Petri.Examples.ring ~peers:2 ()), 7) ];
  (* diagnosis cost through both encodings *)
  let a = alarms [ ("b", "p1"); ("a", "p2"); ("c", "p1") ] in
  let run encoding =
    let prepared = Diagnoser.prepare ~encoding (running_net ()) a in
    Diagnoser.run prepared Diagnoser.Centralized_qsq
  in
  let rc = run Diagnoser.Co and rp = run Diagnoser.Paper in
  Printf.printf
    "diagnosis of the running example: co %d facts / %d derivations, paper %d facts / %d derivations\n"
    rc.Diagnoser.facts_total rc.Diagnoser.derivations rp.Diagnoser.facts_total
    rp.Diagnoser.derivations;
  Printf.printf "same diagnosis: %b\n"
    (Canon.equal_diagnosis rc.Diagnoser.diagnosis rp.Diagnoser.diagnosis)

(* ------------------------------------------------------------------ *)
(* E15: scheduler ablation — dQSQ under different delivery policies     *)
(* ------------------------------------------------------------------ *)

let e15 () =
  section "E15" "Ablation: dQSQ message counts under delivery policies (results invariant)";
  let net = running_net () in
  let a = alarms [ ("b", "p1"); ("a", "p2"); ("c", "p1") ] in
  let prepared = Diagnoser.prepare net a in
  Printf.printf "%-22s %6s | %10s %8s %8s | %8s\n" "policy" "seed" "deliveries" "facts"
    "answers" "explains";
  let reference = ref None in
  List.iter
    (fun (name, policy, seed) ->
      (* [prepared] is pure data; each run builds a fresh network *)
      let out = Diagnoser.run prepared (Diagnoser.Distributed { seed; policy }) in
      (match !reference with
      | None -> reference := Some out.Diagnoser.diagnosis
      | Some d ->
        if not (Canon.equal_diagnosis d out.Diagnoser.diagnosis) then
          Printf.printf "!! diagnosis differs under %s\n" name);
      match out.Diagnoser.comm with
      | Some comm ->
        Printf.printf "%-22s %6d | %10d %8d %8d | %8d\n" name seed comm.Diagnoser.deliveries
          out.Diagnoser.facts_total
          (Term.Set.cardinal out.Diagnoser.events_materialized)
          (List.length out.Diagnoser.diagnosis)
      | None -> ())
    [ ("random", Network.Sim.Random_interleaving, 1);
      ("random", Network.Sim.Random_interleaving, 2);
      ("random", Network.Sim.Random_interleaving, 3);
      ("round-robin", Network.Sim.Round_robin, 0);
      ("global-fifo", Network.Sim.Global_fifo, 0) ];
  (* Dijkstra-Scholten termination detection: the peers detect the fixpoint
     themselves, paying acknowledgement messages. *)
  let out =
    Diagnoser.run prepared
      (Diagnoser.Distributed_ds { seed = 1; policy = Network.Sim.Random_interleaving })
  in
  (match out.Diagnoser.comm with
  | Some comm ->
    Printf.printf "%-22s %6d | %10d %8d %8d | %8d\n" "random+DS-termination" 1
      comm.Diagnoser.deliveries out.Diagnoser.facts_total
      (Term.Set.cardinal out.Diagnoser.events_materialized)
      (List.length out.Diagnoser.diagnosis)
  | None -> ());
  Printf.printf
    "(delivery order changes message schedules, never results — Remark 2; the\n\
    \ DS row pays the detector's acknowledgements for not needing a god view)\n"

(* ------------------------------------------------------------------ *)
(* E16: online (incremental) diagnosis                                  *)
(* ------------------------------------------------------------------ *)

let e16 () =
  section "E16" "Online diagnosis: per-alarm incremental growth, equal to the batch prefix";
  let net = Petri.Net.binarize (Petri.Examples.ring ~peers:3 ()) in
  let firing = Petri.Exec.random_execution ~rng:(rng 303) ~steps:6 net in
  let seq = Petri.Exec.alarms_of_execution net firing in
  let t = Online.start net in
  Printf.printf "%5s %-20s | %10s %10s %10s | %12s\n" "i" "alarm" "explains" "events"
    "states" "batch-ev";
  List.iteri
    (fun i (symbol, peer) ->
      Online.observe t (symbol, peer);
      let prefix = alarms (List.filteri (fun j _ -> j <= i) seq) in
      let batch = Product.diagnose net prefix in
      Printf.printf "%5d %-20s | %10d %10d %10d | %12d\n" (i + 1)
        (Printf.sprintf "(%s, %s)" symbol peer)
        (List.length (Online.diagnosis t))
        (Term.Set.cardinal (Online.events_materialized t))
        (Online.states_explored t)
        (Term.Set.cardinal batch.Product.events_materialized))
    seq;
  let final = Product.diagnose net (alarms seq) in
  Printf.printf "final: online == batch diagnosis: %b; online events == batch events: %b\n"
    (Canon.equal_diagnosis (Online.diagnosis t) final.Product.diagnosis)
    (Term.Set.equal (Online.events_materialized t) final.Product.events_materialized)

(* ------------------------------------------------------------------ *)
(* E17: the differential fuzzing corpus as a workload                   *)
(* ------------------------------------------------------------------ *)

(* Each theorem property of lib/check runs over the same fixed 25-seed
   corpus. Checks are differential — two engines per check — so the time
   column is dominated by the slower engine of the pair (usually the
   reference oracle or the distributed run). A non-zero fails column is a
   regression: the fuzzer would print a one-line replay recipe for it. *)
let e17 () =
  section "E17" "Differential fuzzing corpus: theorem properties over 25 fixed seeds";
  Printf.printf "%-36s %7s %8s %6s %9s\n" "property" "checks" "skipped" "fails" "time";
  let total = ref 0.0 in
  List.iter
    (fun (p : Check.Property.t) ->
      let config =
        {
          Check.Runner.default_config with
          Check.Runner.runs = 25;
          seed = 42;
          properties = [ p ];
        }
      in
      let t0 = Sys.time () in
      let report = Check.Runner.run config in
      let dt = Sys.time () -. t0 in
      total := !total +. dt;
      Printf.printf "%-36s %7d %8d %6d %8.2fs\n" p.Check.Property.name
        report.Check.Runner.checks report.Check.Runner.skipped
        (List.length report.Check.Runner.failures)
        dt)
    Check.Property.all;
  Printf.printf "(total %.2fs; replay any failure with: diag fuzz --runs 1 --seed N\n\
                \ --property NAME — see `diag fuzz --list-properties`)\n" !total

(* ------------------------------------------------------------------ *)
(* E18: hash-consing hot path — deep-unfolding wall time               *)
(* ------------------------------------------------------------------ *)

(* The diagnosis encoding manufactures node identities from nested Skolem
   spines; these scenarios are the deep-term workloads whose inner loops
   (Fact_store.iter_matches / Unify.match_lists) the hash-consed term
   representation accelerates. Each row reports wall time, the number of
   index candidates the fact store touched, and candidate throughput; the
   term.interned / term.hashcons_hits columns read 0 on builds predating
   the hash-consed representation, which is how the before/after table of
   EXPERIMENTS.md was produced from the same harness. *)
let e18_scenarios ~ci =
  let unfold name depth net = (name, fun () -> ignore (Diagnoser.full_unfolding_materialization ~depth net)) in
  let diagnose_ring name ?(peers = 3) ~seed ~steps () =
    ( name,
      fun () ->
        let net = Petri.Net.binarize (Petri.Examples.ring ~peers ()) in
        let firing = Petri.Exec.random_execution ~rng:(rng seed) ~steps net in
        let a = alarms (Petri.Exec.alarms_of_execution net firing) in
        ignore (Diagnoser.diagnose ~engine:Diagnoser.Centralized_qsq net a) )
  in
  if ci then
    [ unfold "full-unfold/running@d7" 7 (running_net ());
      diagnose_ring "diagnose-qsq/ring3@s3" ~seed:103 ~steps:3 () ]
  else
    [ unfold "full-unfold/running@d10" 10 (running_net ());
      unfold "full-unfold/toggles3@d9" 9
        (Petri.Net.binarize (Petri.Examples.toggles ~width:3 ~peer:"p" ()));
      diagnose_ring "diagnose-qsq/ring3@s6" ~seed:106 ~steps:6 ();
      diagnose_ring "diagnose-qsq/ring4@s7" ~peers:4 ~seed:107 ~steps:7 ();
      unfold "full-unfold/toggles3@d13" 13
        (Petri.Net.binarize (Petri.Examples.toggles ~width:3 ~peer:"p" ())) ]

let counter_now name = Obs.Metrics.counter_value name

let e18 ?(ci = false) () =
  section "E18" "Hash-consing hot path: deep-unfolding wall time, candidate throughput";
  Printf.printf "%-26s %9s %12s %12s %10s %10s\n" "scenario" "wall" "candidates" "cand/s"
    "interned" "hc-hits";
  List.iter
    (fun (name, f) ->
      Gc.compact ();
      let c0 = counter_now "fact_store.candidates" in
      let i0 = counter_now "term.interned" and h0 = counter_now "term.hashcons_hits" in
      let t0 = Obs.Clock.now_s () in
      f ();
      let dt = Obs.Clock.now_s () -. t0 in
      let dc = counter_now "fact_store.candidates" - c0 in
      Printf.printf "%-26s %8.3fs %12d %12.0f %10d %10d\n" name dt dc
        (float_of_int dc /. Float.max dt 1e-9)
        (counter_now "term.interned" - i0)
        (counter_now "term.hashcons_hits" - h0))
    (e18_scenarios ~ci)

(* ------------------------------------------------------------------ *)
(* E19: domain-parallel dQSQ                                            *)
(* ------------------------------------------------------------------ *)

(* Each peer runs on its own OCaml domain (Network.Sim.run_parallel). The
   protocol is confluent — idempotent delegations and subscriptions over
   monotone Datalog — so every parallel row must report the very same
   diagnosis and fact total as the sequential scheduler; the equal column
   asserts it. Wall-clock speedup depends on the host's core count
   (printed below): on a single-core container the parallel rows only pay
   synchronization overhead, which is itself worth recording. Per-mode
   times also land in BENCH_diag.json as E19/<mode> pseudo-experiments. *)
let e19_times : (string * float) list ref = ref []

let e19 ?(ci = false) () =
  section "E19" "Domain-parallel dQSQ: sequential scheduler vs 1/2/4 domains";
  let cores = Domain.recommended_domain_count () in
  Printf.printf "(host: %d recommended domain(s))\n" cores;
  (* The CI perf gate needs real parallelism to be meaningful, so on a
     multi-core host [--ci] runs the full deep-ring scenarios (the ROADMAP
     success criterion: jobs=4 beats sequential on ring4@s5 and ring5@s6)
     and fails the build on a regression; on smaller hosts it keeps the
     tiny smoke scenario and skips the assertion with a warning. *)
  let gated = ci && cores >= 4 in
  let scenarios =
    if gated || not ci then [ ("ring4@s5", 4, 104, 5); ("ring5@s6", 5, 105, 6) ]
    else [ ("ring4@s3", 4, 104, 3) ]
  in
  Printf.printf "%-12s %-10s | %9s %8s %10s | %6s\n" "scenario" "mode" "wall" "facts"
    "deliveries" "equal";
  List.iter
    (fun (name, peers, seed, steps) ->
      let net = Petri.Net.binarize (Petri.Examples.ring ~peers ()) in
      let firing = Petri.Exec.random_execution ~rng:(rng seed) ~steps net in
      let a = alarms (Petri.Exec.alarms_of_execution net firing) in
      let prepared = Diagnoser.prepare net a in
      let time engine =
        Gc.compact ();
        let t0 = Obs.Clock.now_s () in
        let r = Diagnoser.run prepared engine in
        (Obs.Clock.now_s () -. t0, r)
      in
      let t_seq, r_seq =
        time (Diagnoser.Distributed { seed = 0; policy = Network.Sim.Random_interleaving })
      in
      let row mode dt (r : Diagnoser.result) =
        e19_times := (Printf.sprintf "E19/%s/%s" name mode, dt) :: !e19_times;
        Printf.printf "%-12s %-10s | %8.3fs %8d %10d | %6b\n" name mode dt
          r.Diagnoser.facts_total
          (match r.Diagnoser.comm with Some c -> c.Diagnoser.deliveries | None -> 0)
          (Canon.equal_diagnosis r.Diagnoser.diagnosis r_seq.Diagnoser.diagnosis)
      in
      row "sequential" t_seq r_seq;
      List.iter
        (fun jobs ->
          let dt, r = time (Diagnoser.Distributed_parallel { jobs }) in
          if not (Canon.equal_diagnosis r.Diagnoser.diagnosis r_seq.Diagnoser.diagnosis)
          then Printf.printf "!! parallel diagnosis differs at jobs=%d\n" jobs;
          row (Printf.sprintf "jobs=%d" jobs) dt r)
        [ 1; 2; 4 ])
    scenarios;
  e19_times := List.rev !e19_times;
  if ci then
    if not gated then
      Printf.printf
        "E19 gate: SKIPPED — host has %d recommended domain(s) < 4; the\n\
         jobs=4-beats-sequential assertion needs real cores.\n"
        cores
    else
      List.iter
        (fun (name, _, _, _) ->
          let wall mode =
            List.assoc (Printf.sprintf "E19/%s/%s" name mode) !e19_times
          in
          let t_seq = wall "sequential" and t_par = wall "jobs=4" in
          if t_par > t_seq then
            failwith
              (Printf.sprintf
                 "E19 gate: jobs=4 (%.3fs) slower than sequential (%.3fs) on %s"
                 t_par t_seq name)
          else
            Printf.printf "E19 gate: OK on %s (jobs=4 %.3fs <= sequential %.3fs)\n"
              name t_par t_seq)
        scenarios

(* ------------------------------------------------------------------ *)
(* E20: the diagnosis service under interleaved session load            *)
(* ------------------------------------------------------------------ *)

(* Thousands of sessions over two tenants, a bounded window of them in
   flight at any moment, every one stepped a quantum of deliveries per
   round-robin turn — the serve workload without the pipe. Engines recycle
   through the tenant pools, so steady-state sessions ride warm codec
   dictionaries and pre-allocated stores; wire bytes are the codec's real
   frame lengths (wire_verify stays on: every message is decoded and
   checked physically identical). Latency is open-to-report wall time
   under the interleaving, so it grows with the window — throughput and
   the p50/p99 spread are the numbers to watch. Rows land in
   BENCH_diag.json as E20/* pseudo-experiments. *)
let e20_rows : (string * float) list ref = ref []

let e20 ?(ci = false) () =
  let sessions = if ci then 120 else 1200 in
  let window = 32 in
  section "E20"
    (Printf.sprintf
       "Service: %d interleaved sessions, 2 tenants, window %d, warm engines"
       sessions window);
  let coord = Service.Coordinator.create ~quantum:8 () in
  let ok = function Ok v -> v | Error m -> failwith ("E20: " ^ m) in
  ignore (ok (Service.Coordinator.add_tenant coord ~name:"running"
                (Petri.Examples.running_example ())));
  ignore (ok (Service.Coordinator.add_tenant coord ~name:"ring"
                (Petri.Examples.ring ~peers:3 ())));
  (* a fixed scenario pool per tenant: cheap, deterministic variety *)
  let running_scenarios =
    [ [ ("b", "p1"); ("a", "p2"); ("c", "p1") ];
      [ ("b", "p1"); ("c", "p1"); ("a", "p2") ];
      [ ("c", "p1"); ("b", "p1"); ("a", "p2") ] ]
  in
  let ring_scenarios =
    let net = Petri.Net.binarize (Petri.Examples.ring ~peers:3 ()) in
    List.init 4 (fun i ->
        let firing =
          Petri.Exec.random_execution ~rng:(rng (200 + i)) ~steps:(3 + (i mod 2)) net
        in
        Petri.Exec.alarms_of_execution net firing)
  in
  let nth l i = List.nth l (i mod List.length l) in
  let start_session i =
    let tenant, alarms =
      if i mod 2 = 0 then ("running", nth running_scenarios (i / 2))
      else ("ring", nth ring_scenarios (i / 2))
    in
    let sid = ok (Service.Coordinator.open_session coord ~tenant) in
    List.iter
      (fun (symbol, peer) ->
        ok (Service.Coordinator.add_alarm coord sid ~symbol ~peer))
      alarms;
    ok (Service.Coordinator.start coord sid);
    sid
  in
  let latencies = ref [] in
  let total_bytes = ref 0 and total_deliveries = ref 0 in
  let opened = ref 0 and completed = ref 0 in
  let in_flight = ref [] in
  let t0 = Obs.Clock.now_s () in
  while !completed < sessions do
    while !opened < sessions && List.length !in_flight < window do
      in_flight := start_session !opened :: !in_flight;
      incr opened
    done;
    ignore (Service.Coordinator.step_round coord);
    let finished, still =
      List.partition (Service.Coordinator.is_done coord) !in_flight
    in
    List.iter
      (fun sid ->
        let r = ok (Service.Coordinator.report coord sid) in
        latencies := r.Service.Coordinator.latency_s :: !latencies;
        total_bytes := !total_bytes + r.Service.Coordinator.wire_bytes;
        total_deliveries := !total_deliveries + r.Service.Coordinator.deliveries;
        ok (Service.Coordinator.close coord sid);
        incr completed)
      finished;
    in_flight := still
  done;
  let wall = Obs.Clock.now_s () -. t0 in
  let sorted = List.sort compare !latencies in
  let pct p =
    List.nth sorted
      (min (List.length sorted - 1)
         (int_of_float (p *. float_of_int (List.length sorted))))
  in
  let p50 = pct 0.50 and p99 = pct 0.99 in
  let throughput = float_of_int sessions /. wall in
  let s = Service.Coordinator.stats coord in
  Printf.printf "%10s %12s %10s %10s %12s %12s\n" "sessions" "sess/s" "p50" "p99"
    "deliveries" "wire-bytes";
  Printf.printf "%10d %12.1f %9.1fus %9.1fus %12d %12d\n" sessions throughput
    (p50 *. 1e6) (p99 *. 1e6) !total_deliveries !total_bytes;
  Printf.printf
    "(pool at rest: %d warm engine(s); %d sessions started, %d completed)\n"
    s.Service.Coordinator.pooled s.Service.Coordinator.started
    s.Service.Coordinator.completed;
  e20_rows :=
    [ ("E20/sessions", float_of_int sessions);
      ("E20/throughput_sessions_per_s", throughput);
      ("E20/p50_s", p50);
      ("E20/p99_s", p99);
      ("E20/wire_bytes", float_of_int !total_bytes) ]

(* ------------------------------------------------------------------ *)
(* E21: sustained streaming through the service                         *)
(* ------------------------------------------------------------------ *)

(* One long-lived streaming session consumes a generated 10k-alarm stream
   through the coordinator while short streaming sessions churn beside it.
   The net is two synchronized 3-place cycles (peers p and q exchange a
   token each round) whose first alarm of every round is ambiguous — a
   conflict trap. The trap lineage stalls on its own peer immediately and
   starves on the sync token within one round, so the prefix GC can prove
   it conflict-dead: the live set stays flat while states_explored grows
   linearly with the stream. Per-alarm wall time is sampled around every
   [add_alarm]; comparing the last decile's p50 against the first
   decile's is the fixpoint-restart tripwire — an engine that re-saturates
   the prefix turns O(1)-per-alarm into O(n) and trips it instantly.
   [--ci] asserts the flatness (and fails the build); rows land in
   BENCH_diag.json as E21/*. *)
let e21_rows : (string * float) list ref = ref []

let e21_net () =
  let place peer id = Petri.Net.mk_place ~peer id in
  let tr peer alarm pre post id = Petri.Net.mk_transition ~peer ~alarm ~pre ~post id in
  Petri.Net.make
    ~places:
      [ place "p" "p0"; place "p" "p1"; place "p" "p2"; place "p" "pX";
        place "p" "sp"; place "q" "q0"; place "q" "q1"; place "q" "q2";
        place "q" "qX"; place "q" "sq" ]
    ~transitions:
      [ tr "p" "a" [ "p0" ] [ "p1" ] "pa";
        tr "p" "a" [ "p0" ] [ "pX" ] "pa'";  (* the conflict trap on p *)
        tr "p" "b" [ "p1" ] [ "p2" ] "pb";
        tr "p" "c" [ "p2"; "sq" ] [ "p0"; "sp" ] "pc";  (* sync q -> p *)
        tr "q" "d" [ "q0" ] [ "q1" ] "qd";
        tr "q" "d" [ "q0" ] [ "qX" ] "qd'";  (* the conflict trap on q *)
        tr "q" "e" [ "q1" ] [ "q2" ] "qe";
        tr "q" "f" [ "q2"; "sp" ] [ "q0"; "sq" ] "qf" ]  (* sync p -> q *)
    ~marking:[ "p0"; "q0"; "sp" ]

(* the unique firable alarm order per round: a b (p), d e f (q), c (p) *)
let e21_alarm k =
  [| ("a", "p"); ("b", "p"); ("d", "q"); ("e", "q"); ("f", "q"); ("c", "p") |].(k mod 6)

let e21 ?(ci = false) () =
  let long_total = 10_000 in
  let shorts_total = if ci then 50 else 500 in
  let short_window = 25 in
  let short_len = 6 in
  let report_every = 1_000 in
  section "E21"
    (Printf.sprintf
       "Streaming: one %d-alarm session + %d short streams (window %d), prefix GC"
       long_total shorts_total short_window);
  let coord = Service.Coordinator.create ~quantum:8 () in
  let ok = function Ok v -> v | Error m -> failwith ("E21: " ^ m) in
  ignore (ok (Service.Coordinator.add_tenant coord ~name:"cycle" (e21_net ())));
  let long_sid = ok (Service.Coordinator.open_stream coord ~tenant:"cycle") in
  let lat = Array.make long_total 0. in
  let shorts_opened = ref 0 and shorts_closed = ref 0 in
  let short_alarms = ref 0 in
  let active = ref [] in
  let k = ref 0 in
  let t0 = Obs.Clock.now_s () in
  while !k < long_total || !shorts_closed < shorts_total do
    if !k < long_total then begin
      let symbol, peer = e21_alarm !k in
      let a0 = Obs.Clock.now_s () in
      ok (Service.Coordinator.add_alarm coord long_sid ~symbol ~peer);
      lat.(!k) <- Obs.Clock.now_s () -. a0;
      incr k;
      (* periodic intermediate report: the O(delta) answer a streaming
         client would poll for, folded into the measured workload *)
      if !k mod report_every = 0 then begin
        ignore (ok (Service.Coordinator.report coord long_sid));
        let si = ok (Service.Coordinator.stream_info coord long_sid) in
        Printf.printf "  ... %d/%d alarms (live states %d)\n%!" !k long_total
          si.Service.Coordinator.si_live_states
      end
    end;
    while !shorts_opened < shorts_total && List.length !active < short_window do
      let sid = ok (Service.Coordinator.open_stream coord ~tenant:"cycle") in
      active := (sid, ref 0) :: !active;
      incr shorts_opened
    done;
    active :=
      List.filter
        (fun (sid, sent) ->
          let symbol, peer = e21_alarm !sent in
          ok (Service.Coordinator.add_alarm coord sid ~symbol ~peer);
          incr short_alarms;
          incr sent;
          if !sent = short_len then begin
            ignore (ok (Service.Coordinator.report coord sid));
            ok (Service.Coordinator.close coord sid);
            incr shorts_closed;
            false
          end
          else true)
        !active
  done;
  let final = ok (Service.Coordinator.report coord long_sid) in
  let si = ok (Service.Coordinator.stream_info coord long_sid) in
  let wall = Obs.Clock.now_s () -. t0 in
  ok (Service.Coordinator.close coord long_sid);
  let sorted = Array.copy lat in
  Array.sort compare sorted;
  let pct p =
    sorted.(min (long_total - 1) (int_of_float (p *. float_of_int long_total)))
  in
  let decile = long_total / 10 in
  let decile_p50 off =
    let s = Array.sub lat off decile in
    Array.sort compare s;
    s.(decile / 2)
  in
  let d_first = decile_p50 0 and d_last = decile_p50 (long_total - decile) in
  let throughput = float_of_int (long_total + !short_alarms) /. wall in
  Printf.printf "%10s %12s %10s %10s %12s %12s\n" "alarms" "alarms/s" "p50" "p99"
    "peak-live" "reclaimed";
  Printf.printf "%10d %12.0f %9.1fus %9.1fus %12d %12d\n"
    (long_total + !short_alarms) throughput (pct 0.50 *. 1e6) (pct 0.99 *. 1e6)
    si.Service.Coordinator.si_peak_live_states si.Service.Coordinator.si_gc_reclaimed;
  Printf.printf
    "(long stream: %d explanations at the final prefix, %d report frames for %d wire \
     bytes;\n first-decile p50 %.1fus vs last-decile p50 %.1fus; %d short streams \
     served)\n"
    final.Service.Coordinator.explanations si.Service.Coordinator.si_reports
    si.Service.Coordinator.si_wire_bytes (d_first *. 1e6) (d_last *. 1e6) !shorts_closed;
  e21_rows :=
    [ ("E21/long_alarms", float_of_int long_total);
      ("E21/short_streams", float_of_int shorts_total);
      ("E21/alarms_per_s", throughput);
      ("E21/p50_us", pct 0.50 *. 1e6);
      ("E21/p99_us", pct 0.99 *. 1e6);
      ("E21/first_decile_p50_us", d_first *. 1e6);
      ("E21/last_decile_p50_us", d_last *. 1e6);
      ("E21/peak_live_states", float_of_int si.Service.Coordinator.si_peak_live_states);
      ("E21/gc_reclaimed", float_of_int si.Service.Coordinator.si_gc_reclaimed);
      ("E21/wire_bytes", float_of_int final.Service.Coordinator.wire_bytes) ];
  if ci && d_last > 2. *. max d_first 1e-6 then
    failwith
      (Printf.sprintf
         "E21: per-alarm latency is not flat (first-decile p50 %.1fus, last-decile \
          p50 %.1fus > 2x) — fixpoint-restart regression"
         (d_first *. 1e6) (d_last *. 1e6))

(* ------------------------------------------------------------------ *)
(* E22: durability — kill a stream mid-flight, restore, finish          *)
(* ------------------------------------------------------------------ *)

(* The crash-recovery claim, measured: one coordinator streams the E21
   cycle net, checkpointing every tenth of the run through the snapshot
   codec; at the halfway point the coordinator is dropped on the floor
   and a fresh one adopts the last checkpoint ([restore_stream]) and
   consumes the remaining alarms. The final report must be byte-identical
   to an uninterrupted reference run of the same stream — the bench fails
   otherwise. A checkpoint carries only the live frontier, but the
   frontier's configurations embed their causal history — the explanation
   itself is Ω(prefix) — so the honest compaction bound is relative:
   snapshot bytes *per consumed alarm* stay flat as the prefix grows 5x
   (dead branches and the monotone materialized views never enter the
   frame), and the whole snapshot stays below the rendered diagnosis at
   the same prefix. Both asserted under [--ci]; rows land in
   BENCH_diag.json as E22/*. *)
let e22_rows : (string * float) list ref = ref []

let e22 ?(ci = false) () =
  let total = if ci then 5_000 else 100_000 in
  let kill_at = total / 2 in
  let ckpt_every = total / 10 in
  section "E22"
    (Printf.sprintf
       "Durability: kill at %d of %d alarms, restore from the last checkpoint, finish"
       kill_at total);
  let ok = function Ok v -> v | Error m -> failwith ("E22: " ^ m) in
  let mk_coord () =
    let coord = Service.Coordinator.create ~quantum:8 () in
    ignore (ok (Service.Coordinator.add_tenant coord ~name:"cycle" (e21_net ())));
    coord
  in
  let feed coord sid lo hi =
    for k = lo to hi - 1 do
      let symbol, peer = e21_alarm k in
      ok (Service.Coordinator.add_alarm coord sid ~symbol ~peer)
    done
  in
  (* the uninterrupted reference run *)
  let t0 = Obs.Clock.now_s () in
  let ref_coord = mk_coord () in
  let ref_sid = ok (Service.Coordinator.open_stream ref_coord ~tenant:"cycle") in
  feed ref_coord ref_sid 0 total;
  let ref_report = ok (Service.Coordinator.report ref_coord ref_sid) in
  ok (Service.Coordinator.close ref_coord ref_sid);
  let t_ref = Obs.Clock.now_s () -. t0 in
  (* phase A: stream with periodic checkpoints, then die *)
  let a = mk_coord () in
  let sa = ok (Service.Coordinator.open_stream a ~tenant:"cycle") in
  let ckpt_lat = ref [] in
  let first_bytes = ref 0 in
  let last_blob = ref "" in
  for k = 0 to kill_at - 1 do
    let symbol, peer = e21_alarm k in
    ok (Service.Coordinator.add_alarm a sa ~symbol ~peer);
    if (k + 1) mod ckpt_every = 0 then begin
      let c0 = Obs.Clock.now_s () in
      let blob = Snapshot.encode_stream (ok (Service.Coordinator.checkpoint_stream a sa)) in
      ckpt_lat := (Obs.Clock.now_s () -. c0) :: !ckpt_lat;
      if !first_bytes = 0 then first_bytes := String.length blob;
      last_blob := blob
    end
  done;
  let kill_report = ok (Service.Coordinator.report a sa) in
  (* coordinator A is dead; B adopts the checkpoint taken at [kill_at] *)
  let b = mk_coord () in
  let r0 = Obs.Clock.now_s () in
  let sb = ok (Service.Coordinator.restore_stream b (Snapshot.decode_stream !last_blob)) in
  let t_restore = Obs.Clock.now_s () -. r0 in
  feed b sb kill_at total;
  let fin = ok (Service.Coordinator.report b sb) in
  let si = ok (Service.Coordinator.stream_info b sb) in
  ok (Service.Coordinator.close b sb);
  let identical =
    String.equal fin.Service.Coordinator.body ref_report.Service.Coordinator.body
  in
  let lats = List.sort compare !ckpt_lat in
  let p50 = List.nth lats (List.length lats / 2) in
  let kill_bytes = String.length !last_blob in
  let kill_report_bytes = String.length kill_report.Service.Coordinator.body in
  let per_alarm_first = float_of_int !first_bytes /. float_of_int ckpt_every in
  let per_alarm_kill = float_of_int kill_bytes /. float_of_int kill_at in
  Printf.printf "%10s %10s %12s %14s %13s %10s\n" "alarms" "kill-at" "ckpt-p50"
    "snap@first" "snap@kill" "identical";
  Printf.printf "%10d %10d %10.1fus %13dB %12dB %10b\n" total kill_at (p50 *. 1e6)
    !first_bytes kill_bytes identical;
  Printf.printf
    "(reference run %.2fs; restore %.1fms; snapshot %.1f -> %.1f B/alarm, vs %dB of \
     rendered\n diagnosis at the kill point; restored stream finished with %d live \
     states,\n %d explanations, %dB of final report)\n"
    t_ref (t_restore *. 1e3) per_alarm_first per_alarm_kill kill_report_bytes
    si.Service.Coordinator.si_live_states fin.Service.Coordinator.explanations
    (String.length fin.Service.Coordinator.body);
  e22_rows :=
    [ ("E22/long_alarms", float_of_int total);
      ("E22/kill_at", float_of_int kill_at);
      ("E22/checkpoint_p50_us", p50 *. 1e6);
      ("E22/snapshot_bytes_first", float_of_int !first_bytes);
      ("E22/snapshot_bytes_kill", float_of_int kill_bytes);
      ("E22/snapshot_bytes_per_alarm", per_alarm_kill);
      ("E22/kill_report_bytes", float_of_int kill_report_bytes);
      ("E22/restore_s", t_restore);
      ("E22/final_report_bytes", float_of_int (String.length fin.Service.Coordinator.body));
      ("E22/final_identical", if identical then 1. else 0.) ];
  if not identical then
    failwith "E22: restored final report differs from the uninterrupted run";
  if ci && per_alarm_kill > 1.5 *. per_alarm_first then
    failwith
      (Printf.sprintf
         "E22: snapshot grew superlinearly (%.1f B/alarm at the first checkpoint, %.1f \
          at the kill point) — compaction regression"
         per_alarm_first per_alarm_kill);
  if ci && kill_bytes > kill_report_bytes then
    failwith
      (Printf.sprintf
         "E22: snapshot (%dB) outgrew the rendered diagnosis at the same prefix (%dB)"
         kill_bytes kill_report_bytes)

(* ------------------------------------------------------------------ *)
(* bechamel timings                                                     *)
(* ------------------------------------------------------------------ *)

let timings () =
  section "TIMINGS" "bechamel (time per run, ordinary least squares)";
  let open Bechamel in
  let open Toolkit in
  let running = running_net () in
  let run_alarms = alarms [ ("b", "p1"); ("a", "p2"); ("c", "p1") ] in
  let ring = Petri.Net.binarize (Petri.Examples.ring ~peers:3 ()) in
  let ring_alarms =
    let firing = Petri.Exec.random_execution ~rng:(rng 104) ~steps:4 ring in
    alarms (Petri.Exec.alarms_of_execution ring firing)
  in
  let fig3 = Dprogram.figure3 () in
  let fig3_local = Dprogram.localize fig3 in
  let fig3_q = Parser.parse_atom {| R("1", Y) |} in
  let fig3_store () =
    let store = Fact_store.create () in
    List.iter
      (fun (d : Datom.t) -> ignore (Fact_store.add store (Datom.to_local_atom d)))
      (fig3_edb ());
    store
  in
  let tests =
    [ Test.make ~name:"unfold/running-example"
        (Staged.stage (fun () -> ignore (Petri.Unfolding.unfold running)));
      Test.make ~name:"qsq-rewrite/fig3"
        (Staged.stage (fun () -> ignore (Qsq.rewrite fig3_local fig3_q)));
      Test.make ~name:"qsq-solve/fig3"
        (Staged.stage (fun () -> ignore (Qsq.solve fig3_local fig3_q (fig3_store ()))));
      Test.make ~name:"dqsq-solve/fig3"
        (Staged.stage (fun () ->
             ignore (Qsq_engine.solve ~seed:1 fig3 ~edb:(fig3_edb ()) ~query:(fig3_query ()))));
      Test.make ~name:"diagnose-qsq/running"
        (Staged.stage (fun () -> ignore (Diagnoser.diagnose running run_alarms)));
      Test.make ~name:"diagnose-magic/running"
        (Staged.stage (fun () ->
             ignore (Diagnoser.diagnose ~engine:Diagnoser.Centralized_magic running run_alarms)));
      Test.make ~name:"diagnose-product/running"
        (Staged.stage (fun () -> ignore (Product.diagnose running run_alarms)));
      Test.make ~name:"diagnose-reference/running"
        (Staged.stage (fun () -> ignore (Reference.diagnose running run_alarms)));
      Test.make ~name:"diagnose-qsq/ring3"
        (Staged.stage (fun () -> ignore (Diagnoser.diagnose ring ring_alarms)));
      Test.make ~name:"diagnose-product/ring3"
        (Staged.stage (fun () -> ignore (Product.diagnose ring ring_alarms)));
      Test.make ~name:"strategy/naive-chain32"
        (Staged.stage (fun () -> ignore (Eval.naive tc_program (chain_edb 32))));
      Test.make ~name:"strategy/seminaive-chain32"
        (Staged.stage (fun () -> ignore (Eval.seminaive tc_program (chain_edb 32))));
      Test.make ~name:"strategy/qsq-chain32"
        (Staged.stage (fun () ->
             ignore
               (Qsq.solve tc_program
                  (Atom.make "tc" [ Term.const "n31"; Term.var "Y" ])
                  (chain_edb 32))));
      Test.make ~name:"strategy/magic-chain32"
        (Staged.stage (fun () ->
             ignore
               (Magic.solve tc_program
                  (Atom.make "tc" [ Term.const "n31"; Term.var "Y" ])
                  (chain_edb 32)))) ]
  in
  let grouped = Test.make_grouped ~name:"bench" tests in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.4) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name res acc ->
        match Analyze.OLS.estimates res with
        | Some [ est ] -> (name, est) :: acc
        | Some _ | None -> (name, nan) :: acc)
      results []
    |> List.sort compare
  in
  Printf.printf "%-42s %16s\n" "benchmark" "time/run";
  List.iter
    (fun (name, ns) ->
      let pretty =
        if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Printf.printf "%-42s %16s\n" name pretty)
    rows

(* ------------------------------------------------------------------ *)
(* observability snapshot                                               *)
(* ------------------------------------------------------------------ *)

(* The registered counters accumulated over every experiment above: probe
   and derivation volume, network traffic, materialized prefix sizes. With
   [--stats-json FILE] the snapshot is also written as JSON, so a
   BENCH_*.json record can carry counters alongside the timings. *)
let metrics_section stats_json_file =
  section "METRICS" "observability snapshot (lib/obs registry, whole run)";
  print_string (Obs.Snapshot.to_table ());
  match stats_json_file with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Obs.Snapshot.to_json ());
    output_char oc '\n';
    close_out oc;
    Printf.printf "(JSON snapshot written to %s)\n" path

(* ------------------------------------------------------------------ *)
(* determinism digests and --check-baseline                             *)
(* ------------------------------------------------------------------ *)

(* A handful of cheap, fully deterministic end-to-end artifacts, hashed:
   the rendered diagnosis of the running example and its wire configs
   frame, the Figure 3 program text, and — over the E21 cycle net at a
   1k-alarm prefix — the online report plus the report of a checkpoint →
   restore roundtrip. Every run records them in BENCH_diag.json's
   "digests" section; [--check-baseline] recomputes them in a fresh
   process and fails on any drift, so an accidental change to term
   construction, canonical ordering, report rendering, or the snapshot
   codec trips the build before a human has to eyeball a diff. (The raw
   checkpoint frame is deliberately not digested: its node order follows
   hash-cons tags, which depend on process history — only its *meaning*
   is deterministic, which is what the roundtrip report pins.) The
   running example's join work under each Datalog engine (probes,
   candidates, rules fired: counter deltas around each run, since a
   registry reset would also zero population gauges such as
   fact_store.live that finalizers later decrement) is recorded too: these
   counters follow the join order of every rule firing, so a planner
   change that reorders a join drifts them even when the diagnosis stays
   put. *)
let output_digests () =
  let net = running_net () in
  let running_alarms = alarms [ ("b", "p1"); ("a", "p2"); ("c", "p1") ] in
  let work =
    List.concat_map
      (fun (name, engine) ->
        let counters = [ "fact_store.probes"; "fact_store.candidates"; "eval.rules_fired" ] in
        let before = List.map counter_now counters in
        ignore (Diagnoser.diagnose ~engine net running_alarms);
        List.map2
          (fun c v0 ->
            (Printf.sprintf "running/%s/%s" name c, string_of_int (counter_now c - v0)))
          counters before)
      [ ("qsq", Diagnoser.Centralized_qsq); ("magic", Diagnoser.Centralized_magic);
        ("dqsq", Diagnoser.Distributed { seed = 0; policy = Network.Sim.Random_interleaving }) ]
  in
  let d = (Diagnoser.diagnose net running_alarms).Diagnoser.diagnosis in
  let frame = Wire.encode_configs (Wire.encoder ()) (List.map Term.Set.elements d) in
  (* the same scenario under the parallel scheduler (4 domains, stealing
     allowed): confluence + structural sorting promise a byte-identical
     report regardless of the schedule, and this digest holds it to that *)
  let d_par =
    (Diagnoser.run
       (Diagnoser.prepare net running_alarms)
       (Diagnoser.Distributed_parallel { jobs = 4 }))
      .Diagnoser.diagnosis
  in
  let cycle = Petri.Net.binarize (e21_net ()) in
  let o = Online.start cycle in
  for k = 0 to 999 do
    Online.observe o (e21_alarm k)
  done;
  let stream_report = Report.to_string cycle (Online.diagnosis o) in
  let restored = Online.restore cycle (Online.checkpoint o) in
  let restored_report = Report.to_string cycle (Online.diagnosis restored) in
  Online.release restored;
  Online.release o;
  let hex s = Digest.to_hex (Digest.string s) in
  [ ("running/report", hex (Report.to_string net d));
    ("running/report_jobs4", hex (Report.to_string net d_par));
    ("running/configs_frame", hex frame);
    ("fig3/program", hex (Dprogram.to_string (Dprogram.figure3 ())));
    ("cycle1k/report", hex stream_report);
    ("cycle1k/restored_report", hex restored_report) ]
  @ work

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* the baseline's digests, without a JSON parser: the digests section
   holds the file's only string-valued fields, so collecting every
   "key": "value" pair is exact *)
let baseline_digests path =
  let s = read_file path in
  let n = String.length s in
  let read_string i =
    let j = String.index_from s (i + 1) '"' in
    (String.sub s (i + 1) (j - i - 1), j + 1)
  in
  let pairs = ref [] in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '"' then begin
      let key, j = read_string !i in
      let k = ref j in
      while !k < n && (s.[!k] = ' ' || s.[!k] = ':') do
        incr k
      done;
      if !k < n && s.[!k] = '"' then begin
        let v, j' = read_string !k in
        pairs := (key, v) :: !pairs;
        i := j'
      end
      else i := j
    end
    else incr i
  done;
  List.rev !pairs

let check_baseline path =
  let current = output_digests () in
  let baseline = baseline_digests path in
  Printf.printf "determinism digests vs %s\n" path;
  Printf.printf "%-36s %-34s %s\n" "artifact" "current" "baseline";
  let drift = ref 0 in
  List.iter
    (fun (name, dg) ->
      match List.assoc_opt name baseline with
      | Some b when String.equal b dg -> Printf.printf "%-36s %-34s ok\n" name dg
      | Some b ->
        incr drift;
        Printf.printf "%-36s %-34s DRIFT (was %s)\n" name dg b
      | None ->
        incr drift;
        Printf.printf "%-36s %-34s MISSING from baseline\n" name dg)
    current;
  if !drift > 0 then begin
    Printf.eprintf
      "bench: %d digest(s) drifted from %s — if the change is deliberate, regenerate \
       the baseline with a full bench run\n"
      !drift path;
    exit 1
  end;
  Printf.printf "all %d digests match\n" (List.length current)

(* ------------------------------------------------------------------ *)
(* BENCH_diag.json: the perf-trajectory snapshot                        *)
(* ------------------------------------------------------------------ *)

(* One record per bench run: per-experiment wall time plus the key Obs
   counters, so successive PRs can diff throughput without re-reading the
   tables. Counters absent from the build (e.g. term.interned before the
   hash-consed representation) are reported as 0. *)
let key_counters =
  [ "fact_store.probes"; "fact_store.candidates"; "fact_store.full_scans";
    "fact_store.index_builds"; "eval.rules_fired"; "eval.facts_derived";
    "qsq.facts_derived"; "term.interned"; "term.hashcons_hits";
    "online.gc_reclaimed" ]

let write_bench_json path (times : (string * float) list) digests =
  let buf = Buffer.create 1024 in
  let fields to_field l =
    String.concat ",\n" (List.map (fun x -> "    " ^ to_field x) l)
  in
  Buffer.add_string buf "{\n  \"experiments\": {\n";
  Buffer.add_string buf
    (fields (fun (id, dt) -> Printf.sprintf "%S: %.6f" id dt) times);
  Buffer.add_string buf "\n  },\n  \"digests\": {\n";
  Buffer.add_string buf
    (fields (fun (name, dg) -> Printf.sprintf "%S: %S" name dg) digests);
  Buffer.add_string buf "\n  },\n  \"counters\": {\n";
  Buffer.add_string buf
    (fields (fun name -> Printf.sprintf "%S: %d" name (counter_now name)) key_counters);
  Buffer.add_string buf "\n  }\n}\n";
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "(bench snapshot written to %s)\n" path

let () =
  let no_timings = Array.exists (fun a -> a = "--no-timings") Sys.argv in
  let ci = Array.exists (fun a -> a = "--ci") Sys.argv in
  let arg_value name =
    let rec go i =
      if i >= Array.length Sys.argv then None
      else if Sys.argv.(i) = name && i + 1 < Array.length Sys.argv then
        Some Sys.argv.(i + 1)
      else go (i + 1)
    in
    go 1
  in
  let stats_json_file = arg_value "--stats-json" in
  let bench_json_file =
    Option.value ~default:"BENCH_diag.json" (arg_value "--bench-json")
  in
  let only = arg_value "--only" in
  if Array.exists (fun a -> a = "--check-baseline") Sys.argv then begin
    check_baseline (Option.value ~default:"BENCH_diag.json" (arg_value "--baseline"));
    exit 0
  end;
  let experiments =
    if ci then
      [ ("E18", fun () -> e18 ~ci:true ()); ("E19", fun () -> e19 ~ci:true ());
        ("E20", fun () -> e20 ~ci:true ()); ("E21", fun () -> e21 ~ci:true ());
        ("E22", fun () -> e22 ~ci:true ()) ]
    else
      [ ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
        ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11);
        ("E12", e12); ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16);
        ("E17", e17); ("E18", fun () -> e18 ()); ("E19", fun () -> e19 ());
        ("E20", fun () -> e20 ()); ("E21", fun () -> e21 ());
        ("E22", fun () -> e22 ()) ]
  in
  let experiments =
    match only with
    | None -> experiments
    | Some id -> List.filter (fun (i, _) -> i = id) experiments
  in
  (* first, as [--check-baseline] does: the join-work counters depend on
     the process's symbol-intern order (it orders the semi-naive delta
     tables), so they are only comparable from the same starting point *)
  let digests = output_digests () in
  let times =
    List.map
      (fun (id, f) ->
        let t0 = Obs.Clock.now_s () in
        f ();
        (id, Obs.Clock.now_s () -. t0))
      experiments
  in
  metrics_section stats_json_file;
  write_bench_json bench_json_file
    (times @ !e19_times @ !e20_rows @ !e21_rows @ !e22_rows)
    digests;
  if not (no_timings || ci) then timings ();
  Printf.printf "\n%s\nAll experiments completed.\n" line
