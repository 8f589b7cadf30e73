(* Expected answers, computed in process outside the timed region: a
   batch report must equal [Report.to_string] of a direct
   [Diagnoser.diagnose] on the same net and alarms, and a stream report
   the rendering of an uninterrupted [Online] engine at that prefix. *)

let binary net = if Petri.Net.is_binary net then net else Petri.Net.binarize net

(* a report body as `diag serve` frames it: one line per body line *)
let lines body =
  match List.rev (String.split_on_char '\n' body) with
  | "" :: rest -> List.rev rest
  | _ -> String.split_on_char '\n' body

type answer = { explanations : int; body : string list }

let batch net alarms =
  let net = binary net in
  let r = Diagnosis.Diagnoser.diagnose net (Petri.Alarm.make alarms) in
  {
    explanations = List.length r.Diagnosis.Diagnoser.diagnosis;
    body = lines (Diagnosis.Report.to_string net r.Diagnosis.Diagnoser.diagnosis);
  }

(* the answers of [st]'s scheduled reports, keyed by prefix length *)
let stream net (st : Gen.stream) =
  let net = binary net in
  let o = Diagnosis.Online.start net in
  let out = Hashtbl.create 16 in
  Array.iteri
    (fun i a ->
      Diagnosis.Online.observe o a;
      let k = i + 1 in
      if List.mem k st.Gen.st_reports then begin
        let d = Diagnosis.Online.diagnosis o in
        Hashtbl.replace out k
          { explanations = List.length d; body = lines (Diagnosis.Report.to_string net d) }
      end)
    st.Gen.st_alarms;
  Diagnosis.Online.release o;
  out
