(* Order statistics over latency samples. *)

(* nearest-rank percentile, p in [0, 100] *)
let pct l p =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))

let median l = pct l 50.

let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* samples strictly above percentile [p] *)
let beyond l p =
  let v = pct l p in
  List.length (List.filter (fun x -> x > v) l)

(* nan, hence a failed run, when there is nothing to divide by *)
let ratio a b = if b = 0. then nan else a /. b
