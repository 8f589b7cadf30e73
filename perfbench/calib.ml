(* The host-speed reference. A shared host's speed drifts over minutes
   with the load of its other tenants, so the same request costs more
   server CPU time in one run than in the next. The client therefore times
   a fixed piece of work of its own, [sample], many times over a run
   (between batch sessions, and between stream bursts while the server
   idles), and the end-to-end run reports the server's CPU times in
   multiples of its median, "ref": a drift that slows the server slows the
   reference about as much.

   The work is symbolic, like the server's: hashing and comparing small
   boxed terms, a hash table, a balanced map, a sort; then a walk of
   unpredictable loads through a 32 MB array, since the server's heap is
   of that size. It uses the standard library only, so no change to the
   program under test changes it. *)

module Int_map = Map.Make (Int)

let reference () =
  let h = Hashtbl.create 256 in
  let m = ref Int_map.empty in
  for i = 0 to 999 do
    let key = i * 7_919 land 1_023 in
    let term = (key, [ i; key lxor i ], if i land 1 = 0 then "even" else "odd") in
    (match Hashtbl.find_opt h key with
    | Some l -> Hashtbl.replace h key (term :: l)
    | None -> Hashtbl.add h key [ term ]);
    m := Int_map.add (Hashtbl.hash term) term !m
  done;
  let keys = Int_map.fold (fun _ t acc -> t :: acc) !m [] in
  ignore (Sys.opaque_identity (List.sort compare keys, Hashtbl.length h))

(* A walk through a 32 MB array along one full-period LCG cycle: each
   step is a load the caches and the prefetcher cannot foresee. Built at
   start-up, before anything is timed. *)
let slots = 1 lsl 22
let ring = Array.init slots (fun x -> (x * 1_103_515_245 + 12_345) land (slots - 1))
let cursor = ref 0

let walk () =
  let x = ref !cursor in
  for _ = 1 to 3_000 do
    x := Array.unsafe_get ring !x
  done;
  cursor := !x

(* one sample: the seconds [reference] and [walk] take now. It starts on
   an empty minor heap and allocates less than one, so the client's own
   garbage does not land in it *)
let sample () =
  Gc.minor ();
  let t0 = Unix.gettimeofday () in
  reference ();
  walk ();
  Unix.gettimeofday () -. t0
