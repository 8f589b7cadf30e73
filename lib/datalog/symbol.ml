(** Interned symbols.

    Constants, function names and relation names are interned strings: each
    distinct string is mapped to a unique small integer, so that equality and
    hashing of symbols are O(1) regardless of the length of the name. The
    intern table is global and append-only, which is safe because symbols are
    never deleted during a run. *)

type t = int

let table : (string, int) Hashtbl.t = Hashtbl.create 1024
let names = ref (Array.make 1024 "")
let next = ref 0

let intern s =
  match Hashtbl.find_opt table s with
  | Some id -> id
  | None ->
    let id = !next in
    if id >= Array.length !names then begin
      let bigger = Array.make (2 * id) "" in
      Array.blit !names 0 bigger 0 id;
      names := bigger
    end;
    !names.(id) <- s;
    next := id + 1;
    Hashtbl.add table s id;
    id

let name id =
  if id < 0 || id >= !next then invalid_arg "Symbol.name: unknown symbol"
  else !names.(id)

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b

(* Name order, not id order: two processes that intern the same symbols in
   different orders (different tenant load order, different experiment
   prefix) assign different ids, so id order would leak interning history
   into every "canonical" sort built on it. Equal ids short-circuit without
   touching the table. *)
let compare_name (a : t) (b : t) = if a = b then 0 else String.compare (name a) (name b)
let hash (a : t) = a
let pp ppf id = Format.pp_print_string ppf (name id)

(* A private namespace for generated symbols (gensym), used by rewriters to
   create fresh relation names that cannot clash with user symbols. *)
let fresh_counter = ref 0

let fresh prefix =
  incr fresh_counter;
  intern (Printf.sprintf "%s#%d" prefix !fresh_counter)
