type t = int

let key_bits = 30

let compare = Int.compare
let equal = Int.equal
let pp = Format.pp_print_int
let to_string = string_of_int

module Set = Set.Make (Int)
module Map = Map.Make (Int)

let set_of_list l = Set.of_list l
let iter_desc f s = List.iter f (Set.fold List.cons s [])

let pp_set fmt s =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
       Format.pp_print_int)
    (Set.elements s)

let compare_sets_lex a b =
  (* Sets as ascending tuples; shorter prefix-equal set is smaller. Walk the
     sets lazily instead of materializing both element lists: the comparison
     usually decides within the first few elements, and this sits on
     recSA's deterministic-choose path which runs every tick. Interned sets
     (Reconfig.Intern) make the physical-equality fast path hit often. *)
  if a == b then 0
  else
    let rec go sa sb =
      match (sa (), sb ()) with
      | Seq.Nil, Seq.Nil -> 0
      | Seq.Nil, Seq.Cons _ -> -1
      | Seq.Cons _, Seq.Nil -> 1
      | Seq.Cons (x, sa'), Seq.Cons (y, sb') ->
        let c = Int.compare x y in
        if c <> 0 then c else go sa' sb'
    in
    go (Set.to_seq a) (Set.to_seq b)

let equal_sets a b = a == b || Set.equal a b
