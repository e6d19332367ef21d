open Sim
module Int_set = Set.Make (Int)

type t = { creator : Pid.t; sting : int; antistings : Int_set.t }

let make ~creator ~sting ~antistings =
  { creator; sting; antistings = Int_set.of_list antistings }

let equal l1 l2 =
  l1 == l2
  || Pid.equal l1.creator l2.creator
  && l1.sting = l2.sting
  && Int_set.equal l1.antistings l2.antistings

(* Same-creator comparison is the sting/antisting relation; distinct
   creators are ordered by identifier. *)
let precedes l1 l2 =
  if not (Pid.equal l1.creator l2.creator) then Pid.compare l1.creator l2.creator < 0
  else
    (not (equal l1 l2))
    && Int_set.mem l1.sting l2.antistings
    && not (Int_set.mem l2.sting l1.antistings)

let comparable l1 l2 = equal l1 l2 || precedes l1 l2 || precedes l2 l1

let compare_total l1 l2 =
  if l1 == l2 then 0
  else
    let c = Pid.compare l1.creator l2.creator in
    if c <> 0 then c
    else
      let c = Int.compare l1.sting l2.sting in
      if c <> 0 then c else Int_set.compare l1.antistings l2.antistings

let next_label ~creator ~known =
  let excluded =
    List.fold_left (fun acc l -> Int_set.union acc l.antistings) Int_set.empty known
  in
  let rec fresh i = if Int_set.mem i excluded then fresh (i + 1) else i in
  let sting = fresh 0 in
  let antistings =
    List.fold_left (fun acc l -> Int_set.add l.sting acc) Int_set.empty known
  in
  { creator; sting; antistings }

let pp fmt l =
  Format.fprintf fmt "L(p%a, s=%d, A={%a})" Pid.pp l.creator l.sting
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt ",")
       Format.pp_print_int)
    (Int_set.elements l.antistings)
