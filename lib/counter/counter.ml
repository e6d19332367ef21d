open Sim
open Labels

type t = { lbl : Label.t; seqn : int; wid : Pid.t }

let make ~lbl ~seqn ~wid = { lbl; seqn; wid }

let equal c1 c2 =
  c1 == c2 || (Label.equal c1.lbl c2.lbl && c1.seqn = c2.seqn && Pid.equal c1.wid c2.wid)

let precedes c1 c2 =
  if Label.equal c1.lbl c2.lbl then
    c1.seqn < c2.seqn || (c1.seqn = c2.seqn && Pid.compare c1.wid c2.wid < 0)
  else Label.precedes c1.lbl c2.lbl

let comparable c1 c2 = equal c1 c2 || precedes c1 c2 || precedes c2 c1
let exhausted ~bound c = c.seqn >= bound

let compare_total c1 c2 =
  let c = Label.compare_total c1.lbl c2.lbl in
  if c <> 0 then c
  else
    let c = Int.compare c1.seqn c2.seqn in
    if c <> 0 then c else Pid.compare c1.wid c2.wid

let max_of counters =
  match counters with
  | [] -> None
  | first :: _ ->
    let best pool =
      List.fold_left
        (fun best c -> if compare_total c best > 0 then c else best)
        (List.hd pool) (List.tl pool)
    in
    (* labels of distinct creators are ordered by creator, so every counter
       is preceded by each counter of the greatest creator present: only
       those [rivals] can be maximal, and the quadratic search for the
       maximal ones runs over them alone *)
    let top =
      List.fold_left
        (fun m c -> if Pid.compare c.lbl.Label.creator m > 0 then c.lbl.Label.creator else m)
        first.lbl.Label.creator counters
    in
    let rivals = List.filter (fun c -> Pid.equal c.lbl.Label.creator top) counters in
    (match rivals with
    | r :: rest when List.for_all (fun c -> Label.equal c.lbl r.lbl) rest ->
      (* one label: precedes is the <seqn, wid> order, which compare_total
         extends, so the first compare_total-largest rival is the first
         maximal one *)
      Some (best rivals)
    | _ ->
      let maximal =
        List.filter (fun c -> not (List.exists (fun c' -> precedes c c') rivals)) rivals
      in
      Some (best (match maximal with [] -> counters | _ -> maximal)))

let pp fmt c = Format.fprintf fmt "<%a, %d, w%a>" Label.pp c.lbl c.seqn Pid.pp c.wid

type pair = { mct : t; cct : t option }

let pair_of c = { mct = c; cct = None }
let legit p = match p.cct with None -> true | Some _ -> false
let cancel p = { p with cct = Some p.mct }

let pp_pair fmt p =
  match p.cct with
  | None -> Format.fprintf fmt "<%a, _>" pp p.mct
  | Some _ -> Format.fprintf fmt "<%a, X>" pp p.mct
