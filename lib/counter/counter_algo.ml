open Sim
open Labels

(* [find_max_counter] is a function of (max, store) and constants, and
   every step below leaves a map physically unchanged when it changes
   nothing. So when a full run leaves both maps physically unchanged, the
   state is a fixed point: until either map is replaced, another run would
   return the same counter and change nothing, and [fixed] remembers that.
   A run that changed anything is no fixed point — on corrupted states
   [sync_cancellations] can swap a just-settled max for its canceled twin —
   so only a run that changed nothing may mark the state clean.

   A same-label raise ([raise_in_label]) keeps the record valid with one
   step pending: while both maps are the recorded ones, a full run would
   change at most max[self], which [settle] sets to [fp_result], and the
   state it leaves is a fixed point. [settle_fixed] takes that step. *)
type fixed_point = {
  mutable fp_max : Counter.pair Pid.Map.t;
  mutable fp_store : Counter.pair list Pid.Map.t;
  mutable fp_result : Counter.t;
}

type t = {
  ca_self : Pid.t;
  mutable ca_members : Pid.Set.t;
  mutable n_members : int; (* |ca_members| *)
  mutable max : Counter.pair Pid.Map.t;
  mutable store : Counter.pair list Pid.Map.t; (* per label-creator queues *)
  m_bound : int;
  exhaust : int;
  mutable label_creations : int;
  mutable fixed : fixed_point option;
}

let create ~self ~members ~in_transit_bound ~exhaust_bound =
  {
    ca_self = self;
    ca_members = members;
    n_members = Pid.Set.cardinal members;
    max = Pid.Map.empty;
    store = Pid.Map.empty;
    m_bound = max 1 in_transit_bound;
    exhaust = exhaust_bound;
    label_creations = 0;
    fixed = None;
  }

let self t = t.ca_self
let members t = t.ca_members

(* An equal set replaces the stored one, so the next check against the
   caller's set is one pointer comparison and allocates nothing. *)
let has_members t members =
  members == t.ca_members
  || Pid.Set.equal members t.ca_members
     && begin
       t.ca_members <- members;
       true
     end

let exhaust_bound t = t.exhaust
let local_max t = Pid.Map.find_opt t.ca_self t.max
let max_of t j = Pid.Map.find_opt j t.max
let label_creations t = t.label_creations
let stored t j = match Pid.Map.find j t.store with q -> q | exception Not_found -> []

let queue_bound t j =
  let v = Int.max 1 t.n_members in
  if Pid.equal j t.ca_self then (v * ((v * v) + t.m_bound)) + v else v + t.m_bound

let truncate n l =
  let rec go n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: go (n - 1) rest
  in
  go n l

let same_label (a : Counter.pair) (b : Counter.pair) =
  Label.equal a.Counter.mct.Counter.lbl b.Counter.mct.Counter.lbl

let pair_equal (a : Counter.pair) (b : Counter.pair) =
  a == b
  || Counter.equal a.Counter.mct b.Counter.mct
     && Option.equal Counter.equal a.Counter.cct b.Counter.cct

(* [Pid.Map.map] / [List.map] that return their argument itself when [f]
   returns every element physically unchanged *)
let map_values f m =
  Pid.Map.fold
    (fun k v acc ->
      let v' = f v in
      if v' == v then acc else Pid.Map.add k v' acc)
    m m

let rec map_list f l =
  match l with
  | [] -> l
  | x :: rest ->
    let x' = f x in
    let rest' = map_list f rest in
    if x' == x && rest' == rest then l else x' :: rest'

(* Merging two pairs with the same label: a canceled copy wins; otherwise
   the greater ⟨seqn, wid⟩ wins. *)
let merge_pair (a : Counter.pair) (b : Counter.pair) =
  match (Counter.legit a, Counter.legit b) with
  | false, true -> a
  | true, false -> b
  | _ ->
    if Counter.precedes a.Counter.mct b.Counter.mct then b
    else if Counter.precedes b.Counter.mct a.Counter.mct then a
    else a

(* [List.exists (same_label p)], allocating no closure *)
let rec label_in (p : Counter.pair) = function
  | [] -> false
  | h :: rest -> same_label p h || label_in p rest

(* The pair's label heads its creator's queue [q] and appears nowhere else
   in it, and [q] is within its bound: adding the pair then merges into the
   head alone. *)
let heads_queue t (p : Counter.pair) q =
  match q with
  | h :: rest ->
    same_label p h
    && (not (label_in p rest))
    && List.compare_length_with q (queue_bound t p.Counter.mct.Counter.lbl.Label.creator)
       <= 0
  | [] -> false

let store_add t (p : Counter.pair) =
  let creator = p.Counter.mct.Counter.lbl.Label.creator in
  let q = stored t creator in
  match q with
  | h :: rest when heads_queue t p q ->
    (* the partition below would rebuild [merged :: rest]; an unchanged
       head leaves the queue alone *)
    let merged = merge_pair p h in
    if not (pair_equal merged h) then
      t.store <- Pid.Map.add creator (merged :: rest) t.store
  | _ ->
    let bound = queue_bound t creator in
    let q' =
      match List.partition (same_label p) q with
      | [], rest -> truncate bound (p :: rest)
      | dups, rest ->
        let merged = List.fold_left merge_pair p dups in
        truncate bound (merged :: rest)
    in
    t.store <- Pid.Map.add creator q' t.store

(* cleanLP: a pair is kept iff its label's creator is a member *)
let keeps t (p : Counter.pair) =
  Pid.Set.mem p.Counter.mct.Counter.lbl.Label.creator t.ca_members

let clean t = function
  | Some p as kept when keeps t p -> kept
  | Some _ | None -> None

let clean_max t = t.max <- Pid.Map.filter (fun _ p -> keeps t p) t.max

(* Cancel pairs whose counter is exhausted, both in max[] and the store. *)
let cancel_exhausted t =
  let fix (p : Counter.pair) =
    if Counter.legit p && Counter.exhausted ~bound:t.exhaust p.Counter.mct then
      Counter.cancel p
    else p
  in
  t.max <- map_values fix t.max;
  t.store <- map_values (map_list fix) t.store

(* Cancel stored legit pairs whose label is dominated by (or incomparable
   with) another stored pair of the same creator. *)
let cancel_dominated t =
  t.store <-
    map_values
      (fun q ->
        map_list
          (fun (p : Counter.pair) ->
            if not (Counter.legit p) then p
            else if
              List.exists
                (fun (p' : Counter.pair) ->
                  (not (same_label p' p))
                  && Pid.equal p'.Counter.mct.Counter.lbl.Label.creator
                       p.Counter.mct.Counter.lbl.Label.creator
                  && not
                       (Label.precedes p'.Counter.mct.Counter.lbl
                          p.Counter.mct.Counter.lbl))
                q
            then { p with Counter.cct = Some p.Counter.mct }
            else p)
          q)
      t.store

let sync_cancellations t =
  Pid.Map.iter
    (fun _ (mp : Counter.pair) -> if not (Counter.legit mp) then store_add t mp)
    t.max;
  t.max <-
    map_values
      (fun (mp : Counter.pair) ->
        if Counter.legit mp then
          match
            List.find_opt
              (fun p -> same_label p mp && not (Counter.legit p))
              (stored t mp.Counter.mct.Counter.lbl.Label.creator)
          with
          | Some canceled -> canceled
          | None -> mp
        else mp)
      t.max

let all_known_labels t =
  let from_pair acc (p : Counter.pair) =
    let acc = p.Counter.mct.Counter.lbl :: acc in
    match p.Counter.cct with Some c -> c.Counter.lbl :: acc | None -> acc
  in
  let acc = Pid.Map.fold (fun _ q acc -> List.fold_left from_pair acc q) t.store [] in
  Pid.Map.fold (fun _ p acc -> from_pair acc p) t.max acc

let fresh_epoch t =
  let lbl = Label.next_label ~creator:t.ca_self ~known:(all_known_labels t) in
  t.label_creations <- t.label_creations + 1;
  let c = Counter.make ~lbl ~seqn:0 ~wid:t.ca_self in
  let p = Counter.pair_of c in
  store_add t p;
  t.max <- Pid.Map.add t.ca_self p t.max;
  c

let settle t =
  let candidates =
    Pid.Map.fold
      (fun _ (p : Counter.pair) acc ->
        if Counter.legit p && not (Counter.exhausted ~bound:t.exhaust p.Counter.mct)
        then p.Counter.mct :: acc
        else acc)
      t.max []
  in
  let candidates =
    Pid.Map.fold
      (fun _ q acc ->
        List.fold_left
          (fun acc (p : Counter.pair) ->
            if Counter.legit p && not (Counter.exhausted ~bound:t.exhaust p.Counter.mct)
            then p.Counter.mct :: acc
            else acc)
          acc q)
      t.store candidates
  in
  match Counter.max_of candidates with
  | Some c ->
    (match local_max t with
    | Some p when Counter.legit p && Counter.equal p.Counter.mct c -> ()
    | Some _ | None -> t.max <- Pid.Map.add t.ca_self (Counter.pair_of c) t.max);
    c
  | None -> fresh_epoch t

(* staleInfo (Algorithm 4.2 line 20): some queue holds a pair whose label
   its index did not create. Only corruption misfiles a pair: [store_add]
   files each under its label's creator. [misfiled] is closed, so the walk
   over the store allocates nothing. *)
let rec misfiled j = function
  | [] -> false
  | (p : Counter.pair) :: rest ->
    (not (Pid.equal p.Counter.mct.Counter.lbl.Label.creator j)) || misfiled j rest

(* The one step a full run at a recorded fixed point can still take:
   [settle]'s update of max[self]. *)
let settle_fixed t fp =
  let c = fp.fp_result in
  (match Pid.Map.find t.ca_self t.max with
  | mine when Counter.legit mine && Counter.equal mine.Counter.mct c -> ()
  | _ | (exception Not_found) ->
    t.max <- Pid.Map.add t.ca_self (Counter.pair_of c) t.max;
    fp.fp_max <- t.max);
  c

(* A full run starts with line 20's flush, so a fixed point's store was
   checked when the fixed point was recorded and a skipped run skips no
   flush. *)
let find_max_counter t =
  match t.fixed with
  | Some fp when fp.fp_max == t.max && fp.fp_store == t.store -> settle_fixed t fp
  | Some _ | None ->
    let max0 = t.max and store0 = t.store in
    if Pid.Map.exists misfiled t.store then t.store <- Pid.Map.empty;
    cancel_exhausted t;
    cancel_dominated t;
    sync_cancellations t;
    let c = settle t in
    t.fixed <-
      (if t.max == max0 && t.store == store0 then
         Some { fp_max = max0; fp_store = store0; fp_result = c }
       else None);
    c

let merge_full t ~from p =
  (match Pid.Map.find_opt from t.max with
  | Some existing when existing == p -> () (* gossip repeating itself *)
  | Some existing when same_label existing p ->
    t.max <- Pid.Map.add from (merge_pair existing p) t.max
  | Some _ | None -> t.max <- Pid.Map.add from p t.max);
  store_add t p

let receipt_action_full t ~sent_max ~last_sent ~from =
  (match sent_max with
  | Some p -> merge_full t ~from p
  | None -> if not (Pid.equal from t.ca_self) then t.max <- Pid.Map.remove from t.max);
  (match (last_sent, local_max t) with
  | Some ls, Some mine when (not (Counter.legit ls)) && same_label ls mine ->
    t.max <- Pid.Map.add t.ca_self ls t.max;
    store_add t ls
  | _ -> ());
  ignore (find_max_counter t)

(* Adding [p] to the store changes nothing: it merges into the head of its
   creator's queue, which keeps its value. *)
let store_keeps t (p : Counter.pair) =
  let q = stored t p.Counter.mct.Counter.lbl.Label.creator in
  match q with
  | h :: _ -> heads_queue t p q && pair_equal (merge_pair p h) h
  | [] -> false

(* The same-label raise at fixed point [fp] with result [c]: [p], legit
   and not exhausted, carries [c]'s label, and so do [old], the stored
   legit max[from], and the legit head of the label's queue, the only
   entry of that queue with the label. Merging [p] then changes no label
   and no cancellation, only the ⟨seqn, wid⟩ of counters of [c]'s label,
   and [c] was the greatest of those. So every cancellation step of a full
   run would change nothing, and [settle] would choose [c] or [p.mct],
   whichever is greater: merge, and record that result with the new maps,
   max[self] not yet settled. (At a fixed point a legit [old] and a legit
   head of its label imply each other, through [sync_cancellations];
   both are tested, as the argument reads both.) *)
let raise_in_label t fp ~from ~(old : Counter.pair) (p : Counter.pair) =
  let c = fp.fp_result in
  let lbl = p.Counter.mct.Counter.lbl in
  Counter.legit p
  && (not (Counter.exhausted ~bound:t.exhaust p.Counter.mct))
  && Label.equal lbl c.Counter.lbl
  && Counter.legit old
  && same_label old p
  &&
  match stored t lbl.Label.creator with
  | h :: rest as q when Counter.legit h && heads_queue t p q ->
    let m = merge_pair old p in
    if m != old then t.max <- Pid.Map.add from m t.max;
    let merged = merge_pair p h in
    if not (pair_equal merged h) then
      t.store <- Pid.Map.add lbl.Label.creator (merged :: rest) t.store;
    if Counter.precedes c p.Counter.mct then fp.fp_result <- p.Counter.mct;
    fp.fp_max <- t.max;
    fp.fp_store <- t.store;
    true
  | _ -> false

(* Merge [p] from [from] in constant time, keeping the fixed point, when
   the state is at one and [p] repeats the stored max[from] (and adding it
   keeps the store) or raises it within the result's label. *)
let absorb t ~from (p : Counter.pair) =
  match t.fixed with
  | Some fp when fp.fp_max == t.max && fp.fp_store == t.store -> (
    match Pid.Map.find from t.max with
    | old -> (old == p && store_keeps t p) || raise_in_label t fp ~from ~old p
    | exception Not_found -> false)
  | Some _ | None -> false

let merge t ~from p = if not (absorb t ~from p) then merge_full t ~from p

(* A receipt that echoes no cancellation and whose pair [absorb] takes
   leaves the fixed point valid, so its findMaxCounter is [settle_fixed]. *)
let receipt_action t ~sent_max ~last_sent ~from =
  let absorbed =
    match (sent_max, last_sent) with
    | Some p, (None | Some { Counter.cct = None; _ }) -> absorb t ~from p
    | _ -> false
  in
  if absorbed then ignore (find_max_counter t)
  else receipt_action_full t ~sent_max ~last_sent ~from

let rebuild t ~members =
  t.ca_members <- members;
  t.n_members <- Pid.Set.cardinal members;
  t.fixed <- None;
  t.store <- Pid.Map.empty;
  clean_max t;
  let own = local_max t in
  t.max <-
    (match own with Some p -> Pid.Map.singleton t.ca_self p | None -> Pid.Map.empty);
  ignore (find_max_counter t)

let corrupt t ~max_entries ~stored_entries =
  t.fixed <- None;
  List.iter (fun (j, p) -> t.max <- Pid.Map.add j p t.max) max_entries;
  List.iter (fun (j, q) -> t.store <- Pid.Map.add j q t.store) stored_entries

let pp fmt t =
  Format.fprintf fmt "counters(p%a) max=%a" Pid.pp t.ca_self
    (fun fmt m ->
      Pid.Map.iter (fun j p -> Format.fprintf fmt "[%a]=%a " Pid.pp j Counter.pp_pair p) m)
    t.max
