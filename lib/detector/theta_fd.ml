open Sim

(* Counts are stored inverted: a single [epoch] advances on every arrival,
   and [last] records the epoch at which each processor was last heard.
   A processor's count — "arrivals since we last heard from it" — is then
   [epoch - last].

   The known processors sit in one doubly-linked list ordered by
   (count, pid), i.e. by [last] descending, then pid ascending — exactly
   the order the gap walk needs. A heartbeat gives its sender and [self] the
   newest epoch, so both move to the front: an unlink and a sorted insert
   that stops at the head, O(1) at any N. [trusted] then walks the prefix
   up to the gap without allocating, and [flagged] marks the members of the
   set it returned last, so while membership is unchanged it returns that
   set physically unchanged. *)

module Tbl = Hashtbl.Make (struct
  type t = Pid.t

  let equal = Pid.equal
  let hash p = p land max_int
end)

(* The list lives in parallel int arrays indexed by slot (slot 0 is the
   sentinel of the circular list), so relinking writes no pointers and pays
   no write barrier. *)
type t = {
  n_bound : int;
  theta : int;
  fd_self : Pid.t;
  mutable epoch : int;
  slots : int Tbl.t; (* pid -> slot *)
  mutable pid : int array;
  mutable last : int array;
  mutable prev : int array;
  mutable next : int array;
  mutable flagged : bool array; (* in [cached], [self] excluded *)
  mutable used : int; (* slots handed out, the sentinel included *)
  mutable self_slot : int; (* 0 while [self] is not in the list *)
  mutable known_set : Pid.Set.t;
  mutable cached : Pid.Set.t; (* the last trusted set returned *)
  mutable n_flagged : int; (* flagged slots; -1 when [cached] is stale *)
}

(* slot [a] ranks before slot [b]: smaller count (newer epoch), then
   smaller pid *)
let before t a b =
  t.last.(a) > t.last.(b) || (t.last.(a) = t.last.(b) && Pid.compare t.pid.(a) t.pid.(b) < 0)

let unlink t i =
  t.next.(t.prev.(i)) <- t.next.(i);
  t.prev.(t.next.(i)) <- t.prev.(i)

(* the first slot from [cur] on that does not rank before [i]; a top-level
   function, so a heartbeat allocates no closure *)
let rec find t i cur = if cur <> 0 && before t cur i then find t i t.next.(cur) else cur

let insert_sorted t i =
  let succ = find t i t.next.(0) in
  let pred = t.prev.(succ) in
  t.next.(i) <- succ;
  t.prev.(i) <- pred;
  t.next.(pred) <- i;
  t.prev.(succ) <- i

(* a fresh slot; a forgotten processor's slot is not reused (only tests
   forget) *)
let alloc_slot t =
  let cap = Array.length t.pid in
  if t.used = cap then begin
    let grow a fill =
      let b = Array.make (2 * cap) fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.pid <- grow t.pid 0;
    t.last <- grow t.last 0;
    t.prev <- grow t.prev 0;
    t.next <- grow t.next 0;
    t.flagged <- grow t.flagged false
  end;
  let i = t.used in
  t.used <- i + 1;
  i

let relink t i last =
  unlink t i;
  t.last.(i) <- last;
  insert_sorted t i

(* set [p]'s last-heard epoch, creating its entry on first contact *)
let touch t p last =
  match Tbl.find t.slots p with
  | i -> relink t i last
  | exception Not_found ->
    let i = alloc_slot t in
    t.pid.(i) <- p;
    t.last.(i) <- last;
    t.flagged.(i) <- false;
    Tbl.replace t.slots p i;
    if Pid.equal p t.fd_self then t.self_slot <- i;
    t.known_set <- Pid.Set.add p t.known_set;
    insert_sorted t i

let create ~n_bound ~theta ~self =
  if n_bound <= 0 then invalid_arg "Theta_fd.create: n_bound";
  if theta < 2 then invalid_arg "Theta_fd.create: theta must be >= 2";
  let cap = 8 in
  let t =
    {
      n_bound;
      theta;
      fd_self = self;
      epoch = 0;
      slots = Tbl.create cap;
      pid = Array.make cap 0;
      last = Array.make cap 0;
      prev = Array.make cap 0;
      next = Array.make cap 0;
      flagged = Array.make cap false;
      used = 1;
      self_slot = 0;
      known_set = Pid.Set.empty;
      cached = Pid.Set.singleton self;
      n_flagged = 0;
    }
  in
  touch t self 0;
  t

let self t = t.fd_self

let heartbeat t p =
  t.epoch <- t.epoch + 1;
  if t.self_slot > 0 then relink t t.self_slot t.epoch else touch t t.fd_self t.epoch;
  touch t p t.epoch

(* A forgotten member of the cached set still counts in [n_flagged], so no
   later walk can match the cache until it is rebuilt. *)
let forget t p =
  match Tbl.find t.slots p with
  | exception Not_found -> ()
  | i ->
    unlink t i;
    Tbl.remove t.slots p;
    if i = t.self_slot then t.self_slot <- 0;
    t.known_set <- Pid.Set.remove p t.known_set

(* The gap walk over the (count, pid)-ordered list: the first processor is
   always taken; each next one is taken unless [n_bound] are taken already
   or its count exceeds [theta * (prev + |known|)], [prev] being the count
   before it. The gap threshold scales with the number of known processors:
   between two of a live processor's heartbeats, roughly one message from
   every other known processor arrives, so live counts cluster below a
   small multiple of |known|; a crashed processor's count keeps growing
   past theta * (prev + |known|). The prefix plus [self] is the cached set
   iff every non-self member of the prefix is flagged and no other
   processor is; only then is the set rebuilt. *)
let trusted t =
  let known_count = max 1 (Tbl.length t.slots) in
  let members = ref 0 and hits = ref 0 in
  let cur = ref t.next.(0) and taken = ref 0 and prev = ref 0 in
  let walking = ref true in
  while !walking do
    let i = !cur in
    if i = 0 || !taken >= t.n_bound then walking := false
    else begin
      let c = t.epoch - t.last.(i) in
      if !taken > 0 && c > t.theta * (!prev + known_count) then walking := false (* the gap *)
      else begin
        if i <> t.self_slot then begin
          incr members;
          if t.flagged.(i) then incr hits
        end;
        prev := c;
        incr taken;
        cur := t.next.(i)
      end
    end
  done;
  if not (!hits = !members && !members = t.n_flagged) then begin
    let stop = !cur in
    Array.fill t.flagged 0 (Array.length t.flagged) false;
    let rec collect i acc =
      if i = stop then acc
      else begin
        if i <> t.self_slot then t.flagged.(i) <- true;
        collect t.next.(i) (Pid.Set.add t.pid.(i) acc)
      end
    in
    t.cached <- collect t.next.(0) (Pid.Set.singleton t.fd_self);
    t.n_flagged <- !members
  end;
  t.cached

let estimate t =
  ignore (trusted t);
  t.n_flagged + 1

let count t p =
  match Tbl.find t.slots p with
  | i -> Some (t.epoch - t.last.(i))
  | exception Not_found -> None

let known t = t.known_set

let corrupt t assoc =
  Tbl.reset t.slots;
  t.next.(0) <- 0;
  t.prev.(0) <- 0;
  t.used <- 1;
  t.self_slot <- 0;
  t.known_set <- Pid.Set.empty;
  (* a later entry for the same processor overrides an earlier one *)
  List.iter (fun (p, c) -> touch t p (t.epoch - c)) assoc;
  touch t t.fd_self t.epoch;
  (* re-flag the cached set's members, so an unchanged membership still
     returns the same set; it stays usable only if all of them survived *)
  t.n_flagged <- 0;
  Tbl.iter
    (fun p i ->
      t.flagged.(i) <- (not (Pid.equal p t.fd_self)) && Pid.Set.mem p t.cached;
      if t.flagged.(i) then t.n_flagged <- t.n_flagged + 1)
    t.slots;
  if t.n_flagged <> Pid.Set.cardinal t.cached - 1 then t.n_flagged <- -1

let pp fmt t =
  let rec ranked i acc =
    if i = 0 then List.rev acc else ranked t.next.(i) ((t.epoch - t.last.(i), t.pid.(i)) :: acc)
  in
  Format.fprintf fmt "FD(p%a){%a}" Pid.pp t.fd_self
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
       (fun fmt (c, p) -> Format.fprintf fmt "p%a:%d" Pid.pp p c))
    (ranked t.next.(0) [])
