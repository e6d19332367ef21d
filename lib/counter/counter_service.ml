open Sim
open Reconfig

module Phase = Quorum.Phase

(* majRead asks for the members' maximal counter pairs; majWrite stores a
   counter and is answered with a bare acknowledgment ([None]). *)
type req = Read | Write of Counter.t
type round = (req, Counter.pair option) Phase.t

type state = {
  in_transit_bound : int; (* the plugin's bounds, for [Counter_algo.create] *)
  exhaust_bound : int;
  mutable algo : Counter_algo.t option;
  mutable phase : round option;
  mutable skip_write : bool; (* the increment ends after its majRead *)
  mutable want_increment : bool;
  mutable increment_result : Counter.t option;
  mutable abort_count : int;
  mutable next_id : int;
  mutable gossip_of : Pid.Set.t; (* the member set [gossip_to] lists *)
  mutable gossip_to : Pid.t array; (* its other members, descending *)
}

type msg =
  | Gossip of { sent_max : Counter.pair option; last_sent : Counter.pair option }
  | Op of (req, Counter.pair option) Phase.msg

let fresh_state ~in_transit_bound ~exhaust_bound _pid =
  {
    in_transit_bound;
    exhaust_bound;
    algo = None;
    phase = None;
    skip_write = false;
    want_increment = false;
    increment_result = None;
    abort_count = 0;
    next_id = 0;
    gossip_of = Pid.Set.empty;
    gossip_to = [||];
  }

let request_increment st =
  st.want_increment <- true;
  st.skip_write <- false;
  st.increment_result <- None

let request_next st =
  request_increment st;
  st.skip_write <- true

let pending st = match st.phase with None -> st.want_increment | Some _ -> false
let increment_result st = st.increment_result
let aborts st = st.abort_count

let ensure_algo (view : _ Stack.scheme_view) st members =
  match st.algo with
  | Some algo when Counter_algo.has_members algo members -> algo
  | Some algo ->
    Counter_algo.rebuild algo ~members;
    view.Stack.v_emit "counter.rebuild" "";
    algo
  | None ->
    let algo =
      Counter_algo.create ~self:view.Stack.v_self ~members
        ~in_transit_bound:st.in_transit_bound ~exhaust_bound:st.exhaust_bound
    in
    st.algo <- Some algo;
    algo

(* The local storage, when this node is a member able to serve. *)
let serving view st =
  match Stack.View.current_members view with
  | Some members when Pid.Set.mem view.Stack.v_self members ->
    Some (ensure_algo view st members)
  | Some _ | None -> None

let store view st ~from counter =
  match serving view st with
  | Some algo ->
    Counter_algo.merge algo ~from (Counter.pair_of counter);
    true
  | None -> false

let abort_op (view : msg Stack.scheme_view) st =
  st.phase <- None;
  st.abort_count <- st.abort_count + 1;
  Telemetry.span_drop view.Stack.v_telemetry ~name:"counter.op_seconds"
    ~key:view.Stack.v_self;
  Telemetry.inc view.Stack.v_telemetry "counter.aborts"

let send_requests (view : msg Stack.scheme_view) round =
  Phase.send_requests ~self:view.Stack.v_self round (fun p m ->
      view.Stack.v_send p (Op m))

let fresh_id st =
  let id = st.next_id in
  st.next_id <- id + 1;
  id

(* Did the read phase gather a usable maximum? Members can always settle on
   one through their own storage; non-members need a legit, non-exhausted
   counter dominating every counter returned (Algorithm 4.5). *)
let max_from_responses st round =
  let returned =
    Pid.Map.fold (fun _ p acc -> match p with Some p -> p :: acc | None -> acc)
      (Phase.replies round) []
  in
  let usable =
    List.filter_map
      (fun (p : Counter.pair) ->
        if
          Counter.legit p
          && not (Counter.exhausted ~bound:st.exhaust_bound p.Counter.mct)
        then Some p.Counter.mct
        else None)
      returned
  in
  match Counter.max_of usable with
  | None -> None
  | Some m ->
    let dominated (p : Counter.pair) =
      (not (Counter.legit p))
      || Counter.equal p.Counter.mct m
      || Counter.precedes p.Counter.mct m
    in
    if List.for_all dominated returned then Some m else None

(* The counter after [max_counter], ⟨lbl, seqn + 1, self⟩; a member stores
   it at once, and says so. *)
let next_counter (view : msg Stack.scheme_view) st ~conf ~max_counter =
  let self = view.Stack.v_self in
  let cnt =
    Counter.make ~lbl:max_counter.Counter.lbl ~seqn:(max_counter.Counter.seqn + 1)
      ~wid:self
  in
  match st.algo with
  | Some algo when Pid.Set.mem self conf ->
    Counter_algo.merge algo ~from:self (Counter.pair_of cnt);
    (cnt, true)
  | Some _ | None -> (cnt, false)

let start_write (view : msg Stack.scheme_view) st ~conf ~stored cnt =
  let round = Phase.start ~id:(fresh_id st) ~conf (Write cnt) in
  st.phase <- Some round;
  (* a member that stored the counter counts as its own acknowledgment *)
  if stored then Phase.record round ~from:view.Stack.v_self None;
  send_requests view round

let finish_write (view : msg Stack.scheme_view) st cnt =
  st.phase <- None;
  st.want_increment <- false;
  st.increment_result <- Some cnt;
  Telemetry.span_end view.Stack.v_telemetry ~labels:[ ("op", "increment") ]
    ~name:"counter.op_seconds" ~key:view.Stack.v_self ~now:view.Stack.v_now;
  view.Stack.v_emit "counter.increment" (Format.asprintf "%a" Counter.pp cnt)

(* A member records its own answer when it starts a round. A corrupted
   round may lack it and wait for it forever, so [tick] records it too, or
   aborts the round when this node no longer serves the counter. *)
let answer_self (view : msg Stack.scheme_view) st round =
  let self = view.Stack.v_self in
  if Pid.Set.mem self (Phase.conf round) && not (Pid.Map.mem self (Phase.replies round))
  then
    match (Phase.request round, serving view st) with
    | Read, Some algo -> Phase.record round ~from:self (Counter_algo.local_max algo)
    | Write cnt, Some algo ->
      Counter_algo.merge algo ~from:self (Counter.pair_of cnt);
      Phase.record round ~from:self None
    | (Read | Write _), None -> abort_op view st

(* Finish the running phase once a majority of members answered; a
   finished majRead returns the next counter ([skip_write]) or moves on to
   its majWrite. *)
let rec advance (view : msg Stack.scheme_view) st =
  match st.phase with
  | Some round when Phase.complete round -> (
    match Phase.request round with
    | Write cnt -> finish_write view st cnt
    | Read -> (
      let conf = Phase.conf round in
      let found =
        match st.algo with
        | Some algo when Pid.Set.mem view.Stack.v_self conf ->
          (* member: fold the answers into the local storage and settle
             (Algorithm 4.4: repeat findMaxCounter until legit and not
             exhausted — our find_max_counter creates a fresh epoch when
             needed, so one call suffices) *)
          Pid.Map.iter
            (fun from p -> Option.iter (Counter_algo.merge algo ~from) p)
            (Phase.replies round);
          Some (Counter_algo.find_max_counter algo)
        | Some _ | None -> max_from_responses st round
      in
      match found with
      | Some m ->
        let cnt, stored = next_counter view st ~conf ~max_counter:m in
        if st.skip_write then finish_write view st cnt
        else begin
          start_write view st ~conf ~stored cnt;
          advance view st
        end
      | None ->
        (* incomparable or exhausted counters only: return ⊥ *)
        abort_op view st))
  | Some _ | None -> ()


(* Algorithm 4.3: a member maintains the maximal counter; [None] at a
   non-member. *)
let maintained (view : msg Stack.scheme_view) st members =
  if not (Pid.Set.mem view.Stack.v_self members) then None
  else begin
    let algo = ensure_algo view st members in
    if Counter_algo.local_max algo = None then
      ignore (Counter_algo.find_max_counter algo);
    Some algo
  end

(* Start the pending increment's majRead (the do-forever loop of
   Algorithm 4.4), on a tick or a receipt alike; a member answers its own
   read locally. The requests leave twice: each delivery attempt takes a
   random queued packet from its link, so a second copy reaches the
   members sooner. With one send instead, perfbench's steady workload
   (N=8, seed 7, 4 s) went from 2.29 to 2.53 sim-s at op p50, from 480 to
   514 engine steps per op and from 1.24 to 1.58 sim-s per majRead
   (--trace 1). *)
let start_increment (view : msg Stack.scheme_view) st ~members algo =
  let self = view.Stack.v_self in
  (* quorum round-trip timing: the span closes in finish_write and is
     dropped on abort *)
  Telemetry.span_begin view.Stack.v_telemetry ~name:"counter.op_seconds" ~key:self
    ~now:view.Stack.v_now;
  let round = Phase.start ~id:(fresh_id st) ~conf:members Read in
  st.phase <- Some round;
  Option.iter
    (fun algo -> Phase.record round ~from:self (Counter_algo.local_max algo))
    algo;
  send_requests view round;
  send_requests view round

(* Sends in a fixed order seeded runs rely on: the retransmission, the
   round started this tick, the gossip, then whatever [advance] starts. *)
let tick (view : msg Stack.scheme_view) st =
  let self = view.Stack.v_self in
  match Stack.View.current_members view with
  | None -> () (* reconfiguration taking place *)
  | Some members ->
    let algo = maintained view st members in
    (match st.phase with Some round -> answer_self view st round | None -> ());
    (* retransmit in-flight requests (messages may be lost) *)
    Option.iter (send_requests view) st.phase;
    if pending st then start_increment view st ~members algo;
    (* ... and gossip the maximal counter to the other members, in
       descending pid order; the order is listed once per member set *)
    Option.iter
      (fun algo ->
        if members != st.gossip_of then begin
          st.gossip_of <- members;
          st.gossip_to <-
            Array.of_list (List.rev (Pid.Set.elements (Pid.Set.remove self members)))
        end;
        let sent_max = Counter_algo.clean algo (Counter_algo.local_max algo) in
        Array.iter
          (fun pk ->
            let last_sent = Counter_algo.clean algo (Counter_algo.max_of algo pk) in
            view.Stack.v_send pk (Gossip { sent_max; last_sent }))
          st.gossip_to)
      algo;
    advance view st

(* The receipt path's start: a pending increment starts in the first
   receipt step after it was requested, unless a reconfiguration is taking
   place. *)
let start (view : msg Stack.scheme_view) st =
  if pending st then
    match Stack.View.current_members view with
    | None -> ()
    | Some members ->
      start_increment view st ~members (maintained view st members);
      advance view st

let recv (view : msg Stack.scheme_view) ~from m st =
  let reply r = view.Stack.v_send from (Op r) in
  match m with
  | Gossip { sent_max; last_sent } -> (
    match Stack.View.current_members view with
    | Some members
      when Pid.Set.mem from members && Pid.Set.mem view.Stack.v_self members ->
      let algo = ensure_algo view st members in
      Counter_algo.receipt_action algo ~sent_max:(Counter_algo.clean algo sent_max)
        ~last_sent:(Counter_algo.clean algo last_sent) ~from
    | Some _ | None -> ())
  | Op (Phase.Request { id; req = Read }) -> (
    match serving view st with
    | None -> reply (Phase.Refuse { id })
    | Some algo ->
      ignore (Counter_algo.find_max_counter algo);
      reply (Phase.Reply { id; rep = Counter_algo.local_max algo }))
  | Op (Phase.Request { id; req = Write counter }) ->
    if store view st ~from counter then
      reply (Phase.Reply { id; rep = None })
    else reply (Phase.Refuse { id })
  | Op r -> (
    match st.phase with
    | None -> ()
    | Some round -> (
      match Phase.receive round ~from r with
      | `Replied -> advance view st
      | `Refused -> abort_op view st
      | `Ignored -> ()))

(* Arbitrary-state injection: garbage counter-pair storage plus a scrambled
   in-flight operation. Each queue j gets a garbage label of j and one of a
   randomly drawn member, so both the cancellations and the staleInfo flush
   of a misfiled queue are reachable. Unmatched telemetry spans this leaves
   behind are counted, not fatal. *)
let corrupt rng st =
  (match st.algo with
  | Some algo ->
    let members = Pid.Set.elements (Counter_algo.members algo) in
    let garbage j =
      let lbl =
        Labels.Label.make ~creator:j ~sting:(Rng.int rng 1024)
          ~antistings:[ Rng.int rng 1024 ]
      in
      Counter.pair_of (Counter.make ~lbl ~seqn:(Rng.int rng 8) ~wid:j)
    in
    let max_entries = List.map (fun j -> (j, garbage j)) members in
    let stored_entries =
      List.map
        (fun j ->
          let own = garbage j in
          let other = garbage (Rng.pick rng members) in
          (j, [ own; other ]))
        members
    in
    Counter_algo.corrupt algo ~max_entries ~stored_entries;
    let conf =
      match Rng.subset rng members with
      | [] -> Pid.set_of_list members
      | l -> Pid.set_of_list l
    in
    st.phase <-
      (match Rng.int rng 3 with
      | 0 -> None
      | 1 -> Some (Phase.start ~id:(Rng.int rng 1024) ~conf Read)
      | _ ->
        let cnt = (garbage (List.hd members)).Counter.mct in
        Some (Phase.start ~id:(Rng.int rng 1024) ~conf (Write cnt)));
    let answered = Rng.subset rng members in
    Option.iter
      (fun round -> List.iter (fun p -> Phase.record round ~from:p None) answered)
      st.phase
  | None -> st.phase <- None);
  st.want_increment <- Rng.bool rng;
  st.next_id <- Rng.int rng 1024;
  st.skip_write <- Rng.bool rng

let plugin ~in_transit_bound ~exhaust_bound =
  {
    Stack.p_init = fresh_state ~in_transit_bound ~exhaust_bound;
    p_tick = tick;
    p_recv = recv;
    p_pending = pending;
    p_start = start;
    p_merge = (fun ~self:_ _ _ -> ());
    p_corrupt = corrupt;
  }

let hooks ~in_transit_bound ~exhaust_bound =
  { Stack.unit_hooks with plugin = plugin ~in_transit_bound ~exhaust_bound }

let algo st = st.algo

let max_label st =
  match Option.bind st.algo Counter_algo.local_max with
  | Some p when Counter.legit p -> Some p.Counter.mct.Counter.lbl
  | Some _ | None -> None

let agreed_label sys =
  let members = Option.value ~default:Pid.Set.empty (Stack.uniform_config sys) in
  match
    List.filter_map
      (fun (p, n) -> if Pid.Set.mem p members then Some (max_label n.Stack.app) else None)
      (Stack.live_nodes sys)
  with
  | [] -> None
  | first :: rest ->
    if List.for_all (Option.equal Labels.Label.equal first) rest then first else None

let label_creations sys =
  List.fold_left
    (fun acc (_, n) ->
      match n.Stack.app.algo with
      | Some algo -> acc + Counter_algo.label_creations algo
      | None -> acc)
    0 (Stack.live_nodes sys)
