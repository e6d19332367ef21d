open Sim
open Reconfig

module Phase = Quorum.Phase

(* majRead asks for the members' maximal counter pairs; majWrite stores a
   counter and is answered with a bare acknowledgment ([None]). *)
type req = Read | Write of Counter.t
type round = (req, Counter.pair option) Phase.t

type state = {
  mutable algo : Counter_algo.t option;
  mutable phase : round option;
  mutable read_only : bool; (* the running read is a read-only operation *)
  mutable want_increment : bool;
  mutable want_read : bool;
  mutable increment_result : Counter.t option;
  mutable read_result : Counter.t option option;
  mutable abort_count : int;
  mutable next_id : int;
}

type msg =
  | Gossip of { sent_max : Counter.pair option; last_sent : Counter.pair option }
  | Op of (req, Counter.pair option) Phase.msg

let fresh_state _pid =
  {
    algo = None;
    phase = None;
    read_only = false;
    want_increment = false;
    want_read = false;
    increment_result = None;
    read_result = None;
    abort_count = 0;
    next_id = 0;
  }

let request_increment st =
  st.want_increment <- true;
  st.increment_result <- None

let request_read st =
  st.want_read <- true;
  st.read_result <- None

let increment_result st = st.increment_result
let read_result st = st.read_result
let aborts st = st.abort_count

let ensure_algo ~in_transit_bound ~exhaust_bound (view : msg Stack.scheme_view) st
    members =
  match st.algo with
  | Some algo when Pid.equal_sets (Counter_algo.members algo) members -> algo
  | Some algo ->
    Counter_algo.rebuild algo ~members;
    view.Stack.v_emit "counter.rebuild" "";
    algo
  | None ->
    let algo =
      Counter_algo.create ~self:view.Stack.v_self ~members ~in_transit_bound
        ~exhaust_bound
    in
    st.algo <- Some algo;
    algo

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
let max_from_responses ~exhaust_bound round =
  let returned =
    Pid.Map.fold (fun _ p acc -> match p with Some p -> p :: acc | None -> acc)
      (Phase.replies round) []
  in
  let usable =
    List.filter_map
      (fun (p : Counter.pair) ->
        if Counter.legit p && not (Counter.exhausted ~bound:exhaust_bound p.Counter.mct)
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

let start_write (view : msg Stack.scheme_view) st ~conf ~max_counter =
  let self = view.Stack.v_self in
  let cnt =
    Counter.make ~lbl:max_counter.Counter.lbl ~seqn:(max_counter.Counter.seqn + 1)
      ~wid:self
  in
  let round = Phase.start ~id:(fresh_id st) ~conf (Write cnt) in
  st.phase <- Some round;
  (* a member counts as its own acknowledgment and stores the counter *)
  (match st.algo with
  | Some algo when Pid.Set.mem self conf ->
    Counter_algo.merge algo ~from:self (Counter.pair_of cnt);
    Phase.record round ~from:self None
  | Some _ | None -> ());
  send_requests view round

let finish_write (view : msg Stack.scheme_view) st cnt =
  st.phase <- None;
  st.want_increment <- false;
  st.increment_result <- Some cnt;
  Telemetry.span_end view.Stack.v_telemetry ~labels:[ ("op", "increment") ]
    ~name:"counter.op_seconds" ~key:view.Stack.v_self ~now:view.Stack.v_now;
  view.Stack.v_emit "counter.increment" (Format.asprintf "%a" Counter.pp cnt)

let finish_read_only (view : msg Stack.scheme_view) st result =
  st.phase <- None;
  st.want_read <- false;
  st.read_result <- Some result;
  Telemetry.span_end view.Stack.v_telemetry ~labels:[ ("op", "read") ]
    ~name:"counter.op_seconds" ~key:view.Stack.v_self ~now:view.Stack.v_now;
  view.Stack.v_emit "counter.read"
    (match result with
    | Some c -> Format.asprintf "%a" Counter.pp c
    | None -> "bottom")

(* Finish the running phase once a majority of members answered; a
   finished majRead returns (read-only) or moves on to its majWrite. *)
let rec advance ~exhaust_bound (view : msg Stack.scheme_view) st =
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
        | Some _ | None -> max_from_responses ~exhaust_bound round
      in
      match found with
      | _ when st.read_only ->
        (* the paper's two-phase read returns ⊥ when no comparable
           maximum exists yet *)
        finish_read_only view st found
      | Some m ->
        start_write view st ~conf ~max_counter:m;
        advance ~exhaust_bound view st
      | None ->
        (* incomparable or exhausted counters only: return ⊥ *)
        abort_op view st))
  | Some _ | None -> ()

(* Sends in a fixed order seeded runs rely on: the retransmission, the
   round started this tick, the gossip, then whatever [advance] starts. *)
let tick ~in_transit_bound ~exhaust_bound (view : msg Stack.scheme_view) st =
  let self = view.Stack.v_self in
  match Stack.View.current_members view with
  | None -> () (* reconfiguration taking place *)
  | Some members ->
    (* Algorithm 4.3: members maintain the maximal counter *)
    let algo =
      if not (Pid.Set.mem self members) then None
      else begin
        let algo = ensure_algo ~in_transit_bound ~exhaust_bound view st members in
        if Counter_algo.local_max algo = None then
          ignore (Counter_algo.find_max_counter algo);
        Some algo
      end
    in
    (* start a pending increment or read *)
    let started =
      if (st.want_increment || st.want_read) && st.phase = None then begin
        (* quorum round-trip timing: the span closes in finish_write /
           finish_read_only and is dropped on abort *)
        Telemetry.span_begin view.Stack.v_telemetry ~name:"counter.op_seconds"
          ~key:self ~now:view.Stack.v_now;
        st.read_only <- st.want_read && not st.want_increment;
        let round = Phase.start ~id:(fresh_id st) ~conf:members Read in
        st.phase <- Some round;
        (* a member answers its own read locally *)
        Option.iter
          (fun algo -> Phase.record round ~from:self (Counter_algo.local_max algo))
          algo;
        Some round
      end
      else None
    in
    (* retransmit in-flight requests (messages may be lost); a round
       started this tick is thus sent twice *)
    Option.iter (send_requests view) st.phase;
    Option.iter (send_requests view) started;
    (* ... and gossip the maximal counter to the other members, in
       descending pid order *)
    Option.iter
      (fun algo ->
        let clean p = Option.bind p (Counter_algo.clean_pair algo) in
        let sent_max = clean (Counter_algo.local_max algo) in
        Seq.iter
          (fun pk ->
            if not (Pid.equal pk self) then
              view.Stack.v_send pk
                (Gossip { sent_max; last_sent = clean (Counter_algo.max_of algo pk) }))
          (Pid.Set.to_rev_seq members))
      algo;
    advance ~exhaust_bound view st

let recv ~in_transit_bound ~exhaust_bound (view : msg Stack.scheme_view) ~from m st =
  let members_opt = Stack.View.current_members view in
  (* the local storage, when this node is a member able to serve *)
  let serving () =
    match members_opt with
    | Some members when Pid.Set.mem view.Stack.v_self members ->
      Some (ensure_algo ~in_transit_bound ~exhaust_bound view st members)
    | Some _ | None -> None
  in
  let reply r = view.Stack.v_send from (Op r) in
  match m with
  | Gossip { sent_max; last_sent } -> (
    match members_opt with
    | Some members when Pid.Set.mem from members ->
      Option.iter
        (fun algo ->
          let clean p = Option.bind p (Counter_algo.clean_pair algo) in
          Counter_algo.receipt_action algo ~sent_max:(clean sent_max)
            ~last_sent:(clean last_sent) ~from)
        (serving ())
    | Some _ | None -> ())
  | Op (Phase.Request { id; req }) -> (
    match serving () with
    | None -> reply (Phase.Refuse { id })
    | Some algo -> (
      match req with
      | Read ->
        ignore (Counter_algo.find_max_counter algo);
        reply (Phase.Reply { id; rep = Counter_algo.local_max algo })
      | Write counter ->
        Counter_algo.merge algo ~from (Counter.pair_of counter);
        reply (Phase.Reply { id; rep = None })))
  | Op r -> (
    match st.phase with
    | None -> ()
    | Some round -> (
      match Phase.receive round ~from r with
      | `Replied -> advance ~exhaust_bound view st
      | `Refused -> abort_op view st
      | `Ignored -> ()))

(* Arbitrary-state injection: garbage counter-pair storage plus a scrambled
   in-flight operation. Unmatched telemetry spans this leaves behind are
   counted, not fatal. *)
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
    Counter_algo.corrupt algo
      ~max_entries:(List.map (fun j -> (j, garbage j)) members);
    let conf =
      match Rng.subset rng members with
      | [] -> Pid.set_of_list members
      | l -> Pid.set_of_list l
    in
    st.phase <-
      (match Rng.int rng 3 with
      | 0 -> None
      | 1 ->
        let id = Rng.int rng 1024 in
        st.read_only <- Rng.bool rng;
        Some (Phase.start ~id ~conf Read)
      | _ ->
        let cnt = (garbage (List.hd members)).Counter.mct in
        Some (Phase.start ~id:(Rng.int rng 1024) ~conf (Write cnt)));
    let answered = Rng.subset rng members in
    Option.iter
      (fun round -> List.iter (fun p -> Phase.record round ~from:p None) answered)
      st.phase
  | None -> st.phase <- None);
  st.want_increment <- Rng.bool rng;
  st.want_read <- Rng.bool rng;
  st.next_id <- Rng.int rng 1024

let plugin ~in_transit_bound ~exhaust_bound =
  {
    Stack.p_init = fresh_state;
    p_tick = tick ~in_transit_bound ~exhaust_bound;
    p_recv = recv ~in_transit_bound ~exhaust_bound;
    p_merge = (fun ~self:_ _ _ -> ());
    p_corrupt = corrupt;
  }

let hooks ~in_transit_bound ~exhaust_bound =
  { Stack.unit_hooks with plugin = plugin ~in_transit_bound ~exhaust_bound }
