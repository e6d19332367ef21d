open Sim
open Reconfig

type phase =
  | Idle
  | Reading of { rid : int; conf : Pid.Set.t; read_only : bool }
  | Writing of { rid : int; conf : Pid.Set.t; cnt : Counter.t }

type state = {
  mutable algo : Counter_algo.t option;
  mutable phase : phase;
  mutable responses : Counter.pair option Pid.Map.t; (* majRead answers *)
  mutable acks : Pid.Set.t; (* majWrite answers *)
  mutable want_increment : bool;
  mutable want_read : bool;
  mutable results_rev : Counter.t list;
  mutable read_results_rev : Counter.t option list;
  mutable abort_count : int;
  mutable next_rid : int;
}

type msg =
  | Gossip of { sent_max : Counter.pair option; last_sent : Counter.pair option }
  | Read_request of { rid : int }
  | Read_response of { rid : int; counter : Counter.pair option }
  | Write_request of { rid : int; counter : Counter.t }
  | Write_ack of { rid : int }
  | Abort of { rid : int }

let fresh_state _pid =
  {
    algo = None;
    phase = Idle;
    responses = Pid.Map.empty;
    acks = Pid.Set.empty;
    want_increment = false;
    want_read = false;
    results_rev = [];
    read_results_rev = [];
    abort_count = 0;
    next_rid = 0;
  }

let request_increment st = st.want_increment <- true
let request_read st = st.want_read <- true
let results st = List.rev st.results_rev
let read_results st = List.rev st.read_results_rev
let aborts st = st.abort_count

let local_max st =
  Option.bind st.algo (fun a ->
      match Counter_algo.local_max a with
      | Some p when Counter.legit p -> Some p.Counter.mct
      | Some _ | None -> None)

let label_creations st =
  match st.algo with Some a -> Counter_algo.label_creations a | None -> 0

let ensure_algo ~in_transit_bound ~exhaust_bound (view : Stack.scheme_view) st
    members =
  match st.algo with
  | Some algo when Pid.Set.equal (Counter_algo.members algo) members -> algo
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

let abort_op (view : Stack.scheme_view) st =
  st.phase <- Idle;
  st.responses <- Pid.Map.empty;
  st.acks <- Pid.Set.empty;
  st.abort_count <- st.abort_count + 1;
  Telemetry.span_drop view.Stack.v_telemetry ~name:"counter.op_seconds"
    ~key:view.Stack.v_self;
  Telemetry.inc view.Stack.v_telemetry "counter.aborts"

let majority conf = Quorum.majority_threshold (Pid.Set.cardinal conf)

(* Did the read phase gather a usable maximum? Members can always settle on
   one through their own storage; non-members need a legit, non-exhausted
   counter dominating every counter returned (Algorithm 4.5). *)
let max_from_responses ~exhaust_bound st =
  let returned =
    Pid.Map.fold (fun _ p acc -> match p with Some p -> p :: acc | None -> acc)
      st.responses []
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

let start_write (view : Stack.scheme_view) st ~conf ~max_counter =
  let self = view.Stack.v_self in
  let rid = st.next_rid in
  st.next_rid <- st.next_rid + 1;
  let cnt =
    Counter.make ~lbl:max_counter.Counter.lbl ~seqn:(max_counter.Counter.seqn + 1)
      ~wid:self
  in
  st.phase <- Writing { rid; conf; cnt };
  st.acks <- Pid.Set.empty;
  let out =
    Pid.Set.fold
      (fun p acc ->
        if Pid.equal p self then acc else (p, Write_request { rid; counter = cnt }) :: acc)
      conf []
  in
  (* a member counts as its own acknowledgment and stores the counter *)
  (match st.algo with
  | Some algo when Pid.Set.mem self conf ->
    Counter_algo.merge algo ~from:self (Counter.pair_of cnt);
    st.acks <- Pid.Set.add self st.acks
  | Some _ | None -> ());
  out

let finish_write (view : Stack.scheme_view) st cnt =
  st.phase <- Idle;
  st.responses <- Pid.Map.empty;
  st.acks <- Pid.Set.empty;
  st.want_increment <- false;
  st.results_rev <- cnt :: st.results_rev;
  Telemetry.span_end view.Stack.v_telemetry ~labels:[ ("op", "increment") ]
    ~name:"counter.op_seconds" ~key:view.Stack.v_self ~now:view.Stack.v_now;
  view.Stack.v_emit "counter.increment" (Format.asprintf "%a" Counter.pp cnt)

let finish_read_only (view : Stack.scheme_view) st result =
  st.phase <- Idle;
  st.responses <- Pid.Map.empty;
  st.want_read <- false;
  st.read_results_rev <- result :: st.read_results_rev;
  Telemetry.span_end view.Stack.v_telemetry ~labels:[ ("op", "read") ]
    ~name:"counter.op_seconds" ~key:view.Stack.v_self ~now:view.Stack.v_now;
  view.Stack.v_emit "counter.read"
    (match result with
    | Some c -> Format.asprintf "%a" Counter.pp c
    | None -> "bottom")

let maybe_finish_read ~exhaust_bound (view : Stack.scheme_view) st =
  match st.phase with
  | Reading { rid = _; conf; read_only }
    when Pid.Map.cardinal st.responses >= majority conf -> (
    let self = view.Stack.v_self in
    match st.algo with
    | Some algo when Pid.Set.mem self conf ->
      (* member: fold the answers into the local storage and settle
         (Algorithm 4.4: repeat findMaxCounter until legit and not
         exhausted — our find_max_counter creates a fresh epoch when
         needed, so one call suffices) *)
      Pid.Map.iter
        (fun from p -> match p with Some p -> Counter_algo.merge algo ~from p | None -> ())
        st.responses;
      let m = Counter_algo.find_max_counter algo in
      if read_only then begin
        finish_read_only view st (Some m);
        []
      end
      else start_write view st ~conf ~max_counter:m
    | Some _ | None -> (
      match max_from_responses ~exhaust_bound st with
      | Some m ->
        if read_only then begin
          finish_read_only view st (Some m);
          []
        end
        else start_write view st ~conf ~max_counter:m
      | None ->
        if read_only then begin
          (* the paper's two-phase read returns ⊥ when no comparable
             maximum exists yet *)
          finish_read_only view st None;
          []
        end
        else begin
          (* incomparable or exhausted counters only: return ⊥ *)
          abort_op view st;
          []
        end))
  | Idle | Reading _ | Writing _ -> []

let maybe_finish_write (view : Stack.scheme_view) st =
  match st.phase with
  | Writing { rid = _; conf; cnt } when Pid.Set.cardinal st.acks >= majority conf ->
    finish_write view st cnt;
    []
  | Idle | Reading _ | Writing _ -> []

let tick ~in_transit_bound ~exhaust_bound (view : Stack.scheme_view) st =
  let self = view.Stack.v_self in
  match Stack.View.current_members view with
  | None -> (st, []) (* reconfiguration taking place *)
  | Some members ->
    let is_member = Pid.Set.mem self members in
    let out = ref [] in
    (* Algorithm 4.3: members maintain and gossip the maximal counter *)
    if is_member then begin
      let algo = ensure_algo ~in_transit_bound ~exhaust_bound view st members in
      if Counter_algo.local_max algo = None then
        ignore (Counter_algo.find_max_counter algo);
      let clean p = Option.bind p (Counter_algo.clean_pair algo) in
      Pid.Set.iter
        (fun pk ->
          if not (Pid.equal pk self) then
            out :=
              ( pk,
                Gossip
                  {
                    sent_max = clean (Counter_algo.local_max algo);
                    last_sent = clean (Counter_algo.max_of algo pk);
                  } )
              :: !out)
        members
    end;
    (* start a pending increment or read *)
    (if (st.want_increment || st.want_read) && st.phase = Idle then begin
       (* quorum round-trip timing: the span closes in finish_write /
          finish_read_only and is dropped on abort *)
       Telemetry.span_begin view.Stack.v_telemetry ~name:"counter.op_seconds"
         ~key:self ~now:view.Stack.v_now;
       let rid = st.next_rid in
       st.next_rid <- st.next_rid + 1;
       st.phase <-
         Reading
           { rid; conf = members; read_only = st.want_read && not st.want_increment };
       st.responses <- Pid.Map.empty;
       (* a member answers its own read locally *)
       (if is_member then
          match st.algo with
          | Some algo ->
            st.responses <-
              Pid.Map.add self (Counter_algo.local_max algo) st.responses
          | None -> ());
       Pid.Set.iter
         (fun p ->
           if not (Pid.equal p self) then out := (p, Read_request { rid }) :: !out)
         members
     end);
    (* retransmit in-flight requests (messages may be lost) *)
    (match st.phase with
    | Reading { rid; conf; read_only = _ } ->
      Pid.Set.iter
        (fun p ->
          if (not (Pid.equal p self)) && not (Pid.Map.mem p st.responses) then
            out := (p, Read_request { rid }) :: !out)
        conf
    | Writing { rid; conf; cnt } ->
      Pid.Set.iter
        (fun p ->
          if (not (Pid.equal p self)) && not (Pid.Set.mem p st.acks) then
            out := (p, Write_request { rid; counter = cnt }) :: !out)
        conf
    | Idle -> ());
    let more = maybe_finish_read ~exhaust_bound view st in
    let more' = maybe_finish_write view st in
    (st, !out @ more @ more')

let recv ~in_transit_bound ~exhaust_bound (view : Stack.scheme_view) ~from m st =
  let self = view.Stack.v_self in
  let members_opt = Stack.View.current_members view in
  let is_member =
    match members_opt with Some ms -> Pid.Set.mem self ms | None -> false
  in
  let reply r = (st, [ (from, r) ]) in
  match m with
  | Gossip { sent_max; last_sent } -> (
    match members_opt with
    | Some members when is_member && Pid.Set.mem from members ->
      let algo = ensure_algo ~in_transit_bound ~exhaust_bound view st members in
      let clean p = Option.bind p (Counter_algo.clean_pair algo) in
      Counter_algo.receipt_action algo ~sent_max:(clean sent_max)
        ~last_sent:(clean last_sent) ~from;
      (st, [])
    | Some _ | None -> (st, []))
  | Read_request { rid } -> (
    match members_opt with
    | Some members when is_member ->
      let algo = ensure_algo ~in_transit_bound ~exhaust_bound view st members in
      ignore (Counter_algo.find_max_counter algo);
      reply (Read_response { rid; counter = Counter_algo.local_max algo })
    | Some _ | None -> reply (Abort { rid }))
  | Write_request { rid; counter } -> (
    match members_opt with
    | Some members when is_member ->
      let algo = ensure_algo ~in_transit_bound ~exhaust_bound view st members in
      Counter_algo.merge algo ~from (Counter.pair_of counter);
      reply (Write_ack { rid })
    | Some _ | None -> reply (Abort { rid }))
  | Read_response { rid; counter } -> (
    match st.phase with
    | Reading r when r.rid = rid ->
      st.responses <- Pid.Map.add from counter st.responses;
      (st, maybe_finish_read ~exhaust_bound view st)
    | Idle | Reading _ | Writing _ -> (st, []))
  | Write_ack { rid } -> (
    match st.phase with
    | Writing w when w.rid = rid ->
      st.acks <- Pid.Set.add from st.acks;
      (st, maybe_finish_write view st)
    | Idle | Reading _ | Writing _ -> (st, []))
  | Abort { rid } -> (
    match st.phase with
    | Reading { rid = r; _ } when r = rid ->
      abort_op view st;
      (st, [])
    | Writing { rid = r; _ } when r = rid ->
      abort_op view st;
      (st, [])
    | Idle | Reading _ | Writing _ -> (st, []))

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
    (match Rng.int rng 3 with
    | 0 -> st.phase <- Idle
    | 1 ->
      st.phase <-
        Reading { rid = Rng.int rng 1024; conf; read_only = Rng.bool rng }
    | _ ->
      let cnt =
        match garbage (List.hd members) with { Counter.mct; _ } -> mct
      in
      st.phase <- Writing { rid = Rng.int rng 1024; conf; cnt });
    st.responses <- Pid.Map.empty;
    st.acks <- Pid.set_of_list (Rng.subset rng members)
  | None -> st.phase <- Idle);
  st.want_increment <- Rng.bool rng;
  st.want_read <- Rng.bool rng;
  st.next_rid <- Rng.int rng 1024;
  st

let plugin ~in_transit_bound ~exhaust_bound =
  {
    Stack.p_init = fresh_state;
    p_tick = (fun view st -> tick ~in_transit_bound ~exhaust_bound view st);
    p_recv = (fun view ~from m st -> recv ~in_transit_bound ~exhaust_bound view ~from m st);
    p_merge = (fun ~self:_ st _ -> st);
    p_corrupt = corrupt;
  }

let hooks ~in_transit_bound ~exhaust_bound =
  {
    Stack.eval_conf = (fun ~self:_ ~trusted:_ _ -> false);
    pass_query = (fun ~self:_ ~joiner:_ -> true);
    plugin = plugin ~in_transit_bound ~exhaust_bound;
  }
