open Sim
open Reconfig
open Counters

type reg = string
type value = int
type tagged = { tag : Counter.t; tv : value }

module Reg_map = Map.Make (String)
module Phase = Quorum.Phase

type request = Wreq of int * reg * value | Rreq of int * reg

(* A query asks the members for their copy of a register; an update stores
   an entry and is answered with a bare acknowledgment ([None]). A write's
   update also carries the counter's majWrite: each member stores the tag
   in its counter storage too. It names the writer's configuration, whose
   members' acknowledgments count. *)
type req =
  | Query of reg
  | Update of reg * tagged
  | Write of reg * tagged * Pid.Set.t
type round = (req, tagged option) Phase.t

(* A client operation: a write first waits for its tag, then runs its
   update round; a read runs its query round, then, unless every replier
   already holds the newest entry, its write-back, which returns once a
   majority is known to hold that entry. *)
type op =
  | Idle
  | Get_tag of { rid : int; reg : reg; value : value }
  | Running of {
      rid : int;
      reg : reg;
      goal : [ `Query | `Write of value | `Read_back of value option ];
      round : round;
    }

type state = {
  cnt : Counter_service.state;
  mutable store : tagged Reg_map.t;
  mutable op : op;
  (* the client queue: [front] in order, then [back] newest first *)
  mutable front : request list;
  mutable back : request list;
  (* completed operations by rid; a write and a read may share a rid *)
  writes_done : (int, unit) Hashtbl.t;
  reads_done : (int, value option) Hashtbl.t;
  mutable abort_count : int;
  mutable next_id : int;
  (* the last finished query's id and the entry its read writes back: a
     late reply to that query carrying exactly that entry counts as an
     acknowledgment of the write-back *)
  mutable finished : (int * tagged) option;
}

type msg =
  | Cnt of Counter_service.msg
  | Op of (req, tagged option) Phase.msg

let write st ~rid reg v = st.back <- Wreq (rid, reg, v) :: st.back
let read st ~rid reg = st.back <- Rreq (rid, reg) :: st.back
let find_read st ~rid = Hashtbl.find_opt st.reads_done rid
let write_done st ~rid = Hashtbl.mem st.writes_done rid
let stored st reg = Reg_map.find_opt reg st.store
let aborts st = st.abort_count

let next_request st =
  match st.front with
  | r :: rest ->
    st.front <- rest;
    Some r
  | [] -> (
    match List.rev st.back with
    | [] -> None
    | r :: rest ->
      st.back <- [];
      st.front <- rest;
      Some r)

let merge_entry st reg (entry : tagged) =
  match Reg_map.find_opt reg st.store with
  | Some existing
    when Counter.equal existing.tag entry.tag
         || Counter.precedes entry.tag existing.tag ->
    ()
  | Some _ | None -> st.store <- Reg_map.add reg entry st.store

(* Re-queue the client request: operations retry after reconfigurations.
   Only an operation that was running counts as aborted. *)
let abort_op st =
  let requeue r =
    st.front <- r :: st.front;
    st.op <- Idle;
    st.abort_count <- st.abort_count + 1
  in
  match st.op with
  | Idle -> ()
  | Get_tag { rid; reg; value } | Running { rid; reg; goal = `Write value; _ } ->
    requeue (Wreq (rid, reg, value))
  | Running { rid; reg; goal = `Query | `Read_back _; _ } -> requeue (Rreq (rid, reg))

let finish_read (view : msg Stack.scheme_view) st ~rid ~reg result =
  view.Stack.v_emit "register.read" reg;
  st.op <- Idle;
  Hashtbl.replace st.reads_done rid result

let send_requests (view : msg Stack.scheme_view) round =
  Phase.send_requests ~self:view.Stack.v_self round (fun p m ->
      view.Stack.v_send p (Op m))

(* The newest entry among a query's replies. *)
let newest replies =
  Pid.Map.fold
    (fun _ entry best ->
      match (entry, best) with
      | None, b -> b
      | Some e, None -> Some e
      | Some e, Some b -> if Counter.precedes b.tag e.tag then Some e else Some b)
    replies None

let same_entry (a : tagged) (b : tagged) = Counter.equal a.tag b.tag && a.tv = b.tv

(* Start a round: a member initiator answers itself, and [holders], the
   query repliers known to hold a write-back's entry, count as its
   acknowledgments. The requests leave in this step unless those answers
   already completed the round; a write-back's always leave, so every
   target not known to hold the entry gets it. *)
let rec run_round view st ~rid ~reg ~goal ~conf ?targets ~holders req self_reply =
  let id = st.next_id in
  st.next_id <- id + 1;
  let round = Phase.start ~id ~conf ?targets req in
  st.op <- Running { rid; reg; goal; round };
  if Pid.Set.mem view.Stack.v_self conf then
    Phase.record round ~from:view.Stack.v_self self_reply;
  Pid.Map.iter (fun p _ -> Phase.record round ~from:p None) holders;
  (match goal with
  | `Read_back _ -> send_requests view round
  | `Query | `Write _ -> if not (Phase.complete round) then send_requests view round);
  maybe_finish view st

(* The update goes to the members and also refreshes every trusted
   participant's copy, so prospective members carry the state into the
   next configuration; only the members' acknowledgments count. *)
and start_update (view : msg Stack.scheme_view) st ~rid ~reg ~entry ~conf ~goal ~holders =
  view.Stack.v_emit "register.update" reg;
  merge_entry st reg entry;
  let req =
    match goal with
    | `Write _ -> Write (reg, entry, conf)
    | `Query | `Read_back _ -> Update (reg, entry)
  in
  run_round view st ~rid ~reg ~goal ~conf ~targets:(Stack.View.participants view)
    ~holders req None

and maybe_finish (view : msg Stack.scheme_view) st =
  match st.op with
  | Running { rid; reg; goal; round } when Phase.complete round -> (
    match goal with
    | `Query -> (
      view.Stack.v_emit "register.query" reg;
      match newest (Phase.replies round) with
      | None -> finish_read view st ~rid ~reg None
      | Some e ->
        let holders, stale =
          Pid.Map.partition
            (fun _ r -> match r with Some r -> same_entry r e | None -> false)
            (Phase.replies round)
        in
        if Pid.Map.is_empty stale then
          (* a majority already stores the newest entry, and every later
             query's majority meets this one: no write-back needed *)
          finish_read view st ~rid ~reg (Some e.tv)
        else begin
          (* write-back before returning (atomicity), until a majority is
             known to hold the entry *)
          st.finished <- Some (Phase.id round, e);
          start_update view st ~rid ~reg ~entry:e ~conf:(Phase.conf round)
            ~goal:(`Read_back (Some e.tv)) ~holders
        end)
    | `Write _ ->
      view.Stack.v_emit "register.write" reg;
      st.op <- Idle;
      Hashtbl.replace st.writes_done rid ()
    | `Read_back result -> finish_read view st ~rid ~reg result)
  | Idle | Get_tag _ | Running _ -> ()

(* A write waiting for its tag starts its update as soon as the counter
   delivered it, unless a reconfiguration is in progress. *)
let take_tag view st =
  match (st.op, Counter_service.increment_result st.cnt) with
  | Get_tag { rid; reg; value }, Some tag -> (
    match Stack.View.current_members view with
    | Some conf ->
      start_update view st ~rid ~reg ~entry:{ tag; tv = value } ~conf
        ~goal:(`Write value) ~holders:Pid.Map.empty
    | None -> ())
  | _ -> ()

(* A queued operation is waiting to start: the node is idle with a
   non-empty queue. *)
let queued st =
  match st.op with
  | Idle -> st.front != [] || st.back != []
  | Get_tag _ | Running _ -> false

(* Take the next queued operation: a write asks the counter for its tag, a
   read starts its query. *)
let start_next view st conf =
  match next_request st with
  | Some (Wreq (rid, reg, value)) ->
    st.op <- Get_tag { rid; reg; value };
    Counter_service.request_next st.cnt
  | Some (Rreq (rid, reg)) ->
    run_round view st ~rid ~reg ~goal:`Query ~conf ~holders:Pid.Map.empty (Query reg)
      (Reg_map.find_opt reg st.store)
  | None -> ()

(* The embedded counter service (the write-tag provider) sends through
   this service's view, its messages wrapped in [Cnt]. *)
let wrap m = Cnt m

(* The register's own tick runs before the counter's, so a tag requested
   here is asked for in the same tick. *)
let tick (view : msg Stack.scheme_view) st =
  (* retransmit the running round to the targets that have not answered *)
  (match st.op with
  | Running { round; _ } -> send_requests view round
  | Idle | Get_tag _ -> ());
  (match Stack.View.current_members view with
  | None -> () (* reconfiguration in progress: hold *)
  | Some conf ->
    if queued st then start_next view st conf;
    take_tag view st);
  Counter_service.tick ~wrap view st.cnt

(* The receipt path's start: a queued or aborted operation starts in the
   first receipt step after it was queued, unless a reconfiguration is in
   progress, and a write's majRead then starts in the counter, in the same
   step. *)
let start (view : msg Stack.scheme_view) st =
  (if queued st then
     match Stack.View.current_members view with
     | Some conf -> start_next view st conf
     | None -> ());
  Counter_service.start ~wrap view st.cnt

let handle (view : msg Stack.scheme_view) ~from m st =
  let reply r = view.Stack.v_send from (Op r) in
  match m with
  | Cnt cm ->
    Counter_service.recv ~wrap view ~from cm st.cnt;
    take_tag view st (* the counter may have completed the tag *)
  | Op (Phase.Request { id; req = Query reg }) -> (
    match Stack.View.current_members view with
    | Some c when Pid.Set.mem view.Stack.v_self c ->
      reply (Phase.Reply { id; rep = Reg_map.find_opt reg st.store })
    | Some _ | None -> reply (Phase.Refuse { id }))
  | Op (Phase.Request { id; req = Write (reg, entry, conf) }) -> (
    (* the counter's majWrite: a member stores the tag as a counter too.
       Refuse it during a reconfiguration, as the counter does, and where
       the acknowledgment would count without the tag stored: at a node of
       the writer's configuration that no longer serves the counter *)
    match Stack.View.current_members view with
    | Some _
      when Counter_service.store view st.cnt ~from entry.tag
           || not (Pid.Set.mem view.Stack.v_self conf) ->
      merge_entry st reg entry;
      reply (Phase.Reply { id; rep = None })
    | Some _ | None -> reply (Phase.Refuse { id }))
  | Op (Phase.Request { id; req = Update (reg, entry) }) ->
    (* every participant keeps a copy; only the members' acknowledgments
       count toward the update's majority *)
    if Stack.View.current_members view <> None || Recsa.is_participant view.Stack.v_recsa
    then begin
      merge_entry st reg entry;
      reply (Phase.Reply { id; rep = None })
    end
    else reply (Phase.Refuse { id })
  | Op r -> (
    match st.op with
    | Running { round; goal; _ } -> (
      match (Phase.receive round ~from r, goal, r, st.finished) with
      | `Replied, _, _, _ -> maybe_finish view st
      | `Refused, _, _, _ -> abort_op st
      | `Ignored, `Read_back _, Phase.Reply { id; rep = Some e }, Some (q, held)
        when id = q && same_entry e held ->
        (* a late reply to the finished query: its sender holds the entry *)
        Phase.record round ~from None;
        maybe_finish view st
      | `Ignored, _, _, _ -> ())
    | Idle | Get_tag _ -> ())

let recv view ~from m st =
  handle view ~from m st;
  start view st

let merge_states ~self:_ st others =
  (* joining state transfer (initVars): adopt the freshest copy of every
     register across the members' states *)
  Pid.Map.iter
    (fun _ (other : state) ->
      Reg_map.iter (fun reg entry -> merge_entry st reg entry) other.store)
    others

(* Arbitrary-state injection: corrupt the embedded counter, then forget a
   random subset of stored entries and abort the in-flight operation (which
   re-queues the client request, so liveness is preserved). *)
let corrupt rng st =
  Counter_service.corrupt rng st.cnt;
  let keys = Reg_map.fold (fun k _ acc -> k :: acc) st.store [] in
  List.iter
    (fun k -> if Rng.bool rng then st.store <- Reg_map.remove k st.store)
    keys;
  abort_op st;
  st.next_id <- Rng.int rng 1024;
  (* a garbage record naming the id the next query takes *)
  let lbl =
    Labels.Label.make ~creator:(Rng.int rng 16) ~sting:(Rng.int rng 1024)
      ~antistings:[ Rng.int rng 1024 ]
  in
  let tag = Counter.make ~lbl ~seqn:(Rng.int rng 8) ~wid:(Rng.int rng 16) in
  st.finished <- Some (st.next_id, { tag; tv = Rng.int rng 1024 })

let plugin () =
  {
    Stack.p_init =
      (fun p ->
        {
          cnt = Counter_service.create ~in_transit_bound:8 ~exhaust_bound:(1 lsl 30) p;
          store = Reg_map.empty;
          op = Idle;
          front = [];
          back = [];
          writes_done = Hashtbl.create 8;
          reads_done = Hashtbl.create 8;
          abort_count = 0;
          next_id = 0;
          finished = None;
        });
    p_tick = tick;
    p_recv = recv;
    p_merge = merge_states;
    p_corrupt = corrupt;
  }

let hooks () = { Stack.unit_hooks with plugin = plugin () }
