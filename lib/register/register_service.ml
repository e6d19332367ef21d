open Sim
open Reconfig
open Counters

type reg = string
type value = int
type tagged = { tag : Counter.t; tv : value }

module Reg_map = Map.Make (String)
module Phase = Quorum.Phase

type outcome =
  | Wrote of { rid : int; reg : reg }
  | Read of { rid : int; reg : reg; result : value option }

type request = Wreq of int * reg * value | Rreq of int * reg

(* A query asks the members for their copy of a register; an update stores
   an entry and is answered with a bare acknowledgment ([None]). *)
type req = Query of reg | Update of reg * tagged
type round = (req, tagged option) Phase.t

(* A client operation: a write first waits for its tag, then runs its
   update round; a read runs its query round, then its write-back. *)
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
  mutable queue : request list;
  mutable outcomes_rev : outcome list;
  mutable abort_count : int;
  mutable next_id : int;
}

type msg =
  | Cnt of Counter_service.msg
  | Op of (req, tagged option) Phase.msg

let write st ~rid reg v = st.queue <- st.queue @ [ Wreq (rid, reg, v) ]
let read st ~rid reg = st.queue <- st.queue @ [ Rreq (rid, reg) ]

let find_read st ~rid =
  List.find_map
    (function
      | Read { rid = r; result; _ } when r = rid -> Some result
      | Read _ | Wrote _ -> None)
    st.outcomes_rev

let write_done st ~rid =
  List.exists
    (function Wrote { rid = r; _ } -> r = rid | Read _ -> false)
    st.outcomes_rev

let stored st reg = Reg_map.find_opt reg st.store
let aborts st = st.abort_count

let merge_entry st reg (entry : tagged) =
  match Reg_map.find_opt reg st.store with
  | Some existing
    when Counter.equal existing.tag entry.tag
         || Counter.precedes entry.tag existing.tag ->
    ()
  | Some _ | None -> st.store <- Reg_map.add reg entry st.store

let abort_op st =
  (* re-queue the client request: operations retry after reconfigurations *)
  (match st.op with
  | Idle -> ()
  | Get_tag { rid; reg; value } | Running { rid; reg; goal = `Write value; _ } ->
    st.queue <- Wreq (rid, reg, value) :: st.queue
  | Running { rid; reg; goal = `Query | `Read_back _; _ } ->
    st.queue <- Rreq (rid, reg) :: st.queue);
  st.op <- Idle;
  st.abort_count <- st.abort_count + 1

let finish st outcome =
  st.op <- Idle;
  st.outcomes_rev <- outcome :: st.outcomes_rev

let start_round st ~conf ?targets req =
  let id = st.next_id in
  st.next_id <- id + 1;
  Phase.start ~id ~conf ?targets req

(* The update goes to the members and also refreshes every trusted
   participant's copy, so prospective members carry the state into the
   next configuration; only the members' acknowledgments count. *)
let start_update (view : msg Stack.scheme_view) st ~rid ~reg ~entry ~conf ~goal =
  let targets = Stack.View.participants view in
  let round = start_round st ~conf ~targets (Update (reg, entry)) in
  st.op <- Running { rid; reg; goal; round };
  merge_entry st reg entry;
  if Pid.Set.mem view.Stack.v_self conf then
    Phase.record round ~from:view.Stack.v_self None

let maybe_finish (view : msg Stack.scheme_view) st =
  match st.op with
  | Running { rid; reg; goal; round } when Phase.complete round -> (
    match goal with
    | `Query -> (
      let best =
        Pid.Map.fold
          (fun _ entry best ->
            match (entry, best) with
            | None, b -> b
            | Some e, None -> Some e
            | Some e, Some b -> if Counter.precedes b.tag e.tag then Some e else Some b)
          (Phase.replies round) None
      in
      match best with
      | None -> finish st (Read { rid; reg; result = None })
      | Some e ->
        (* write-back before returning (atomicity) *)
        start_update view st ~rid ~reg ~entry:e ~conf:(Phase.conf round)
          ~goal:(`Read_back (Some e.tv)))
    | `Write _ ->
      view.Stack.v_emit "register.write" reg;
      finish st (Wrote { rid; reg })
    | `Read_back result ->
      view.Stack.v_emit "register.read" reg;
      finish st (Read { rid; reg; result }))
  | Idle | Get_tag _ | Running _ -> ()

(* The register logic alone; the embedded counter service (write-tag
   provider) is layered underneath via {!Stack.Plugin.stack}, which runs
   its tick first — so [st.cnt] is already up to date here — and routes
   every [Cnt] message to it. *)
let tick (view : msg Stack.scheme_view) st =
  let self = view.Stack.v_self in
  (match Stack.View.current_members view with
  | None -> () (* reconfiguration in progress: hold *)
  | Some conf -> (
    (* start the next queued operation *)
    (match (st.op, st.queue) with
    | Idle, Wreq (rid, reg, value) :: rest ->
      st.queue <- rest;
      st.op <- Get_tag { rid; reg; value };
      Counter_service.request_increment st.cnt
    | Idle, Rreq (rid, reg) :: rest ->
      st.queue <- rest;
      let round = start_round st ~conf (Query reg) in
      st.op <- Running { rid; reg; goal = `Query; round };
      (* a member answers its own query locally *)
      if Pid.Set.mem self conf then
        Phase.record round ~from:self (Reg_map.find_opt reg st.store)
    | _ -> ());
    (* a write waiting for its tag *)
    match (st.op, Counter_service.increment_result st.cnt) with
    | Get_tag { rid; reg; value }, Some tag ->
      start_update view st ~rid ~reg ~entry:{ tag; tv = value } ~conf
        ~goal:(`Write value)
    | _ -> ()));
  maybe_finish view st;
  match st.op with
  | Running { round; _ } ->
    Phase.send_requests ~self round (fun p m -> view.Stack.v_send p (Op m))
  | Idle | Get_tag _ -> ()

let recv (view : msg Stack.scheme_view) ~from m st =
  let members_opt = Stack.View.current_members view in
  let reply r = view.Stack.v_send from (Op r) in
  match m with
  | Cnt _ -> () (* routed to the counter layer by Plugin.stack *)
  | Op (Phase.Request { id; req = Query reg }) -> (
    match members_opt with
    | Some c when Pid.Set.mem view.Stack.v_self c ->
      reply (Phase.Reply { id; rep = Reg_map.find_opt reg st.store })
    | Some _ | None -> reply (Phase.Refuse { id }))
  | Op (Phase.Request { id; req = Update (reg, entry) }) ->
    (* every participant keeps a copy; only the members' acknowledgments
       count toward the update's majority *)
    if members_opt <> None || Recsa.is_participant view.Stack.v_recsa then begin
      merge_entry st reg entry;
      reply (Phase.Reply { id; rep = None })
    end
    else reply (Phase.Refuse { id })
  | Op r -> (
    match st.op with
    | Running { round; _ } -> (
      match Phase.receive round ~from r with
      | `Replied -> maybe_finish view st
      | `Refused -> abort_op st
      | `Ignored -> ())
    | Idle | Get_tag _ -> ())

let merge_states ~self:_ st others =
  (* joining state transfer (initVars): adopt the freshest copy of every
     register across the members' states *)
  Pid.Map.iter
    (fun _ (other : state) ->
      Reg_map.iter (fun reg entry -> merge_entry st reg entry) other.store)
    others

(* Arbitrary-state injection for the register layer: forget a random subset
   of stored entries and abort the in-flight operation (which re-queues the
   client request, so liveness is preserved). The embedded counter state is
   corrupted separately through the plugin composition. *)
let corrupt_upper rng st =
  let keys = Reg_map.fold (fun k _ acc -> k :: acc) st.store [] in
  List.iter
    (fun k -> if Rng.bool rng then st.store <- Reg_map.remove k st.store)
    keys;
  abort_op st;
  st.next_id <- Rng.int rng 1024

let plugin () =
  let counter_plugin =
    Counter_service.plugin ~in_transit_bound:8 ~exhaust_bound:(1 lsl 30)
  in
  let upper =
    {
      Stack.p_init =
        (fun p ->
          {
            cnt = counter_plugin.Stack.p_init p;
            store = Reg_map.empty;
            op = Idle;
            queue = [];
            outcomes_rev = [];
            abort_count = 0;
            next_id = 0;
          });
      p_tick = tick;
      p_recv = recv;
      p_merge = merge_states;
      p_corrupt = corrupt_upper;
    }
  in
  Stack.Plugin.stack ~lower:counter_plugin
    ~get:(fun st -> st.cnt)
    ~wrap:(fun m -> Cnt m)
    ~unwrap:(function Cnt m -> Some m | _ -> None)
    upper

let hooks () = { Stack.unit_hooks with plugin = plugin () }
