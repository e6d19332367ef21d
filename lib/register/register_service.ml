open Sim
open Reconfig
open Counters

type reg = string
type value = int
type tagged = { tag : Counter.t; tv : value }

module Reg_map = Map.Make (String)

type outcome =
  | Wrote of { rid : int; reg : reg }
  | Read of { rid : int; reg : reg; result : value option }

type request = Wreq of int * reg * value | Rreq of int * reg

type op =
  | Idle
  | Get_tag of { rid : int; reg : reg; value : value; baseline : int }
  | Updating of {
      rid : int;
      reg : reg;
      entry : tagged;
      conf : Pid.Set.t;
      mid : int;
      mutable acks : Pid.Set.t;
      kind : [ `Write | `Read_back of value option ];
    }
  | Querying of {
      rid : int;
      reg : reg;
      conf : Pid.Set.t;
      mid : int;
      mutable resps : tagged option Pid.Map.t;
    }

type state = {
  mutable cnt : Counter_service.state;
  mutable store : tagged Reg_map.t;
  mutable op : op;
  mutable queue : request list;
  mutable outcomes_rev : outcome list;
  mutable abort_count : int;
  mutable next_mid : int;
}

type msg =
  | Cnt of Counter_service.msg
  | Query of { mid : int; reg : reg }
  | Query_resp of { mid : int; entry : tagged option }
  | Update of { mid : int; reg : reg; entry : tagged }
  | Update_ack of { mid : int }
  | Op_abort of { mid : int }

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

let majority conf = Quorum.majority_threshold (Pid.Set.cardinal conf)

let abort_op st =
  (* re-queue the client request: operations retry after reconfigurations *)
  (match st.op with
  | Idle -> ()
  | Get_tag { rid; reg; value; _ } -> st.queue <- Wreq (rid, reg, value) :: st.queue
  | Updating { rid; reg; entry; kind; _ } -> (
    match kind with
    | `Write -> st.queue <- Wreq (rid, reg, entry.tv) :: st.queue
    | `Read_back _ -> st.queue <- Rreq (rid, reg) :: st.queue)
  | Querying { rid; reg; _ } -> st.queue <- Rreq (rid, reg) :: st.queue);
  st.op <- Idle;
  st.abort_count <- st.abort_count + 1

let finish st outcome =
  st.op <- Idle;
  st.outcomes_rev <- outcome :: st.outcomes_rev

(* Send the current phase's requests to the processors that have not yet
   answered (also serves as per-tick retransmission). *)
let outstanding_messages (view : Stack.scheme_view) st =
  let self = view.Stack.v_self in
  let to_others conf covered m =
    Pid.Set.fold
      (fun p acc ->
        if Pid.equal p self || Pid.Set.mem p covered then acc else (p, m) :: acc)
      conf []
  in
  match st.op with
  | Idle | Get_tag _ -> []
  | Querying q ->
    let covered =
      Pid.Map.fold (fun p _ acc -> Pid.Set.add p acc) q.resps Pid.Set.empty
    in
    to_others q.conf covered (Query { mid = q.mid; reg = q.reg })
  | Updating u ->
    (* updates also refresh every trusted participant's copy so prospective
       members carry the state into the next configuration *)
    let part = Stack.View.participants view in
    let targets = Pid.Set.union u.conf part in
    to_others targets u.acks (Update { mid = u.mid; reg = u.reg; entry = u.entry })

let start_update (view : Stack.scheme_view) st ~rid ~reg ~entry ~conf ~kind =
  let mid = st.next_mid in
  st.next_mid <- st.next_mid + 1;
  let self = view.Stack.v_self in
  let op = Updating { rid; reg; entry; conf; mid; acks = Pid.Set.empty; kind } in
  st.op <- op;
  merge_entry st reg entry;
  (match op with
  | Updating u when Pid.Set.mem self conf -> u.acks <- Pid.Set.add self u.acks
  | _ -> ());
  ()

let maybe_finish (view : Stack.scheme_view) st =
  match st.op with
  | Idle | Get_tag _ -> ()
  | Querying q when Pid.Map.cardinal q.resps >= majority q.conf ->
    let best =
      Pid.Map.fold
        (fun _ entry best ->
          match (entry, best) with
          | None, b -> b
          | Some e, None -> Some e
          | Some e, Some b -> if Counter.precedes b.tag e.tag then Some e else Some b)
        q.resps None
    in
    (match best with
    | None -> finish st (Read { rid = q.rid; reg = q.reg; result = None })
    | Some e ->
      (* write-back before returning (atomicity) *)
      start_update view st ~rid:q.rid ~reg:q.reg ~entry:e ~conf:q.conf
        ~kind:(`Read_back (Some e.tv)))
  | Querying _ -> ()
  | Updating u when Pid.Set.cardinal u.acks >= majority u.conf -> (
    match u.kind with
    | `Write ->
      view.Stack.v_emit "register.write" u.reg;
      finish st (Wrote { rid = u.rid; reg = u.reg })
    | `Read_back result ->
      view.Stack.v_emit "register.read" u.reg;
      finish st (Read { rid = u.rid; reg = u.reg; result }))
  | Updating _ -> ()

(* The register logic alone; the embedded counter service (write-tag
   provider) is layered underneath via {!Stack.Plugin.stack}, which runs
   its tick first — so [st.cnt] is already up to date here — and routes
   every [Cnt] message to it. *)
let tick (view : Stack.scheme_view) st =
  (match Stack.View.current_members view with
  | None -> () (* reconfiguration in progress: hold *)
  | Some conf -> (
    (* start the next queued operation *)
    (match (st.op, st.queue) with
    | Idle, Wreq (rid, reg, value) :: rest ->
      st.queue <- rest;
      st.op <-
        Get_tag
          { rid; reg; value; baseline = List.length (Counter_service.results st.cnt) };
      Counter_service.request_increment st.cnt
    | Idle, Rreq (rid, reg) :: rest ->
      st.queue <- rest;
      let mid = st.next_mid in
      st.next_mid <- st.next_mid + 1;
      let q = Querying { rid; reg; conf; mid; resps = Pid.Map.empty } in
      st.op <- q;
      (* a member answers its own query locally *)
      if Pid.Set.mem view.Stack.v_self conf then begin
        match st.op with
        | Querying qq ->
          qq.resps <-
            Pid.Map.add view.Stack.v_self (Reg_map.find_opt reg st.store) qq.resps
        | _ -> ()
      end
    | _ -> ());
    (* a write waiting for its tag *)
    match st.op with
    | Get_tag g ->
      let results = Counter_service.results st.cnt in
      if List.length results > g.baseline then begin
        let tag = List.nth results (List.length results - 1) in
        start_update view st ~rid:g.rid ~reg:g.reg ~entry:{ tag; tv = g.value } ~conf
          ~kind:`Write
      end
    | Idle | Querying _ | Updating _ -> ()));
  maybe_finish view st;
  (st, outstanding_messages view st)

let recv (view : Stack.scheme_view) ~from m st =
  let members_opt = Stack.View.current_members view in
  let is_member =
    match members_opt with
    | Some c -> Pid.Set.mem view.Stack.v_self c
    | None -> false
  in
  match m with
  | Cnt _ -> (st, []) (* routed to the counter layer by Plugin.stack *)
  | Query { mid; reg } ->
    if is_member then (st, [ (from, Query_resp { mid; entry = Reg_map.find_opt reg st.store }) ])
    else (st, [ (from, Op_abort { mid }) ])
  | Update { mid; reg; entry } ->
    (* every participant keeps a copy; only members acknowledge quorum
       membership, but acks are harmless either way *)
    if members_opt <> None || Recsa.is_participant view.Stack.v_recsa then begin
      merge_entry st reg entry;
      (st, [ (from, Update_ack { mid }) ])
    end
    else (st, [ (from, Op_abort { mid }) ])
  | Query_resp { mid; entry } ->
    (match st.op with
    | Querying q when q.mid = mid ->
      q.resps <- Pid.Map.add from entry q.resps;
      maybe_finish view st
    | _ -> ());
    (st, [])
  | Update_ack { mid } ->
    (match st.op with
    | Updating u when u.mid = mid ->
      u.acks <- Pid.Set.add from u.acks;
      maybe_finish view st
    | _ -> ());
    (st, [])
  | Op_abort { mid } ->
    (match st.op with
    | Querying { mid = m'; _ } when m' = mid -> abort_op st
    | Updating { mid = m'; _ } when m' = mid -> abort_op st
    | _ -> ());
    (st, [])

let merge_states ~self:_ st others =
  (* joining state transfer (initVars): adopt the freshest copy of every
     register across the members' states *)
  Pid.Map.iter
    (fun _ (other : state) ->
      Reg_map.iter (fun reg entry -> merge_entry st reg entry) other.store)
    others;
  st

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
  st.next_mid <- Rng.int rng 1024;
  st

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
            next_mid = 0;
          });
      p_tick = tick;
      p_recv = recv;
      p_merge = merge_states;
      p_corrupt = corrupt_upper;
    }
  in
  Stack.Plugin.stack ~lower:counter_plugin
    ~get:(fun st -> st.cnt)
    ~set:(fun st c ->
      st.cnt <- c;
      st)
    ~wrap:(fun m -> Cnt m)
    ~unwrap:(function Cnt m -> Some m | _ -> None)
    upper

let hooks () =
  {
    Stack.eval_conf = (fun ~self:_ ~trusted:_ _ -> false);
    pass_query = (fun ~self:_ ~joiner:_ -> true);
    plugin = plugin ();
  }
