open Sim
open Counters
open Reconfig

type ('st, 'cmd) machine = { initial : 'st; apply : 'st -> 'cmd -> 'st }
type status = Multicast | Propose | Install
type view = { vid : Counter.t option; vset : Pid.Set.t }

let view_equal v1 v2 =
  Pid.Set.equal v1.vset v2.vset
  &&
  match (v1.vid, v2.vid) with
  | None, None -> true
  | Some a, Some b -> Counter.equal a b
  | None, Some _ | Some _, None -> false

let pp_view fmt v =
  match v.vid with
  | None -> Format.fprintf fmt "view(_|_, %a)" Pid.pp_set v.vset
  | Some c -> Format.fprintf fmt "view(%a, %a)" Counter.pp c Pid.pp_set v.vset

let bottom_view = { vid = None; vset = Pid.Set.empty }

(* The paper's state[] record, broadcast every tick (line 24-25). *)
type ('st, 'cmd) report = {
  r_view : view;
  r_status : status;
  r_rnd : int;
  r_replica : 'st;
  r_batch : (Pid.t * 'cmd) list; (* message array applied entering r_rnd *)
  r_input : 'cmd option; (* last fetched, awaiting multicast *)
  r_propv : view;
  r_no_crd : bool;
  r_suspend : bool;
}

type ('st, 'cmd) state = {
  cnt : Counter_service.state; (* the inc() provider (Section 4.2) *)
  mutable me : ('st, 'cmd) report;
  mutable peers : ('st, 'cmd) report Pid.Map.t;
  pending : 'cmd Queue.t;
  mutable batches_rev : (view * (Pid.t * 'cmd) list) list;
      (* per-batch delivery journal, newest first (virtual-synchrony audit) *)
  mutable awaiting_vid : bool; (* a view identifier was requested *)
  mutable reconf_ready : bool;
  mutable view_installs : int;
  mutable i_am_coordinator : bool; (* refreshed every tick from valCrd *)
}

type ('st, 'cmd) msg =
  | Cnt of Counter_service.msg
  | Vs of ('st, 'cmd) report

let submit st cmd = Queue.push cmd st.pending
let replica st = st.me.r_replica
let delivered_batches st = List.rev st.batches_rev
let delivered st = List.concat_map (fun (_, b) -> List.map snd b) (delivered_batches st)
let current_view st = st.me.r_view
let status_of st = st.me.r_status
let installs st = st.view_installs

let fresh_report initial =
  {
    r_view = bottom_view;
    r_status = Multicast;
    r_rnd = 0;
    r_replica = initial;
    r_batch = [];
    r_input = None;
    r_propv = bottom_view;
    r_no_crd = true;
    r_suspend = false;
  }

(* seemCrd / valCrd (lines 6-7): a report is a coordinator candidate when
   its proposed view is identified by a counter written by its owner, the
   owner belongs to the proposed set, and the proposed set contains a
   majority of the current configuration. *)
let candidates (v : _ Stack.scheme_view) st =
  match Stack.View.config_set v with
  | None -> []
  | Some config ->
    let part = Stack.View.participants v in
    let consider owner (r : ('st, 'cmd) report) acc =
      match r.r_propv.vid with
      | Some c
        when Pid.equal c.Counter.wid owner
             && Pid.Set.mem owner r.r_propv.vset
             && Quorum.has_majority ~config r.r_propv.vset
             && (r.r_status <> Multicast || view_equal r.r_view r.r_propv) ->
        (owner, c, r) :: acc
      | Some _ | None -> acc
    in
    let acc = consider v.Stack.v_self st.me [] in
    Pid.Map.fold
      (fun p r acc -> if Pid.Set.mem p part then consider p r acc else acc)
      st.peers acc

let valid_coordinator (v : _ Stack.scheme_view) st =
  List.fold_left
    (fun best (owner, c, r) ->
      match best with
      | None -> Some (owner, c, r)
      | Some (_, c', _) -> if Counter.compare_total c c' > 0 then Some (owner, c, r) else best)
    None (candidates v st)

let is_coordinator st = st.i_am_coordinator

let fetch st = Queue.take_opt st.pending

(* [all_report st ~self vset pred] — every member of [vset] but [self] has
   a report satisfying [pred] *)
let all_report st ~self vset pred =
  Pid.Set.for_all
    (fun p ->
      Pid.equal p self
      || match Pid.Map.find_opt p st.peers with Some r -> pred r | None -> false)
    vset

(* synchState/synchMsgs: adopt the most advanced replica among the reports
   of the proposed view's members. *)
let synch_state st vset =
  let key (r : ('st, 'cmd) report) =
    let vid_key =
      match r.r_view.vid with None -> (-1, -1, -1) | Some c -> (c.Counter.seqn, c.Counter.wid, 0)
    in
    (vid_key, r.r_rnd)
  in
  let best =
    Pid.Map.fold
      (fun p r best ->
        if Pid.Set.mem p vset && compare (key r) (key best) > 0 then r else best)
      st.peers st.me
  in
  best.r_replica

(* Journal a multicast round's message array in delivery (sender) order. *)
let record_batch st batch =
  let sorted = List.sort (fun (a, _) (b, _) -> Pid.compare a b) batch in
  if sorted <> [] then st.batches_rev <- (st.me.r_view, sorted) :: st.batches_rev;
  sorted

(* Follower adoption of the coordinator's report (lines 18-23). *)
let follow (v : _ Stack.scheme_view) st (rep : ('st, 'cmd) report) =
  (* a Propose/Install report for a view we already entered is a stale
     (reordered or duplicated) packet; ignore it *)
  let already_entered = view_equal st.me.r_view rep.r_propv && st.me.r_status = Multicast in
  match rep.r_status with
  | Propose ->
    if
      (not already_entered)
      && not (view_equal st.me.r_propv rep.r_propv && st.me.r_status = Propose)
    then
      st.me <- { st.me with r_status = Propose; r_propv = rep.r_propv; r_suspend = false }
  | Install ->
    if
      (not already_entered)
      && (st.me.r_status <> Install || not (view_equal st.me.r_propv rep.r_propv))
    then
      st.me <-
        {
          st.me with
          r_status = Install;
          r_propv = rep.r_propv;
          r_replica = rep.r_replica;
          r_rnd = rep.r_rnd;
          r_suspend = false;
        }
  | Multicast ->
    if view_equal st.me.r_view rep.r_view && st.me.r_status <> Multicast then
      (* recover from a stale Propose/Install adoption: the coordinator is
         already multicasting in this view *)
      st.me <-
        {
          st.me with
          r_status = Multicast;
          r_rnd = rep.r_rnd;
          r_replica = rep.r_replica;
          r_propv = rep.r_view;
          r_suspend = rep.r_suspend;
          r_batch = [];
        }
    else if not (view_equal st.me.r_view rep.r_view) then begin
      (* entering the installed view *)
      st.view_installs <- st.view_installs + 1;
      Telemetry.inc v.Stack.v_telemetry "vs.installs";
      (* close the view-change span if this node was the proposer *)
      (if
         Telemetry.span_open v.Stack.v_telemetry ~name:"vs.view_change_seconds"
           ~key:v.Stack.v_self
       then
         Telemetry.span_end v.Stack.v_telemetry ~labels:[ ("role", "follower") ]
           ~name:"vs.view_change_seconds" ~key:v.Stack.v_self ~now:v.Stack.v_now);
      v.Stack.v_emit "vs.enter_view" (Format.asprintf "%a" pp_view rep.r_view);
      st.me <-
        {
          st.me with
          r_view = rep.r_view;
          r_status = Multicast;
          r_rnd = rep.r_rnd;
          r_replica = rep.r_replica;
          r_propv = rep.r_view;
          r_suspend = rep.r_suspend;
          r_batch = [];
        }
    end
    else if rep.r_rnd > st.me.r_rnd then begin
      (* a new multicast round: deliver its batch; the replica is the
         coordinator's *)
      if rep.r_rnd = st.me.r_rnd + 1 then ignore (record_batch st rep.r_batch);
      let input_consumed =
        List.exists (fun (p, _) -> Pid.equal p v.Stack.v_self) rep.r_batch
      in
      let input =
        if input_consumed || st.me.r_input = None then fetch st else st.me.r_input
      in
      st.me <-
        {
          st.me with
          r_rnd = rep.r_rnd;
          r_replica = rep.r_replica;
          r_suspend = rep.r_suspend;
          r_input = (if rep.r_suspend then st.me.r_input else input);
        }
    end
    else if not (Bool.equal rep.r_suspend st.me.r_suspend) then
      (* same view and round: follow the coordinator's suspend flag *)
      st.me <- { st.me with r_suspend = rep.r_suspend }

(* Coordinator logic for one tick. *)
let coordinate machine ~eval_config (v : _ Stack.scheme_view) st =
  let self = v.Stack.v_self in
  let no_reco = Recsa.no_reco v.Stack.v_recsa ~trusted:v.Stack.v_trusted in
  let echoes status =
    all_report st ~self st.me.r_propv.vset (fun r ->
        view_equal r.r_propv st.me.r_propv && r.r_status = status)
  in
  match st.me.r_status with
  | Propose ->
    if echoes Propose then begin
      let replica = synch_state st st.me.r_propv.vset in
      st.me <- { st.me with r_status = Install; r_replica = replica; r_rnd = 0 };
      v.Stack.v_emit "vs.install" (Format.asprintf "%a" pp_view st.me.r_propv)
    end
  | Install ->
    if echoes Install then begin
      st.view_installs <- st.view_installs + 1;
      st.me <-
        {
          st.me with
          r_view = st.me.r_propv;
          r_status = Multicast;
          r_rnd = 0;
          r_suspend = false;
          r_batch = [];
        };
      st.reconf_ready <- false;
      Telemetry.inc v.Stack.v_telemetry "vs.installs";
      (if
         Telemetry.span_open v.Stack.v_telemetry ~name:"vs.view_change_seconds"
           ~key:v.Stack.v_self
       then
         Telemetry.span_end v.Stack.v_telemetry ~labels:[ ("role", "coordinator") ]
           ~name:"vs.view_change_seconds" ~key:v.Stack.v_self ~now:v.Stack.v_now);
      v.Stack.v_emit "vs.new_view" (Format.asprintf "%a" pp_view st.me.r_view)
    end
  | Multicast ->
    (* only corruption puts a member's round in this view ahead of ours,
       and followers adopt only higher rounds: catch up with it *)
    let highest =
      Pid.Set.fold
        (fun p acc ->
          match Pid.Map.find_opt p st.peers with
          | Some r when r.r_status = Multicast && view_equal r.r_view st.me.r_view ->
            max acc r.r_rnd
          | Some _ | None -> acc)
        st.me.r_view.vset st.me.r_rnd
    in
    if highest > st.me.r_rnd then st.me <- { st.me with r_rnd = highest; r_batch = [] };
    if
      no_reco
      && all_report st ~self st.me.r_view.vset (fun r ->
             view_equal r.r_view st.me.r_view && r.r_status = Multicast
             && r.r_rnd = st.me.r_rnd)
    then begin
      (* Algorithm 4.6: the coordinator alone decides on delicate
         reconfiguration *)
      let members =
        match Stack.View.config_set v with Some s -> s | None -> Pid.Set.empty
      in
      let wants_reconf =
        eval_config ~self ~trusted:v.Stack.v_trusted members
      in
      if wants_reconf && not st.me.r_suspend then begin
        st.me <- { st.me with r_suspend = true };
        v.Stack.v_emit "vs.suspend" ""
      end;
      (* the predictor changed its mind before the reconfiguration was
         requested: resume multicasting *)
      if (not wants_reconf) && st.me.r_suspend then begin
        st.me <- { st.me with r_suspend = false };
        st.reconf_ready <- false;
        v.Stack.v_emit "vs.resume" ""
      end;
      if st.me.r_suspend then begin
        if all_report st ~self st.me.r_view.vset (fun r -> r.r_suspend) then
          st.reconf_ready <- true;
        if st.reconf_ready then begin
          let proposal = Stack.View.participants v in
          let useful =
            (not (Pid.Set.is_empty proposal))
            &&
            match Stack.View.config_set v with
            | Some c -> not (Pid.Set.equal c proposal)
            | None -> false
          in
          if useful then begin
            if Recsa.estab v.Stack.v_recsa ~trusted:v.Stack.v_trusted proposal then
              v.Stack.v_emit "vs.reconfigure"
                (Format.asprintf "%a" Pid.pp_set proposal)
          end
          else begin
            (* nothing to reconfigure toward: resume service *)
            st.me <- { st.me with r_suspend = false };
            st.reconf_ready <- false;
            v.Stack.v_emit "vs.resume" "proposal equals configuration"
          end
        end
      end
      else begin
        (* a normal lock-step multicast round *)
        let batch =
          Pid.Set.fold
            (fun p acc ->
              if Pid.equal p self then
                match st.me.r_input with Some c -> (p, c) :: acc | None -> acc
              else
                match Pid.Map.find_opt p st.peers with
                | Some { r_input = Some c; _ } -> (p, c) :: acc
                | Some _ | None -> acc)
            st.me.r_view.vset []
        in
        if batch <> [] || st.me.r_rnd = 0 then begin
          let replica =
            List.fold_left
              (fun acc (_, cmd) -> machine.apply acc cmd)
              st.me.r_replica (record_batch st batch)
          in
          let input =
            if List.exists (fun (p, _) -> Pid.equal p self) batch then fetch st
            else if st.me.r_input = None then fetch st
            else st.me.r_input
          in
          st.me <-
            {
              st.me with
              r_replica = replica;
              r_batch = batch;
              r_rnd = st.me.r_rnd + 1;
              r_input = input;
            }
        end
        else if st.me.r_input = None then
          st.me <- { st.me with r_input = fetch st }
      end
    end

(* Should this node propose itself as coordinator? *)
let should_propose (v : _ Stack.scheme_view) st =
  match Stack.View.config_set v with
  | None -> false
  | Some config ->
    let part = Stack.View.participants v in
    let majority_visible = Quorum.has_majority ~config v.Stack.v_trusted in
    if not majority_visible then false
    else begin
      match valid_coordinator v st with
      | None ->
        (* no coordinator: wait until a majority of participants also
           report noCrd (line 10) *)
        let no_crd_reports =
          Pid.Set.fold
            (fun p acc ->
              if Pid.equal p v.Stack.v_self then acc + 1
              else
                match Pid.Map.find_opt p st.peers with
                | Some r when r.r_no_crd -> acc + 1
                | Some _ | None -> acc)
            part 0
        in
        no_crd_reports > Pid.Set.cardinal part / 2
      | Some (owner, _, _) ->
        (* the valid coordinator renews its view when membership moved *)
        Pid.equal owner v.Stack.v_self
        && st.me.r_status = Multicast
        && not (Pid.Set.equal st.me.r_view.vset part)
    end

(* The virtual-synchrony logic alone; the embedded counter service (the
   inc() provider) is layered underneath via {!Stack.Plugin.stack}, which
   runs its tick after this one — so an increment requested here starts in
   the same tick — and routes every [Cnt] message to it. *)
let vs_tick machine ~eval_config (v : _ Stack.scheme_view) st =
  let self = v.Stack.v_self in
  if Recsa.is_participant v.Stack.v_recsa then begin
    let part = Stack.View.participants v in
    (* 0. a Propose/Install status for the view already entered is left
       over from corruption: followers ignore such reports as stale, so a
       coordinator would wait on them forever *)
    if st.me.r_status <> Multicast && view_equal st.me.r_propv st.me.r_view then
      st.me <- { st.me with r_status = Multicast };
    (* 1. track coordinator existence *)
    let val_crd = valid_coordinator v st in
    let no_crd = val_crd = None in
    if no_crd <> st.me.r_no_crd then st.me <- { st.me with r_no_crd = no_crd };
    st.i_am_coordinator <-
      (match val_crd with
      | Some (owner, _, _) -> Pid.equal owner self
      | None -> false);
    (* 2. proposals: obtain a view identifier from the counter service,
       then switch to Propose *)
    let no_reco = Recsa.no_reco v.Stack.v_recsa ~trusted:v.Stack.v_trusted in
    (match (st.awaiting_vid, Counter_service.increment_result st.cnt) with
    | true, Some vid ->
      st.awaiting_vid <- false;
      if should_propose v st || no_crd then begin
        st.me <-
          {
            st.me with
            r_status = Propose;
            r_propv = { vid = Some vid; vset = part };
            r_suspend = false;
          };
        st.reconf_ready <- false;
        Telemetry.inc v.Stack.v_telemetry "vs.proposals";
        Telemetry.span_begin v.Stack.v_telemetry ~name:"vs.view_change_seconds"
          ~key:self ~now:v.Stack.v_now;
        v.Stack.v_emit "vs.propose" (Format.asprintf "%a" pp_view st.me.r_propv)
      end
    | true, None -> ()
    | false, _ ->
      if no_reco && should_propose v st then begin
        Counter_service.request_increment st.cnt;
        st.awaiting_vid <- true
      end);
    (* 3. refill the input slot so the coordinator sees pending commands
       (fetch(), line 15/22) *)
    (if
       st.me.r_status = Multicast && (not st.me.r_suspend) && st.me.r_input = None
     then
       match fetch st with
       | Some _ as input -> st.me <- { st.me with r_input = input }
       | None -> ());
    (* 4. act as coordinator or follower *)
    (match val_crd with
    | Some (owner, _, _) when Pid.equal owner self -> coordinate machine ~eval_config v st
    | Some (owner, _, rep) -> if not (Pid.equal owner self) then follow v st rep
    | None -> ());
    (* 5. broadcast the state record (lines 24-25) *)
    Pid.Set.iter (fun p -> if not (Pid.equal p self) then v.Stack.v_send p (Vs st.me)) part
  end

let vs_recv _v ~from m st =
  match m with
  | Cnt _ -> () (* handled by the counter layer; the tick reads its result *)
  | Vs rep -> st.peers <- Pid.Map.add from rep st.peers

let default_eval ~self:_ ~trusted:_ _ = false

(* Arbitrary-state injection for the VS layer: scramble the broadcast
   report's control fields, forget all peer reports and the
   counter-request bookkeeping. The replica state itself is left alone —
   virtual synchrony re-synchronizes it from the most advanced survivor at
   the next install, which is exactly the recovery path under test. *)
let corrupt_upper rng st =
  let status =
    match Rng.int rng 3 with 0 -> Multicast | 1 -> Propose | _ -> Install
  in
  st.me <-
    {
      st.me with
      r_status = status;
      r_rnd = Rng.int rng 1024;
      r_no_crd = Rng.bool rng;
      r_suspend = Rng.bool rng;
    };
  st.peers <- Pid.Map.empty;
  st.awaiting_vid <- Rng.bool rng;
  st.reconf_ready <- Rng.bool rng

let plugin ~machine ?(eval_config = default_eval) () =
  let counter_plugin =
    Counter_service.plugin ~in_transit_bound:8 ~exhaust_bound:(1 lsl 30)
  in
  let upper =
    {
      Stack.p_init =
        (fun p ->
          {
            cnt = counter_plugin.Stack.p_init p;
            me = fresh_report machine.initial;
            peers = Pid.Map.empty;
            pending = Queue.create ();
            batches_rev = [];
            awaiting_vid = false;
            reconf_ready = false;
            view_installs = 0;
            i_am_coordinator = false;
          });
      p_tick = vs_tick machine ~eval_config;
      p_recv = vs_recv;
      p_pending = (fun st -> Counter_service.pending st.cnt);
      p_start = (fun _ _ -> ());
      p_merge = (fun ~self:_ _ _ -> ());
      p_corrupt = corrupt_upper;
    }
  in
  Stack.Plugin.stack ~lower:counter_plugin
    ~get:(fun st -> st.cnt)
    ~wrap:(fun m -> Cnt m)
    ~unwrap:(function Cnt m -> Some m | _ -> None)
    upper

let hooks ~machine ?eval_config () =
  { Stack.unit_hooks with plugin = plugin ~machine ?eval_config () }
