open Sim

type ('app, 'msg) message =
  | Heartbeat
  | Snap of Datalink.Snap_link.msg
  | Sa of int * Recsa.message
  | Ma of Recma.message
  | Join of 'app Join.message
  | App of 'msg

type sa_link = {
  mutable sa_newest : int;
  mutable sa_rejects : int;
}

type 'app node_state = {
  fd : Detector.Theta_fd.t;
  sa : Recsa.t;
  ma : Recma.t;
  join : 'app Join.t;
  mutable app : 'app;
  mutable seeds : Pid.Set.t;
  mutable snap : Datalink.Snap_link.t Pid.Map.t;
  joiner : bool;
  mutable tele_phase : Notification.phase;
  mutable fd_raw : Pid.Set.t; (* the detector's last trusted set *)
  mutable fd_trusted : Pid.Set.t; (* its interned copy *)
  mutable sa_stamp : int;
  mutable sa_in : sa_link Pid.Map.t;
}

(* The node's trusted set, interned once per change: the detector returns
   the physically same set while membership is unchanged, so [Intern] (whose
   small MRU ring every node of the domain shares) runs only when the set
   really changed, and recSA's interface memo keyed on this set hits under
   [==]. *)
let trusted_set n =
  let raw = Detector.Theta_fd.trusted n.fd in
  if raw != n.fd_raw then begin
    n.fd_raw <- raw;
    n.fd_trusted <- Intern.pid_set raw
  end;
  n.fd_trusted

type 'msg scheme_view = {
  v_self : Pid.t;
  v_trusted : Pid.Set.t;
  v_recsa : Recsa.t;
  v_send : Pid.t -> 'msg -> unit;
  v_emit : string -> string -> unit;
  v_now : float;
  v_telemetry : Telemetry.t;
}

(* --- derived views of the scheme state (Figure 1's getConfig()/noReco()
   read interfaces), shared by every service plugin --- *)

module View = struct
  let current_members v =
    if Recsa.no_reco v.v_recsa ~trusted:v.v_trusted then
      Config_value.to_set (Recsa.get_config v.v_recsa ~trusted:v.v_trusted)
    else None

  let participants v = Recsa.participants v.v_recsa ~trusted:v.v_trusted
  let config_set v = Config_value.to_set (Recsa.config v.v_recsa)

  let is_member v =
    match current_members v with
    | Some members -> Pid.Set.mem v.v_self members
    | None -> false
end

module Plugin = struct
  type ('app, 'msg) t = {
    p_init : Pid.t -> 'app;
    p_tick : 'msg scheme_view -> 'app -> unit;
    p_recv : 'msg scheme_view -> from:Pid.t -> 'msg -> 'app -> unit;
    p_pending : 'app -> bool;
    p_start : 'msg scheme_view -> 'app -> unit;
    p_merge : self:Pid.t -> 'app -> 'app Pid.Map.t -> unit;
    p_corrupt : Rng.t -> 'app -> unit;
  }

  let null =
    {
      p_init = (fun _ -> ());
      p_tick = (fun _ () -> ());
      p_recv = (fun _ ~from:_ _ () -> ());
      p_pending = (fun () -> false);
      p_start = (fun _ () -> ());
      p_merge = (fun ~self:_ () _ -> ());
      p_corrupt = (fun _ () -> ());
    }

  let stack ~lower ~get ~wrap ~unwrap upper =
    let lower_view v = { v with v_send = (fun dst m -> v.v_send dst (wrap m)) } in
    {
      p_init = upper.p_init;
      p_tick =
        (fun v st ->
          upper.p_tick v st;
          lower.p_tick (lower_view v) (get st));
      p_recv =
        (fun v ~from m st ->
          (match unwrap m with
          | Some lm -> lower.p_recv (lower_view v) ~from lm (get st)
          | None -> ());
          upper.p_recv v ~from m st);
      p_pending = upper.p_pending;
      p_start =
        (fun v st ->
          upper.p_start v st;
          let lst = get st in
          if lower.p_pending lst then lower.p_start (lower_view v) lst);
      p_merge =
        (fun ~self st others ->
          lower.p_merge ~self (get st) (Pid.Map.map get others);
          upper.p_merge ~self st others);
      p_corrupt =
        (fun rng st ->
          lower.p_corrupt rng (get st);
          upper.p_corrupt rng st);
    }
end

type ('app, 'msg) plugin = ('app, 'msg) Plugin.t = {
  p_init : Pid.t -> 'app;
  p_tick : 'msg scheme_view -> 'app -> unit;
  p_recv : 'msg scheme_view -> from:Pid.t -> 'msg -> 'app -> unit;
  p_pending : 'app -> bool;
  p_start : 'msg scheme_view -> 'app -> unit;
  p_merge : self:Pid.t -> 'app -> 'app Pid.Map.t -> unit;
  p_corrupt : Rng.t -> 'app -> unit;
}

type ('app, 'msg) hooks = {
  eval_conf : self:Pid.t -> trusted:Pid.Set.t -> Pid.Set.t -> bool;
  pass_query : self:Pid.t -> joiner:Pid.t -> bool;
  plugin : ('app, 'msg) plugin;
}

let unit_hooks =
  {
    eval_conf = (fun ~self:_ ~trusted:_ _ -> false);
    pass_query = (fun ~self:_ ~joiner:_ -> true);
    plugin = Plugin.null;
  }

let default_eval_conf () ~self:_ ~trusted members =
  let total = Pid.Set.cardinal members in
  if total = 0 then false
  else
    let missing = total - Pid.inter_cardinal members trusted in
    float_of_int missing >= 0.25 *. float_of_int total

(* A joiner uses a link only once its cleaning handshake completed
   (Section 2: every established data link is initialized and cleaned
   straight after it is established). Gating is per link: a handshake with
   a processor that crashed mid-join simply never completes and that link
   is never used. Established members' links predate the run and need no
   handshake. *)
let link_clean n peer =
  (not n.joiner)
  ||
  match Pid.Map.find_opt peer n.snap with
  | Some s -> Datalink.Snap_link.phase s = Datalink.Snap_link.Clean_done
  | None -> false

(* Newest-state delivery of recSA (Section 2: a link delivers the sender's
   latest state). Each [Sa] packet carries its sender's link stamp, bumped
   once per batch of line-29 messages (a broadcast, or a receipt's sends),
   and a receiver drops a packet not newer than the newest it accepted from
   that peer (an older one or a duplicate), so a random-pick channel cannot
   roll a stored view back. A channel never holds more than [capacity] packets,
   so a legitimate execution never rejects [capacity] in a row: after that
   many (or from a corrupted count) the receiver accepts unconditionally,
   which bounds what a corrupted stamp, table or channel can delay to one
   channel's worth of packets. Allocation-free once the peer's record
   exists. *)
let sa_fresh ~capacity n ~from stamp =
  match Pid.Map.find from n.sa_in with
  | l ->
    if stamp > l.sa_newest || l.sa_rejects < 0 || l.sa_rejects >= capacity then begin
      l.sa_newest <- stamp;
      l.sa_rejects <- 0;
      true
    end
    else begin
      l.sa_rejects <- l.sa_rejects + 1;
      false
    end
  | exception Not_found ->
    n.sa_in <- Pid.Map.add from { sa_newest = stamp; sa_rejects = 0 } n.sa_in;
    true

(* a deterministic handshake instance identifier for the pair: the two pids
   packed side by side ([Pid.key_bits] each), collision-free over the whole
   pid range — a multiplicative mix would collide once pids reach the
   multiplier *)
let snap_nonce ~self ~peer = (self lsl Pid.key_bits) lor peer

(* Pre-register every telemetry family the scheme can emit, so exporters
   list a stable schema even for runs where an event never fires. *)
let declare_metrics tele =
  List.iter
    (fun ty -> Telemetry.declare_counter tele ~labels:[ ("type", ty) ] "recsa.conflicts")
    [ "1"; "2"; "3"; "4" ];
  Telemetry.declare_counter tele "recsa.resets";
  Telemetry.declare_counter tele "recsa.brute_force";
  Telemetry.declare_counter tele "recsa.installs";
  List.iter
    (fun r -> Telemetry.declare_counter tele ~labels:[ ("reason", r) ] "recma.triggers")
    [ "collapse"; "prediction" ];
  Telemetry.declare_counter tele "join.completed";
  Telemetry.declare_counter tele "counter.aborts";
  Telemetry.declare_counter tele "vs.proposals";
  Telemetry.declare_counter tele "vs.installs";
  Telemetry.declare_histogram tele "recsa.replacement_seconds";
  Telemetry.declare_histogram tele "recsa.reset_recovery_seconds";
  Telemetry.declare_histogram tele "join.handshake_seconds";
  Telemetry.declare_histogram tele ~labels:[ ("op", "increment") ] "counter.op_seconds";
  Telemetry.declare_histogram tele "vs.view_change_seconds"

(* Fold a scheme trace event into the telemetry registry: the stale types
   of Definition 3.1 as labeled conflict counters, reset -> brute-force
   recovery as a span, the joiner handshake as a span. *)
let note_event tele ~self ~now (tag, detail) =
  match tag with
  | "recsa.stale" ->
    (* detail is "type-N"; label just the N *)
    let ty =
      match String.index_opt detail '-' with
      | Some i -> String.sub detail (i + 1) (String.length detail - i - 1)
      | None -> detail
    in
    Telemetry.inc tele ~labels:[ ("type", ty) ] "recsa.conflicts"
  | "recsa.reset" ->
    Telemetry.inc tele "recsa.resets";
    Telemetry.span_begin tele ~name:"recsa.reset_recovery_seconds" ~key:self ~now
  | "recsa.join_reset" ->
    Telemetry.span_begin tele ~name:"recsa.reset_recovery_seconds" ~key:self ~now
  | "recsa.brute_force" ->
    Telemetry.inc tele "recsa.brute_force";
    (* a node corrupted straight into a reset never saw the reset event;
       only close spans we actually opened *)
    if Telemetry.span_open tele ~name:"recsa.reset_recovery_seconds" ~key:self then
      Telemetry.span_end tele ~name:"recsa.reset_recovery_seconds" ~key:self ~now
  | "recsa.install" ->
    Telemetry.inc tele "recsa.installs";
    (* a resetting node can also recover by adopting a peer's phase-2
       notification; that install ends its recovery too *)
    if Telemetry.span_open tele ~name:"recsa.reset_recovery_seconds" ~key:self then
      Telemetry.span_end tele ~name:"recsa.reset_recovery_seconds" ~key:self ~now
  | "recma.trigger" ->
    let reason =
      if String.equal detail "majority collapse" then "collapse" else "prediction"
    in
    Telemetry.inc tele ~labels:[ ("reason", reason) ] "recma.triggers"
  | "join.start" ->
    Telemetry.span_begin tele ~name:"join.handshake_seconds" ~key:self ~now
  | "join.participate" ->
    Telemetry.inc tele "join.completed";
    if Telemetry.span_open tele ~name:"join.handshake_seconds" ~key:self then
      Telemetry.span_end tele ~name:"join.handshake_seconds" ~key:self ~now
  | _ -> ()

let snap_instance ~capacity n ~self ~peer =
  match Pid.Map.find_opt peer n.snap with
  | Some s -> s
  | None ->
    let s =
      Datalink.Snap_link.create ~capacity ~self ~peer
        ~nonce:(snap_nonce ~self ~peer)
    in
    n.snap <- Pid.Map.add peer s n.snap;
    s

(* --- the protocol core: one Step.behavior, run unchanged by every runtime --- *)

(* [kind_counter family kind] — the [family]{kind} series of the runtime's
   registry, resolved on its first use (so exports list only kinds actually
   counted) and re-resolved if the registry changes *)
let kind_counter family kind =
  let cell = ref None in
  fun tele ->
    match !cell with
    | Some (registry, c) when registry == tele -> c
    | Some _ | None ->
      let c = Telemetry.counter tele ~labels:[ ("kind", kind) ] family in
      cell := Some (tele, c);
      c

let sent_counter = kind_counter "stack.sent"

let send_counted ctx sent dst m =
  Telemetry.incr (sent (Step.telemetry ctx));
  Step.send ctx dst m

(* protocol traffic is held back until the link's handshake completed *)
let send_gated ctx n sent dst m =
  if link_clean n dst then send_counted ctx sent dst m

(* a step's trace events, recorded and folded into the telemetry registry;
   a step with none allocates nothing *)
let emit_all ctx = function
  | [] -> ()
  | events ->
    let tele = Step.telemetry ctx and self = Step.self ctx and now = Step.now ctx in
    List.iter
      (fun (tag, detail) ->
        Step.emit ctx tag detail;
        note_event tele ~self ~now (tag, detail))
      events

(* [last] with the entries of peers above [dst] dropped *)
let rec drop_above dst = function
  | (q, _) :: rest when Pid.compare q dst > 0 -> drop_above dst rest
  | last -> last

(* The messages of [msgs] that differ from [last]'s message to the same
   peer, stamped with [stamp]; true iff one went out. Both lists are
   [Recsa.broadcast] results, so both list peers in descending pid order
   and one walk pairs them up. *)
let rec send_changed ctx n sent stamp ~last = function
  | [] -> false
  | (dst, m) :: rest ->
    let last = drop_above dst last in
    let unchanged =
      match last with
      | (q, m') :: _ -> Pid.equal q dst && Recsa.equal_message m m'
      | [] -> false
    in
    if unchanged then send_changed ctx n sent stamp ~last rest
    else begin
      send_gated ctx n sent dst (Sa (stamp, m));
      ignore (send_changed ctx n sent stamp ~last rest);
      true
    end

(* The line-29 messages [msgs] under a fresh link stamp, except those equal
   to [last]'s ([~last:[]] sends them all); true iff one went out. *)
let send_sa ctx n sent ~last msgs =
  let stamp = n.sa_stamp + 1 in
  let sent_any = send_changed ctx n sent stamp ~last msgs in
  if sent_any then n.sa_stamp <- stamp;
  sent_any

(* Time the delicate-replacement automaton: a span opens when this node's
   notification leaves phase 0 and closes when it returns (Figure 2's
   0 -> 1 -> 2 -> 0 cycle). Run after every iteration of recSA, in the step
   that moved the automaton. *)
let note_phase ctx n =
  let phase = (Recsa.prp n.sa).Notification.phase in
  if phase <> n.tele_phase then begin
    let tele = Step.telemetry ctx
    and now = Step.now ctx
    and self = Step.self ctx in
    (match (n.tele_phase, phase) with
    | Notification.P0, (Notification.P1 | Notification.P2) ->
      Telemetry.span_begin tele ~name:"recsa.replacement_seconds" ~key:self ~now
    | (Notification.P1 | Notification.P2), Notification.P0 ->
      if Telemetry.span_open tele ~name:"recsa.replacement_seconds" ~key:self then
        Telemetry.span_end tele ~name:"recsa.replacement_seconds" ~key:self ~now
    | _ -> ());
    n.tele_phase <- phase
  end

(* one do-forever iteration of recSA (lines 25-28) and its telemetry *)
let recsa_iteration ctx n ~trusted =
  emit_all ctx (Recsa.tick n.sa ~trusted);
  note_phase ctx n

(* the plugin's view; its sends are gated and counted as [App] traffic *)
let view_of ctx n sent_app =
  {
    v_self = Step.self ctx;
    v_trusted = trusted_set n;
    v_recsa = n.sa;
    v_send = (fun dst m -> send_gated ctx n sent_app dst (App m));
    v_emit = Step.emit ctx;
    v_now = Step.now ctx;
    v_telemetry = Step.telemetry ctx;
  }

let driver ~capacity ~n_bound ~theta ~hooks ~members_set ~directory =
  let sent_snap = sent_counter "snap"
  and sent_sa = sent_counter "sa"
  and sent_ma = sent_counter "ma"
  and sent_join = sent_counter "join"
  and sent_app = sent_counter "app"
  and sent_heartbeat = sent_counter "heartbeat"
  and stale_dropped_sa = kind_counter "stack.stale_dropped" "sa" in
  let init p =
    let participant = Pid.Set.mem p members_set in
    let joiner = not participant in
    let n =
      {
        fd = Detector.Theta_fd.create ~n_bound ~theta ~self:p;
        sa =
          Recsa.create ~self:p ~participant
            ?initial_config:(if participant then Some members_set else None)
            ();
        ma = Recma.create ~self:p;
        join = Join.create ~self:p;
        app = hooks.plugin.p_init p;
        seeds = Pid.Set.remove p !directory;
        snap = Pid.Map.empty;
        joiner;
        tele_phase = Notification.P0;
        fd_raw = Pid.Set.empty;
        fd_trusted = Pid.Set.empty;
        sa_stamp = 0;
        sa_in = Pid.Map.empty;
      }
    in
    if joiner then
      Pid.Set.iter (fun peer -> ignore (snap_instance ~capacity n ~self:p ~peer)) n.seeds;
    n
  in
  let on_timer ctx n =
    let self = Step.self ctx in
    (* flood pending cleaning handshakes (only a joiner runs any) *)
    if not (Pid.Map.is_empty n.snap) then
      Pid.Map.iter
        (fun peer s ->
          match Datalink.Snap_link.on_tick s with
          | Some m ->
            (* keep the channel's pipe full: the handshake needs more than
               the round-trip capacity of acknowledgments *)
            for _ = 1 to max 1 (capacity / 2) do
              send_counted ctx sent_snap peer (Snap m)
            done
          | None -> ())
        n.snap;
    (* interned: this set rides in every broadcast's [m_fd] and keys recSA's
       interface memo *)
    let trusted = trusted_set n in
    (* recSA: one do-forever iteration, then the line-29 broadcast *)
    recsa_iteration ctx n ~trusted;
    let broadcast = send_sa ctx n sent_sa ~last:[] (Recsa.broadcast n.sa ~trusted) in
    (* recMA *)
    emit_all ctx
      (Recma.tick n.ma ~trusted ~recsa:n.sa
         ~eval_conf:(fun members -> hooks.eval_conf ~self ~trusted members)
         ~send:(fun dst m -> send_gated ctx n sent_ma dst (Ma m)));
    (* joining mechanism (joiner side) *)
    emit_all ctx
      (Join.tick n.join ~trusted ~recsa:n.sa
         ~reset_vars:(fun () -> n.app <- hooks.plugin.p_init self)
         ~init_vars:(fun states -> hooks.plugin.p_merge ~self n.app states)
         ~send:(fun dst m -> send_gated ctx n sent_join dst (Join m)));
    (* application plugin *)
    hooks.plugin.p_tick (view_of ctx n sent_app) n.app;
    (* heartbeats (the data-link token) to every known processor not already
       covered by a recSA broadcast, which, when this tick made one, went to
       every trusted processor but self (it was taken before Join.tick could
       make this node a participant); in steady state it covers them
       all, so look for an uncovered one before building the union *)
    let uncovered dst =
      (not (Pid.equal dst self)) && not (broadcast && Pid.Set.mem dst trusted)
    in
    let known = Detector.Theta_fd.known n.fd in
    if Pid.Set.exists uncovered n.seeds || Pid.Set.exists uncovered known then
      Pid.Set.iter
        (fun dst -> if uncovered dst then send_gated ctx n sent_heartbeat dst Heartbeat)
        (Pid.Set.union n.seeds known);
    n
  in
  let on_message ctx from msg n =
    (match msg with
    | Snap m ->
      let s = snap_instance ~capacity n ~self:(Step.self ctx) ~peer:from in
      let reply, completed = Datalink.Snap_link.on_msg s m in
      (match reply with
      | Some r -> send_counted ctx sent_snap from (Snap r)
      | None -> ());
      (match completed with
      | `Completed -> Step.emit ctx "snap.clean" (Pid.to_string from)
      | `Pending -> ())
    | Heartbeat | Sa _ | Ma _ | Join _ | App _ ->
      if link_clean n from then Detector.Theta_fd.heartbeat n.fd from);
    (match msg with
    | _ when not (link_clean n from) -> () (* link not yet cleaned *)
    | Snap _ -> ()
    | Heartbeat -> ()
    | Sa (stamp, m) ->
      if sa_fresh ~capacity n ~from stamp then begin
        Recsa.receive n.sa ~from m;
        (* A delicate replacement moves on receipts: on one that
           [Recsa.iterate_on_receipt] accepts, the do-forever iteration runs
           in this step, and the line-29 message goes out at once, under a
           fresh stamp, to each peer whose message changed since the last
           one sent to it (every broadcast is sent, so the last one sent is
           [Recsa.last_broadcast]). The timer's broadcast stays the
           heartbeat and the stabilization backbone; this only answers
           sooner. *)
        if Recsa.iterate_on_receipt n.sa m then begin
          let trusted = trusted_set n in
          recsa_iteration ctx n ~trusted;
          let last = Recsa.last_broadcast n.sa in
          ignore (send_sa ctx n sent_sa ~last (Recsa.broadcast n.sa ~trusted))
        end
      end
      else Telemetry.incr (stale_dropped_sa (Step.telemetry ctx))
    | Ma m -> Recma.receive n.ma ~from ~participant:(Recsa.is_participant n.sa) m
    | Join (Join.Join_request) ->
      let trusted = trusted_set n in
      (match
         Join.on_request n.join ~self_app:n.app ~from ~trusted ~recsa:n.sa
           ~pass_query:(fun joiner ->
             hooks.pass_query ~self:(Step.self ctx) ~joiner)
       with
      | Some reply -> send_gated ctx n sent_join from (Join reply)
      | None -> ())
    | Join (Join.Join_reply { pass; app }) ->
      Join.on_reply n.join ~from ~participant:(Recsa.is_participant n.sa) ~pass ~app
    | App m ->
      hooks.plugin.p_recv (view_of ctx n sent_app) ~from m n.app;
      (* an operation queued since this node's last step starts now, not
         at its next tick *)
      if hooks.plugin.p_pending n.app then
        hooks.plugin.p_start (view_of ctx n sent_app) n.app);
    n
  in
  { Step.init; on_timer; on_message }

(* --- runtime-agnostic observation over collections of node states --- *)

let uniform_config_of nodes =
  let participant_configs =
    List.filter_map
      (fun (_, n) ->
        match Recsa.config n.sa with
        | Config_value.Not_participant -> None
        | v -> Some v)
      nodes
  in
  match participant_configs with
  | [] -> None
  | first :: rest ->
    if List.for_all (Config_value.equal first) rest then Config_value.to_set first
    else None

let quiescent_of nodes =
  match uniform_config_of nodes with
  | None -> false
  | Some _ ->
    List.for_all
      (fun (_, n) ->
        (not (Recsa.is_participant n.sa))
        || Recsa.no_reco n.sa ~trusted:(trusted_set n))
      nodes

(* --- the simulated system: the core driven by Sim.Engine --- *)

type ('app, 'msg) t = {
  eng : ('app node_state, ('app, 'msg) message) Engine.t;
  hooks : ('app, 'msg) hooks;
  directory : Pid.Set.t ref;
}

(* --- seeded garbage: the raw material of transient faults --- *)

let random_pid_set rng pool =
  match Rng.subset rng pool with [] -> Pid.set_of_list [ List.hd pool ] | l -> Pid.set_of_list l

let random_config rng pool =
  match Rng.int rng 4 with
  | 0 -> Config_value.Reset
  | 1 -> Config_value.Set (random_pid_set rng pool)
  | 2 -> Config_value.Set Pid.Set.empty
  | _ -> Config_value.Set (random_pid_set rng pool)

let random_notification rng pool =
  match Rng.int rng 4 with
  | 0 -> Notification.default
  | 1 -> { Notification.phase = Notification.P0; set = Some (random_pid_set rng pool) }
  | 2 -> Notification.make Notification.P1 (random_pid_set rng pool)
  | _ -> Notification.make Notification.P2 (random_pid_set rng pool)

(* a link stamp anywhere in the int range *)
let random_stamp rng = Int64.to_int (Rng.bits64 rng)

(* A stale recSA packet, as left behind by an arbitrary transient fault. *)
let stale_sa rng pool =
  let trusted = random_pid_set rng pool in
  let stamp = random_stamp rng in
  Sa
    ( stamp,
      {
        Recsa.m_fd = trusted;
        m_part = random_pid_set rng pool;
        m_config = random_config rng pool;
        m_prp = random_notification rng pool;
        m_all = Rng.bool rng;
        m_echo = None;
      } )

let of_scenario ~hooks (sc : Scenario.t) =
  let members = sc.Scenario.sc_members in
  let members_set = Pid.set_of_list members in
  let directory = ref members_set in
  let behavior =
    driver ~capacity:sc.sc_capacity ~n_bound:sc.sc_n_bound ~theta:sc.sc_theta
      ~hooks ~members_set ~directory
  in
  let eng =
    Engine.create ~seed:sc.sc_seed ~capacity:sc.sc_capacity ~loss:sc.sc_loss
      ~behavior ~pids:members ()
  in
  declare_metrics (Engine.telemetry eng);
  Faults.Injector.declare_metrics (Engine.telemetry eng);
  (* "bit flips" on profiled links: a typed message has no bits to flip, so
     a mangled packet re-parses as garbage — a heartbeat or a stale recSA
     packet *)
  Engine.set_mangler eng
    (Some
       (fun rng _msg ->
         if Rng.bool rng then Heartbeat else stale_sa rng (Engine.pids eng)));
  { eng; hooks; directory }

let engine t = t.eng

let add_joiner t p =
  t.directory := Pid.Set.add p !(t.directory);
  Engine.add_node t.eng p

let node t p = Engine.state t.eng p

let live_nodes t =
  List.map (fun p -> (p, Engine.state t.eng p)) (Engine.live_pids t.eng)

let trusted_of t p = trusted_set (node t p)
let uniform_config t = uniform_config_of (live_nodes t)
let quiescent t = quiescent_of (live_nodes t)
let sum_over t f = List.fold_left (fun acc (_, n) -> acc + f n) 0 (live_nodes t)
let total_resets t = sum_over t (fun n -> Recsa.reset_count n.sa)
let total_installs t = sum_over t (fun n -> Recsa.install_count n.sa)
let total_triggers t = sum_over t (fun n -> Recma.trigger_count n.ma)
let run_rounds t n = Engine.run_rounds t.eng n
let run_until t ~max_steps pred = Engine.run_until t.eng ~max_steps (fun _ -> pred t)

let run_until_quiescent t ~max_rounds =
  let start = Engine.rounds t.eng in
  let rec go () =
    if quiescent t then Some (Engine.rounds t.eng - start)
    else if Engine.rounds t.eng - start >= max_rounds then None
    else begin
      Engine.run_rounds t.eng 1;
      go ()
    end
  in
  go ()

let crash t p = Engine.crash t.eng p
let estab t p set = Recsa.estab (node t p).sa ~trusted:(trusted_of t p) set

(* --- transient-fault injection --- *)

let corrupt_state ~hooks ~pool ~rng n =
  Recsa.corrupt n.sa ~config:(random_config rng pool)
    ~prp:(random_notification rng pool) ~all:(Rng.bool rng)
    ~allseen:(random_pid_set rng pool) ();
  Recsa.clear_peers n.sa;
  let random_flags () = List.map (fun q -> (q, Rng.bool rng)) pool in
  Recma.corrupt n.ma ~no_maj:(random_flags ()) ~need_reconf:(random_flags ());
  Join.corrupt n.join ~rng ~pool;
  hooks.plugin.p_corrupt rng n.app;
  n.sa_stamp <- random_stamp rng;
  n.sa_in <-
    List.fold_left
      (fun links q ->
        let sa_newest = random_stamp rng in
        Pid.Map.add q { sa_newest; sa_rejects = random_stamp rng } links)
      Pid.Map.empty pool

let corrupt_node t p ~rng =
  corrupt_state ~hooks:t.hooks ~pool:(Engine.pids t.eng) ~rng (node t p)

let corrupt_link t ~src ~dst ~rng =
  let pool = Engine.pids t.eng in
  let k = Rng.int rng 4 in
  let pkts = List.init k (fun _ -> stale_sa rng pool) in
  Engine.corrupt_channel t.eng ~src ~dst pkts

let corrupt_everything t ~rng =
  let live = Engine.live_pids t.eng in
  List.iter (fun p -> corrupt_node t p ~rng) live;
  List.iter
    (fun src ->
      List.iter
        (fun dst -> if not (Pid.equal src dst) then corrupt_link t ~src ~dst ~rng)
        live)
    live

(* --- fault plans: the injector capabilities of the simulator runtime --- *)

let fault_ops t =
  {
    Faults.Injector.o_live = (fun () -> Engine.live_pids t.eng);
    o_pids = (fun () -> Engine.pids t.eng);
    o_rounds = (fun () -> Engine.rounds t.eng);
    o_crash = (fun p -> Engine.crash t.eng p);
    o_join = (fun p -> add_joiner t p);
    o_corrupt_node = (fun rng p -> corrupt_node t p ~rng);
    o_corrupt_link = (fun rng ~src ~dst -> corrupt_link t ~src ~dst ~rng);
    o_set_link_profile = Engine.set_link_profile t.eng;
    o_partition = (fun group -> Engine.partition t.eng group);
    o_heal =
      (fun () ->
        Engine.heal t.eng;
        Engine.clear_link_profiles t.eng);
    o_telemetry = Engine.telemetry t.eng;
    o_emit =
      (fun ~tag ~detail ->
        Trace.record (Engine.trace t.eng) ~time:(Engine.time t.eng) ~tag detail);
  }

let run_plan t ~plan ~max_rounds =
  Faults.Injector.run ~plan ~ops:(fault_ops t) ~round:(fun () -> run_rounds t 1);
  run_until_quiescent t ~max_rounds
