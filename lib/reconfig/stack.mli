(** The full reconfiguration scheme as a single "black box" (Figure 1):
    (N,Θ)-failure detector + recSA + recMA + joining mechanism, with a
    pluggable application on top.

    The protocol core is runtime-agnostic: {!driver} builds the node
    automaton as one {!Sim.Step.behavior}, which the discrete-event
    simulator ({!Sim.Engine}) and the real-time event loop
    ([Runtime.Loop], see [Stack_loop]) both run unchanged. The
    [('app, 'msg) t] API below is the simulator-backed system used by the
    tests and the experiment harness, and the only one that runs fault
    plans.

    ['app] is the application state (replicated to joiners by the joining
    mechanism); ['msg] is the application's own message type. The services
    of Section 4 are plugins: the counter on its own, and the register and
    virtual synchrony, each of which embeds a counter state and calls the
    counter's functions itself (see [Counters.Counter_service]). *)

open Sim

type ('app, 'msg) message =
  | Heartbeat  (** the data-link token; keeps failure detectors fed *)
  | Snap of Datalink.Snap_link.msg
      (** snap-stabilizing link cleaning on new connections (Section 2) *)
  | Sa of int * Recsa.message
      (** a recSA broadcast, carrying its sender's link stamp: the receiver
          drops a packet not newer than the newest it accepted from that
          peer (see {!sa_link}) *)
  | Ma of Recma.message
  | Join of 'app Join.message
  | App of 'msg

(** A receiver's newest-state record for the recSA packets of one peer.
    A packet whose stamp is not newer than [sa_newest] is dropped (it is
    still a detector heartbeat) and counted as
    [stack.stale_dropped{kind="sa"}]. The link accepts unconditionally once
    [sa_rejects] reaches the channel capacity, or holds a value outside
    [0, capacity): a channel holds at most [capacity] packets, so only
    corruption makes that many rejections in a row, and a corrupted stamp,
    table or channel delays a view by at most one channel's worth of
    packets. *)
type sa_link = {
  mutable sa_newest : int;  (** the newest stamp accepted from the peer *)
  mutable sa_rejects : int;  (** consecutive rejections since then *)
}

type 'app node_state = {
  fd : Detector.Theta_fd.t;
  sa : Recsa.t;
  ma : Recma.t;
  join : 'app Join.t;
  mutable app : 'app;
  mutable seeds : Pid.Set.t;  (** initially-known processors *)
  mutable snap : Datalink.Snap_link.t Pid.Map.t;
      (** per-peer cleaning handshakes; a joiner participates in the
          protocols over a link only once its handshake completed *)
  joiner : bool;  (** joined after system start (runs the handshake) *)
  mutable tele_phase : Notification.phase;
      (** last notification phase observed by the telemetry layer, for
          timing the delicate-replacement 0 -> 1 -> 2 -> 0 cycle *)
  mutable fd_raw : Pid.Set.t;  (** the detector's last trusted set *)
  mutable fd_trusted : Pid.Set.t;
      (** its interned copy, refreshed only when the detector returns a new
          set *)
  mutable sa_stamp : int;
      (** the link stamp of this node's last recSA messages, bumped once per
          batch of line-29 messages, a tick's or a receipt's (wrapping at
          [max_int]) *)
  mutable sa_in : sa_link Pid.Map.t;
      (** per peer, the newest-state record of its recSA packets *)
  mutable sa_out : Recsa.message Pid.Map.t;
      (** per peer, the last recSA message sent it *)
}

(** The scheme as the application plugin sees it — the [getConfig()] /
    [noReco()] interfaces of Figure 1, enriched with the executing
    runtime's clock, randomness and telemetry, plus the plugin's one way to
    send its own messages. *)
type 'msg scheme_view = {
  v_self : Pid.t;
  v_trusted : Pid.Set.t;
  v_recsa : Recsa.t;
  v_send : Pid.t -> 'msg -> unit;
      (** send an application message as an [App] packet, counted as
          [stack.sent{kind="app"}]; held back, like all protocol traffic,
          while a joiner's link to the destination is not yet cleaned *)
  v_emit : string -> string -> unit;  (** trace emission *)
  v_now : float;  (** the runtime's current time *)
  v_telemetry : Telemetry.t;  (** shared telemetry registry *)
}

(** Derived read-only views of the scheme state, shared by all service
    plugins (previously duplicated per service). *)
module View : sig
  (** [current_members v] — the configuration member set while no
      reconfiguration is taking place, [None] during reconfigurations. *)
  val current_members : _ scheme_view -> Pid.Set.t option

  (** The trusted participants (getConfig ∪ prospective members ∩ FD). *)
  val participants : _ scheme_view -> Pid.Set.t

  (** The raw configuration value as a set, reconfiguring or not. *)
  val config_set : _ scheme_view -> Pid.Set.t option

  (** [is_member v] — is this node a member of the stable configuration? *)
  val is_member : _ scheme_view -> bool
end

(** Application plugins: ticked after the scheme layers on every timer
    step; receive every [App] message. Plugins keep their state in mutable
    fields and update it in place, and send through their view's [v_send].
    The driver handles an [App] receipt with one [p_recv] call, so a plugin
    whose operations may wait for a step (a queued operation, a pending
    counter increment) starts them at the end of its own [p_recv]: an
    operation queued since the node's last step leaves in its next receipt
    step or tick, whichever comes first. The tick starts operations too,
    and stays their retransmission path. *)
module Plugin : sig
  type ('app, 'msg) t = {
    p_init : Pid.t -> 'app;
    p_tick : 'msg scheme_view -> 'app -> unit;
    p_recv : 'msg scheme_view -> from:Pid.t -> 'msg -> 'app -> unit;
    p_merge : self:Pid.t -> 'app -> 'app Pid.Map.t -> unit;
        (** [initVars]: fold members' states into a fresh participant's
            state when joining completes *)
    p_corrupt : Rng.t -> 'app -> unit;
        (** transient fault: rewrite the application state with seeded
            garbage. Self-stabilization demands the plugin converge from
            whatever this leaves; [corrupt_node] and fault plans call it
            alongside the scheme-layer corruptors. *)
  }

  (** A do-nothing plugin for running the bare reconfiguration scheme. *)
  val null : (unit, unit) t
end

type ('app, 'msg) plugin = ('app, 'msg) Plugin.t = {
  p_init : Pid.t -> 'app;
  p_tick : 'msg scheme_view -> 'app -> unit;
  p_recv : 'msg scheme_view -> from:Pid.t -> 'msg -> 'app -> unit;
  p_merge : self:Pid.t -> 'app -> 'app Pid.Map.t -> unit;
  p_corrupt : Rng.t -> 'app -> unit;
}

type ('app, 'msg) hooks = {
  eval_conf : self:Pid.t -> trusted:Pid.Set.t -> Pid.Set.t -> bool;
      (** prediction function: should the given configuration be replaced? *)
  pass_query : self:Pid.t -> joiner:Pid.t -> bool;
      (** may this joiner enter the computation? *)
  plugin : ('app, 'msg) plugin;
}

(** Never asks for reconfiguration; always passes joiners; null plugin. *)
val unit_hooks : (unit, unit) hooks

(** [default_eval_conf ()] — the paper's example predictor: replace when
    at least 1/4 of the members are untrusted (never for an empty member
    set). *)
val default_eval_conf :
  unit -> self:Pid.t -> trusted:Pid.Set.t -> Pid.Set.t -> bool

(** [snap_nonce ~self ~peer] — deterministic handshake instance identifier
    for the directed link [self → peer]: the two pids packed side by side
    ({!Sim.Pid.key_bits} bits each), so distinct pairs always get distinct
    nonces. *)
val snap_nonce : self:Pid.t -> peer:Pid.t -> int

(** [declare_metrics tele] pre-registers every telemetry family the scheme
    emits (conflict counters per stale type, reset/install counters, the
    replacement/recovery/join/counter-op/view-change histograms), so
    exports list a stable schema even before any event fires. Called by
    the system constructors ({!of_scenario} and [Stack_loop.of_scenario]). *)
val declare_metrics : Telemetry.t -> unit

(** {2 The runtime-agnostic protocol core} *)

(** [driver ~capacity ~n_bound ~theta ~hooks ~members_set ~directory] —
    the scheme's node automaton, for any runtime that executes {!Sim.Step}
    behaviors. Nodes in [members_set] start as participants holding that
    configuration. [directory] is read at node-init time: a node created
    after system start treats the processors then present as its seeds and
    runs the cleaning handshake against them.

    recSA sends by one rule: each target peer, in descending pid order,
    gets its current line-29 message ({!Recsa.message_to}, handed the one
    last sent it, [sa_out]), one fresh link stamp per batch, and every
    message sent is recorded. A timer step runs one iteration and sends
    every trusted peer its message. A receipt sends only the messages that
    differ by value from the recorded ones: one that
    {!Recsa.iterate_on_receipt} accepts runs an iteration and targets
    every trusted peer; any other that changes the stored view of a peer
    already heard from targets that peer; a first packet from a
    participant outside this node's configuration (a joiner) targets every
    trusted peer. Any other first packet and an unchanged one target none,
    so a steady cluster sends recSA messages only on ticks. *)
val driver :
  capacity:int ->
  n_bound:int ->
  theta:int ->
  hooks:('app, 'msg) hooks ->
  members_set:Pid.Set.t ->
  directory:Pid.Set.t ref ->
  ('app node_state, ('app, 'msg) message) Step.behavior

(** {2 Runtime-agnostic observation}

    These fold over any [(pid, node_state)] collection, so every runtime's
    harness can share them. *)

val uniform_config_of : (Pid.t * 'app node_state) list -> Pid.Set.t option
val quiescent_of : (Pid.t * 'app node_state) list -> bool

(** {2 The simulator-backed system} *)

type ('app, 'msg) t
(** A simulated system running the scheme on every node. *)

val of_scenario : hooks:('app, 'msg) hooks -> Scenario.t -> ('app, 'msg) t
(** The primary constructor. The initial participants [sc_members] start
    with the agreed configuration [sc_members] (a steady config state);
    other processors enter later via [add_joiner] or a plan's [Join]
    events. A fault plan is applied by {!run_plan}. *)

val engine : ('app, 'msg) t -> ('app node_state, ('app, 'msg) message) Engine.t

(** [add_joiner t p] introduces a new processor over snap-stabilized (clean)
    links; it knows the processors present at its join time. *)
val add_joiner : ('app, 'msg) t -> Pid.t -> unit

(** {2 Observation} *)

val node : ('app, 'msg) t -> Pid.t -> 'app node_state
val live_nodes : ('app, 'msg) t -> (Pid.t * 'app node_state) list
val trusted_of : ('app, 'msg) t -> Pid.t -> Pid.Set.t

(** [uniform_config t] is [Some s] iff every live {e participant} holds
    exactly [Set s] — the paper's conflict-free condition. [None] while any
    participant disagrees, is resetting, or no participant exists. *)
val uniform_config : ('app, 'msg) t -> Pid.Set.t option

(** [quiescent t] — uniform configuration and [no_reco] holds at every live
    participant (steady config state). *)
val quiescent : ('app, 'msg) t -> bool

(** Sums over all nodes: recSA brute-force resets, delicate installs,
    recMA accepted triggerings. *)
val total_resets : ('app, 'msg) t -> int

val total_installs : ('app, 'msg) t -> int
val total_triggers : ('app, 'msg) t -> int

(** {2 Driving} *)

val run_rounds : ('app, 'msg) t -> int -> unit
val run_until : ('app, 'msg) t -> max_steps:int -> (('app, 'msg) t -> bool) -> bool

(** [run_until_quiescent t ~max_rounds] runs until {!quiescent}; returns
    the number of rounds consumed, or [None] on timeout. *)
val run_until_quiescent : ('app, 'msg) t -> max_rounds:int -> int option

val crash : ('app, 'msg) t -> Pid.t -> unit

(** [estab t p set] — request a delicate replacement at node [p] (test
    hook; normally recMA decides). *)
val estab : ('app, 'msg) t -> Pid.t -> Pid.Set.t -> bool

(** {2 Transient faults} *)

(** [corrupt_state ~hooks ~pool ~rng n] writes pseudo-random garbage,
    drawn over the processors in [pool], into one node's failure detector
    (heartbeat counts in [0, 1024) for a random subset of [pool]), recSA,
    recMA and join state, (through [hooks.plugin.p_corrupt]) its application state,
    its link stamp and newest-state records (arbitrary ints), and its
    [sa_out] record (messages drawn as {!stale_sa} draws them), whose
    entries of trusted peers the next tick overwrites. The one node-state
    corruptor of every runtime. *)
val corrupt_state :
  hooks:('app, 'msg) hooks -> pool:Pid.t list -> rng:Rng.t -> 'app node_state -> unit

(** [stale_sa rng pool] — a recSA packet as left behind by an arbitrary
    transient fault: garbage fields drawn over [pool], and a stamp anywhere
    in the int range. Channel corruption and mangled packets are made of
    these and heartbeats. *)
val stale_sa : Rng.t -> Pid.t list -> ('app, 'msg) message

(** [corrupt_node t p ~rng] — {!corrupt_state} on [p], over every pid the
    engine has seen. *)
val corrupt_node : ('app, 'msg) t -> Pid.t -> rng:Rng.t -> unit

(** [corrupt_everything t ~rng] corrupts every live node and fills every
    channel between live nodes with stale protocol packets. *)
val corrupt_everything : ('app, 'msg) t -> rng:Rng.t -> unit

(** {2 Fault plans}

    Declarative adversaries ({!Faults.Fault_plan}) act on the system
    through the injector capability record. The simulator is the one
    runtime that runs them, and it supplies every capability: state corruption (scheme layers, join bookkeeping and the
    plugin's [p_corrupt]), channel corruption, per-link fault profiles
    (with "bit flips" mangled into stale protocol packets), partitions,
    crashes and join churn. *)

(** [run_plan t ~plan ~max_rounds] drives the system round by round,
    applying [plan]'s events at their scheduled rounds, then runs on until
    quiescence. Returns the number of rounds between the last plan action
    and quiescence ([None] if the [max_rounds] budget expires first) —
    the measured stabilization time. *)
val run_plan :
  ('app, 'msg) t -> plan:Faults.Fault_plan.t -> max_rounds:int -> int option
