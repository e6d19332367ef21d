(** Discrete-event simulation engine — the paper's interleaving model.

    An execution is an alternating sequence of system states and atomic
    steps. Each step is either a timer step (one iteration of a node's
    [do forever] loop) or the receipt of one packet. The engine schedules
    steps in virtual time under a seeded pseudo-random schedule that
    guarantees fair communication: every live node takes timer steps
    infinitely often, and each send schedules a delivery attempt whose loss
    probability is strictly below one, so a packet sent infinitely often is
    received infinitely often.

    Behaviors are {!Step.behavior}s; the engine runs each step on one
    reused {!Step.ctx}, whose send puts a message on its channel and
    schedules a delivery attempt on that channel at least 0.5 time units
    later, so no step receives its own sends.

    Transient faults are injected by rewriting channel contents
    ([corrupt_channel]) and by mutating the node states {!state} returns
    in place; crashes by [crash]; joins by [add_node]. *)

(** Width, in bits, of a pid as packed into directed-link keys — re-exported
    {!Pid.key_bits}. Every pid handed to the engine must be in
    [\[0, 2^key_bits)]. *)
val key_bits : int

type ('s, 'm) t

val create :
  ?seed:int ->
  ?capacity:int ->
  ?loss:float ->
  behavior:('s, 'm) Step.behavior ->
  pids:Pid.t list ->
  unit ->
  ('s, 'm) t
(** Defaults: [seed 42], [capacity 8] (the paper's [cap]), per-delivery
    [loss 0.02]. The rest of the model is fixed. Each send puts its packet
    on the channel ({!Channel.send}) and schedules one delivery attempt
    uniformly [\[0.5, 2.0\]] time units later. The attempt is not tied to
    that packet: with probability [loss] it drops a uniformly random
    queued packet, otherwise it delivers a uniformly random one (none if
    the channel is empty). With probability 0.02 a send also re-enqueues
    a copy of the channel's oldest packet, if capacity allows
    ({!Channel.duplicate_head}), and schedules no attempt for it. The
    timer period is uniform in [\[0.8, 1.2\]]. *)

(** {2 Observation} *)

val time : ('s, 'm) t -> float
val trace : ('s, 'm) t -> Trace.t
val telemetry : ('s, 'm) t -> Telemetry.t
val pids : ('s, 'm) t -> Pid.t list
val live_pids : ('s, 'm) t -> Pid.t list
val state : ('s, 'm) t -> Pid.t -> 's

(** [rounds t] counts asynchronous rounds: the minimum number of timer steps
    taken by any currently-live node. O(1) — the engine maintains the
    minimum incrementally instead of folding over the node table. *)
val rounds : ('s, 'm) t -> int

(** [steps t] is the total number of atomic steps executed so far. *)
val steps : ('s, 'm) t -> int

(** {2 Fault injection and dynamics} *)

val corrupt_channel : ('s, 'm) t -> src:Pid.t -> dst:Pid.t -> 'm list -> unit

(** [crash t p] stops [p] permanently (fail-stop; the paper models rejoins
    as transient faults, never as explicit rejoining). *)
val crash : ('s, 'm) t -> Pid.t -> unit

(** {2 Partitions}

    A cut link silently drops every packet sent over it — a temporary
    violation of the fully-connected assumption, which the scheme must
    survive once healed. *)

(** [partition t group] cuts every link between [group] and the rest of
    the system, in both directions. *)
val partition : ('s, 'm) t -> Pid.Set.t -> unit

(** [heal t] removes every cut. *)
val heal : ('s, 'm) t -> unit

(** {2 Per-link fault profiles}

    An installed profile overrides the engine's global loss/duplication
    model on one directed link, and can additionally mangle delivered
    packets ("bit flips"). Links without a profile follow the global model
    and spend exactly the same RNG draws as before this feature existed, so
    profile-free runs stay byte-identical across versions. *)

type link_profile = {
  lp_drop : float;  (** per-delivery loss probability (replaces [loss]) *)
  lp_dup : float;  (** per-send duplication probability (replaces [dup]) *)
  lp_flip : float;
      (** probability a delivered packet is rewritten by the mangler; with
          no mangler installed a flipped packet is dropped (an unparseable
          packet is indistinguishable from a lost one) *)
}

(** [set_link_profile t ~src ~dst p] installs ([Some]) or removes ([None])
    the profile on the directed link. *)
val set_link_profile : ('s, 'm) t -> src:Pid.t -> dst:Pid.t -> link_profile option -> unit

(** [clear_link_profiles t] removes every installed profile. *)
val clear_link_profiles : ('s, 'm) t -> unit

(** [set_mangler t f] installs the message rewriter used by [lp_flip];
    [f] receives the engine RNG and the in-flight message. *)
val set_mangler : ('s, 'm) t -> (Rng.t -> 'm -> 'm) option -> unit

(** [add_node t p] adds a fresh node with state [behavior.init p]; its
    links are created clean (snap-stabilized). Raises [Invalid_argument] if
    [p] already exists. *)
val add_node : ('s, 'm) t -> Pid.t -> unit

(** {2 Running} *)

(** [step t] executes one atomic step. Returns [false] when no event is
    pending (only possible if all nodes crashed). *)
val step : ('s, 'm) t -> bool

(** [run t ~steps] executes up to [steps] atomic steps. *)
val run : ('s, 'm) t -> steps:int -> unit

(** [run_rounds t n] runs until [rounds t] has advanced by [n]. *)
val run_rounds : ('s, 'm) t -> int -> unit

(** [run_until t ~max_steps pred] steps until [pred t] holds, checking after
    every step. Returns [true] iff the predicate held before the budget was
    exhausted. *)
val run_until : ('s, 'm) t -> max_steps:int -> (('s, 'm) t -> bool) -> bool
