(** Self-stabilizing counter increment — Algorithms 4.3 (maintenance),
    4.4 (member increment) and 4.5 (non-member increment), as a
    {!Reconfig.Stack} plugin.

    Configuration members gossip their maximal counter pairs and keep the
    bounded counter storage of {!Counter_algo}. Any participant increments
    the counter with a two-phase majority read / majority write against the
    configuration members; requests during a reconfiguration are refused
    (the paper's Abort) and the operation returns ⊥ (here: is aborted and
    retried while the request flag stays up). Each phase is one
    {!Quorum.Phase} round. A requested increment, or one retried after an
    abort, starts its majRead in the node's first step after the request:
    the receipt of a service message or the tick, whichever comes first;
    ticks retransmit the running phase to the members that have not
    answered.

    A caller that stores the counter itself asks with {!request_next}: the
    operation ends after its majRead, and the caller's own majority round
    carries the counter and has each member {!store} it. The register
    service does this, so in the register the
    [counter.op_seconds{op=increment}] span covers the majRead only. *)

type state
type msg

(** [plugin ~in_transit_bound ~exhaust_bound] — the Stack plugin. Its
    [p_corrupt] writes garbage counter-pair storage and scrambles the
    in-flight operation. *)
val plugin :
  in_transit_bound:int -> exhaust_bound:int -> (state, msg) Reconfig.Stack.plugin

val hooks :
  in_transit_bound:int -> exhaust_bound:int -> (state, msg) Reconfig.Stack.hooks

(** {2 Client API (drive via node state)} *)

(** [request_increment st] — raise the increment flag; the plugin performs
    the two-phase operation when no reconfiguration is taking place, and
    retries after aborts until it succeeds. *)
val request_increment : state -> unit

(** [request_next st] — raise the increment flag for an increment that
    ends after its majRead: {!increment_result} becomes the next counter
    ⟨lbl, seqn + 1, self⟩, already in this node's storage when it is a
    member. The caller must store it at a majority of members before it
    relies on it, through a round whose receivers call {!store}: until
    then no later increment is sure to see it. *)
val request_next : state -> unit

(** Is an increment waiting to start (requested, or aborted, and no phase
    running)? A few field reads: a plugin that embeds this service reports
    it in its own [p_pending]. *)
val pending : state -> bool

(** The counter returned by the increment requested last: [None] from
    {!request_increment} or {!request_next} until that increment
    completes. *)
val increment_result : state -> Counter.t option

(** [store view st ~from c] — the receipt of a majWrite of [c] from
    [from]: a configuration member merges [c] into its counter storage and
    returns [true]; a non-member, or any node while a reconfiguration is
    taking place, stores nothing and returns [false] (the counter's own
    majWrite then refuses). [st] is a state of this module's plugin, so the
    storage it creates uses that plugin's bounds. *)
val store : _ Reconfig.Stack.scheme_view -> state -> from:Sim.Pid.t -> Counter.t -> bool

(** Number of aborted attempts at this node. *)
val aborts : state -> int

(** {2 Observation} *)

(** The node's label storage; [None] until the node first serves as a
    configuration member. *)
val algo : state -> Counter_algo.t option

(** [agreed_label sys] — [Some l] iff every live configuration member's
    maximal counter pair is legit and carries label [l]. *)
val agreed_label : (state, msg) Reconfig.Stack.t -> Labels.Label.t option

(** Labels created by the live nodes so far — Theorem 4.4's quantity. *)
val label_creations : (state, msg) Reconfig.Stack.t -> int
