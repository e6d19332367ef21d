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
    [counter.op_seconds{op=increment}] span covers the majRead only.

    {2 Embedding}

    The service runs either as a plugin of its own ({!plugin}) or inside
    a host service that calls [inc()]: the register and virtual synchrony
    each keep a {!state} in their own and call {!tick}, {!recv}, {!start}
    and {!corrupt} themselves. A host embeds the counter's messages in its
    own message type, and each of these functions sends through the
    host's view, applying [~wrap] (the host's constructor) to every
    counter message; the plugin passes [Fun.id]. A host keeps this order,
    on which seeded runs depend:
    - a tick runs the host's own tick, then {!tick}, so an increment the
      host requests in its tick starts in that tick;
    - a receipt of a counter message runs {!recv}, then the host's own
      handling, so the host can act in that step on an increment that
      just completed;
    - every receipt ends with the host's own start pass, then {!start},
      so an increment the host requests there leaves in that step;
    - a transient fault runs {!corrupt}, then corrupts the host. *)

type state
type msg

(** [plugin ~in_transit_bound ~exhaust_bound] — the Stack plugin. Its
    [p_corrupt] is {!corrupt}. *)
val plugin :
  in_transit_bound:int -> exhaust_bound:int -> (state, msg) Reconfig.Stack.plugin

val hooks :
  in_transit_bound:int -> exhaust_bound:int -> (state, msg) Reconfig.Stack.hooks

(** {2 Running the service inside a host} *)

(** [create ~in_transit_bound ~exhaust_bound pid] — a fresh state for
    node [pid]; the bounds are those of the label storage
    ({!Counter_algo.create}). *)
val create : in_transit_bound:int -> exhaust_bound:int -> Sim.Pid.t -> state

(** [tick ~wrap view st] — one timer step: outside a reconfiguration, a
    member maintains and gossips its maximal counter, the running phase
    is retransmitted, and a pending increment starts. *)
val tick : wrap:(msg -> 'm) -> 'm Reconfig.Stack.scheme_view -> state -> unit

(** [recv ~wrap view ~from m st] — the receipt of a counter message. *)
val recv :
  wrap:(msg -> 'm) -> 'm Reconfig.Stack.scheme_view -> from:Sim.Pid.t -> msg -> state -> unit

(** [start ~wrap view st] — the receipt path's start: a pending increment
    starts its majRead, unless a reconfiguration is taking place. A few
    field reads when none is pending. *)
val start : wrap:(msg -> 'm) -> 'm Reconfig.Stack.scheme_view -> state -> unit

(** [corrupt rng st] — transient fault: garbage counter-pair storage and a
    scrambled in-flight operation. *)
val corrupt : Sim.Rng.t -> state -> unit

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
