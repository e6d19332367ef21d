(** Self-stabilizing counter increment — Algorithms 4.3 (maintenance),
    4.4 (member increment) and 4.5 (non-member increment), as a
    {!Reconfig.Stack} plugin.

    Configuration members gossip their maximal counter pairs and keep the
    bounded counter storage of {!Counter_algo}. Any participant increments
    the counter with a two-phase majority read / majority write against the
    configuration members; requests during a reconfiguration are refused
    (the paper's Abort) and the operation returns ⊥ (here: is aborted and
    retried while the request flag stays up). Each phase is one
    {!Quorum.Phase} round. *)

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

(** The counter returned by the increment requested last: [None] from
    {!request_increment} until that increment completes. *)
val increment_result : state -> Counter.t option

(** [request_read st] — raise the read flag: a majority read of the
    current maximal counter without incrementing it (the first phase of
    the paper's two-phase operations, usable on its own for shared-memory
    style reads). *)
val request_read : state -> unit

(** The result of the read requested last: [None] from {!request_read}
    until that read completes, then [Some None] when it returned ⊥ (no
    comparable maximum existed yet). *)
val read_result : state -> Counter.t option option

(** Number of aborted attempts at this node. *)
val aborts : state -> int
