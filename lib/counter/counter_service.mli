(** Self-stabilizing counter increment — Algorithms 4.3 (maintenance),
    4.4 (member increment) and 4.5 (non-member increment), as a
    {!Reconfig.Stack} plugin.

    Configuration members gossip their maximal counter pairs and keep the
    bounded counter storage of {!Counter_algo}. Any participant increments
    the counter with a two-phase majority read / majority write against the
    configuration members; requests during a reconfiguration are answered
    with Abort and the operation returns ⊥ (here: is aborted and retried
    by the driver while the request flag stays up). *)

type state

type msg =
  | Gossip of { sent_max : Counter.pair option; last_sent : Counter.pair option }
  | Read_request of { rid : int }
  | Read_response of { rid : int; counter : Counter.pair option }
  | Write_request of { rid : int; counter : Counter.t }
  | Write_ack of { rid : int }
  | Abort of { rid : int }

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

(** [request_read st] — raise the read flag: a majority read of the
    current maximal counter without incrementing it (the first phase of
    the paper's two-phase operations, usable on its own for shared-memory
    style reads). *)
val request_read : state -> unit

(** Counters returned by completed increments at this node, oldest first. *)
val results : state -> Counter.t list

(** Results of completed read-only operations, oldest first; [None] means
    the read returned ⊥ (no comparable maximum existed yet). *)
val read_results : state -> Counter.t option list

(** Number of aborted attempts at this node. *)
val aborts : state -> int

(** The node's current belief of the maximal counter (members only). *)
val local_max : state -> Counter.t option

(** Labels created at this node by the counter machinery. *)
val label_creations : state -> int
