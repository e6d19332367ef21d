(** Quorum-based MWMR register emulation — the paper's "typical two-phase
    read and write protocol" over the reconfiguration service (Sections 1
    and 4.3), with counters from the increment scheme as bounded tags
    ("tag numbers for distributed shared memory emulation", Section 4.1).

    This is the ABD-style alternative to {!Vs.Shared_memory} (which routes
    operations through the replicated state machine): here configuration
    members store per-register ⟨tag, value⟩ copies, and clients run
    operations made of majority round trips, each one {!Quorum.Phase}
    round:

    - {b write} (two round trips): obtain the next tag from the
      counter-increment scheme's majRead (totally ordered, bounded;
      {!Counters.Counter_service.request_next}), then update a majority.
      The update also carries the counter's majWrite: each member that
      receives it stores the tag in its counter storage
      ({!Counters.Counter_service.store}) as well as the entry. A node in
      a reconfiguration refuses it, and so does a node of the writer's
      configuration (the update names it) that no longer serves the
      counter. So when the write returns, its tag is stored as a counter at
      a majority of members, as a separate majWrite would have left it.
    - {b read} (one round trip when a majority is known to hold the newest
      entry, two otherwise): query a majority for the maximal ⟨tag, value⟩.
      If every reply carries that entry (same tag, same value), a majority
      already stores it and every later query's majority meets this one,
      so the read returns at once. Otherwise it writes the entry back (so
      later reads cannot see older values) and returns once a majority of
      the query's configuration is known to hold it. The write-back round
      starts with the query repliers that carry the entry counted as
      acknowledgments, and a late reply to the finished query carrying
      exactly that entry counts too. The write-back still goes, in the
      step that starts it, to every target not known to hold the entry,
      even when the counted holders already complete the round, so a
      stale member is repaired; ticks retransmit it while the round runs.

    An operation starts in its node's first step after it was queued (or
    re-queued by an abort): the receipt of a service message or the tick,
    whichever comes first. A write's first round, the counter's majRead
    for its tag, leaves in that same step. Each later round starts, and
    sends its requests, in the step that completes the one before it: the
    update in the step that delivers the tag (the counter's majRead
    completing), the write-back in the step that completes the query.
    Later ticks only retransmit to the targets that have not answered.
    The trace records ["register.query"] when a query completes,
    ["register.update"] when an update or write-back starts, and
    ["register.write"] / ["register.read"] when an operation returns;
    each carries the register's name.

    Operations issued during a reconfiguration are refused and retried.
    Values survive delicate reconfigurations because every {e participant}
    keeps a register copy refreshed by update messages (so a participant
    promoted into the new configuration already carries the state), and
    joiners adopt the freshest copies through the joining mechanism's state
    transfer ([initVars]). Only configuration members' acknowledgments
    count toward an update's majority. *)

open Counters

type reg = string
type value = int

type tagged = {
  tag : Counter.t;
  tv : value;
}

type state

(** A round's request: a query asks a member for its copy of a register;
    an update stores an entry; a write's update also carries the
    counter's majWrite and names the writer's configuration. *)
type req =
  | Query of reg
  | Update of reg * tagged
  | Write of reg * tagged * Sim.Pid.Set.t

(** The wire messages: the embedded counter's, and the register's rounds.
    A query's reply carries the member's copy, an update's is [None]. *)
type msg =
  | Cnt of Counter_service.msg
  | Op of (req, tagged option) Quorum.Phase.msg

(** [plugin ()] — the Stack plugin: the register layer over an embedded
    counter service ([in_transit_bound = 8], [exhaust_bound = 2{^30}]).
    Its [p_corrupt] corrupts the counter, then forgets stored entries,
    aborts the in-flight operation and plants a garbage record of a
    finished query (naming the id the next query takes), which can only
    ever count a reply carrying exactly its entry. *)
val plugin : unit -> (state, msg) Reconfig.Stack.plugin

val hooks : unit -> (state, msg) Reconfig.Stack.hooks

(** [write st ~rid reg v] — queue a write; [rid] fresh per node. The
    queue runs one operation at a time, in submission order; an aborted
    operation goes back to its front. *)
val write : state -> rid:int -> reg -> value -> unit

(** [read st ~rid reg] — queue a read. *)
val read : state -> rid:int -> reg -> unit

(** [find_read st ~rid] — result of the latest read [rid] once completed:
    [Some None] = register unwritten, [None] = still in flight. O(1). *)
val find_read : state -> rid:int -> value option option

(** [write_done st ~rid] — has write [rid] completed? O(1). *)
val write_done : state -> rid:int -> bool

(** [stored st reg] — this member's local copy (tests/monitoring). *)
val stored : state -> reg -> tagged option

(** Aborted attempts: operations that were running when a refusal or a
    corruption sent them back to the queue. Corrupting an idle node counts
    none. *)
val aborts : state -> int
