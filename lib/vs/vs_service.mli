(** Self-stabilizing reconfigurable virtually synchronous state machine
    replication — Algorithms 4.6 and 4.7 (Section 4.3).

    A coordinator-based primary-component algorithm over the
    reconfiguration scheme:

    - Each participant broadcasts its full state record (view, status,
      round, replica, last-round message array, fetched input, proposed
      view, noCrd and suspend flags).
    - A participant with a supportive majority obtains a counter from the
      counter-increment service (Section 4.2) and proposes a view whose
      identifier is that counter; the valid coordinator is the proposal
      with the greatest counter. Proposals go through Propose → Install →
      Multicast, synchronizing the replica state from the most advanced
      survivor at install time.
    - In Multicast status the coordinator runs lock-step rounds: it waits
      until every view member echoes its (view, status, round), then
      collects their fetched inputs into the message array, applies it to
      the replica and starts the next round. Followers adopt the
      coordinator's replica and journal its message array (delivery).
    - Coordinator-led delicate reconfiguration (Algorithm 4.6): when the
      [eval_config] predicate says so, the coordinator raises [suspend],
      waits for the whole view to suspend (the replicas are then
      synchronized), and calls recSA's [estab] directly. Multicast rounds
      resume in the first view of the new configuration with the replica
      state preserved (Theorem 4.13).
    - Two recovery rules beyond the pseudocode, for states only corruption
      creates: a Propose/Install status for the view already entered
      returns to Multicast, and a coordinator in Multicast catches up with
      the highest round a member of its view reports for that view.

    ['st] is the replica state, ['cmd] the commands clients submit. *)

open Sim
open Counters

(** A deterministic state machine. *)
type ('st, 'cmd) machine = {
  initial : 'st;
  apply : 'st -> 'cmd -> 'st;
}

type status = Multicast | Propose | Install

(** A view: counter identifier plus member set. [vid = None] is the bottom
    view of a fresh (or reset) participant. *)
type view = {
  vid : Counter.t option;
  vset : Pid.Set.t;
}

val view_equal : view -> view -> bool
val pp_view : Format.formatter -> view -> unit

type ('st, 'cmd) state

type ('st, 'cmd) msg

(** [plugin ~machine ~eval_config ()] — the Stack plugin.
    [eval_config ~self ~trusted members] is Algorithm 4.6's prediction
    function, consulted only at the current coordinator. *)
val plugin :
  machine:('st, 'cmd) machine ->
  ?eval_config:(self:Pid.t -> trusted:Pid.Set.t -> Pid.Set.t -> bool) ->
  unit ->
  (('st, 'cmd) state, ('st, 'cmd) msg) Reconfig.Stack.plugin

val hooks :
  machine:('st, 'cmd) machine ->
  ?eval_config:(self:Pid.t -> trusted:Pid.Set.t -> Pid.Set.t -> bool) ->
  unit ->
  (('st, 'cmd) state, ('st, 'cmd) msg) Reconfig.Stack.hooks

(** {2 Client API} *)

(** [submit st cmd] — enqueue a command for multicast (the [fetch]
    source). *)
val submit : ('st, 'cmd) state -> 'cmd -> unit

(** The node's current replica state. *)
val replica : ('st, 'cmd) state -> 'st

(** Commands delivered at this node, in delivery order: the
    {!delivered_batches} concatenated. *)
val delivered : ('st, 'cmd) state -> 'cmd list

(** The per-batch delivery journal: each multicast round's message array
    (sender, command) tagged with the view it was delivered in — the raw
    material for the virtual-synchrony audit ({!Vs_checker}). *)
val delivered_batches : ('st, 'cmd) state -> (view * (Sim.Pid.t * 'cmd) list) list

(** {2 Observation} *)

val current_view : ('st, 'cmd) state -> view
val status_of : ('st, 'cmd) state -> status

(** [is_coordinator st] — this node believes itself the valid
    coordinator. *)
val is_coordinator : ('st, 'cmd) state -> bool

(** Views installed at this node (counts view changes). *)
val installs : ('st, 'cmd) state -> int
