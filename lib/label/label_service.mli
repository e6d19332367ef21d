(** Self-stabilizing labeling for reconfiguration — Algorithm 4.1.

    A {!Reconfig.Stack} plugin run by configuration members: while no
    reconfiguration is taking place, members exchange their maximal label
    pairs and feed them to Algorithm 4.2's receipt action; after every
    reconfiguration the label storage is rebuilt for the new member set and
    all queues are emptied. Labels created by non-members are voided and
    can never re-enter the system (Lemma 4.1). *)

open Reconfig

type state = {
  mutable algo : Label_algo.t option;  (** [None] until first membership *)
}

type msg = {
  lm_sent_max : Label.pair option;  (** sender's maximal pair, cleaned *)
  lm_last_sent : Label.pair option;  (** echo of receiver's maximal pair *)
}

(** [plugin ~in_transit_bound] — the Stack plugin implementing the
    service. Its [p_corrupt] plants conflicting same-creator labels in the
    max array and the stored queues. *)
val plugin : in_transit_bound:int -> (state, msg) Stack.plugin

(** [hooks ~in_transit_bound] — [Stack.unit_hooks]-like hooks carrying the
    plugin (never ask for reconfiguration, always pass joiners). *)
val hooks : in_transit_bound:int -> (state, msg) Stack.hooks

(** {2 Observation} *)

(** [local_max st] — the node's current maximal label, if any. *)
val local_max : state -> Label.t option

(** [creations st] — labels created by this node so far. *)
val creations : state -> int

(** [agreed_max sys] — [Some l] iff every live configuration member's
    maximal label is the same legit [l]. *)
val agreed_max : (state, msg) Stack.t -> Label.t option

(** Total label creations across live nodes (Theorem 4.4's quantity). *)
val total_creations : (state, msg) Stack.t -> int
