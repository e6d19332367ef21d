(** Reconfiguration Stability Assurance — Algorithm 3.1.

    recSA guarantees that (1) all active processors eventually hold identical
    copies of a single configuration, (2) when participants propose to
    replace the configuration, exactly one proposal is selected and
    installed, and (3) joining processors can eventually become
    participants.

    Two techniques are combined:

    - {b Brute-force stabilization}: on detecting stale information
      (Definition 3.1, types 1–4) the processor starts a reset by assigning
      ⊥ to its configuration; once all trusted processors report identical
      failure-detector sets, the trusted set itself becomes the new
      configuration.
    - {b Delicate replacement}: proposals ⟨1, set⟩ travel as notifications;
      participants converge on the lexicographically maximal one (phase 1),
      install its set (phase 2), and return to monitoring (phase 0),
      advancing in unison via the echo / all / allSeen handshake (the
      automaton of Figure 2).

    The module is a pure protocol core: [tick] is one iteration of the
    [do forever] loop given the current failure-detector output,
    [message_to] builds one peer's end-of-loop message (line 29), and
    [receive] stores an incoming message (line 30). All effects live in
    the caller.

    The caller keeps the last message it sent each peer and hands it back
    to [message_to]. One rule covers every send: a tick sends every trusted
    peer its message; a receipt that runs an iteration
    ({!iterate_on_receipt}), changed a known peer's view ({!receive}) or
    is a joiner's first contact sends those that differ ({!equal_message})
    from the last ones sent. *)

open Sim

(** The echo triple (participant set, notification, all-flag) — what a peer
    reports having most recently received from us. *)
type echo_view = {
  e_part : Pid.Set.t;
  e_prp : Notification.t;
  e_all : bool;
}

(** The wire message of line 29:
    ⟨FD\[i\], config\[i\], prp\[i\], all\[i\], (FD\[j\].part, prp\[j\], all\[j\])⟩. *)
type message = {
  m_fd : Pid.Set.t;
  m_part : Pid.Set.t;
  m_config : Config_value.t;
  m_prp : Notification.t;
  m_all : bool;
  m_echo : echo_view option;  (** [None] until the sender has heard from us *)
}

type t

(** [create ~self ~participant ?initial_config ()] — a participant starts
    with [config = Set initial_config] (default: not yet known, ⊥ would be
    wrong; participants in a running system are created with the agreed
    set); a non-participant starts with config = ♯ (the booting interrupt of
    line 31). *)
val create : self:Pid.t -> participant:bool -> ?initial_config:Pid.Set.t -> unit -> t

val self : t -> Pid.t

(** {2 Protocol steps} *)

(** [tick t ~trusted] runs one iteration of the do-forever loop (lines
    25–28) with [trusted] the current (N,Θ)-failure-detector output.
    Returns trace events emitted during the step. *)
val tick : t -> trusted:Pid.Set.t -> (string * string) list

(** [message_to t ~trusted ?last p] is the line-29 message to [p], one of
    [trusted]: this processor's (FD, part, config, prp, all) and its echo
    of [p]'s stored view; [None] when this processor is not a participant
    or [p] is itself. While every field of [last] is physically current
    it returns [last] itself, so an unchanged state re-sends the same
    physical message and allocates none. *)
val message_to : t -> trusted:Pid.Set.t -> ?last:message -> Pid.t -> message option

(** [receive t ~from m] stores the message fields (line 30) and says what
    the store did: [`First] when no view of [from] was held (first
    contact, or after the view was cleaned or cleared), [`Changed] when it
    replaced a different view, [`Same] when the held view was equal (and
    left alone). *)
val receive : t -> from:Pid.t -> message -> [ `First | `Changed | `Same ]

(** [iterate_on_receipt t m] — after storing [m], run the next iteration
    (and its line-29 messages) at once rather than at the next tick: a
    delicate replacement is under way ([m]'s notification or ours is not
    the default) and no reset is in sight (both [m]'s configuration and
    ours are sets). The asynchronous model lets an iteration run at any
    step; brute-force stabilization stays with the timer. *)
val iterate_on_receipt : t -> message -> bool

(** [equal_message a b] — the two messages carry equal fields. Structural
    (with a pointer fast path), so the result does not depend on which
    values the interning tables happened to share. *)
val equal_message : message -> message -> bool

(** {2 Interface functions (Figure 1)} *)

(** [get_config t ~trusted] — the application-facing configuration view. *)
val get_config : t -> trusted:Pid.Set.t -> Config_value.t

(** [no_reco t ~trusted] is [true] iff no reconfiguration is taking place:
    the processor is recognized by its trusted peers, there are no
    configuration conflicts, participant sets have stabilized, no reset is
    in progress and no notification is active. *)
val no_reco : t -> trusted:Pid.Set.t -> bool

(** [estab t ~trusted set] requests replacement of the configuration by
    [set]. Accepted (returns [true]) only when [no_reco] holds and [set] is
    neither the current configuration nor empty. *)
val estab : t -> trusted:Pid.Set.t -> Pid.Set.t -> bool

(** [participate t ~trusted] — the joining mechanism requests participant
    status; accepted only when [no_reco] holds. Returns [true] if the
    processor is a participant afterwards. *)
val participate : t -> trusted:Pid.Set.t -> bool

(** {2 Introspection (tests and experiments)} *)

val config : t -> Config_value.t
val prp : t -> Notification.t
val is_participant : t -> bool

(** [participants t ~trusted] is FD\[i\].part. *)
val participants : t -> trusted:Pid.Set.t -> Pid.Set.t

(** [peer_fd t p] is the failure-detector set last received from [p]
    (recMA's [core()] needs it). *)
val peer_fd : t -> Pid.t -> Pid.Set.t option

(** Number of brute-force resets started / delicate installs completed. *)
val reset_count : t -> int

val install_count : t -> int

(** The stale-information classification of Definition 3.1. *)
type stale_type =
  | Type1  (** malformed notification (phase 0 with a set, or no set) *)
  | Type2  (** reset in progress, empty or conflicting configurations *)
  | Type3  (** notification phases out of synch / conflicting phase-2 sets *)
  | Type4  (** stable view but the configuration has no live participant *)

(** [stale_types t ~trusted] — which stale-information types are present in
    this processor's local state right now (no mutation). Empty in a steady
    config state. The resets of [tick] test the same type-2/3/4
    predicates. *)
val stale_types : t -> trusted:Pid.Set.t -> stale_type list

(** Arbitrary-state injection for self-stabilization experiments. *)
val corrupt :
  t ->
  ?config:Config_value.t ->
  ?prp:Notification.t ->
  ?all:bool ->
  ?allseen:Pid.Set.t ->
  unit ->
  unit

(** Forget everything received (used with corrupt for full-state faults). *)
val clear_peers : t -> unit

val pp : Format.formatter -> t -> unit
