(** The majority quorum rule over a configuration set.

    The paper runs the scheme on majorities, "the simplest form of a quorum
    system", and majorities are the only system here: every {!Phase} round,
    the virtual-synchrony service, recMA's collapse and prediction tests and
    join admission all use {!has_majority}, so any two of their quorums
    intersect. Another quorum system would have to replace this one in all of
    those layers at once. *)

open Sim

(** [has_majority ~config alive] — does [alive ∩ config] hold more than half
    of [config], i.e. at least ⌊|config|/2⌋ + 1 members (the paper's
    [(|curConf|/2) + 1])? Never for an empty [config]. *)
val has_majority : config:Pid.Set.t -> Pid.Set.t -> bool

(** One majority round trip: the counter's majRead and majWrite (Algorithms
    4.4/4.5) and the register's query, update and write-back (Section 4.3).
    The initiator asks every send target, re-asks the unanswered ones each
    tick (messages may be lost) and is done once a majority of the
    configuration {e members} answered; other targets' answers never count.
    A target that is not serving refuses, which aborts the round. Each
    round carries a fresh id, so answers to an earlier round are ignored. *)
module Phase : sig
  (** The round's wire messages, carried inside a protocol's own type. *)
  type ('req, 'rep) msg =
    | Request of { id : int; req : 'req }
    | Reply of { id : int; rep : 'rep }
    | Refuse of { id : int }

  type ('req, 'rep) t

  (** [start ~id ~conf ?targets req] — a round asking [conf ∪ targets]
      and completing on a majority of [conf]. *)
  val start : id:int -> conf:Pid.Set.t -> ?targets:Pid.Set.t -> 'req -> ('req, 'rep) t

  val id : ('req, 'rep) t -> int
  val request : ('req, 'rep) t -> 'req
  val conf : ('req, 'rep) t -> Pid.Set.t

  (** Every answer so far, from members and other targets alike. *)
  val replies : ('req, 'rep) t -> 'rep Pid.Map.t

  (** [record t ~from rep] — note an answer already known to be this
      round's (e.g. the initiator's own). *)
  val record : ('req, 'rep) t -> from:Pid.t -> 'rep -> unit

  (** [receive t ~from m] — a [Reply] with this round's id is recorded
      ([`Replied]), a [Refuse] with it aborts the round ([`Refused]), and
      anything else is [`Ignored]. *)
  val receive :
    ('req, 'rep) t -> from:Pid.t -> ('req, 'rep) msg -> [ `Replied | `Refused | `Ignored ]

  (** {!has_majority}[ ~config:conf] over the answering processors. *)
  val complete : ('req, 'rep) t -> bool

  (** [send_requests ~self t send] sends a request to every unanswered
      target but [self], in descending pid order: the initial send and
      each tick's retransmission. *)
  val send_requests :
    self:Pid.t -> ('req, 'rep) t -> (Pid.t -> ('req, 'rep) msg -> unit) -> unit
end
