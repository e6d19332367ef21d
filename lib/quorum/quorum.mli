(** Quorum systems over a configuration set.

    The paper uses majorities — "the simplest form of a quorum system" — but
    notes the scheme generalizes to any quorum system generated by a function
    from a processor set (Section 1, Related work). [SYSTEM] captures that
    function; [Majority] and [Grid] are two instances. *)

open Sim

module type SYSTEM = sig
  (** [is_quorum ~config s] — does [s ∩ config] contain a quorum of
      [config]? *)
  val is_quorum : config:Pid.Set.t -> Pid.Set.t -> bool

  (** A human-readable name for reports. *)
  val name : string
end

(** Simple majority: a quorum is any set containing more than half of the
    configuration (⌊|config|/2⌋ + 1 members). *)
module Majority : SYSTEM

(** Grid quorums: members arranged (by ascending identifier) in a
    ⌈√v⌉-column grid; a quorum is a full row plus one element of every row
    (here: row + column cover), demonstrating the pluggability the paper
    claims. Degenerates gracefully for tiny configurations. *)
module Grid : SYSTEM

(** Crumbling walls (Peleg & Wool [21], cited in Related Work): members are
    laid out in rows of increasing width (row i has ~i+1 elements); a
    quorum is one full row plus one element from every row {e below} it.
    Any two such quorums intersect: if they pick the same full row they
    share it; otherwise the higher full row is crossed by the other
    quorum's per-row representatives. *)
module Wall : SYSTEM

(** [majority_threshold n] is ⌊n/2⌋ + 1, the paper's [(|curConf|/2) + 1]. *)
val majority_threshold : int -> int

(** [has_majority ~config alive] — specialization of {!Majority.is_quorum},
    used by {!Phase}, the virtual-synchrony service and the experiments. *)
val has_majority : config:Pid.Set.t -> Pid.Set.t -> bool

(** [intersects q1 q2] — non-empty intersection (sanity checks in tests). *)
val intersects : Pid.Set.t -> Pid.Set.t -> bool

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
