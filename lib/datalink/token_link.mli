(** Self-stabilizing token-exchange data link (Section 2, following the
    bounded-capacity non-FIFO protocols of [10, 12]).

    The sender retransmits the current packet until more than the
    round-trip capacity of matching acknowledgments arrive, then moves to
    the next packet. Each completed exchange is one token return, used as
    a heartbeat by the (N,Θ)-failure detector.

    Packets carry a bounded sequence number drawn from a domain larger
    than everything the bounded channels can hold ([4·cap + 4]); the
    receiver deduplicates against a window of recently delivered sequence
    numbers (size [2·cap + 2]), so stale packets surviving in a non-FIFO
    channel — including packets present in an arbitrary initial state —
    are acknowledged but never redelivered. *)

type 'a msg =
  | Data of { seq : int; payload : 'a }
  | Ack of { seq : int }

module Sender : sig
  type 'a t

  (** [create ~capacity payload] — [capacity] is the bound [cap] on packets
      in transit in one direction. *)
  val create : capacity:int -> 'a -> 'a t

  (** The sequence-number modulus ([4·capacity + 4]). *)
  val modulus : 'a t -> int

  (** Payload to attach to the next token (the paper's protocols always
      send their freshest state, so later offers overwrite earlier ones). *)
  val offer : 'a t -> 'a -> unit

  (** [on_tick t] is the retransmission of the current packet. *)
  val on_tick : 'a t -> 'a msg

  (** [on_msg t m] processes an incoming acknowledgment. [`Token_returned]
      signals one completed exchange (a heartbeat). *)
  val on_msg : 'a t -> 'a msg -> [ `Token_returned | `Waiting ]

  (** Number of completed exchanges. *)
  val tokens : 'a t -> int

  (** Current sequence number (for tests). *)
  val seq : 'a t -> int

  (** Arbitrary-state injection for self-stabilization tests. *)
  val corrupt : 'a t -> seq:int -> acks:int -> unit
end

module Receiver : sig
  type 'a t

  (** [create ~capacity ()] — the window size derives from [capacity]. *)
  val create : capacity:int -> unit -> 'a t

  (** [on_msg t m] acknowledges data packets. Returns the payload the first
      time a fresh token arrives ([`Deliver]), [`Duplicate] on
      retransmissions and stale packets. Acknowledgments are sent only in
      response to arriving packets, never spontaneously. *)
  val on_msg : 'a t -> 'a msg -> [ `Deliver of 'a | `Duplicate | `Ignore ] * 'a msg option

  (** Number of fresh tokens delivered. *)
  val delivered : 'a t -> int

  (** Arbitrary-state injection: overwrite the dedup window. *)
  val corrupt : 'a t -> window:int list -> unit
end
