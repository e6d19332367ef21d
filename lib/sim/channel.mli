(** Bounded-capacity unreliable communication channel.

    Models the paper's links: each directed channel holds at most [capacity]
    packets. A send onto a full channel either omits the new packet or
    overwrites an already-queued one. Delivery may reorder, lose or duplicate
    packets, but fair communication holds: a packet re-sent infinitely often
    is delivered infinitely often (the simulator schedules deliveries with a
    loss probability strictly below one). After a transient fault a channel
    may contain arbitrary stale packets; [corrupt] injects them.

    Implemented as a fixed-capacity ring buffer: send, overflow-victim
    replacement and head operations are O(1) and allocation-free, and both
    the RNG draw order and the queue semantics (head-first order, removal
    preserves the relative order of the rest) are exactly those of the
    original list representation, so seeded runs are unchanged. *)

type 'a t

type stats = {
  mutable sent : int;  (** packets offered to the channel *)
  mutable dropped : int;  (** packets lost to capacity or loss *)
  mutable delivered : int;  (** packets handed to the receiver *)
  mutable duplicated : int;  (** extra deliveries of the same packet *)
}

val create : capacity:int -> 'a t
val capacity : 'a t -> int
val length : 'a t -> int
val is_empty : 'a t -> bool
val stats : 'a t -> stats

(** [send t rng pkt] inserts [pkt]. On a full channel, with equal probability
    the new packet is dropped or it replaces a random queued packet. *)
val send : 'a t -> Rng.t -> 'a -> unit

(** [take_nonempty t rng] removes one uniformly random queued packet for
    delivery (the channel is not FIFO), with one draw and no allocation.
    @raise Invalid_argument if [t] is empty. *)
val take_nonempty : 'a t -> Rng.t -> 'a

(** [duplicate_head t] re-enqueues a copy of the head packet if capacity
    allows, counting it as a duplication. *)
val duplicate_head : 'a t -> unit

(** [drop_one t rng] removes a random packet (loss), if any. *)
val drop_one : 'a t -> Rng.t -> unit

(** [clear t] empties the channel (snap-stabilizing link cleaning). *)
val clear : 'a t -> unit

(** [corrupt t pkts] replaces the contents with arbitrary packets
    (truncated to capacity) — transient-fault injection. *)
val corrupt : 'a t -> 'a list -> unit

(** [contents t] is the queued packets, head first. *)
val contents : 'a t -> 'a list
