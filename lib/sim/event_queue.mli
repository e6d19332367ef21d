(** The simulator's event queue: a min-heap of [(at, kind)] events kept as
    parallel arrays (a [float array] of times and [int] arrays of
    insertion numbers and kinds), grown by doubling.

    Events pop in increasing [at]; events with equal [at] pop in insertion
    order. Pushing and popping allocate nothing except when the arrays
    grow: [push] and [min_at] are inlined, so a time computed at the call
    site reaches the queue, and comes back out of it, without a float
    box. *)

type t

(** [create ()] is an empty queue. *)
val create : unit -> t

val is_empty : t -> bool
val size : t -> int

(** [push q ~at kind] inserts an event of kind [kind] at time [at]. *)
val push : t -> at:float -> int -> unit

(** [min_at q] is the time of the next event to pop.
    @raise Not_found if the queue is empty. *)
val min_at : t -> float

(** [pop q] removes the next event and returns its kind.
    @raise Not_found if the queue is empty. *)
val pop : t -> int
