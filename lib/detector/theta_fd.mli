(** The (N,Θ)-failure detector (Section 2).

    Every processor keeps an ordered heartbeat-count vector [nonCrashed]:
    when the token returns from processor [p], [p]'s count is zeroed and
    every other count is incremented. Live processors keep getting zeroed;
    a crashed processor's count grows without bound, opening an
    ever-expanding gap that ranks it below the live ones. The detector
    trusts the processors before the gap (at most [n_bound] of them — the
    paper's [N]) and estimates the number of active processors as the size
    of that prefix.

    The detector is unreliable: it may wrongly suspect slow processors.
    Convergence of the reconfiguration scheme only requires temporal
    reliability, which the simulator provides in fault-free stretches. *)

open Sim

type t

(** [create ~n_bound ~theta ~self] — [n_bound] is the system bound [N];
    [theta] is the gap factor: a count [c] is beyond the gap when
    [c > theta * (prev + k)] with [prev] the preceding (smaller) count in
    the sorted vector and [k] the number of known processors. [self] is
    always trusted. *)
val create : n_bound:int -> theta:int -> self:Pid.t -> t

val self : t -> Pid.t

(** [heartbeat t p] — the token returned from [p]: zero [p]'s count,
    increment all other known counts. *)
val heartbeat : t -> Pid.t -> unit

(** [forget t p] removes [p] from the vector entirely (used when a crash
    becomes permanent knowledge in tests; the algorithm itself never needs
    it). *)
val forget : t -> Pid.t -> unit

(** [trusted t] is the current trusted set (the paper's [FD\[i\]]): the
    processors before the gap, capped at [n_bound], always containing
    [self]. While its membership is unchanged, successive calls return the
    physically same set, so callers may cache values derived from it under
    [==]. *)
val trusted : t -> Pid.Set.t

(** [estimate t] is the live-count estimate [n_i ≤ N]. *)
val estimate : t -> int

(** [count t p] is [p]'s current heartbeat count ([None] if unknown). *)
val count : t -> Pid.t -> int option

(** [known t] is every processor ever heard from (trusted or suspected). *)
val known : t -> Pid.Set.t

(** Arbitrary-state injection for stabilization tests. *)
val corrupt : t -> (Pid.t * int) list -> unit

val pp : Format.formatter -> t -> unit
