(** Practically-infinite counters over epoch labels (Section 4.2).

    A counter is a triple ⟨lbl, seqn, wid⟩: an epoch label, a bounded
    sequence number and the identifier of the processor that wrote the
    sequence number. Order: by label (the partial ≺lb lifted), then by
    seqn, then by wid — a total order among counters sharing a label, which
    is what lets concurrent incrementers be serialized.

    The sequence-number bound is a parameter ([exhaust_bound], the paper
    uses 2⁶⁴); an exhausted counter is canceled and the labeling machinery
    produces a fresh epoch. *)

open Sim
open Labels

type t = {
  lbl : Label.t;
  seqn : int;
  wid : Pid.t;
}

val make : lbl:Label.t -> seqn:int -> wid:Pid.t -> t
val equal : t -> t -> bool

(** [precedes c1 c2] — the strict partial order ≺ct; [false] for
    incomparable labels. *)
val precedes : t -> t -> bool

val comparable : t -> t -> bool

(** Deterministic total tiebreak (label, seqn, wid); used to pick among
    ≺ct-maximal elements and to order view identifiers. *)
val compare_total : t -> t -> int

(** [exhausted ~bound c] — [c.seqn >= bound]. *)
val exhausted : bound:int -> t -> bool

(** [max_of l] — a maximal element under ≺ct (deterministic tiebreak);
    [None] on empty input. *)
val max_of : t list -> t option

val pp : Format.formatter -> t -> unit

(** {2 Counter pairs ⟨mct, cct⟩} *)

type pair = {
  mct : t;
  cct : t option;  (** canceling counter; [None] = legit *)
}

val pair_of : t -> pair
val legit : pair -> bool
val cancel : pair -> pair
val pp_pair : Format.formatter -> pair -> unit
