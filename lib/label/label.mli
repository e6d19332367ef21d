(** Bounded epoch labels — the label structure of Dolev et al. [11]
    (re-implemented from its published description; Section 4.1 of the
    paper).

    A label is ⟨lCreator, sting, antistings⟩. Comparison is first by
    creator identifier; between labels of the same creator,
    ℓ1 ≺ ℓ2 ⟺ ℓ1.sting ∈ ℓ2.antistings ∧ ℓ2.sting ∉ ℓ1.antistings —
    which makes same-creator labels possibly {e incomparable} (exactly the
    situation the cancellation machinery of Algorithm 4.2 resolves; the
    label storage that runs it is [Counters.Counter_algo]).

    Given any bounded set of labels, a processor can create a label greater
    than all of them: choose a sting outside every antisting set seen and
    antistings covering every sting seen. Sting values are drawn from a
    bounded domain; boundedness holds because the label storage itself is
    bounded (Algorithm 4.2's queues). *)

open Sim

module Int_set : Set.S with type elt = int

type t = {
  creator : Pid.t;
  sting : int;
  antistings : Int_set.t;
}

val make : creator:Pid.t -> sting:int -> antistings:int list -> t
val equal : t -> t -> bool

(** [precedes l1 l2] — the partial order ≺lb. *)
val precedes : t -> t -> bool

(** [comparable l1 l2] — related by ≺lb one way or the other, or equal. *)
val comparable : t -> t -> bool

(** A deterministic total tiebreak (creator, sting, antistings) used only to
    choose among ≺lb-maximal elements (via [Counters.Counter.compare_total]);
    NOT the semantic order. *)
val compare_total : t -> t -> int

(** [next_label ~creator ~known] creates a label by [creator] strictly
    greater (under ≺lb) than every label in [known] — sting outside all
    antistings seen, antistings covering all stings seen. *)
val next_label : creator:Pid.t -> known:t list -> t

val pp : Format.formatter -> t -> unit
