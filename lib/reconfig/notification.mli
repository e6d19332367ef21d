(** Configuration-replacement notifications — the [prp] pairs of
    Algorithm 3.1.

    A notification is a pair ⟨phase, set⟩ with phase ∈ {0, 1, 2}. The
    default ⟨0, ⊥⟩ encodes "no proposal". The lexicographic order
    prp1 ≤lex prp2 ⟺ phase1 < phase2, or phases equal and set1 ≤lex set2,
    lets every participant select the same maximal proposal
    deterministically. *)

open Sim

type phase = P0 | P1 | P2

type t = {
  phase : phase;
  set : Pid.Set.t option;  (** [None] is the paper's ⊥ *)
}

(** ⟨0, ⊥⟩ — the paper's [dfltNtf]. *)
val default : t

val make : phase -> Pid.Set.t -> t

(** [equal]/[compare] take a physical-equality fast path first; interned
    notifications ({!intern}) usually decide in one pointer compare. *)

val equal : t -> t -> bool

val compare : t -> t -> int

(** [intern n] is the canonical physically-shared representative of [n]
    (see {!Intern}); {!default} is its own representative. *)
val intern : t -> t

(** [is_default n] — [n] encodes "no proposal". *)
val is_default : t -> bool

(** Type-1 stale information: phase 0 with a non-⊥ set, or an active phase
    with no set / an empty set. *)
val malformed : t -> bool

(** [degree n ~all] = 2·phase + (1 if [all]) — the paper's [degree(k)]. *)
val degree : t -> all:bool -> int

(** [max_of l] is the lexicographically maximal non-default notification in
    [l], or [None] if all are default — the paper's [maxNtf()]. *)
val max_of : t list -> t option

val pp : Format.formatter -> t -> unit
