(** Processor identifiers.

    The paper draws identifiers from a totally ordered set [P]. We use
    integers; the total order is the usual one. *)

type t = int

(** Identifiers must fit in [key_bits] bits (currently 30): two of them can
    then be packed side by side into one OCaml [int] to form collision-free
    link keys and handshake nonces (see {!Engine} and
    [Reconfig.Stack.snap_nonce]). *)
val key_bits : int

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

(** [set_of_list l] builds a set from a list of identifiers. *)
val set_of_list : t list -> Set.t

(** [iter_desc f s] applies [f] to the elements of [s] in descending
    order, the order in which the protocol layers send. *)
val iter_desc : (t -> unit) -> Set.t -> unit

(** [pp_set fmt s] prints a processor set as [{1, 2, 3}]. *)
val pp_set : Format.formatter -> Set.t -> unit

(** Lexicographic comparison of processor sets viewed as ascending tuples,
    as required by the paper's [<=lex] on proposal sets (Section 3.1).
    Physically equal sets compare equal without walking them. *)
val compare_sets_lex : Set.t -> Set.t -> int

(** Set equality with a physical-equality fast path; interned sets
    ([Reconfig.Intern.pid_set]) usually decide in one pointer compare. *)
val equal_sets : Set.t -> Set.t -> bool

(** [inter_cardinal a b] = [Set.cardinal (Set.inter a b)], counted without
    building the intersection. *)
val inter_cardinal : Set.t -> Set.t -> int
