(** Deterministic pseudo-random number generator (splitmix64).

    All randomness in the simulator flows from a single seeded generator so
    every execution is reproducible from its seed. The state is kept
    unboxed and the draw functions inline, so [bits64], [int], [float],
    [bool] and [chance] allocate nothing at a native-code call site. *)

type t

val create : int -> t

(** [copy t] is an independent generator with the same state. *)
val copy : t -> t

(** [split t] derives a new, statistically independent generator, advancing
    [t]. *)
val split : t -> t

(** [bits64 t] is the next raw 64-bit output. *)
val bits64 : t -> int64

(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)
val int : t -> int -> int

(** [float t] is uniform in [\[0, 1)]. *)
val float : t -> float

(** [bool t] is a fair coin. *)
val bool : t -> bool

(** [chance t p] is true with probability [p]. *)
val chance : t -> float -> bool

(** [pick t l] is a uniformly chosen element of [l]. Requires [l <> []]. *)
val pick : t -> 'a list -> 'a

(** [shuffle t l] is a uniform permutation of [l]. *)
val shuffle : t -> 'a list -> 'a list

(** [subset t l] keeps each element of [l] independently with probability
    1/2. *)
val subset : t -> 'a list -> 'a list
