(** The label storage — Algorithm 4.2's [max\[\]] and [storedLabels\[\]],
    kept as Algorithm 4.3's [maxC\[\]] and [storedCnts\[\]] of counter
    pairs, and the one implementation of Algorithm 4.2 in the repository.

    Run by configuration members. Each member keeps, per member [j], the
    last counter pair received from [j] ([max\[j\]]) and a bounded queue of
    the pairs whose label [j] created: [v + m] entries for other members'
    labels and [v(v² + m) + v] for its own, with [v = |members|] and [m]
    the bound on pairs in transit. Counter pairs sharing a label are merged
    keeping the greatest ⟨seqn, wid⟩ (a canceled copy wins, so
    cancellations are never lost); dominated or incomparable same-creator
    labels and exhausted counters are canceled, and a fresh epoch label is
    created when no legit counter survives. PROTOCOLS.md lists where this
    departs from Algorithm 4.2. *)

open Sim

type t

val create :
  self:Pid.t ->
  members:Pid.Set.t ->
  in_transit_bound:int ->
  exhaust_bound:int ->
  t

val self : t -> Pid.t
val members : t -> Pid.Set.t

(** [has_members t members] — is [members] the member set? An equal set
    is kept in place of the stored one, so checking the same set again
    is a pointer comparison. *)
val has_members : t -> Pid.Set.t -> bool

val exhaust_bound : t -> int

(** The locally maximal counter pair ([maxC\[i\]]). *)
val local_max : t -> Counter.pair option

(** The last pair received from member [j]. *)
val max_of : t -> Pid.t -> Counter.pair option

(** [stored t j] is the queue [storedCnts\[j\]] of pairs whose label [j]
    created, most recent first. *)
val stored : t -> Pid.t -> Counter.pair list

(** Labels created by this node (counts toward Theorem 4.4's bound). *)
val label_creations : t -> int

(** [find_max_counter t] — Algorithm 4.4's [findMaxCounter]: flush every
    queue when one holds a pair filed under the wrong creator (Algorithm
    4.2's staleInfo, line 20), cancel exhausted counters, settle the
    structures, and return a legit, non-exhausted maximal counter (creating
    a new epoch if necessary). *)
val find_max_counter : t -> Counter.t

(** [merge t ~from pair] — incorporate a counter pair received from [from]
    (gossip or majWrite), keeping per-label maxima. At a recorded fixed
    point, a pair that repeats the stored [max\[from\]] or raises it within
    the label of the current maximum keeps the fixed point, so the next
    [find_max_counter] only settles [max\[self\]]. *)
val merge : t -> from:Pid.t -> Counter.pair -> unit

(** [receipt_action t ~sent_max ~last_sent ~from] — the gossip receipt
    action of Algorithm 4.3 (Algorithm 4.2's [labelReceiptAction] on counter
    pairs): record the sender's maximum, adopt an echoed cancellation of
    our own, then [find_max_counter] (lines 20 and 22–27).

    At a recorded fixed point, two receipts that echo no cancellation
    settle in constant time and leave the state {!receipt_action_full}
    would: a repeat of the stored [max\[from\]] that the store already
    holds changes nothing, and a legit pair that raises [max\[from\]]
    within the label of the current maximum moves that maximum without a
    full [find_max_counter] run. *)
val receipt_action :
  t ->
  sent_max:Counter.pair option ->
  last_sent:Counter.pair option ->
  from:Pid.t ->
  unit

(** The receipt action without the constant-time paths: the merge in full,
    then [find_max_counter], which skips its run only while both maps are
    those of a recorded fixed point. The reference {!receipt_action} is
    tested against. *)
val receipt_action_full :
  t ->
  sent_max:Counter.pair option ->
  last_sent:Counter.pair option ->
  from:Pid.t ->
  unit

(** [rebuild t ~members] — after a reconfiguration: new member set, empty
    queues, non-member counters voided. *)
val rebuild : t -> members:Pid.Set.t -> unit

(** [clean t p] — [None] when the pair's label creator is not a member,
    else [p] itself. *)
val clean : t -> Counter.pair option -> Counter.pair option

(** Arbitrary-state injection: overwrite entries of [max\[\]] and whole
    queues ([stored_entries] pairs a queue's index with its contents, which
    need not be labels of that creator). *)
val corrupt :
  t ->
  max_entries:(Pid.t * Counter.pair) list ->
  stored_entries:(Pid.t * Counter.pair list) list ->
  unit

val pp : Format.formatter -> t -> unit
