(** Hashconsing for gossiped descriptors.

    recSA carries [Pid.Set.t] configuration descriptors (and values built
    from them) in every gossip message, and the Definition 3.1 conflict
    checks compare them on every one of the O(N²) messages per round. By
    interning each descriptor into a per-domain bounded table, repeated
    values share one physical representation and the comparisons reduce to
    pointer equality in the common case.

    Interning is semantics-preserving: a value that misses the table is
    returned unchanged, so callers may rely only on structural equality.
    Tables are domain-local ([Domain.DLS]) because the experiment harness
    runs cells on multiple domains. They are bounded, not weak — OCaml 5
    handles weak arrays in stop-the-world GC phases, which is ruinous with
    worker domains — so a full table simply resets and re-fills. *)

open Sim

(** The entry count at which a table resets. *)
val cap : int

(** [Make (H)] is an interning table over [H.t]: [intern x] returns the
    canonical physically-shared representative of [x]. *)
module Make (H : Hashtbl.HashedType) : sig
  val intern : H.t -> H.t
end

(** Deterministic hash of a processor set (fold over its elements);
    suitable for [Make]-style tables keyed by sets. *)
val set_hash : Pid.Set.t -> int

(** [pid_set s] is the canonical representative of [s]. *)
val pid_set : Pid.Set.t -> Pid.Set.t
