(** Ablation studies for the design choices DESIGN.md calls out.

    These are not paper claims; they quantify the sensitivity of the
    implementation to its own knobs:

    - A1: the (N,Θ)-failure detector's gap factor Θ — too small and live
      processors are falsely suspected (spurious resets), too large and
      crash detection slows recMA down.
    - A2: packet loss rate vs. delicate-replacement latency (the unison
      handshake needs several round trips, each sensitive to loss).
    - A3: channel capacity [cap] vs. recovery cost (more stale packets can
      survive a transient fault in bigger channels).
    - A4: brute-force reset vs. delicate replacement — the cost gap that
      justifies having both techniques.

    As in {!Experiments}, [?jobs] runs the sweep cells on a domain pool
    with deterministic (byte-identical) table output for any job count. *)

(** The (id, ablation) pairs, in order. *)
val registry : (string * (?jobs:int -> Experiments.params -> Table.t)) list

(** All ablations in {!registry} order. *)
val all : ?jobs:int -> Experiments.params -> Table.t list
