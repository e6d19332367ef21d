(** Declarative fault plans — the systematic adversary.

    The paper's convergence theorems quantify over executions that start in
    an {e arbitrary} state (Definition 3.1) and then suffer benign failures:
    transient state corruption, fair-lossy links, crashes, joins, and
    temporary partitions. A {!t} is a seeded, serializable schedule of
    exactly those fault classes, expressed against the simulator's
    asynchronous {e rounds}. Interpretation is the job of {!Injector}, on
    the simulator only; this module is pure data — building, validating
    and (de)serializing plans.

    Determinism: a plan carries its own [seed]. Every random choice made
    while {e interpreting} the plan (picking [Sample] victims, drawing
    garbage state) flows from that seed alone, never from the runtime's
    schedule RNG — so replaying one serialized plan on the simulator twice
    produces byte-identical telemetry and traces. *)

open Sim

(** Per-directed-link fault rates, overriding the engine's global channel
    model while installed. [flip] is the probability that a delivered
    packet is mangled ("bit-flipped" — the runtime rewrites it into a stale
    protocol packet, since a typed message has no bit representation to
    flip). The runtimes' own profile type, re-exported, so a plan's profile
    is installed as is. *)
type link_profile = Engine.link_profile = {
  lp_drop : float;  (** per-delivery loss probability *)
  lp_dup : float;  (** per-send duplication probability *)
  lp_flip : float;  (** per-delivery mangling probability *)
}

val lossy : float -> link_profile
(** [lossy p] — a profile that only drops, with probability [p]. *)

val dead : link_profile
(** Drops everything: [lp_drop = 1.0]. *)

(** Victim selection, resolved against the live set when the event fires:
    [All] live nodes, an explicit pid list, or [Sample k] live nodes drawn
    from the plan's RNG. *)
type target = All | Pids of Pid.t list | Sample of int

type event =
  | Corrupt_nodes of target
      (** transient fault: rewrite each victim's protocol {e and}
          application state with seeded garbage (the per-module
          [corrupt] hooks) *)
  | Corrupt_channels of target
      (** fill every directed channel among the victims with stale
          protocol packets *)
  | Degrade_links of { src : target; dst : target; profile : link_profile }
      (** install [profile] on every directed link src→dst *)
  | Restore_links of { src : target; dst : target }
      (** remove any installed profile on those links *)
  | Partition of { group : target; heal_after : int }
      (** cut [group] off from the rest, both directions; automatically
          healed [heal_after] rounds later *)
  | Heal  (** remove every block and every link profile *)
  | Crash of target  (** fail-stop each victim *)
  | Join of Pid.t list  (** membership churn: introduce fresh joiners *)

type entry = { at : int; event : event }
(** [at] is the round (relative to the run's start) the event fires in. *)

type t = { seed : int; entries : entry list }
(** Entries are kept sorted by [at] (stable for equal rounds). *)

(** {2 Building} *)

val empty : t

val make : ?seed:int -> entry list -> t
(** [make entries] sorts [entries] by round (stable). [seed] defaults
    to 7. *)

val at : int -> event -> entry

val add : t -> at:int -> event -> t
(** Functional insert, keeping the round order. *)

val storm : seed:int -> start:int -> rounds:int -> rate:float -> entry list
(** [storm ~seed ~start ~rounds ~rate] — a corruption storm: for each of
    the [rounds] rounds beginning at [start], with probability [rate] one
    live node (freshly sampled) suffers a transient fault. The Bernoulli
    draws are made here, from [seed], so the resulting entry list is plain
    data. *)

(** {2 Observation} *)

val kind : event -> string
(** Stable lower-snake identifier ("corrupt_nodes", "partition", ...);
    used as the [kind] label on [fault.injected] counters and as the JSON
    discriminator. *)

val kinds : string list
(** Every identifier {!kind} can return, in a fixed order. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {2 Serialization}

    A plan is one JSON object:
    [{"seed":7,"events":[{"at":3,"kind":"crash","target":[2]},...]}].
    Targets render as ["all"], an array of pids, or [{"sample":k}].
    [of_json] accepts anything [to_json] produces and validates ranges
    (integers within OCaml's [int] range, probabilities in [0,1],
    non-negative rounds, pids within the engine's pid range). *)

val to_json : t -> string

val of_json : string -> (t, string) result
(** [Error msg] carries a human-readable parse/validation error. *)

val of_file : string -> (t, string) result
