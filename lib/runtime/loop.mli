(** A single-process real-time event loop runtime.

    The second runtime for {!Sim.Step} behaviors, beside the simulator
    ({!Sim.Engine}): nodes live in one process, exchange messages through
    in-process mailboxes, and read a monotonic wall clock. Each step runs
    on one reused {!Sim.Step.ctx}, whose send appends to the destination's
    mailbox at once. There is no simulated schedule, no message loss,
    duplication or reordering — the loop's job is to prove that the
    protocol core is runtime-agnostic and to anchor the path toward a
    socket-backed runtime.

    Execution is round-based: {!run_round} gives every live node one timer
    step (in pid order), then delivers every message that was in a mailbox
    when the delivery phase began. Messages sent while delivering are
    processed in a later phase, so a message ping-pong cannot livelock a
    round. *)

open Sim

type ('s, 'm) t

val create :
  ?seed:int ->
  ?clock:(unit -> float) ->
  behavior:('s, 'm) Step.behavior ->
  pids:Pid.t list ->
  unit ->
  ('s, 'm) t
(** [create ~behavior ~pids ()] starts one node per pid. [clock] defaults to
    seconds of wall clock elapsed since [create] (monotone by
    construction); tests may inject a deterministic clock. [seed] feeds the
    runtime's {!Sim.Rng} (default 42). *)

(** {2 Observation} *)

val now : ('s, 'm) t -> float
val trace : ('s, 'm) t -> Trace.t
val telemetry : ('s, 'm) t -> Telemetry.t
val pids : ('s, 'm) t -> Pid.t list
val live_pids : ('s, 'm) t -> Pid.t list
val state : ('s, 'm) t -> Pid.t -> 's

(** [rounds t] — completed {!run_round} iterations. *)
val rounds : ('s, 'm) t -> int

(** [pending t] — messages currently sitting in mailboxes. *)
val pending : ('s, 'm) t -> int

(** {2 Dynamics} *)

(** [add_node t p] starts a fresh node mid-run (its mailbox starts empty —
    in-process links are trivially clean). Raises [Invalid_argument] if [p]
    exists. *)
val add_node : ('s, 'm) t -> Pid.t -> unit

(** [crash t p] stops [p] permanently and discards its mailbox. *)
val crash : ('s, 'm) t -> Pid.t -> unit

(** {2 Adversarial links (fault plans)}

    The loop's default delivery is reliable; fault plans can degrade it.
    A {!partition} blocks directed links, which then silently drop every
    message; an installed {!Sim.Engine.link_profile} drops ([lp_drop]), duplicates ([lp_dup]) or
    loses-as-unparseable ([lp_flip] — mailboxes carry typed values, so a
    "bit-flipped" message is simply lost) probabilistically, drawing from
    the loop's seeded RNG. With no blocks and no profiles, delivery is
    exactly the historical reliable path with zero extra RNG draws. *)

(** [partition t group] cuts every link between [group] and the rest, both
    directions. *)
val partition : ('s, 'm) t -> Pid.Set.t -> unit

(** [heal t] removes every block. *)
val heal : ('s, 'm) t -> unit

val set_link_profile :
  ('s, 'm) t -> src:Pid.t -> dst:Pid.t -> Sim.Engine.link_profile option -> unit

val clear_link_profiles : ('s, 'm) t -> unit

(** {2 Running} *)

(** [run_round t] — one timer step per live node, then one delivery phase. *)
val run_round : ('s, 'm) t -> unit

val run_rounds : ('s, 'm) t -> int -> unit

(** [run_until t ~max_rounds pred] runs rounds until [pred t] holds;
    [true] iff it held within the budget. *)
val run_until : ('s, 'm) t -> max_rounds:int -> (('s, 'm) t -> bool) -> bool
