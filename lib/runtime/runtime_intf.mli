(** Runtime abstraction for the protocol stack.

    The paper's algorithms are expressed against an abstract interleaving
    model: a node takes atomic timer steps and message-receipt steps, and
    during a step it may read its identity and clock, draw randomness, send
    messages, and record events. {!S} captures exactly that per-step
    capability set as a module signature, so the protocol core
    ([Reconfig.Stack]) can be written once and executed by any runtime that
    implements it:

    - {!Sim_engine} — the discrete-event simulator ({!Sim.Engine}), used by
      the experiment harness and tests;
    - {!Loop} — a single-process real-time event loop (monotonic clock,
      in-process mailboxes), the first step toward serving real traffic.

    A behavior written against {!S} is a {!driver}: the runtime-agnostic
    analogue of [Sim.Engine.behavior]. *)

open Sim

(** The RUNTIME signature: what one atomic step may observe and do.
    ['m ctx] is the per-step context for a node exchanging messages of
    type ['m]. *)
module type S = sig
  type 'm ctx

  val self : 'm ctx -> Pid.t
  (** The stepping node's identifier. *)

  val now : 'm ctx -> float
  (** The runtime's notion of current time: virtual time in the simulator,
      seconds of monotonic wall clock in a real-time runtime. *)

  val rng : 'm ctx -> Rng.t
  (** The runtime's random source (deterministic under the simulator). *)

  val send : 'm ctx -> Pid.t -> 'm -> unit
  (** [send ctx dst msg] enqueues [msg] towards [dst]; deliveries happen
      after the step completes (the paper's step structure: local
      computation, then communication). *)

  val emit : 'm ctx -> string -> string -> unit
  (** [emit ctx tag detail] records a trace event attributed to the
      stepping node. *)

  val telemetry : 'm ctx -> Telemetry.t
  (** Shared telemetry registry: labeled counters, bounded histograms,
      and phase spans ({!Telemetry}). Like [now], times fed to
      spans are the runtime's — virtual under the simulator, so telemetry
      exports from seeded runs are deterministic. *)
end

(** A runtime-agnostic behavior: the node automaton, parameterized by the
    concrete context type ['ctx] of whichever runtime executes it. *)
type ('s, 'm, 'ctx) driver = {
  d_init : Pid.t -> 's;
  d_timer : 'ctx -> 's -> 's;  (** one [do forever] iteration *)
  d_recv : 'ctx -> Pid.t -> 'm -> 's -> 's;  (** receipt of one packet *)
}

(** {!Sim.Engine}'s per-step context implements the RUNTIME signature. *)
module Sim_engine : S with type 'm ctx = 'm Engine.ctx

(** [sim_behavior d] — repackage a driver written against {!Sim_engine} as
    a simulator behavior, for {!Sim.Engine.create}. *)
val sim_behavior : ('s, 'm, 'm Engine.ctx) driver -> ('s, 'm) Engine.behavior
