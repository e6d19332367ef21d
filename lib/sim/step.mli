(** One atomic step of the paper's execution model.

    A node takes timer steps (one iteration of its [do forever] loop) and
    message-receipt steps. During a step it may read its identity and
    clock, draw randomness, send messages and record events; sends are
    buffered in the context's outbox and leave only after the step
    returns (local computation, then communication).

    Every runtime executes behaviors through this one concrete context:
    it fills a {!ctx}, calls [on_timer] or [on_message], then flushes
    [ctx_outbox]. The discrete-event simulator ({!Engine}) and the
    real-time loop ([Runtime.Loop]) both do exactly that; so does the
    synchronous runner in the runtime tests, in about twenty lines. *)

(** The per-step context for a node exchanging messages of type ['m]. A
    runtime may reuse one record for every step it executes (steps are
    sequential); a behavior must not retain its ctx beyond the step that
    handed it over. *)
type 'm ctx = {
  mutable ctx_self : Pid.t;  (** the stepping node *)
  mutable ctx_time : float;
      (** the runtime's time: virtual under the simulator, seconds of
          monotone wall clock in a real-time runtime *)
  ctx_rng : Rng.t;  (** the runtime's random source *)
  mutable ctx_outbox : (Pid.t * 'm) list;
      (** sends of the current step, newest first; the runtime delivers
          them (oldest first) once the step returns and then empties it *)
  ctx_trace : Trace.t;
  ctx_telemetry : Telemetry.t;
}

(** [create ~rng ~trace ~telemetry] — a context with an empty outbox, for
    a runtime to fill before each step. *)
val create : rng:Rng.t -> trace:Trace.t -> telemetry:Telemetry.t -> 'm ctx

val self : 'm ctx -> Pid.t
val now : 'm ctx -> float
val rng : 'm ctx -> Rng.t

(** [send ctx dst msg] enqueues [msg] towards [dst]; it leaves when the
    step ends. *)
val send : 'm ctx -> Pid.t -> 'm -> unit

(** [emit ctx tag detail] records a trace event attributed to the stepping
    node. *)
val emit : 'm ctx -> string -> string -> unit

(** The runtime's telemetry registry (labeled counters, histograms, phase
    spans). Spans are timed with [now], so seeded simulator runs export
    deterministic telemetry. *)
val telemetry : 'm ctx -> Telemetry.t

(** A node automaton with state ['s] and messages ['m]. *)
type ('s, 'm) behavior = {
  init : Pid.t -> 's;
  on_timer : 'm ctx -> 's -> 's;  (** one [do forever] iteration *)
  on_message : 'm ctx -> Pid.t -> 'm -> 's -> 's;  (** receipt of one packet *)
}
