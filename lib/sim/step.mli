(** One atomic step of the paper's execution model.

    A node takes timer steps (one iteration of its [do forever] loop) and
    message-receipt steps. During a step it may read its identity and
    clock, send messages and record events. A send is a call into the
    runtime: the message leaves at once, and every runtime delivers it in
    a later step, never inside the step that sent it (local computation,
    then communication). A node that sends to itself is not re-entered.

    Every runtime executes behaviors through this one concrete context:
    it installs its send in [ctx_send] once, then for each step fills
    [ctx_self] and [ctx_time] and calls [on_timer] or [on_message]. The
    discrete-event simulator ({!Engine}) and the real-time loop
    ([Runtime.Loop]) both do exactly that; so do the synchronous runners
    in the runtime tests, in a few lines each. *)

(** The per-step context for a node exchanging messages of type ['m]. A
    runtime may reuse one record for every step it executes (steps are
    sequential); a behavior must not retain its ctx beyond the step that
    handed it over. *)
type 'm ctx = {
  mutable ctx_self : Pid.t;  (** the stepping node *)
  mutable ctx_time : float;
      (** the runtime's time: virtual under the simulator, seconds of
          monotone wall clock in a real-time runtime *)
  mutable ctx_send : Pid.t -> 'm -> unit;
      (** the runtime's send from [ctx_self]; set once by the runtime *)
  ctx_trace : Trace.t;
  ctx_telemetry : Telemetry.t;
}

(** [create ~trace ~telemetry] — a context for a runtime to install its
    send in and fill before each step; until then a send raises
    [Invalid_argument]. *)
val create : trace:Trace.t -> telemetry:Telemetry.t -> 'm ctx

val self : 'm ctx -> Pid.t
val now : 'm ctx -> float

(** [send ctx dst msg] hands [msg] towards [dst] to the runtime now; [dst]
    receives it in a later step. *)
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
