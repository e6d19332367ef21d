(** The identical protocol stack ({!Stack.driver}, one {!Sim.Step.behavior})
    executed by the real-time event loop runtime ({!Runtime.Loop}) instead
    of the simulator — the proof that the core is runtime-agnostic, and the
    stepping stone toward a socket-backed runtime.

    The API mirrors the observation/driving subset of {!Stack}. Fault
    plans are not part of it: {!Stack.run_plan} on the simulator is the
    one interpreter of {!Faults.Fault_plan}, the adversary of the paper's
    Section 2 that corrupts processor state and channel contents alike.
    A loop harness can still crash nodes, add joiners and corrupt the
    states {!node} returns ({!Stack.corrupt_state}). *)

open Sim

type ('app, 'msg) t

val of_scenario : hooks:('app, 'msg) Stack.hooks -> Scenario.t -> ('app, 'msg) t
(** Build a loop-backed stack from a {!Scenario.t}, on the loop's default
    monotone clock. The scenario's simulator-only knobs ([sc_seed],
    [sc_loss]) are ignored: the loop's delivery is reliable and draws no
    randomness. *)

(** The underlying loop runtime (for trace/telemetry/round access). *)
val loop :
  ('app, 'msg) t -> ('app Stack.node_state, ('app, 'msg) Stack.message) Runtime.Loop.t

val add_joiner : ('app, 'msg) t -> Pid.t -> unit

(** {2 Observation} *)

val node : ('app, 'msg) t -> Pid.t -> 'app Stack.node_state
val trusted_of : ('app, 'msg) t -> Pid.t -> Pid.Set.t
val uniform_config : ('app, 'msg) t -> Pid.Set.t option
val quiescent : ('app, 'msg) t -> bool

(** {2 Driving} *)

val run_rounds : ('app, 'msg) t -> int -> unit

(** [run_until_quiescent t ~max_rounds] — rounds consumed until
    {!quiescent}, or [None] on timeout. *)
val run_until_quiescent : ('app, 'msg) t -> max_rounds:int -> int option

val crash : ('app, 'msg) t -> Pid.t -> unit
