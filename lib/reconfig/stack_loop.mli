(** The identical protocol stack ({!Stack.driver}, one {!Sim.Step.behavior})
    executed by the real-time event loop runtime ({!Runtime.Loop}) instead
    of the simulator — the proof that the core is runtime-agnostic, and the
    stepping stone toward a socket-backed runtime.

    The API mirrors the observation/driving subset of {!Stack}, including
    fault plans: the same serialized {!Faults.Fault_plan} drives either
    runtime, with the loop declining the simulator-only channel-corruption
    capability (those events are counted as skipped). *)

open Sim

type ('app, 'msg) t

val of_scenario : hooks:('app, 'msg) Stack.hooks -> Scenario.t -> ('app, 'msg) t
(** Build a loop-backed stack from a {!Scenario.t}, on the loop's default
    monotone clock. The scenario's simulator-only channel knobs
    ([sc_loss]) are ignored; a fault plan is applied by {!run_plan}. *)

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

(** {2 Fault plans}

    The loop supplies every injector capability except channel corruption
    (its mailboxes hold typed values a transient fault cannot fabricate);
    [Corrupt_channels] events are counted under
    [fault.injected{kind="skipped"}], and link "bit flips" degrade to
    drops. Everything else — state corruption, per-link loss profiles,
    partitions, crashes, join churn — behaves as on the simulator. *)

(** [run_plan t ~plan ~max_rounds] — apply [plan] round by round, then run
    on until quiescence; rounds from last fault to quiescence, or [None]
    on timeout. *)
val run_plan :
  ('app, 'msg) t -> plan:Faults.Fault_plan.t -> max_rounds:int -> int option
