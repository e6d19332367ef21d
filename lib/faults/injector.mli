(** Fault-plan interpretation: the one adversary.

    The injector never touches a runtime directly: it acts through an
    {!ops} capability record, which the simulator's harness
    ([Reconfig.Stack.run_plan]) supplies in full. The simulator is the
    only runtime that runs fault plans, so every event of a plan is
    applied, channel corruption included: the paper's transient faults
    rewrite processor state and channel contents alike (see DESIGN.md §11
    for what the adversary deliberately cannot do).

    All interpretation randomness flows from the plan's own seed
    ({!Fault_plan.t}), so a plan resolves to the same victims and the
    same garbage on every replay. *)

open Sim

type ops = {
  o_live : unit -> Pid.t list;  (** live pids, ascending *)
  o_pids : unit -> Pid.t list;  (** all pids ever seen, ascending *)
  o_rounds : unit -> int;  (** the runtime's round counter *)
  o_crash : Pid.t -> unit;
  o_join : Pid.t -> unit;  (** introduce a joiner *)
  o_corrupt_node : Rng.t -> Pid.t -> unit;
      (** rewrite one node's protocol + application state with garbage
          drawn from the given (plan-seeded) RNG *)
  o_corrupt_link : Rng.t -> src:Pid.t -> dst:Pid.t -> unit;
      (** fill one directed channel with stale packets *)
  o_set_link_profile : src:Pid.t -> dst:Pid.t -> Fault_plan.link_profile option -> unit;
      (** install/remove a per-link fault profile *)
  o_partition : Pid.Set.t -> unit;
  o_heal : unit -> unit;  (** remove every block and link profile *)
  o_telemetry : Telemetry.t;
  o_emit : tag:string -> detail:string -> unit;  (** trace stamping *)
}

val run : plan:Fault_plan.t -> ops:ops -> round:(unit -> unit) -> unit
(** [run ~plan ~ops ~round] drives [plan] to completion, the plan loop of
    [Reconfig.Stack.run_plan]: at each round boundary it applies every
    pending entry (and scheduled partition heal) whose round has been
    reached, in plan order, then calls [round ()] to advance the runtime
    one round, until no entry and no heal remains. Interpretation
    randomness comes from an RNG seeded with [plan.seed].
    {!declare_metrics} is applied to [ops.o_telemetry] first, so the
    [fault.injected] schema is stable even for plans that never fire;
    every applied event is counted there. *)

val declare_metrics : Telemetry.t -> unit
(** Pre-register [fault.injected{kind}] for every {!Fault_plan.kinds}
    entry. *)
