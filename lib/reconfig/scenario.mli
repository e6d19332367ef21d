(** One value that describes a whole run — the unified configuration API.

    Historically every entry point grew its own positional argument list
    (topology here, seed there). A [Scenario.t] gathers all of it:
    topology, seed, channel model and scheme knobs. [Stack.of_scenario]
    and [Stack_loop.of_scenario] consume it directly; the [bin/]
    subcommands build one from shared flags ([Cli_common]); the harness
    derives per-cell scenarios from it. A fault plan is not part of the
    scenario: it is handed to [Stack.run_plan] / [Stack_loop.run_plan].
    Neither are the metrics/trace sink paths: only the CLI writes files,
    so they stay there. The record is deliberately concrete — a scenario
    is configuration data, and pattern matching on it is the point — with
    {!make} as the builder. *)

open Sim

type t = {
  sc_members : Pid.t list;  (** initial participants *)
  sc_seed : int;  (** runtime schedule seed *)
  sc_capacity : int;  (** channel capacity (the paper's [cap]) *)
  sc_loss : float;  (** global message-loss probability (simulator) *)
  sc_theta : int;  (** failure-detector threshold *)
  sc_n_bound : int;  (** the paper's [N]: bound on processor count *)
  sc_quorum : (module Quorum.SYSTEM);
}

val default_members : int -> Pid.t list
(** [default_members n] — pids [1..n]. *)

val make :
  ?members:Pid.t list ->
  ?seed:int ->
  ?capacity:int ->
  ?loss:float ->
  ?theta:int ->
  ?n_bound:int ->
  ?quorum:(module Quorum.SYSTEM) ->
  ?nodes:int ->
  unit ->
  t
(** Defaults: [seed 42], [capacity 8], [loss 0.02], [theta 4],
    [quorum Majority], [members = default_members nodes],
    [n_bound = 2 * nodes]. At least one of [nodes] and [members] must be
    given. Raises [Invalid_argument] when neither is, [nodes] is negative,
    the member list is empty or repeats a pid, [capacity] is not positive,
    [loss] lies outside [\[0,1\]], [theta] is below 2, or [n_bound] is not
    positive. *)

val nodes : t -> int
(** Number of initial members. *)

val with_n_bound : t -> int -> t
(** [with_n_bound t n] — [t] with [sc_n_bound = n]; raises
    [Invalid_argument] unless [n] is positive. *)
