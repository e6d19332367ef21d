(* The identical protocol stack running on the real-time event-loop runtime
   ({!Runtime.Loop}) instead of the discrete-event simulator: the same
   {!Reconfig.Stack.driver} behavior, stepped through the same
   {!Sim.Step.ctx}, by a different runtime.

   Run with:  dune exec examples/loop_demo.exe *)

open Sim
open Reconfig

let pp_conf fmt = function
  | Some c -> Pid.pp_set fmt c
  | None -> Format.fprintf fmt "<no agreement>"

let () =
  let members = [ 1; 2; 3; 4; 5 ] in
  let sys =
    Stack_loop.of_scenario ~hooks:Stack.unit_hooks
      (Scenario.make ~seed:7 ~n_bound:16 ~members ())
  in

  (* Bootstrap: let the failure detectors warm up and the scheme settle. *)
  (match Stack_loop.run_until_quiescent sys ~max_rounds:500 with
  | Some r -> Format.printf "quiescent after %d rounds@." r
  | None -> Format.printf "not quiescent within 500 rounds?!@.");
  Format.printf "agreed configuration: %a@." pp_conf (Stack_loop.uniform_config sys);

  (* Admit a joiner through the snap-stabilizing join protocol. *)
  Stack_loop.add_joiner sys 6;
  Stack_loop.run_rounds sys 200;
  Format.printf "joiner 6 now trusts: %a@." Pid.pp_set (Stack_loop.trusted_of sys 6);
  Format.printf "configuration still: %a@." pp_conf (Stack_loop.uniform_config sys);

  (* Crash a member; the survivors keep the configuration available. *)
  Stack_loop.crash sys 5;
  Stack_loop.run_rounds sys 100;
  Format.printf "after crash(5), configuration: %a@." pp_conf
    (Stack_loop.uniform_config sys);

  let loop = Stack_loop.loop sys in
  Format.printf "loop runtime: %d rounds, %d messages in flight@."
    (Runtime.Loop.rounds loop) (Runtime.Loop.pending loop)
