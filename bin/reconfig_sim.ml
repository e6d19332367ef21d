(* reconfig-sim — command-line driver for the self-stabilizing
   reconfiguration simulator.

   Subcommands:
     experiments   regenerate the paper-claim tables (E1..E18)
     scenario      run a named scenario and print what happened
     faults        replay a declarative fault plan on the simulator
     trace         run a transient-fault recovery and dump the event trace

   Every run-flavoured subcommand is configured through one
   Reconfig.Scenario.t built from the shared flags in Cli_common. *)

open Cmdliner
open Sim
open Reconfig

(* ------------------------------------------------------------------ *)
(* experiments                                                          *)
(* ------------------------------------------------------------------ *)

let experiments_cmd =
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Run with the full parameter grid.")
  in
  let ids =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID"
          ~doc:"Experiment identifiers (E1..E18). All when omitted.")
  in
  let run full jobs ids =
    let params =
      if full then Harness.Experiments.default_params
      else Harness.Experiments.quick_params
    in
    let tables =
      match ids with
      | [] -> Harness.Experiments.all ~jobs params
      | ids ->
        List.map
          (fun id ->
            match Harness.Experiments.by_id id with
            | Some f -> f ~jobs params
            | None ->
              Format.eprintf "unknown experiment %s (known: %s)@." id
                (String.concat ", " Harness.Experiments.ids);
              exit 1)
          ids
    in
    List.iter (fun t -> Format.printf "%a@." Harness.Table.pp t) tables
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate the paper-claim tables (E1..E18).")
    Term.(const run $ full $ Cli_common.jobs_arg $ ids)

let ablations_cmd =
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Run with the full parameter grid.")
  in
  let run full jobs =
    let params =
      if full then Harness.Experiments.default_params
      else Harness.Experiments.quick_params
    in
    List.iter
      (fun t -> Format.printf "%a@." Harness.Table.pp t)
      (Harness.Ablations.all ~jobs params)
  in
  Cmd.v
    (Cmd.info "ablations" ~doc:"Run the design-choice ablation sweeps (A1..A4).")
    Term.(const run $ full $ Cli_common.jobs_arg)

(* ------------------------------------------------------------------ *)
(* scenario                                                             *)
(* ------------------------------------------------------------------ *)

let pp_config fmt sys =
  match Stack.uniform_config sys with
  | Some c -> Pid.pp_set fmt c
  | None -> Format.fprintf fmt "(no agreement yet)"

let scenario_steady (sc : Scenario.t) =
  let n = Scenario.nodes sc in
  let sys = Stack.of_scenario ~hooks:Stack.unit_hooks sc in
  Format.printf "starting %d members...@." n;
  Stack.run_rounds sys 30;
  Format.printf "config after 30 rounds: %a, quiescent=%b@." pp_config sys
    (Stack.quiescent sys);
  Format.printf "proposing replacement by {1..%d}...@." (n - 1);
  let target = Pid.set_of_list (List.init (n - 1) (fun i -> i + 1)) in
  let rec propose k =
    if k = 0 then Format.printf "estab not accepted@."
    else if not (Stack.estab sys 1 target) then (Stack.run_rounds sys 2; propose (k - 1))
  in
  propose 50;
  ignore
    (Stack.run_until sys ~max_steps:2_000_000 (fun t ->
         Stack.quiescent t
         && match Stack.uniform_config t with Some c -> Pid.Set.equal c target | None -> false));
  Format.printf "config after delicate replacement: %a@." pp_config sys;
  Format.printf "delicate installs: %d, brute-force resets: %d@."
    (Stack.total_installs sys) (Stack.total_resets sys);
  sys

let scenario_transient (sc : Scenario.t) =
  let sys = Stack.of_scenario ~hooks:Stack.unit_hooks sc in
  Stack.run_rounds sys 30;
  Format.printf "steady config: %a@." pp_config sys;
  Format.printf "injecting transient fault: all node states and channels corrupted@.";
  Stack.corrupt_everything sys ~rng:(Rng.create (sc.Scenario.sc_seed + 1));
  (match Stack.run_until_quiescent sys ~max_rounds:1000 with
  | Some rounds -> Format.printf "recovered in %d rounds@." rounds
  | None -> Format.printf "did not recover within budget@.");
  Format.printf "config after recovery: %a (resets: %d)@." pp_config sys
    (Stack.total_resets sys);
  sys

let scenario_churn (sc : Scenario.t) =
  let n = Scenario.nodes sc in
  let hooks = { Stack.unit_hooks with eval_conf = Stack.default_eval_conf () } in
  let sys = Stack.of_scenario ~hooks (Scenario.with_n_bound sc (4 * n)) in
  Stack.run_rounds sys 30;
  Format.printf "steady config: %a@." pp_config sys;
  Format.printf "two joiners arrive...@.";
  Stack.add_joiner sys 100;
  Stack.add_joiner sys 101;
  ignore
    (Stack.run_until sys ~max_steps:2_000_000 (fun t ->
         Recsa.is_participant (Stack.node t 100).Stack.sa
         && Recsa.is_participant (Stack.node t 101).Stack.sa));
  Format.printf "joiners are participants@.";
  Format.printf "crashing members 1 and 2; the predictor should reconfigure...@.";
  Stack.crash sys 1;
  Stack.crash sys 2;
  let recovered =
    Stack.run_until sys ~max_steps:4_000_000 (fun t ->
        match Stack.uniform_config t with
        | Some c -> (not (Pid.Set.mem 1 c)) && not (Pid.Set.mem 2 c)
        | None -> false)
  in
  Format.printf "reconfigured away from crashed members: %b@." recovered;
  Format.printf "final config: %a (recMA triggers: %d)@." pp_config sys
    (Stack.total_triggers sys);
  sys

(* The scale tier's smoke scenario: full recovery from a corrupted state at
   larger N, then a short steady-state stretch, with throughput narrated.
   Everything exported (metrics, trace) is deterministic for a fixed seed;
   only the narrated wall-clock figures vary run to run. *)
let scenario_scale (sc : Scenario.t) =
  let n = Scenario.nodes sc and seed = sc.Scenario.sc_seed in
  let sys = Stack.of_scenario ~hooks:Stack.unit_hooks sc in
  let eng = Stack.engine sys in
  Format.printf "starting %d members...@." n;
  Stack.run_rounds sys 25;
  Format.printf "warm config: %a, quiescent=%b@." pp_config sys (Stack.quiescent sys);
  Format.printf "corrupting every node state and channel...@.";
  Stack.corrupt_everything sys ~rng:(Rng.create (seed * 7919));
  let s0 = Engine.steps eng in
  let t0 = Unix.gettimeofday () in
  (match Stack.run_until_quiescent sys ~max_rounds:500 with
  | Some rounds ->
    let dt = Unix.gettimeofday () -. t0 in
    Format.printf "recovered in %d rounds (%.2f s, %.0fk events/s)@." rounds dt
      (float_of_int (Engine.steps eng - s0) /. dt /. 1e3)
  | None -> Format.printf "did not recover within budget@.");
  let s1 = Engine.steps eng in
  let t1 = Unix.gettimeofday () in
  Stack.run_rounds sys 10;
  let dt = Unix.gettimeofday () -. t1 in
  Format.printf "steady state: %.0fk events/s, %.1f rounds/s@."
    (float_of_int (Engine.steps eng - s1) /. dt /. 1e3)
    (10.0 /. dt);
  Format.printf "config after recovery: %a (resets: %d)@." pp_config sys
    (Stack.total_resets sys);
  sys

let scenario_cmd =
  let kind =
    Arg.(
      value
      & pos 0
          (enum
             [
               ("steady", `Steady);
               ("transient", `Transient);
               ("churn", `Churn);
               ("scale", `Scale);
             ])
          `Steady
      & info [] ~docv:"SCENARIO" ~doc:"One of: steady, transient, churn, scale.")
  in
  let run kind sc sinks =
    let sys =
      match kind with
      | `Steady -> scenario_steady sc
      | `Transient -> scenario_transient sc
      | `Churn -> scenario_churn sc
      | `Scale -> scenario_scale sc
    in
    Cli_common.export sys sinks
  in
  Cmd.v
    (Cmd.info "scenario" ~doc:"Run a named scenario and narrate the outcome.")
    Term.(const run $ kind $ Cli_common.scenario_term $ Cli_common.sinks_term)

(* ------------------------------------------------------------------ *)
(* faults                                                               *)
(* ------------------------------------------------------------------ *)

(* A small built-in plan used when no --plan/--plan-json is given: a
   corruption burst, a lossy stretch on every link out of node 1, a
   partition with a timed heal, and two joiners. *)
let demo_plan n seed =
  let module Fp = Faults.Fault_plan in
  Fp.make ~seed
    [
      Fp.at 30 (Fp.Corrupt_nodes (Fp.Sample (max 1 (n / 2))));
      Fp.at 32 (Fp.Corrupt_channels Fp.All);
      Fp.at 36
        (Fp.Degrade_links
           { src = Fp.Pids [ 1 ]; dst = Fp.All; profile = Fp.lossy 0.5 });
      Fp.at 44 (Fp.Restore_links { src = Fp.Pids [ 1 ]; dst = Fp.All });
      Fp.at 48 (Fp.Partition { group = Fp.Sample ((n / 2) + 1); heal_after = 10 });
      Fp.at 62 (Fp.Join [ n + 1; n + 2 ]);
    ]

let faults_applied tele =
  List.fold_left
    (fun acc (name, _, v) -> if name = "fault.injected" then acc + v else acc)
    0 (Telemetry.counters tele)

let faults_cmd =
  let run sc sinks plan =
    let plan =
      match plan with
      | Some p -> p
      | None -> demo_plan (Scenario.nodes sc) sc.Scenario.sc_seed
    in
    Format.printf "%a@." Faults.Fault_plan.pp plan;
    let sys = Stack.of_scenario ~hooks:Stack.unit_hooks sc in
    let recovery = Stack.run_plan sys ~plan ~max_rounds:2000 in
    Format.printf "fault events applied: %d@."
      (faults_applied (Engine.telemetry (Stack.engine sys)));
    (match recovery with
    | Some rounds -> Format.printf "quiescent %d rounds after the last fault@." rounds
    | None -> Format.printf "did not stabilize within budget@.");
    Format.printf "final config: %a (resets: %d)@." pp_config sys
      (Stack.total_resets sys);
    Cli_common.export sys sinks
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Replay a declarative fault plan (JSON) on the simulator and report \
          stabilization.")
    Term.(
      const run
      $ Cli_common.scenario_term $ Cli_common.sinks_term
      $ Cli_common.plan_term)

(* ------------------------------------------------------------------ *)
(* trace                                                                *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Dump every trace entry as JSON Lines (one object per line) \
             instead of the filtered human-readable text.")
  in
  let run sc sinks json =
    let sys = Stack.of_scenario ~hooks:Stack.unit_hooks sc in
    Stack.run_rounds sys 30;
    Stack.corrupt_everything sys ~rng:(Rng.create (sc.Scenario.sc_seed + 1));
    ignore (Stack.run_until_quiescent sys ~max_rounds:1000);
    let trace = Engine.trace (Stack.engine sys) in
    if json then Trace.iter trace (fun e -> print_endline (Trace.entry_json e))
    else begin
      Trace.iter trace (fun e ->
          if e.Trace.tag <> "join" then Format.printf "%a@." Trace.pp_entry e);
      Format.printf "final config: %a@."
        (fun fmt () -> pp_config fmt sys) ()
    end;
    Cli_common.export sys sinks
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Dump the protocol event trace of a transient-fault recovery.")
    Term.(const run $ Cli_common.scenario_term $ Cli_common.sinks_term $ json_arg)

let () =
  let info =
    Cmd.info "reconfig-sim" ~version:"1.0.0"
      ~doc:"Self-stabilizing reconfiguration (MIDDLEWARE 2016) simulator."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ experiments_cmd; ablations_cmd; scenario_cmd; faults_cmd; trace_cmd ]))
