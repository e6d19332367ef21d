(* A replicated key-value store over the self-stabilizing reconfigurable
   virtually synchronous SMR (Section 4.3): the workload the paper's
   introduction motivates — a service that keeps running while its replica
   set changes.

   Run with:  dune exec examples/replicated_kv.exe *)

open Sim
open Vs

module Kv = Map.Make (String)

type cmd = Put of string * int | Del of string

let machine =
  {
    Vs_service.initial = Kv.empty;
    apply =
      (fun kv -> function
        | Put (k, v) -> Kv.add k v kv
        | Del k -> Kv.remove k kv);
  }

let pp_kv fmt kv =
  Kv.iter (fun k v -> Format.fprintf fmt "%s=%d " k v) kv

let app sys p = (Reconfig.Stack.node sys p).Reconfig.Stack.app

let wait_view sys =
  Reconfig.Stack.run_until sys ~max_steps:2_000_000 (fun t ->
      List.for_all
        (fun (_, n) ->
          Vs_service.status_of n.Reconfig.Stack.app = Vs_service.Multicast
          && (Vs_service.current_view n.Reconfig.Stack.app).Vs_service.vid <> None)
        (Reconfig.Stack.live_nodes t))

let wait_value sys key value =
  Reconfig.Stack.run_until sys ~max_steps:2_000_000 (fun t ->
      List.for_all
        (fun (_, n) ->
          Kv.find_opt key (Vs_service.replica n.Reconfig.Stack.app) = value)
        (Reconfig.Stack.live_nodes t))

let () =
  (* reconfigure whenever the participant set differs from the members *)
  let want_joiner = ref false in
  let eval_config ~self:_ ~trusted:_ _ = !want_joiner in
  let members = [ 1; 2; 3; 4 ] in
  let sys =
    Reconfig.Stack.of_scenario
      ~hooks:(Vs_service.hooks ~machine ~eval_config ())
      (Reconfig.Scenario.make ~seed:11 ~n_bound:16 ~members ())
  in
  Reconfig.Stack.run_rounds sys 20;
  ignore (wait_view sys);
  Format.printf "view established; coordinator elected@.";

  (* clients at different replicas write *)
  Vs_service.submit (app sys 1) (Put ("apples", 3));
  Vs_service.submit (app sys 2) (Put ("pears", 7));
  Vs_service.submit (app sys 3) (Put ("plums", 1));
  ignore (wait_value sys "apples" (Some 3));
  ignore (wait_value sys "pears" (Some 7));
  ignore (wait_value sys "plums" (Some 1));
  Format.printf "store at node 4: %a@." pp_kv (Vs_service.replica (app sys 4));

  (* a new replica joins; the coordinator reconfigures to include it *)
  Reconfig.Stack.add_joiner sys 9;
  ignore
    (Reconfig.Stack.run_until sys ~max_steps:2_000_000 (fun t ->
         Reconfig.Recsa.is_participant (Reconfig.Stack.node t 9).Reconfig.Stack.sa));
  want_joiner := true;
  ignore
    (Reconfig.Stack.run_until sys ~max_steps:4_000_000 (fun t ->
         match Reconfig.Stack.uniform_config t with
         | Some c -> Pid.Set.mem 9 c
         | None -> false));
  want_joiner := false;
  Format.printf "replica 9 joined; configuration now includes it@.";

  (* the store survived the reconfiguration, and replica 9 can serve *)
  ignore (wait_value sys "apples" (Some 3));
  Format.printf "store at new replica 9: %a@." pp_kv (Vs_service.replica (app sys 9));

  (* a mixed workload after the reconfiguration *)
  Vs_service.submit (app sys 9) (Put ("quinces", 2));
  Vs_service.submit (app sys 1) (Del "pears");
  ignore (wait_value sys "quinces" (Some 2));
  ignore (wait_value sys "pears" None);
  Format.printf "final store everywhere: %a@." pp_kv (Vs_service.replica (app sys 2));
  let logs =
    List.map
      (fun (_, n) -> List.length (Vs_service.delivered n.Reconfig.Stack.app))
      (Reconfig.Stack.live_nodes sys)
  in
  Format.printf "commands delivered per replica: %s@."
    (String.concat " " (List.map string_of_int logs))
