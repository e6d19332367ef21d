open Sim
module Loop = Runtime.Loop

type ('app, 'msg) t = {
  loop : ('app Stack.node_state, ('app, 'msg) Stack.message) Loop.t;
  hooks : ('app, 'msg) Stack.hooks;
  directory : Pid.Set.t ref;
}

let of_scenario ~hooks (sc : Scenario.t) =
  let members = sc.Scenario.sc_members in
  let members_set = Pid.set_of_list members in
  let directory = ref members_set in
  let behavior =
    Stack.driver ~capacity:sc.sc_capacity ~n_bound:sc.sc_n_bound
      ~theta:sc.sc_theta ~hooks ~members_set ~directory
  in
  let loop = Loop.create ~seed:sc.sc_seed ~behavior ~pids:members () in
  Stack.declare_metrics (Loop.telemetry loop);
  Faults.Injector.declare_metrics (Loop.telemetry loop);
  { loop; hooks; directory }

let loop t = t.loop

let add_joiner t p =
  t.directory := Pid.Set.add p !(t.directory);
  Loop.add_node t.loop p

let node t p = Loop.state t.loop p

let live_nodes t =
  List.map (fun p -> (p, Loop.state t.loop p)) (Loop.live_pids t.loop)

let trusted_of t p = Detector.Theta_fd.trusted (node t p).Stack.fd
let uniform_config t = Stack.uniform_config_of (live_nodes t)
let quiescent t = Stack.quiescent_of (live_nodes t)
let run_rounds t n = Loop.run_rounds t.loop n

let run_until_quiescent t ~max_rounds =
  let start = Loop.rounds t.loop in
  if Loop.run_until t.loop ~max_rounds (fun _ -> quiescent t) then
    Some (Loop.rounds t.loop - start)
  else None

let crash t p = Loop.crash t.loop p

(* --- fault plans: the loop's (partial) injector capabilities --- *)

let fault_ops t =
  {
    Faults.Injector.o_live = (fun () -> Loop.live_pids t.loop);
    o_pids = (fun () -> Loop.pids t.loop);
    o_rounds = (fun () -> Loop.rounds t.loop);
    o_crash = (fun p -> Loop.crash t.loop p);
    o_join = (fun p -> add_joiner t p);
    o_corrupt_node =
      (fun rng p ->
        Stack.corrupt_state ~hooks:t.hooks ~pool:(Loop.pids t.loop) ~rng (node t p));
    (* mailboxes hold typed values a transient fault cannot fabricate, and
       per-link profiles are installed on the loop runtime itself *)
    o_corrupt_link = None;
    o_set_link_profile = Loop.set_link_profile t.loop;
    o_partition = (fun group -> Loop.partition t.loop group);
    o_heal =
      (fun () ->
        Loop.heal t.loop;
        Loop.clear_link_profiles t.loop);
    o_telemetry = Loop.telemetry t.loop;
    o_emit =
      (fun ~tag ~detail ->
        Trace.record (Loop.trace t.loop) ~time:(Loop.now t.loop) ~tag detail);
  }

let run_plan t ~plan ~max_rounds =
  Faults.Injector.run ~plan ~ops:(fault_ops t) ~round:(fun () -> run_rounds t 1);
  run_until_quiescent t ~max_rounds
