open Sim
module Loop = Runtime.Loop

type ('app, 'msg) t = {
  loop : ('app Stack.node_state, ('app, 'msg) Stack.message) Loop.t;
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
  let loop = Loop.create ~behavior ~pids:members () in
  Stack.declare_metrics (Loop.telemetry loop);
  { loop; directory }

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
