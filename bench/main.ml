(* Micro-benchmarks of the core primitives: one bechamel Test.make per
   primitive, so the cost of each building block is tracked.

   Usage:
     bench/main.exe          ns/run per subject, one line each
     bench/main.exe --json   the same figures as one JSON object:
                             {"schema": "ssreconf-bench/2",
                              "micro_ns_per_run": {name -> ns/run}}

   The paper's tables (E1-E18, A1-A4) come from
   `reconfig-sim experiments|ablations`, and telemetry summaries from
   `reconfig-sim scenario ... --metrics-jsonl`. *)

open Bechamel
open Toolkit

let set = Sim.Pid.set_of_list

(* --- micro-bench subjects ------------------------------------------- *)

let bench_rng =
  let rng = Sim.Rng.create 1 in
  Test.make ~name:"rng.int" (Staged.stage (fun () -> Sim.Rng.int rng 1000))

(* the engine's own queue load: 512 resident events, about what `wide`
   keeps in flight; one run pops the earliest event and schedules a
   successor at now + U[0.5, 2], the delivery-delay model *)
let bench_event_queue =
  let rng = Sim.Rng.create 2 in
  let q = Sim.Event_queue.create () in
  for kind = 1 to 512 do
    Sim.Event_queue.push q ~at:(2.0 *. Sim.Rng.float rng) kind
  done;
  Test.make ~name:"engine.event_queue_hold_512"
    (Staged.stage (fun () ->
         let now = Sim.Event_queue.min_at q in
         let kind = Sim.Event_queue.pop q in
         Sim.Event_queue.push q ~at:(now +. 0.5 +. (1.5 *. Sim.Rng.float rng)) kind))

let bench_channel =
  let rng = Sim.Rng.create 3 in
  Test.make ~name:"channel.send_take"
    (Staged.stage (fun () ->
         let ch = Sim.Channel.create ~capacity:8 in
         for i = 1 to 16 do
           Sim.Channel.send ch rng i
         done;
         while not (Sim.Channel.is_empty ch) do
           ignore (Sim.Channel.take_nonempty ch rng)
         done))

let bench_fd =
  Test.make ~name:"detector.heartbeat_trusted"
    (Staged.stage (fun () ->
         let fd = Detector.Theta_fd.create ~n_bound:16 ~theta:4 ~self:0 in
         for r = 1 to 8 do
           ignore r;
           for p = 1 to 8 do
             Detector.Theta_fd.heartbeat fd p
           done
         done;
         ignore (Detector.Theta_fd.trusted fd)))

let bench_notification_max =
  let ns =
    List.init 16 (fun i ->
        Reconfig.Notification.make
          (if i mod 2 = 0 then Reconfig.Notification.P1 else Reconfig.Notification.P2)
          (set [ i; i + 1; i + 2 ]))
  in
  Test.make ~name:"notification.max_of_16"
    (Staged.stage (fun () -> Reconfig.Notification.max_of ns))

let bench_label_order =
  let l1 = Labels.Label.make ~creator:1 ~sting:3 ~antistings:[ 1; 2; 5; 7 ] in
  let l2 = Labels.Label.make ~creator:1 ~sting:8 ~antistings:[ 3; 4 ] in
  Test.make ~name:"label.precedes" (Staged.stage (fun () -> Labels.Label.precedes l1 l2))

let bench_label_next =
  let known =
    List.init 12 (fun i ->
        Labels.Label.make ~creator:1 ~sting:i ~antistings:[ i + 1; i + 2 ])
  in
  Test.make ~name:"label.next_label_12"
    (Staged.stage (fun () -> Labels.Label.next_label ~creator:1 ~known))

let bench_counter_order =
  let l = Labels.Label.make ~creator:1 ~sting:0 ~antistings:[ 9 ] in
  let c1 = Counters.Counter.make ~lbl:l ~seqn:41 ~wid:3 in
  let c2 = Counters.Counter.make ~lbl:l ~seqn:42 ~wid:2 in
  Test.make ~name:"counter.precedes"
    (Staged.stage (fun () -> Counters.Counter.precedes c1 c2))

(* one gossip receipt of a raised counter at a warm 8-member storage: the
   gossip after every increment, which a member receives from each other
   member; each run raises the counter of the label every member holds *)
let bench_counter_gossip_receipt =
  let members = set (List.init 8 (fun i -> i + 1)) in
  let algo =
    Counters.Counter_algo.create ~self:1 ~members ~in_transit_bound:8
      ~exhaust_bound:max_int
  in
  let lbl = (Counters.Counter_algo.find_max_counter algo).Counters.Counter.lbl in
  let seqn = ref 0 in
  let raised from =
    incr seqn;
    Counters.Counter.pair_of (Counters.Counter.make ~lbl ~seqn:!seqn ~wid:from)
  in
  for from = 2 to 8 do
    Counters.Counter_algo.receipt_action algo ~sent_max:(Some (raised from)) ~last_sent:None
      ~from
  done;
  (* a run that changes nothing records the fixed point receipts start from *)
  ignore (Counters.Counter_algo.find_max_counter algo);
  Test.make ~name:"counter.gossip_receipt_8"
    (Staged.stage (fun () ->
         let from = 2 + (!seqn mod 7) in
         Counters.Counter_algo.receipt_action algo ~sent_max:(Some (raised from))
           ~last_sent:(Counters.Counter_algo.local_max algo) ~from))

let bench_recsa_tick =
  (* one do-forever iteration of a warm 8-node recSA instance *)
  let trusted = set (List.init 8 (fun i -> i + 1)) in
  let sa = Reconfig.Recsa.create ~self:1 ~participant:true ~initial_config:trusted () in
  List.iter
    (fun p ->
      if p <> 1 then
        Reconfig.Recsa.receive sa ~from:p
          {
            Reconfig.Recsa.m_fd = trusted;
            m_part = trusted;
            m_config = Reconfig.Config_value.Set trusted;
            m_prp = Reconfig.Notification.default;
            m_all = false;
            m_echo = None;
          })
    (List.init 8 (fun i -> i + 1));
  Test.make ~name:"recsa.tick_warm_8"
    (Staged.stage (fun () -> Reconfig.Recsa.tick sa ~trusted))

let gossip_round_subject n seed =
  let pids = List.init n (fun i -> i + 1) in
  let behavior =
    {
      Sim.Step.init = (fun p -> p);
      on_timer =
        (fun ctx s ->
          List.iter
            (fun q -> if q <> Sim.Step.self ctx then Sim.Step.send ctx q s)
            pids;
          s);
      on_message = (fun _ _ v s -> max v s);
    }
  in
  let eng = Sim.Engine.create ~seed ~behavior ~pids () in
  fun () -> Sim.Engine.run_rounds eng 1

let bench_engine_round =
  Test.make ~name:"engine.round_5node_gossip" (Staged.stage (gossip_round_subject 5 5))

(* a larger all-to-all workload (16 nodes = 240 directed channels) makes
   the engine's per-send/per-delivery and rounds-accounting costs visible *)
let bench_engine_round_16 =
  Test.make ~name:"engine.round_16node_gossip" (Staged.stage (gossip_round_subject 16 16))

(* the scale tier's data-plane floor: 64 nodes = 4032 directed channels,
   all-to-all gossip; this is the pure engine+channel cost with no protocol
   on top (compare E17's full-stack steady rounds/s) *)
let bench_engine_round_64 =
  Test.make ~name:"engine.round_64node_gossip" (Staged.stage (gossip_round_subject 64 64))

(* one steady-state round of the full N=12 register stack (recSA, recMA,
   the counter's gossip, the register, heartbeats) after E16's 25 warm
   rounds: every delivery reads the scheme's derived view, so this is the
   per-delivery hot path without perfbench's per-episode set-up *)
let bench_stack_round_12 =
  let sys =
    Reconfig.Stack.of_scenario
      ~hooks:(Register.Register_service.hooks ())
      (Reconfig.Scenario.make ~seed:12 ~nodes:12 ())
  in
  Reconfig.Stack.run_rounds sys 25;
  Test.make ~name:"stack.round_12node_register"
    (Staged.stage (fun () -> Reconfig.Stack.run_rounds sys 1))

let micro_tests =
  Test.make_grouped ~name:"primitives" ~fmt:"%s %s"
    [
      bench_rng;
      bench_event_queue;
      bench_channel;
      bench_fd;
      bench_notification_max;
      bench_label_order;
      bench_label_next;
      bench_counter_order;
      bench_counter_gossip_receipt;
      bench_recsa_tick;
      bench_engine_round;
      bench_engine_round_16;
      bench_engine_round_64;
      bench_stack_round_12;
    ]

let run_micro () =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg instances micro_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> t
        | Some [] | None -> nan
      in
      (name, est) :: acc)
    results []
  |> List.sort compare

let print_micro rows =
  Format.printf "@.== micro-benchmarks (monotonic clock, ns/run) ==@.";
  List.iter (fun (name, est) -> Format.printf "%-40s %12.1f ns/run@." name est) rows

(* --- JSON output ------------------------------------------------------ *)

let print_json rows =
  let module E = Telemetry.Export in
  let pairs =
    List.map
      (fun (name, est) -> Printf.sprintf "\"%s\": %s" (E.json_escape name) (E.json_float est))
      rows
  in
  Format.printf "{@.  \"schema\": \"ssreconf-bench/2\",@.  \"micro_ns_per_run\": {%s}@.}@."
    (String.concat ", " pairs)

let () =
  let json =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> false
    | [ "--json" ] -> true
    | _ ->
      prerr_endline "usage: main.exe [--json]";
      exit 2
  in
  let rows = run_micro () in
  if json then print_json rows else print_micro rows
