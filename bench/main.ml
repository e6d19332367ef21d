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

(* the engine's duplicating send: every send also asks for a copy of the
   packet just sent, which the channel enqueues while it has room *)
let bench_channel_dup =
  let rng = Sim.Rng.create 3 in
  Test.make ~name:"channel.send_dup_take"
    (Staged.stage (fun () ->
         let ch = Sim.Channel.create ~capacity:8 in
         for i = 1 to 16 do
           Sim.Channel.send ch rng i;
           ignore (Sim.Channel.duplicate_tail ch)
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
        ignore
          (Reconfig.Recsa.receive sa ~from:p
             {
               Reconfig.Recsa.m_fd = trusted;
               m_part = trusted;
               m_config = Reconfig.Config_value.Set trusted;
               m_prp = Reconfig.Notification.default;
               m_all = false;
               m_echo = None;
             }))
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

(* A warm N = 12 register cluster (E16's 25 warm rounds) and the stack's
   driver over it. Runs node 2's tick and returns the first message to
   node 1 that [pick] selects, with a step context for node 1's receipts
   that drops their sends. *)
let receipt_at_node_1 pick =
  let open Reconfig in
  let hooks = Register.Register_service.hooks () in
  let sc = Scenario.make ~seed:12 ~nodes:12 () in
  let sys = Stack.of_scenario ~hooks sc in
  Stack.run_rounds sys 25;
  let members = set sc.Scenario.sc_members in
  let b =
    Stack.driver ~capacity:sc.Scenario.sc_capacity ~n_bound:sc.Scenario.sc_n_bound
      ~theta:sc.Scenario.sc_theta ~hooks ~members_set:members ~directory:(ref members)
  in
  let ctx = Sim.Step.create ~trace:(Sim.Trace.create ()) ~telemetry:(Telemetry.create ()) in
  let picked = ref None in
  ctx.Sim.Step.ctx_send <-
    (fun dst m -> if dst = 1 && Option.is_none !picked then picked := pick m);
  ctx.Sim.Step.ctx_self <- 2;
  ignore (b.Sim.Step.on_timer ctx (Stack.node sys 2));
  ctx.Sim.Step.ctx_send <- (fun _ _ -> ());
  ctx.Sim.Step.ctx_self <- 1;
  (b, ctx, Option.get !picked, Stack.node sys 1)

(* one counter-gossip [App] receipt at node 1 with an empty client queue:
   the detector heartbeat, the counter's gossip receipt (the gossip node
   2's tick sent, repeated, so the storage takes it in constant time) and
   the register's receipt, with no operation to start. This is the bulk of
   a steady cluster's receipts. *)
let bench_idle_receipt_12 =
  let b, ctx, msg, node =
    receipt_at_node_1 (function Reconfig.Stack.App _ as m -> Some m | _ -> None)
  in
  Test.make ~name:"register.idle_receipt_12"
    (Staged.stage (fun () -> ignore (b.Sim.Step.on_message ctx 2 msg node)))

(* one recSA [Sa] receipt at node 1: the line-29 message node 2's tick
   sent, under a fresh link stamp each run, so the link accepts it and
   recSA stores a view equal to the one it holds. No notification is
   active, so no iteration runs; this is the bulk of a steady cluster's
   recSA receipts. *)
let bench_recsa_idle_receipt_12 =
  let b, ctx, (stamp, view), node =
    receipt_at_node_1 (function Reconfig.Stack.Sa (stamp, v) -> Some (stamp, v) | _ -> None)
  in
  let stamp = ref stamp in
  Test.make ~name:"recsa.idle_receipt_12"
    (Staged.stage (fun () ->
         incr stamp;
         ignore (b.Sim.Step.on_message ctx 2 (Reconfig.Stack.Sa (!stamp, view)) node)))

let micro_tests =
  Test.make_grouped ~name:"primitives" ~fmt:"%s %s"
    [
      bench_rng;
      bench_event_queue;
      bench_channel;
      bench_channel_dup;
      bench_fd;
      bench_notification_max;
      bench_label_order;
      bench_label_next;
      bench_counter_order;
      bench_recsa_tick;
      bench_engine_round;
      bench_engine_round_16;
      bench_engine_round_64;
      bench_stack_round_12;
    ]

(* The receipt paths, 50-200 ns each, where a change to the driver
   shows. They are measured apart. By default bechamel compacts the heap
   before every sample; this heap holds every subject's warm cluster, so a
   0.25 s quota fits only a few dozen samples of one or two runs each, and
   the fit reads cold caches and the clock rather than the subject. On a
   shared machine, other tenants also slow whole seconds of a run by up to
   2x. So the receipt subjects skip the compaction, and each reports the
   best of [receipt_fits] fits of 0.1 s: interference only ever adds
   time. *)
let receipt_tests =
  Test.make_grouped ~name:"primitives" ~fmt:"%s %s"
    [ bench_counter_gossip_receipt; bench_idle_receipt_12; bench_recsa_idle_receipt_12 ]

let receipt_fits = 20

let estimate ols =
  match Analyze.OLS.estimates ols with Some (t :: _) -> t | Some [] | None -> nan

let run_micro () =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let measure cfg tests =
    Analyze.all ols Instance.monotonic_clock (Benchmark.all cfg instances tests)
  in
  let results =
    measure (Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None ()) micro_tests
  in
  let receipt_cfg =
    Benchmark.cfg ~limit:100_000 ~quota:(Time.second 0.1) ~stabilize:false ~kde:None ()
  in
  for _ = 1 to receipt_fits do
    Hashtbl.iter
      (fun name fit ->
        match Hashtbl.find_opt results name with
        | Some best when estimate best <= estimate fit -> ()
        | Some _ | None -> Hashtbl.replace results name fit)
      (measure receipt_cfg receipt_tests)
  done;
  Hashtbl.fold (fun name ols acc -> (name, estimate ols) :: acc) results []
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
