(* Benchmark harness.

   Two parts:

   1. bechamel micro-benchmarks of the core primitives (one Test.make per
      primitive), so the cost of each building block is tracked;
   2. the experiment tables E1-E18 (DESIGN.md Section 5 / EXPERIMENTS.md),
      which regenerate the measurable content of every theorem and figure
      of the paper on the simulation substrate.

   Usage:
     bench/main.exe            micro-benches + quick experiment tables
     bench/main.exe --full     micro-benches + full experiment tables
     bench/main.exe --quick    micro-benches + quick tables (explicit)
     bench/main.exe --tables   experiment tables only
     bench/main.exe --micro    micro-benches only
     bench/main.exe --jobs N   run experiment cells on N domains
                               (default: Domain.recommended_domain_count;
                               table output is byte-identical for any N)
     bench/main.exe --json     emit one machine-readable JSON blob
                               ({name -> ns/run} for the micro-benches,
                               wall-clock seconds per experiment table)
                               instead of human-readable output *)

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

(* --- experiment tables ---------------------------------------------- *)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Run every registered table, returning (id, table, wall_seconds). *)
let run_registry registry ~jobs params =
  List.map
    (fun (id, f) ->
      let table, dt = timed (fun () -> f ?jobs:(Some jobs) params) in
      (id, table, dt))
    registry

let print_tables timed_tables =
  List.iter
    (fun (_, t, _) -> Format.printf "%a@." Harness.Table.pp t)
    timed_tables

(* --- telemetry summaries --------------------------------------------- *)

(* A short transient-fault recovery under the simulator runtime: the
   resulting protocol-level latency histograms (replacement phases, reset
   recovery, join handshakes) ride along in the --json blob so they can be
   tracked next to the ns/run numbers. Deterministic for the fixed seed. *)
let run_telemetry () =
  let n = 5 and seed = 7 in
  let members = List.init n (fun i -> i + 1) in
  let sys =
    Reconfig.Stack.of_scenario ~hooks:Reconfig.Stack.unit_hooks
      (Reconfig.Scenario.make ~seed ~loss:0.02 ~n_bound:(2 * n) ~members ())
  in
  Reconfig.Stack.run_rounds sys 30;
  Reconfig.Stack.corrupt_everything sys ~rng:(Sim.Rng.create (seed + 1));
  ignore (Reconfig.Stack.run_until_quiescent sys ~max_rounds:500);
  Sim.Engine.telemetry (Reconfig.Stack.engine sys)

(* --- JSON output ----------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_number f =
  if Float.is_nan f || Float.is_integer f && Float.abs f > 1e15 then "null"
  else Printf.sprintf "%.6g" f

let json_num_obj pairs =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" (json_escape k) (json_number v)) pairs)
  ^ "}"

(* One histogram as {"count": n, "sum": s, "p50": x, "p90": x, "p99": x},
   keyed "name{k=v,...}" like the Prometheus series identity. *)
let json_histograms tele =
  let series (name, labels, h) =
    let key =
      match labels with
      | [] -> name
      | labels ->
        name ^ "{"
        ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
        ^ "}"
    in
    let module H = Telemetry.Histogram in
    let q p = Option.value ~default:nan (H.quantile h p) in
    Printf.sprintf "\"%s\": %s" (json_escape key)
      (json_num_obj
         [
           ("count", float_of_int (H.count h));
           ("sum", H.sum h);
           ("p50", q 0.5);
           ("p90", q 0.9);
           ("p99", q 0.99);
         ])
  in
  "{" ^ String.concat ", " (List.map series (Telemetry.histograms tele)) ^ "}"

let print_json ~jobs ~mode ~micro ~experiments ~ablations ~telemetry ~total_s =
  let wall_pairs timed_tables = List.map (fun (id, _, dt) -> (id, dt)) timed_tables in
  Format.printf
    "{@.  \"schema\": \"ssreconf-bench/1\",@.  \"jobs\": %d,@.  \"mode\": \"%s\",@.  \
     \"micro_ns_per_run\": %s,@.  \"experiments_wall_s\": %s,@.  \
     \"ablations_wall_s\": %s,@.  \"telemetry_histograms\": %s,@.  \
     \"total_wall_s\": %s@.}@."
    jobs mode
    (json_num_obj micro)
    (json_num_obj (wall_pairs experiments))
    (json_num_obj (wall_pairs ablations))
    (json_histograms telemetry)
    (json_number total_s)

(* --- driver ---------------------------------------------------------- *)

let parse_jobs args =
  let rec go = function
    | "--jobs" :: v :: _ -> int_of_string v
    | [ "--jobs" ] -> failwith "--jobs requires an argument"
    | arg :: rest ->
      (match String.index_opt arg '=' with
      | Some i when String.sub arg 0 i = "--jobs" ->
        int_of_string (String.sub arg (i + 1) (String.length arg - i - 1))
      | _ -> go rest)
    | [] -> Harness.Pool.default_jobs ()
  in
  go args

let () =
  let args = Array.to_list Sys.argv in
  let full = List.mem "--full" args in
  let tables_only = List.mem "--tables" args in
  let micro_only = List.mem "--micro" args in
  let skip_ablations = List.mem "--no-ablations" args in
  let json = List.mem "--json" args in
  let jobs = parse_jobs args in
  let params =
    if full then Harness.Experiments.default_params else Harness.Experiments.quick_params
  in
  let t0 = Unix.gettimeofday () in
  let micro = if not tables_only then run_micro () else [] in
  let experiments =
    if not micro_only then run_registry Harness.Experiments.registry ~jobs params else []
  in
  let ablations =
    if (not micro_only) && not skip_ablations then
      run_registry Harness.Ablations.registry ~jobs params
    else []
  in
  let total_s = Unix.gettimeofday () -. t0 in
  if json then begin
    let telemetry = run_telemetry () in
    print_json ~jobs ~mode:(if full then "full" else "quick") ~micro ~experiments
      ~ablations ~telemetry ~total_s
  end
  else begin
    if not tables_only then print_micro micro;
    print_tables experiments;
    print_tables ablations
  end
