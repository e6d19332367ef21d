(* End-to-end benchmark of the reconfigurable register service.

   The traffic is experiment E16's (lib/harness/experiments.ml): on the
   quorum-based MWMR register (Register.Register_service), processor 1
   writes register "r" and, once the write completed, processor 3 reads
   it back, pair after pair; E16 requires each read to return the value
   just written. The cluster is built as E16 builds it: members 1..N, channel
   capacity 8, N_bound = 2N, 25 warm rounds. A run repeats episodes until
   its time budget is spent. Each episode brings up a fresh cluster (the
   timed set-up), runs the write/read alternation while the workload's
   scenario fires, and checks the history.

   Workloads, each taken from an existing experiment:
   - steady    E16 at N = 8 (one of E16's default sizes): five pairs,
               E16's own count, on a stable configuration
   - reconfig  E6's delicate replacement at N = 8: processor 1 proposes
               members 1..N-1 through recSA's automaton, then five more
               pairs in the new configuration
   - churn     E18's churn at N = 8 (its smallest size): joiners N+1 and
               N+2 arrive, and two rounds later E4's prediction case
               crashes ceil(N/4) members, so recMA's default predictor
               (1/4 of the members untrusted) triggers a replacement;
               then five more pairs
   - wide      E16 at N = 12, the largest of E16's default sizes
   Choices of this benchmark, with no source in the experiments: the
   scenario fires 10 traffic rounds in (E18's join offset after warm-up);
   crash victims are drawn from members other than the writer and reader,
   so the alternation keeps running; an episode that has not finished
   1000 rounds after the scenario fired counts as failed.

   Correctness. The history is sequential: a read is submitted after the
   write it follows completed, and the next write after that read
   completed. A sequential history is atomic iff every read returns the
   value of the latest preceding write, which for this alternation is the
   write of its own pair. Every read that ends before the scenario fires
   is held to that, so in steady and wide every read is. Reads that end
   after it are held to less, because the register loses writes made
   after a replacement to a register written before it: the new
   configuration's write tags do not order above the old ones, so reads
   keep returning the last value written before the replacement. Such a
   read must return a value (never None), one written by a write
   submitted before the read ended, and one no older than any earlier
   read returned: no new-then-old inversion, and the values read before
   the scenario survive it.

   Usage: bench.exe --workload W --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. --trace 0 reports the
   end-to-end metrics; --trace 1 reports the per-layer metrics and times
   the benchmark's calls into each layer. *)

open Sim
open Reconfig
module Reg = Register.Register_service

type scenario = Steady | Reconfigure | Churn

let workloads =
  [
    ("steady", (Steady, 8));
    ("reconfig", (Reconfigure, 8));
    ("churn", (Churn, 8));
    ("wide", (Steady, 12));
  ]

let warm_rounds = 25
let writer = 1
let reader = 3
let register = "r"
let pairs = 5
let fault_round = 10
let crash_delay = 2
let fault_budget = 1_000
let now = Unix.gettimeofday

(* Processor time of this process: throughput and set-up are timed with
   it, so other load on the machine does not enter them. *)
let cpu = Sys.time

type op = {
  pair : int;  (** the pair's value and both operations' rid *)
  is_write : bool;
  submit_time : float;  (** virtual time *)
  mutable done_time : float;
  mutable result : int option;
}

type episode = {
  sys : (Reg.state, Reg.msg) Stack.t;
  nodes : int;
  rng : Rng.t;
  mutable pending : op option;
  mutable next_pair : int;
  mutable last_pair : int;  (** no pair after this one is started *)
  mutable waiting : Pid.t list;  (** joiners not yet participants *)
  mutable crash_due : bool;  (** churn victims not yet crashed *)
  mutable crashed : Pid.Set.t;
  mutable target : Pid.Set.t option;  (** configuration still to install *)
  mutable fault_time : float option;
  mutable recovery : float option;  (** virtual time from fault to settled *)
  mutable completed : op list;
}

let app ep p = (Stack.node ep.sys p).Stack.app

let hooks = function
  | Steady | Reconfigure -> Reg.hooks ()
  | Churn -> { (Reg.hooks ()) with Stack.eval_conf = Stack.default_eval_conf () }

let setup scenario nodes seed =
  let sys = Stack.of_scenario ~hooks:(hooks scenario) (Scenario.make ~seed ~nodes ()) in
  Stack.run_rounds sys warm_rounds;
  sys

let submit ep ~pair ~is_write =
  if is_write then Reg.write (app ep writer) ~rid:pair register pair
  else Reg.read (app ep reader) ~rid:pair register;
  ep.pending <-
    Some
      {
        pair;
        is_write;
        submit_time = Engine.time (Stack.engine ep.sys);
        done_time = Float.nan;
        result = None;
      }

(* Collect the completion of the operation in flight, then start the next
   one: the read of the same pair after a write, the next pair's write
   after a read. *)
let poll ep =
  match ep.pending with
  | None ->
    if ep.next_pair <= ep.last_pair then begin
      submit ep ~pair:ep.next_pair ~is_write:true;
      ep.next_pair <- ep.next_pair + 1
    end
  | Some op ->
    let finished =
      if op.is_write then Reg.write_done (app ep writer) ~rid:op.pair
      else
        match Reg.find_read (app ep reader) ~rid:op.pair with
        | Some result ->
          op.result <- result;
          true
        | None -> false
    in
    if finished then begin
      op.done_time <- Engine.time (Stack.engine ep.sys);
      ep.completed <- op :: ep.completed;
      ep.pending <- None;
      if op.is_write then submit ep ~pair:op.pair ~is_write:false
      else if ep.next_pair <= ep.last_pair then begin
        submit ep ~pair:ep.next_pair ~is_write:true;
        ep.next_pair <- ep.next_pair + 1
      end
    end

let inject ep = function
  | Steady -> ()
  | Reconfigure -> ep.target <- Some (Pid.set_of_list (Scenario.default_members (ep.nodes - 1)))
  | Churn ->
    let joiners = [ ep.nodes + 1; ep.nodes + 2 ] in
    List.iter (Stack.add_joiner ep.sys) joiners;
    ep.waiting <- joiners;
    ep.crash_due <- true

let crash_victims ep =
  let candidates =
    List.filter (fun p -> p <> writer && p <> reader) (Scenario.default_members ep.nodes)
  in
  let victims = List.filteri (fun i _ -> i < (ep.nodes + 3) / 4) (Rng.shuffle ep.rng candidates) in
  ep.crash_due <- false;
  List.iter
    (fun p ->
      Stack.crash ep.sys p;
      ep.crashed <- Pid.Set.add p ep.crashed)
    victims

(* One round of scenario progress: joiners that became participants stop
   being awaited, and the target configuration is proposed until it is
   installed. recSA accepts a proposal only while no reconfiguration is
   under way and the target differs from the current configuration, so
   proposing every round is safe. *)
let advance ep =
  ep.waiting <-
    List.filter (fun p -> not (Recsa.is_participant (Stack.node ep.sys p).Stack.sa)) ep.waiting;
  match ep.target with
  | None -> ()
  | Some target ->
    if Option.equal Pid.Set.equal (Stack.uniform_config ep.sys) (Some target)
       && Stack.quiescent ep.sys
    then ep.target <- None
    else ignore (Stack.estab ep.sys writer target)

(* The scenario has played out and the scheme is quiescent in a
   configuration of live processors. *)
let settled ep =
  Option.is_none ep.target && ep.waiting = [] && (not ep.crash_due) && Stack.quiescent ep.sys
  &&
  match Stack.uniform_config ep.sys with
  | Some conf -> Pid.Set.disjoint conf ep.crashed
  | None -> false

(* Once the scenario settled, the alternation runs [pairs] more pairs. *)
let note_recovery ep =
  match (ep.fault_time, ep.recovery) with
  | Some t0, None when settled ep ->
    ep.recovery <- Some (Engine.time (Stack.engine ep.sys) -. t0);
    ep.last_pair <- ep.next_pair + pairs - 1
  | _ -> ()

(* Reads that violate the register's guarantees; see the header. Pair
   values increase, so a read returning [v] saw the write of pair [v]. *)
let check ep =
  let before_fault op =
    match ep.fault_time with Some t -> op.done_time < t | None -> true
  in
  let reads = List.filter (fun op -> not op.is_write) (List.rev ep.completed) in
  let bad, _ =
    List.fold_left
      (fun (bad, newest) op ->
        let ok, seen =
          match op.result with
          | None -> (false, newest)
          | Some v when before_fault op -> (v = op.pair, v)
          | Some v -> (v <= op.pair && v >= newest, max v newest)
        in
        ((if ok then bad else bad + 1), seen))
      (0, 0) reads
  in
  bad

(* Telemetry counters read per layer: metric, family, [kind] label. *)
let tracked =
  [
    ("sent", "stack.sent", None);
    ("sa_sent", "stack.sent", Some "sa");
    ("ma_sent", "stack.sent", Some "ma");
    ("app_sent", "stack.sent", Some "app");
    ("heartbeat_sent", "stack.sent", Some "heartbeat");
    ("counter_aborts", "counter.aborts", None);
    ("conflicts", "recsa.conflicts", None);
    ("resets", "recsa.resets", None);
    ("installs", "recsa.installs", None);
    ("triggers", "recma.triggers", None);
  ]

let read_tracked tele =
  let all = Telemetry.counters tele in
  List.map
    (fun (metric, family, kind) ->
      let matches (name, labels, _) =
        String.equal name family
        && match kind with None -> true | Some k -> List.mem ("kind", k) labels
      in
      (metric, List.fold_left (fun acc ((_, _, v) as c) -> if matches c then acc + v else acc) 0 all))
    tracked

type totals = {
  mutable episodes : int;
  mutable attempted : int;
  mutable failed : int;
  mutable unfinished : int;  (** episodes that ran out of rounds *)
  mutable latencies : float list;
  mutable rates : float list;  (** completed operations per processor second *)
  mutable setups : float list;
  mutable recoveries : float list;
  mutable steps : int;
  mutable minor_words : float;
  mutable register_aborts : int;
  mutable tag_sum : float;  (** counter increments (write tags): latency sum *)
  mutable tag_count : int;
  counts : (string, int) Hashtbl.t;  (** [tracked] deltas over traffic *)
  engine_s : float ref;
  client_s : float ref;
  scenario_s : float ref;
}

let totals () =
  {
    episodes = 0;
    attempted = 0;
    failed = 0;
    unfinished = 0;
    latencies = [];
    rates = [];
    setups = [];
    recoveries = [];
    steps = 0;
    minor_words = 0.0;
    register_aborts = 0;
    tag_sum = 0.0;
    tag_count = 0;
    counts = Hashtbl.create 16;
    engine_s = ref 0.0;
    client_s = ref 0.0;
    scenario_s = ref 0.0;
  }

(* [f ()], its wall time added to [acc] when tracing. *)
let span ~trace acc f =
  if trace then begin
    let t0 = now () in
    let r = f () in
    acc := !acc +. (now () -. t0);
    r
  end
  else f ()

let run_episode ~scenario ~nodes ~trace tot seed =
  let t0 = cpu () in
  let sys = setup scenario nodes seed in
  tot.setups <- (cpu () -. t0) :: tot.setups;
  let ep =
    {
      sys;
      nodes;
      rng = Rng.create (seed + 1);
      pending = None;
      next_pair = 1;
      last_pair = (if scenario = Steady then pairs else max_int);
      waiting = [];
      crash_due = false;
      crashed = Pid.Set.empty;
      target = None;
      fault_time = None;
      recovery = None;
      completed = [];
    }
  in
  let eng = Stack.engine sys in
  let tele = Engine.telemetry eng in
  let before = read_tracked tele in
  let steps0 = Engine.steps eng in
  let words0 = Gc.minor_words () in
  let t1 = cpu () in
  (* one round, the client polled after every step as E16's run_until does *)
  let round () =
    let target = Engine.rounds eng + 1 in
    let continue = ref true in
    while !continue && Engine.rounds eng < target do
      continue := span ~trace tot.engine_s (fun () -> Engine.step eng);
      span ~trace tot.client_s (fun () -> poll ep)
    done
  in
  let finished () = Option.is_none ep.pending && ep.next_pair > ep.last_pair in
  let r = ref 0 in
  while (not (finished ())) && !r <= fault_round + fault_budget do
    span ~trace tot.scenario_s (fun () ->
        if !r = fault_round && scenario <> Steady then begin
          ep.fault_time <- Some (Engine.time eng);
          inject ep scenario
        end;
        if !r = fault_round + crash_delay && scenario = Churn then crash_victims ep;
        advance ep;
        note_recovery ep);
    round ();
    incr r
  done;
  tot.rates <- (float_of_int (List.length ep.completed) /. (cpu () -. t1)) :: tot.rates;
  tot.minor_words <- tot.minor_words +. (Gc.minor_words () -. words0);
  tot.steps <- tot.steps + (Engine.steps eng - steps0);
  List.iter2
    (fun (metric, a) (_, b) ->
      let sum = Option.value ~default:0 (Hashtbl.find_opt tot.counts metric) in
      Hashtbl.replace tot.counts metric (sum + b - a))
    before (read_tracked tele);
  let incomplete = if Option.is_some ep.pending then 1 else 0 in
  if not (finished ()) then tot.unfinished <- tot.unfinished + 1;
  tot.episodes <- tot.episodes + 1;
  tot.attempted <- tot.attempted + List.length ep.completed + incomplete;
  tot.failed <- tot.failed + incomplete + check ep;
  List.iter
    (fun op -> tot.latencies <- (op.done_time -. op.submit_time) :: tot.latencies)
    ep.completed;
  Option.iter (fun r -> tot.recoveries <- r :: tot.recoveries) ep.recovery;
  List.iter
    (fun p -> tot.register_aborts <- tot.register_aborts + Reg.aborts (app ep p))
    (Engine.pids eng);
  match Telemetry.find_histogram tele ~labels:[ ("op", "increment") ] "counter.op_seconds" with
  | Some h ->
    tot.tag_sum <- tot.tag_sum +. Telemetry.Histogram.sum h;
    tot.tag_count <- tot.tag_count + Telemetry.Histogram.count h
  | None -> ()

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the closest ranks of a sorted array. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(* Throughput and set-up time are read from the fastest tenth of the
   episodes: other load on the machine only ever slows an episode down,
   and it comes in phases of seconds that would move a median, while the
   episodes of a workload do like work. *)
let end_to_end tot =
  let lat = sorted tot.latencies in
  [
    ("ops_per_s", "1/s", quantile (sorted tot.rates) 0.9);
    ("op_p50_sim_s", "sim_s", quantile lat 0.5);
    ("op_p99_sim_s", "sim_s", quantile lat 0.99);
    ("setup_s", "s", quantile (sorted tot.setups) 0.1);
  ]

let per_layer tot =
  let ops = float_of_int (List.length tot.latencies) in
  let episodes = float_of_int tot.episodes in
  let count metric = float_of_int (Option.value ~default:0 (Hashtbl.find_opt tot.counts metric)) in
  let us_per_op s = 1e6 *. !s /. ops in
  let recovery = if tot.recoveries = [] then 0.0 else quantile (sorted tot.recoveries) 0.5 in
  [
    ("engine_us_per_op", "us", us_per_op tot.engine_s);
    ("client_us_per_op", "us", us_per_op tot.client_s);
    ("scenario_us_per_op", "us", us_per_op tot.scenario_s);
    ("step_ns", "ns", 1e9 *. !(tot.engine_s) /. float_of_int tot.steps);
    ("steps_per_op", "count", float_of_int tot.steps /. ops);
    ("minor_words_per_op", "words", tot.minor_words /. ops);
    ("sent_per_op", "count", count "sent" /. ops);
    ("sa_sent_per_op", "count", count "sa_sent" /. ops);
    ("ma_sent_per_op", "count", count "ma_sent" /. ops);
    ("app_sent_per_op", "count", count "app_sent" /. ops);
    ("heartbeat_sent_per_op", "count", count "heartbeat_sent" /. ops);
    ("counter_op_mean_sim_s", "sim_s", tot.tag_sum /. float_of_int (max 1 tot.tag_count));
    ("counter_aborts_per_kop", "count", 1000.0 *. count "counter_aborts" /. ops);
    ("register_aborts_per_kop", "count", 1000.0 *. float_of_int tot.register_aborts /. ops);
    ("conflicts_per_episode", "count", count "conflicts" /. episodes);
    ("resets_per_episode", "count", count "resets" /. episodes);
    ("installs_per_episode", "count", count "installs" /. episodes);
    ("triggers_per_episode", "count", count "triggers" /. episodes);
    ("recovery_sim_s", "sim_s", recovery);
    ("episodes", "count", episodes);
  ]

let usage = "bench.exe --workload steady|reconfig|churn|wide --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  workload name");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_int seconds, "S  measuring time");
      ("--trace", Arg.Set_int trace, "0|1  per-layer metrics instead of end-to-end");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let scenario, nodes =
    match List.assoc_opt !workload workloads with
    | Some w when !seconds >= 1 && (!trace = 0 || !trace = 1) -> w
    | Some _ | None ->
      prerr_endline usage;
      exit 2
  in
  let trace = !trace = 1 in
  let master = Rng.create !seed in
  let tot = totals () in
  let deadline = now () +. float_of_int !seconds in
  while tot.episodes = 0 || now () < deadline do
    run_episode ~scenario ~nodes ~trace tot (Rng.int master 0x3fff_ffff)
  done;
  let metrics = if trace then per_layer tot else end_to_end tot in
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  let correct = finite && tot.failed = 0 && tot.unfinished = 0 in
  Printf.eprintf "perfbench %s: %d episodes, %d ops attempted, %d failed, %d unfinished\n%!"
    !workload tot.episodes tot.attempted tot.failed tot.unfinished;
  let metric (name, unit, v) =
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
      (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
      unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct tot.attempted tot.failed
    (String.concat ", " (List.map metric metrics))
