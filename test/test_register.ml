(* Tests for the quorum-based MWMR register emulation (two-phase read/write
   with counter tags). *)

open Sim
open Register

let set = Pid.set_of_list

let make ?(seed = 42) ?(n = 4) ?loss ?(hooks = Register_service.hooks ()) () =
  let members = List.init n (fun i -> i + 1) in
  Reconfig.Stack.of_scenario ~hooks
    (Reconfig.Scenario.make ~seed ~n_bound:16 ?loss ~members ())

let app sys p = (Reconfig.Stack.node sys p).Reconfig.Stack.app

(* times of the [tag] events node [p] emitted at or after [since] *)
let event_times sys ~since p tag =
  List.filter_map
    (fun (e : Trace.entry) ->
      if e.node = Some p && e.time >= since then Some e.time else None)
    (Trace.with_tag (Engine.trace (Reconfig.Stack.engine sys)) tag)

let now sys = Engine.time (Reconfig.Stack.engine sys)

let app_sent sys =
  Telemetry.counter_value
    (Engine.telemetry (Reconfig.Stack.engine sys))
    ~labels:[ ("kind", "app") ] "stack.sent"

(* Step until node [p] emits a [tag] event; the number of service messages
   sent in that step. *)
let step_to_event sys p tag =
  let count () = List.length (event_times sys ~since:neg_infinity p tag) in
  let before = count () in
  let rec go k =
    if k = 0 then Alcotest.failf "node %d never emitted %s" p tag;
    let sent = app_sent sys in
    ignore (Engine.step (Reconfig.Stack.engine sys));
    if count () > before then app_sent sys - sent else go (k - 1)
  in
  go 600_000

let await_write sys p ~rid =
  Alcotest.(check bool) "write completes" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.write_done (app t p) ~rid))

let await_read sys p ~rid =
  Alcotest.(check bool) "read completes" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.find_read (app t p) ~rid <> None));
  Register_service.find_read (app sys p) ~rid

let holds sys p reg v =
  match Register_service.stored (app sys p) reg with
  | Some e -> e.Register_service.tv = v
  | None -> false

let test_write_then_read () =
  let sys = make () in
  Reconfig.Stack.run_rounds sys 20;
  Register_service.write (app sys 1) ~rid:1 "x" 33;
  Alcotest.(check bool) "write completes" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.write_done (app t 1) ~rid:1));
  Register_service.read (app sys 3) ~rid:1 "x";
  Alcotest.(check bool) "read completes" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.find_read (app t 3) ~rid:1 <> None));
  Alcotest.(check (option (option int))) "read returns the written value"
    (Some (Some 33))
    (Register_service.find_read (app sys 3) ~rid:1)

let test_read_unwritten () =
  let sys = make ~seed:2 () in
  Reconfig.Stack.run_rounds sys 20;
  Register_service.read (app sys 2) ~rid:5 "ghost";
  Alcotest.(check bool) "read completes" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.find_read (app t 2) ~rid:5 <> None));
  Alcotest.(check (option (option int))) "unwritten reads as None" (Some None)
    (Register_service.find_read (app sys 2) ~rid:5)

let test_last_writer_wins () =
  let sys = make ~seed:3 () in
  Reconfig.Stack.run_rounds sys 20;
  Register_service.write (app sys 1) ~rid:1 "r" 10;
  Alcotest.(check bool) "first write" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.write_done (app t 1) ~rid:1));
  Register_service.write (app sys 2) ~rid:1 "r" 20;
  Alcotest.(check bool) "second write" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.write_done (app t 2) ~rid:1));
  Register_service.read (app sys 4) ~rid:9 "r";
  Alcotest.(check bool) "read completes" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.find_read (app t 4) ~rid:9 <> None));
  Alcotest.(check (option (option int))) "sees the later write" (Some (Some 20))
    (Register_service.find_read (app sys 4) ~rid:9)

let test_concurrent_writers_agree () =
  let sys = make ~seed:4 () in
  Reconfig.Stack.run_rounds sys 20;
  Register_service.write (app sys 1) ~rid:1 "c" 100;
  Register_service.write (app sys 2) ~rid:1 "c" 200;
  Alcotest.(check bool) "both writes complete" true
    (Reconfig.Stack.run_until sys ~max_steps:900_000 (fun t ->
         Register_service.write_done (app t 1) ~rid:1
         && Register_service.write_done (app t 2) ~rid:1));
  (* two sequential reads at different nodes must agree on the winner *)
  Register_service.read (app sys 3) ~rid:1 "c";
  Alcotest.(check bool) "read 1" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.find_read (app t 3) ~rid:1 <> None));
  Register_service.read (app sys 4) ~rid:1 "c";
  Alcotest.(check bool) "read 2" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.find_read (app t 4) ~rid:1 <> None));
  let r3 = Register_service.find_read (app sys 3) ~rid:1 in
  let r4 = Register_service.find_read (app sys 4) ~rid:1 in
  Alcotest.(check bool) "one of the written values" true
    (r3 = Some (Some 100) || r3 = Some (Some 200));
  Alcotest.(check bool) "sequential reads agree" true (r3 = r4)

let test_read_monotonic_after_writeback () =
  (* atomicity: once a read returned v, any later read returns v or newer *)
  let sys = make ~seed:5 () in
  Reconfig.Stack.run_rounds sys 20;
  Register_service.write (app sys 1) ~rid:1 "m" 7;
  Alcotest.(check bool) "write" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.write_done (app t 1) ~rid:1));
  Register_service.read (app sys 2) ~rid:1 "m";
  Alcotest.(check bool) "read a" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.find_read (app t 2) ~rid:1 <> None));
  Register_service.read (app sys 3) ~rid:1 "m";
  Alcotest.(check bool) "read b" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.find_read (app t 3) ~rid:1 <> None));
  Alcotest.(check (option (option int))) "later read not older" (Some (Some 7))
    (Register_service.find_read (app sys 3) ~rid:1)

let test_value_survives_reconfiguration () =
  let sys = make ~seed:6 ~n:5 () in
  Reconfig.Stack.run_rounds sys 20;
  Register_service.write (app sys 1) ~rid:1 "s" 55;
  Alcotest.(check bool) "write" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.write_done (app t 1) ~rid:1));
  (* delicate replacement to a smaller configuration *)
  let target = set [ 2; 3; 4 ] in
  let rec propose k =
    if k = 0 then Alcotest.fail "estab never accepted"
    else if not (Reconfig.Stack.estab sys 2 target) then begin
      Reconfig.Stack.run_rounds sys 2;
      propose (k - 1)
    end
  in
  propose 60;
  Alcotest.(check bool) "reconfigured" true
    (Reconfig.Stack.run_until sys ~max_steps:1_200_000 (fun t ->
         Option.equal Pid.Set.equal (Reconfig.Stack.uniform_config t) (Some target)
         && Reconfig.Stack.quiescent t));
  (* the value is still readable in the new configuration *)
  Register_service.read (app sys 4) ~rid:2 "s";
  Alcotest.(check bool) "read in new config" true
    (Reconfig.Stack.run_until sys ~max_steps:900_000 (fun t ->
         Register_service.find_read (app t 4) ~rid:2 <> None));
  Alcotest.(check (option (option int))) "value survived" (Some (Some 55))
    (Register_service.find_read (app sys 4) ~rid:2)

let test_joiner_can_use_register () =
  let sys = make ~seed:7 () in
  Reconfig.Stack.run_rounds sys 20;
  Register_service.write (app sys 1) ~rid:1 "j" 9;
  Alcotest.(check bool) "write" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.write_done (app t 1) ~rid:1));
  Reconfig.Stack.add_joiner sys 9;
  Alcotest.(check bool) "joined" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Reconfig.Recsa.is_participant (Reconfig.Stack.node t 9).Reconfig.Stack.sa));
  Register_service.read (app sys 9) ~rid:1 "j";
  Alcotest.(check bool) "joiner's read completes" true
    (Reconfig.Stack.run_until sys ~max_steps:900_000 (fun t ->
         Register_service.find_read (app t 9) ~rid:1 <> None));
  Alcotest.(check (option (option int))) "joiner reads the value" (Some (Some 9))
    (Register_service.find_read (app sys 9) ~rid:1)

(* Updates also refresh the participants' copies, but only members'
   acknowledgments may complete them: with joiners 6 and 7 acknowledging,
   a write used to complete while only 2 of the 5 members stored it (seed
   35's first write). *)
let test_write_reaches_member_majority () =
  List.iter
    (fun seed ->
      let sys = make ~seed ~n:5 () in
      Reconfig.Stack.run_rounds sys 25;
      List.iter (Reconfig.Stack.add_joiner sys) [ 6; 7 ];
      let participating t p =
        Reconfig.Recsa.is_participant (Reconfig.Stack.node t p).Reconfig.Stack.sa
      in
      Alcotest.(check bool) "joiners participate" true
        (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
             participating t 6 && participating t 7));
      for i = 1 to 10 do
        Register_service.write (app sys 1) ~rid:i "q" i;
        Alcotest.(check bool) "write completes" true
          (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
               Register_service.write_done (app t 1) ~rid:i));
        let holders = List.filter (fun p -> holds sys p "q" i) [ 1; 2; 3; 4; 5 ] in
        if List.length holders < 3 then
          Alcotest.failf "seed %d write %d completed with %d of 5 members" seed i
            (List.length holders)
      done)
    [ 35; 11; 12 ]

(* A non-member's tag reaches the members' counter storage only through
   its write's update, since non-members do not gossip counters. A member
   writing afterwards must draw a greater tag, or a read would return the
   non-member's older value. *)
let test_member_write_after_non_member_write () =
  List.iter
    (fun seed ->
      let sys = make ~seed () in
      Reconfig.Stack.run_rounds sys 20;
      Reconfig.Stack.add_joiner sys 9;
      Alcotest.(check bool) "joined" true
        (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
             Reconfig.Recsa.is_participant (Reconfig.Stack.node t 9).Reconfig.Stack.sa));
      Register_service.write (app sys 9) ~rid:1 "n" 9;
      await_write sys 9 ~rid:1;
      Register_service.write (app sys 1) ~rid:1 "n" 1;
      await_write sys 1 ~rid:1;
      Register_service.read (app sys 3) ~rid:1 "n";
      Alcotest.(check (option (option int))) "the member's later write wins"
        (Some (Some 1)) (await_read sys 3 ~rid:1))
    [ 1; 2; 3; 4 ]

(* Corruption aborts only an operation that is running: corrupting an idle
   register counts no abort, and a write caught in its update round counts
   one, goes back to the queue and still completes. Values read after a
   corruption are not checked here. *)
let test_corruption_counts_running_aborts () =
  let corrupt = (Register_service.plugin ()).Reconfig.Stack.p_corrupt in
  List.iter
    (fun seed ->
      let sys = make ~seed () in
      Reconfig.Stack.run_rounds sys 20;
      let rng = Rng.create seed in
      corrupt rng (app sys 2);
      Alcotest.(check int) "an idle register counts no abort" 0
        (Register_service.aborts (app sys 2));
      Register_service.write (app sys 1) ~rid:1 "c" 5;
      ignore (step_to_event sys 1 "register.update");
      let before = Register_service.aborts (app sys 1) in
      corrupt rng (app sys 1);
      Alcotest.(check int) "the running write counts one abort" (before + 1)
        (Register_service.aborts (app sys 1));
      await_write sys 1 ~rid:1;
      Register_service.read (app sys 3) ~rid:1 "c";
      ignore (await_read sys 3 ~rid:1))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* A read whose query finds the newest entry at every replier returns
   after that one round trip. Without loss every member stores the write
   once it settled, so the read must not write back. *)
let test_fast_read () =
  List.iter
    (fun seed ->
      let sys = make ~seed ~loss:0.0 () in
      Reconfig.Stack.run_rounds sys 20;
      Register_service.write (app sys 1) ~rid:1 "f" 5;
      await_write sys 1 ~rid:1;
      Reconfig.Stack.run_rounds sys 5;
      Alcotest.(check bool) "every member stores the write" true
        (List.for_all (fun p -> holds sys p "f" 5) [ 1; 2; 3; 4 ]);
      let since = now sys in
      Register_service.read (app sys 3) ~rid:1 "f";
      Alcotest.(check (option (option int))) "read returns the value" (Some (Some 5))
        (await_read sys 3 ~rid:1);
      let query = event_times sys ~since 3 "register.query" in
      Alcotest.(check int) "one query round" 1 (List.length query);
      Alcotest.(check (list (float 0.0)))
        "the read returns when its query completes" query
        (event_times sys ~since 3 "register.read");
      Alcotest.(check (list (float 0.0)))
        "no write-back round" []
        (event_times sys ~since 3 "register.update"))
    [ 1; 2; 3 ]

(* Members 4 and 5 miss a write that completes on {1, 2, 3}, so a read at
   5 finds its own copy missing and must write the value back. Only that
   write-back can leave the value stored at 4, which is not the reader.
   The service layers of 4 and 5 drop every message from node 1: the write
   never reaches them, yet every link carries the scheme layers' traffic,
   so no detector suspects anyone and the read is never held by a
   reconfiguration. *)
let write_back_system seed =
  let hooks =
    let base = Register_service.hooks () in
    let recv view ~from m st =
      let self = view.Reconfig.Stack.v_self in
      if not (Pid.equal from 1 && (Pid.equal self 4 || Pid.equal self 5)) then
        base.Reconfig.Stack.plugin.Reconfig.Stack.p_recv view ~from m st
    in
    { base with plugin = { base.plugin with p_recv = recv } }
  in
  let sys = make ~seed ~n:5 ~hooks () in
  Reconfig.Stack.run_rounds sys 20;
  Register_service.write (app sys 1) ~rid:1 "b" 77;
  await_write sys 1 ~rid:1;
  Alcotest.(check bool) "4 missed the write" false (holds sys 4 "b" 77);
  Alcotest.(check bool) "5 missed the write" false (holds sys 5 "b" 77);
  let since = now sys in
  Register_service.read (app sys 5) ~rid:1 "b";
  (sys, since)

let await_written_back sys =
  Alcotest.(check bool) "4 stores the value written back" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t -> holds t 4 "b" 77))

(* seeds on which a partitioned version of this scenario hung *)
let write_back_seeds = [ 2; 8; 9; 10; 12; 14; 16 ]

let test_write_back () =
  List.iter
    (fun seed ->
      let sys, since = write_back_system seed in
      Alcotest.(check (option (option int))) "read returns the write" (Some (Some 77))
        (await_read sys 5 ~rid:1);
      Alcotest.(check int) "the read wrote back" 1
        (List.length (event_times sys ~since 5 "register.update"));
      await_written_back sys)
    write_back_seeds

(* Each round starts, and its requests leave, in the step that completes
   the one before it: a write's update in the step that delivers its tag,
   a read's write-back in the step that completes its query. Those steps
   are receipts, in which the register sends nothing else. *)
let test_pipelined_rounds () =
  let sys = make ~seed:9 () in
  Reconfig.Stack.run_rounds sys 20;
  let since = now sys in
  for rid = 1 to 4 do
    Register_service.write (app sys 1) ~rid "p" rid;
    Alcotest.(check int) "the update goes to the 3 other members at once" 3
      (step_to_event sys 1 "register.update");
    await_write sys 1 ~rid
  done;
  let tags = event_times sys ~since 1 "counter.increment" in
  Alcotest.(check int) "four tags" 4 (List.length tags);
  Alcotest.(check (list (float 0.0)))
    "each update starts when its tag arrives" tags
    (event_times sys ~since 1 "register.update");
  List.iter
    (fun seed ->
      let sys, since = write_back_system seed in
      Alcotest.(check int) "the write-back goes to the 4 other members at once" 4
        (step_to_event sys 5 "register.update");
      ignore (await_read sys 5 ~rid:1);
      let query = event_times sys ~since 5 "register.query" in
      Alcotest.(check int) "one query round" 1 (List.length query);
      Alcotest.(check (list (float 0.0)))
        "the write-back starts when the query completes" query
        (event_times sys ~since 5 "register.update");
      await_written_back sys)
    write_back_seeds

(* An operation starts in the first receipt step after it was queued:
   submitted right after its node's tick, a write's majRead (twice to the
   3 other members) and a read's query (to the 3 other members) leave
   before that node's next tick. *)
let test_ops_start_on_receipt () =
  let pr, plugin = Test_counter.probed (Register_service.plugin ()) in
  let sys = make ~seed:5 ~hooks:{ (Register_service.hooks ()) with plugin } () in
  Reconfig.Stack.run_rounds sys 20;
  let sent_between_ticks = Test_counter.sent_between_ticks pr sys in
  Alcotest.(check int) "the write's majRead leaves from a receipt" 6
    (sent_between_ticks 1 (fun () -> Register_service.write (app sys 1) ~rid:1 "x" 7));
  await_write sys 1 ~rid:1;
  (* let the write's last acknowledgments arrive: a quiet node again *)
  Reconfig.Stack.run_rounds sys 5;
  Alcotest.(check int) "the read's query leaves from a receipt" 3
    (sent_between_ticks 3 (fun () -> Register_service.read (app sys 3) ~rid:1 "x"));
  Alcotest.(check (option (option int))) "the read returns the write" (Some (Some 7))
    (await_read sys 3 ~rid:1)

(* A receipt with nothing to start sends nothing: over 20 quiet rounds of a
   steady N = 8 register cluster, no node sends from a receipt step, and
   the service traffic is the counter's gossip alone: one message to each
   of the 7 other members per member tick. *)
let test_idle_receipts_send_nothing () =
  let pr, plugin = Test_counter.probed (Register_service.plugin ()) in
  let sys = make ~seed:8 ~n:8 ~hooks:{ (Register_service.hooks ()) with plugin } () in
  let nodes = List.init 8 (fun i -> i + 1) in
  let ticks () = List.fold_left (fun acc p -> acc + Test_counter.count pr.Test_counter.ticks p) 0 nodes in
  Reconfig.Stack.run_rounds sys 25;
  let sent = app_sent sys and ticked = ticks () in
  Reconfig.Stack.run_rounds sys 20;
  Alcotest.(check int) "service messages over 20 quiet rounds: 7 per member tick"
    (7 * (ticks () - ticked))
    (app_sent sys - sent);
  Alcotest.(check (list int)) "no sends from receipt steps" []
    (List.filter (fun p -> Test_counter.count pr.Test_counter.receipt_sends p > 0) nodes)

(* One writer runs concurrently with two readers that take turns: no read
   may return a value older than a read that finished before it started,
   or than a write that completed before it started. *)
let test_monotonic_reads_concurrent_writer () =
  let writes = 8 and reads = 12 in
  List.iter
    (fun seed ->
      let sys = make ~seed ~n:5 () in
      Reconfig.Stack.run_rounds sys 20;
      let eng = Reconfig.Stack.engine sys in
      let written = ref 0 (* the newest completed write *)
      and returned = ref 0 (* the newest value a completed read returned *)
      and floor = ref 0 in
      let start_read rid =
        floor := max !written !returned;
        Register_service.read (app sys (2 + (rid mod 2))) ~rid "m"
      in
      Register_service.write (app sys 1) ~rid:1 "m" 1;
      start_read 1;
      (* reads go on until one started after the last write completed *)
      let rec go rid steps =
        if steps = 0 then Alcotest.failf "seed %d: operations stalled" seed;
        ignore (Engine.step eng);
        if !written < writes && Register_service.write_done (app sys 1) ~rid:(!written + 1)
        then begin
          incr written;
          if !written < writes then
            Register_service.write (app sys 1) ~rid:(!written + 1) "m" (!written + 1)
        end;
        match Register_service.find_read (app sys (2 + (rid mod 2))) ~rid with
        | None -> go rid (steps - 1)
        | Some result ->
          let v = Option.value result ~default:0 in
          if v < !floor then
            Alcotest.failf "seed %d: read %d returned %d, older than %d" seed rid v !floor;
          returned := max !returned v;
          if rid < reads || !floor < writes then begin
            start_read (rid + 1);
            go (rid + 1) (steps - 1)
          end
      in
      go 1 3_000_000;
      Alcotest.(check int) "last read sees the last write" writes !returned)
    [ 1; 2; 3; 4 ]

let suites =
  [
    ( "register",
      [
        Alcotest.test_case "write then read" `Quick test_write_then_read;
        Alcotest.test_case "read unwritten" `Quick test_read_unwritten;
        Alcotest.test_case "last writer wins" `Quick test_last_writer_wins;
        Alcotest.test_case "concurrent writers" `Quick test_concurrent_writers_agree;
        Alcotest.test_case "read monotonic" `Quick test_read_monotonic_after_writeback;
        Alcotest.test_case "survives reconfiguration" `Quick test_value_survives_reconfiguration;
        Alcotest.test_case "joiner can use register" `Quick test_joiner_can_use_register;
        Alcotest.test_case "write reaches a member majority" `Quick
          test_write_reaches_member_majority;
        Alcotest.test_case "fast read skips the write-back" `Quick test_fast_read;
        Alcotest.test_case "read writes back a missing value" `Quick test_write_back;
        Alcotest.test_case "rounds start in the completing step" `Quick
          test_pipelined_rounds;
        Alcotest.test_case "operations start on a receipt" `Quick test_ops_start_on_receipt;
        Alcotest.test_case "idle receipts send nothing" `Quick
          test_idle_receipts_send_nothing;
        Alcotest.test_case "monotonic reads, concurrent writer" `Quick
          test_monotonic_reads_concurrent_writer;
        Alcotest.test_case "a member's write after a non-member's write wins" `Quick
          test_member_write_after_non_member_write;
        Alcotest.test_case "corruption aborts only a running operation" `Quick
          test_corruption_counts_running_aborts;
      ] );
  ]
