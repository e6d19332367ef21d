(* Tests for virtually synchronous SMR (Algorithms 4.6/4.7), the shared
   memory emulation, and the non-stabilizing baseline comparator. *)

open Sim
open Vs

let set = Pid.set_of_list

(* An integer-accumulator state machine. *)
let machine = { Vs_service.initial = 0; apply = (fun s c -> s + c) }

let app sys p = (Reconfig.Stack.node sys p).Reconfig.Stack.app

let make_vs ?(seed = 42) ?(n = 4) ?eval_config () =
  let members = List.init n (fun i -> i + 1) in
  Reconfig.Stack.of_scenario
    ~hooks:(Vs_service.hooks ~machine ?eval_config ())
    (Reconfig.Scenario.make ~seed ~n_bound:16 ~members ())

let wait_for_view sys =
  Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
      List.for_all
        (fun (_, n) ->
          let st = n.Reconfig.Stack.app in
          Vs_service.status_of st = Vs_service.Multicast
          && (Vs_service.current_view st).Vs_service.vid <> None)
        (Reconfig.Stack.live_nodes t))

let replicas_equal sys v =
  List.for_all
    (fun (_, n) -> Vs_service.replica n.Reconfig.Stack.app = v)
    (Reconfig.Stack.live_nodes sys)

let test_view_established () =
  let sys = make_vs () in
  Alcotest.(check bool) "every node reaches a real view" true (wait_for_view sys);
  (* all nodes agree on the view *)
  let views =
    List.map (fun (_, n) -> Vs_service.current_view n.Reconfig.Stack.app)
      (Reconfig.Stack.live_nodes sys)
  in
  match views with
  | first :: rest ->
    Alcotest.(check bool) "views agree" true
      (List.for_all (Vs_service.view_equal first) rest)
  | [] -> Alcotest.fail "no nodes"

let test_exactly_one_coordinator () =
  let sys = make_vs ~seed:2 () in
  Alcotest.(check bool) "view" true (wait_for_view sys);
  Reconfig.Stack.run_rounds sys 10;
  let coordinators =
    List.filter (fun (_, n) -> Vs_service.is_coordinator n.Reconfig.Stack.app)
      (Reconfig.Stack.live_nodes sys)
  in
  Alcotest.(check int) "exactly one coordinator" 1 (List.length coordinators)

let test_multicast_delivers_everywhere () =
  let sys = make_vs ~seed:3 () in
  Alcotest.(check bool) "view" true (wait_for_view sys);
  Vs_service.submit (app sys 1) 7;
  Vs_service.submit (app sys 2) 11;
  Vs_service.submit (app sys 4) 13;
  Alcotest.(check bool) "all replicas reach 31" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t -> replicas_equal t 31))

let test_delivery_order_agreement () =
  let sys = make_vs ~seed:4 () in
  Alcotest.(check bool) "view" true (wait_for_view sys);
  List.iteri (fun i v -> Vs_service.submit (app sys (1 + (i mod 4))) v)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  Alcotest.(check bool) "all replicas reach 36" true
    (Reconfig.Stack.run_until sys ~max_steps:900_000 (fun t -> replicas_equal t 36));
  (* virtual synchrony: all view members delivered the same sequence *)
  Reconfig.Stack.run_rounds sys 10;
  let logs =
    List.map (fun (_, n) -> Vs_service.delivered n.Reconfig.Stack.app)
      (Reconfig.Stack.live_nodes sys)
  in
  match logs with
  | first :: rest ->
    List.iter
      (fun l -> Alcotest.(check (list int)) "identical delivery order" first l)
      rest
  | [] -> Alcotest.fail "no logs"

let test_coordinator_crash_recovery () =
  let sys = make_vs ~seed:5 () in
  Alcotest.(check bool) "view" true (wait_for_view sys);
  Vs_service.submit (app sys 1) 5;
  Alcotest.(check bool) "state propagated" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t -> replicas_equal t 5));
  (* kill the coordinator *)
  let crd, _ =
    List.find (fun (_, n) -> Vs_service.is_coordinator n.Reconfig.Stack.app)
      (Reconfig.Stack.live_nodes sys)
  in
  Reconfig.Stack.crash sys crd;
  (* a new coordinator must emerge and the state machine must keep going *)
  let survivor = List.find (fun p -> p <> crd) [ 1; 2; 3; 4 ] in
  Vs_service.submit (app sys survivor) 20;
  Alcotest.(check bool) "service resumes with state preserved" true
    (Reconfig.Stack.run_until sys ~max_steps:900_000 (fun t ->
         List.for_all
           (fun (_, n) -> Vs_service.replica n.Reconfig.Stack.app = 25)
           (Reconfig.Stack.live_nodes t)))

let test_joiner_gets_state () =
  let sys = make_vs ~seed:6 () in
  Alcotest.(check bool) "view" true (wait_for_view sys);
  Vs_service.submit (app sys 1) 42;
  Alcotest.(check bool) "state propagated" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t -> replicas_equal t 42));
  Reconfig.Stack.add_joiner sys 9;
  Alcotest.(check bool) "joiner enters the view with the state" true
    (Reconfig.Stack.run_until sys ~max_steps:900_000 (fun t ->
         Vs_service.replica (app t 9) = 42
         && Vs_service.status_of (app t 9) = Vs_service.Multicast))

let test_coordinator_led_reconfiguration () =
  (* Algorithm 4.6: after a joiner arrives, the coordinator suspends,
     reconfigures to include it, and the replica state survives
     (Theorem 4.13). *)
  let want = ref false in
  let eval_config ~self:_ ~trusted:_ _ = !want in
  let sys = make_vs ~seed:7 ~eval_config () in
  Alcotest.(check bool) "view" true (wait_for_view sys);
  Vs_service.submit (app sys 2) 16;
  Alcotest.(check bool) "state propagated" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t -> replicas_equal t 16));
  Reconfig.Stack.add_joiner sys 9;
  Alcotest.(check bool) "joiner participates" true
    (Reconfig.Stack.run_until sys ~max_steps:900_000 (fun t ->
         Reconfig.Recsa.is_participant (Reconfig.Stack.node t 9).Reconfig.Stack.sa));
  want := true;
  let reconfigured t =
    match Reconfig.Stack.uniform_config t with
    | Some c -> Pid.Set.mem 9 c
    | None -> false
  in
  Alcotest.(check bool) "configuration now includes the joiner" true
    (Reconfig.Stack.run_until sys ~max_steps:1_500_000 reconfigured);
  want := false;
  (* service resumes and the state survived the reconfiguration *)
  Vs_service.submit (app sys 9) 100;
  Alcotest.(check bool) "state preserved and service resumed" true
    (Reconfig.Stack.run_until sys ~max_steps:900_000 (fun t ->
         List.for_all
           (fun (_, n) -> Vs_service.replica n.Reconfig.Stack.app = 116)
           (Reconfig.Stack.live_nodes t)));
  let tr = Engine.trace (Reconfig.Stack.engine sys) in
  Alcotest.(check bool) "suspend observed" true (Trace.count tr "vs.suspend" >= 1);
  Alcotest.(check bool) "reconfigure observed" true (Trace.count tr "vs.reconfigure" >= 1)

(* --- virtual-synchrony audit --- *)

let audit sys =
  let journals =
    List.map
      (fun (p, n) -> Vs_checker.journal_of_state p n.Reconfig.Stack.app)
      (Reconfig.Stack.live_nodes sys)
  in
  Vs_checker.check journals

let test_audit_steady_run () =
  let sys = make_vs ~seed:71 () in
  Alcotest.(check bool) "view" true (wait_for_view sys);
  List.iteri (fun i v -> Vs_service.submit (app sys (1 + (i mod 4))) v)
    [ 3; 1; 4; 1; 5; 9; 2; 6 ];
  Alcotest.(check bool) "delivered" true
    (Reconfig.Stack.run_until sys ~max_steps:900_000 (fun t -> replicas_equal t 31));
  match audit sys with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_audit_across_coordinator_crash () =
  let sys = make_vs ~seed:72 () in
  Alcotest.(check bool) "view" true (wait_for_view sys);
  Vs_service.submit (app sys 1) 100;
  Alcotest.(check bool) "first delivered" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t -> replicas_equal t 100));
  let crd, _ =
    List.find (fun (_, n) -> Vs_service.is_coordinator n.Reconfig.Stack.app)
      (Reconfig.Stack.live_nodes sys)
  in
  Reconfig.Stack.crash sys crd;
  let survivor = List.find (fun p -> p <> crd) [ 1; 2; 3; 4 ] in
  Vs_service.submit (app sys survivor) 11;
  Alcotest.(check bool) "resumes" true
    (Reconfig.Stack.run_until sys ~max_steps:900_000 (fun t ->
         List.for_all
           (fun (_, n) -> Vs_service.replica n.Reconfig.Stack.app = 111)
           (Reconfig.Stack.live_nodes t)));
  match audit sys with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_audit_detects_violations () =
  (* hand-crafted journals that violate per-view agreement *)
  let view set = { Vs_service.vid = None; vset = Pid.set_of_list set } in
  let j1 = { Vs_checker.pid = 1; batches = [ (view [ 1; 2 ], [ (1, "a") ]) ] } in
  let j2 = { Vs_checker.pid = 2; batches = [ (view [ 1; 2 ], [ (1, "b") ]) ] } in
  (match Vs_checker.check [ j1; j2 ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "conflicting views not detected");
  (* order reversal must be detected too *)
  let j3 =
    { Vs_checker.pid = 3;
      batches = [ (view [ 3; 4 ], [ (3, "x") ]); (view [ 3; 4 ], [ (4, "y") ]) ] }
  in
  let j4 =
    { Vs_checker.pid = 4;
      batches = [ (view [ 3; 4 ], [ (4, "y") ]); (view [ 3; 4 ], [ (3, "x") ]) ] }
  in
  match Vs_checker.check [ j3; j4 ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "order reversal not detected"

(* --- shared memory emulation --- *)

let make_shm ?(seed = 42) ?(n = 4) () =
  let members = List.init n (fun i -> i + 1) in
  Reconfig.Stack.of_scenario ~hooks:(Shared_memory.hooks ())
    (Reconfig.Scenario.make ~seed ~n_bound:16 ~members ())

let all_in_multicast_view t =
  List.for_all
    (fun (_, n) ->
      let st = n.Reconfig.Stack.app in
      Vs_service.status_of st = Vs_service.Multicast
      && (Vs_service.current_view st).Vs_service.vid <> None)
    (Reconfig.Stack.live_nodes t)

let shm_wait_view sys = Reconfig.Stack.run_until sys ~max_steps:600_000 all_in_multicast_view

let test_shm_write_read () =
  let sys = make_shm () in
  Alcotest.(check bool) "view" true (shm_wait_view sys);
  Shared_memory.write (app sys 1) ~writer:1 "x" 17;
  Alcotest.(check bool) "write visible everywhere" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         List.for_all
           (fun (_, n) -> Shared_memory.peek n.Reconfig.Stack.app "x" = Some 17)
           (Reconfig.Stack.live_nodes t)));
  Shared_memory.read (app sys 3) ~reader:3 ~rid:1 "x";
  Alcotest.(check bool) "read returns the written value" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Shared_memory.read_result (app t 3) ~reader:3 ~rid:1 = Some (Some 17)))

let test_shm_read_unwritten () =
  let sys = make_shm ~seed:8 () in
  Alcotest.(check bool) "view" true (shm_wait_view sys);
  Shared_memory.read (app sys 2) ~reader:2 ~rid:7 "nothing";
  Alcotest.(check bool) "read of unwritten register resolves to None" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Shared_memory.read_result (app t 2) ~reader:2 ~rid:7 = Some None))

let test_shm_two_writers_converge () =
  let sys = make_shm ~seed:9 () in
  Alcotest.(check bool) "view" true (shm_wait_view sys);
  Shared_memory.write (app sys 1) ~writer:1 "r" 1;
  Shared_memory.write (app sys 2) ~writer:2 "r" 2;
  Alcotest.(check bool) "all nodes agree on the final value" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         let vals =
           List.map (fun (_, n) -> Shared_memory.peek n.Reconfig.Stack.app "r")
             (Reconfig.Stack.live_nodes t)
         in
         match vals with
         | (Some v) :: rest -> (v = 1 || v = 2) && List.for_all (( = ) (Some v)) rest
         | _ -> false))

let test_shm_cas () =
  let sys = make_shm ~seed:10 () in
  Alcotest.(check bool) "view" true (shm_wait_view sys);
  (* CAS on an unwritten register with expected None succeeds *)
  Shared_memory.compare_and_set (app sys 1) ~writer:1 ~rid:1 "c" ~expected:None 5;
  Alcotest.(check bool) "first cas resolves" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Shared_memory.cas_result (app t 1) ~writer:1 ~rid:1 <> None));
  Alcotest.(check (option bool)) "first cas succeeded" (Some true)
    (Shared_memory.cas_result (app sys 1) ~writer:1 ~rid:1);
  (* two contending CAS from the same base: exactly one wins *)
  Shared_memory.compare_and_set (app sys 2) ~writer:2 ~rid:1 "c" ~expected:(Some 5) 20;
  Shared_memory.compare_and_set (app sys 3) ~writer:3 ~rid:1 "c" ~expected:(Some 5) 30;
  (* every value any replica holds from here on, checked at every step *)
  let held = Hashtbl.create 4 in
  let note t =
    List.iter
      (fun (p, _) ->
        match Shared_memory.peek (app t p) "c" with
        | Some v -> Hashtbl.replace held v ()
        | None -> ())
      (Reconfig.Stack.live_nodes t)
  in
  Alcotest.(check bool) "both resolve" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         note t;
         Shared_memory.cas_result (app t 2) ~writer:2 ~rid:1 <> None
         && Shared_memory.cas_result (app t 3) ~writer:3 ~rid:1 <> None));
  let r2 = Shared_memory.cas_result (app sys 2) ~writer:2 ~rid:1 in
  let r3 = Shared_memory.cas_result (app sys 3) ~writer:3 ~rid:1 in
  Alcotest.(check bool) "exactly one winner" true (r2 <> r3);
  let winner, loser = if r2 = Some true then (20, 30) else (30, 20) in
  (* [peek] is a local snapshot, not a linearizable read: node 4 may lag
     the step in which the results resolve, so wait for it *)
  Alcotest.(check bool) "register holds the winner's value" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         note t;
         Shared_memory.peek (app t 4) "c" = Some winner));
  Alcotest.(check bool) "no replica ever holds the loser's value" false
    (Hashtbl.mem held loser)

(* --- SMR facade: at-most-once client semantics --- *)

let smr_machine = { Vs_service.initial = 0; apply = (fun s c -> s + c) }

let make_smr ?(seed = 42) ?(n = 4) () =
  let members = List.init n (fun i -> i + 1) in
  Reconfig.Stack.of_scenario
    ~hooks:(Smr.hooks ~machine:smr_machine ())
    (Reconfig.Scenario.make ~seed ~n_bound:16 ~members ())

let smr_wait_view sys =
  Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
      List.for_all
        (fun (_, n) ->
          Vs_service.status_of n.Reconfig.Stack.app = Vs_service.Multicast
          && (Vs_service.current_view n.Reconfig.Stack.app).Vs_service.vid <> None)
        (Reconfig.Stack.live_nodes t))

let test_smr_at_most_once () =
  let sys = make_smr ~seed:11 () in
  Alcotest.(check bool) "view" true (smr_wait_view sys);
  (* a client retries the same command id three times: applied once *)
  Smr.submit (app sys 1) ~client:1 ~cid:1 100;
  Smr.submit (app sys 1) ~client:1 ~cid:1 100;
  Smr.submit (app sys 2) ~client:1 ~cid:1 100;
  Alcotest.(check bool) "applied exactly once everywhere" true
    (Reconfig.Stack.run_until sys ~max_steps:900_000 (fun t ->
         List.for_all
           (fun (_, n) ->
             Smr.inner (Vs_service.replica n.Reconfig.Stack.app) = 100
             && Smr.applied_up_to (Vs_service.replica n.Reconfig.Stack.app) ~client:1 = 1)
           (Reconfig.Stack.live_nodes t)));
  Reconfig.Stack.run_rounds sys 20;
  Alcotest.(check bool) "retries never double-apply" true
    (List.for_all
       (fun (_, n) -> Smr.inner (Vs_service.replica n.Reconfig.Stack.app) = 100)
       (Reconfig.Stack.live_nodes sys))

let test_smr_retry_after_coordinator_crash () =
  let sys = make_smr ~seed:12 () in
  Alcotest.(check bool) "view" true (smr_wait_view sys);
  Smr.submit (app sys 1) ~client:1 ~cid:1 7;
  Alcotest.(check bool) "first committed" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Smr.applied_up_to (Vs_service.replica (app t 1)) ~client:1 >= 1));
  (* the coordinator dies; the client, unsure, retries cid 1 and sends
     cid 2 at a survivor *)
  let crd, _ =
    List.find (fun (_, n) -> Vs_service.is_coordinator n.Reconfig.Stack.app)
      (Reconfig.Stack.live_nodes sys)
  in
  Reconfig.Stack.crash sys crd;
  let survivor = List.find (fun p -> p <> crd) [ 1; 2; 3; 4 ] in
  Smr.submit (app sys survivor) ~client:1 ~cid:1 7;
  Smr.submit (app sys survivor) ~client:1 ~cid:2 3;
  Alcotest.(check bool) "exactly-once across the crash" true
    (Reconfig.Stack.run_until sys ~max_steps:1_200_000 (fun t ->
         List.for_all
           (fun (_, n) ->
             let rs = Vs_service.replica n.Reconfig.Stack.app in
             Smr.inner rs = 10 && Smr.applied_up_to rs ~client:1 = 2)
           (Reconfig.Stack.live_nodes t)))

(* --- recovery from total corruption --- *)

(* Five write/read pairs on register "x", rids from [base]. A write is
   committed once its writer's own read returns it; another node's read,
   submitted in the same step, may be ordered before or after the write.
   Returns the last committed value, or [None] at the first pair that
   stalls or reads something else. *)
let committed_pairs sys ~base ~last =
  let rec go k last =
    if k > 5 then Some last
    else begin
      let writer = k and reader = k + 1 in
      let value = base + k and rid = base + k in
      Shared_memory.write (app sys writer) ~writer "x" value;
      Shared_memory.read (app sys writer) ~reader:writer ~rid "x";
      Shared_memory.read (app sys reader) ~reader ~rid "x";
      let own t = Shared_memory.read_result (app t writer) ~reader:writer ~rid in
      let other t = Shared_memory.read_result (app t reader) ~reader ~rid in
      let done_ =
        Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
            own t <> None && other t <> None)
      in
      if
        done_
        && own sys = Some (Some value)
        && (other sys = Some (Some value) || other sys = Some last)
      then go (k + 1) (Some value)
      else None
    end
  in
  go 1 last

(* Total corruption of an N = 8 shared memory: the VS layer must return to
   a common view and commit writes again. Seeds 2 and 7 stall unless a
   participant drops a Propose/Install status for the view it already
   entered (followers ignore such reports as stale, so the coordinator
   waits on them forever); seeds 4 and 7 stall after recovery unless the
   coordinator catches up with a member's corrupted, higher round (it
   waits for every member to echo its own round). *)
let test_recovers_from_total_corruption seed () =
  let sys =
    Reconfig.Stack.of_scenario ~hooks:(Shared_memory.hooks ())
      (Reconfig.Scenario.make ~seed ~n_bound:16 ~members:(List.init 8 (fun i -> i + 1)) ())
  in
  Alcotest.(check bool) "view" true (shm_wait_view sys);
  let last = committed_pairs sys ~base:100 ~last:None in
  Alcotest.(check bool) "committed before corruption" true (last <> None);
  Reconfig.Stack.corrupt_everything sys ~rng:(Rng.create seed);
  Alcotest.(check bool) "recovered" true
    (Reconfig.Stack.run_until sys ~max_steps:1_000_000 (fun t ->
         Reconfig.Stack.quiescent t && all_in_multicast_view t));
  Alcotest.(check bool) "committed after corruption" true
    (committed_pairs sys ~base:200 ~last:(Option.get last) <> None)

(* --- baseline comparator --- *)

let test_baseline_works_coherently () =
  let b = Baseline.Epoch_config.create ~seed:10 ~members:[ 1; 2; 3; 4 ] () in
  Baseline.Epoch_config.run_rounds b 10;
  Alcotest.(check bool) "healthy from coherent start" true (Baseline.Epoch_config.healthy b);
  Baseline.Epoch_config.reconfigure b 1 (set [ 1; 2; 3 ]);
  Baseline.Epoch_config.run_rounds b 30;
  Alcotest.(check (list int)) "reconfiguration propagates" [ 1; 2; 3 ]
    (Pid.Set.elements (Baseline.Epoch_config.config_of b 4))

let test_baseline_never_recovers () =
  let b = Baseline.Epoch_config.create ~seed:11 ~members:[ 1; 2; 3; 4 ] () in
  Baseline.Epoch_config.run_rounds b 10;
  (* one transient fault: a huge epoch carrying a configuration of departed
     processors *)
  Baseline.Epoch_config.corrupt b 2 ~epoch:1_000_000 ~config:(set [ 77; 88 ]);
  Baseline.Epoch_config.run_rounds b 100;
  Alcotest.(check bool) "garbage config wins everywhere" true
    (List.for_all
       (fun p -> Pid.Set.equal (Baseline.Epoch_config.config_of b p) (set [ 77; 88 ]))
       [ 1; 2; 3; 4 ]);
  Alcotest.(check bool) "never healthy again" false (Baseline.Epoch_config.healthy b)

let test_ssreconf_recovers_from_same_fault () =
  (* the same fault class injected into our scheme: recSA detects the dead
     configuration (type-4) and brute-force recovers *)
  let sys =
    Reconfig.Stack.of_scenario ~hooks:Reconfig.Stack.unit_hooks
      (Reconfig.Scenario.make ~seed:12 ~n_bound:16 ~members:[ 1; 2; 3; 4 ] ())
  in
  Reconfig.Stack.run_rounds sys 20;
  List.iter
    (fun (_, n) ->
      Reconfig.Recsa.corrupt n.Reconfig.Stack.sa
        ~config:(Reconfig.Config_value.Set (set [ 77; 88 ]))
        ())
    (Reconfig.Stack.live_nodes sys);
  Alcotest.(check bool) "recovers to a live configuration" true
    (Reconfig.Stack.run_until sys ~max_steps:900_000 (fun t ->
         match Reconfig.Stack.uniform_config t with
         | Some c -> Pid.Set.subset c (set [ 1; 2; 3; 4 ]) && Reconfig.Stack.quiescent t
         | None -> false))

let suites =
  [
    ( "vs.smr",
      [
        Alcotest.test_case "view established" `Quick test_view_established;
        Alcotest.test_case "one coordinator" `Quick test_exactly_one_coordinator;
        Alcotest.test_case "multicast delivers" `Quick test_multicast_delivers_everywhere;
        Alcotest.test_case "delivery order agreement" `Quick test_delivery_order_agreement;
        Alcotest.test_case "coordinator crash" `Quick test_coordinator_crash_recovery;
        Alcotest.test_case "joiner gets state" `Quick test_joiner_gets_state;
        Alcotest.test_case "coordinator-led reconfiguration" `Quick
          test_coordinator_led_reconfiguration;
      ] );
    ( "vs.audit",
      [
        Alcotest.test_case "steady run" `Quick test_audit_steady_run;
        Alcotest.test_case "across coordinator crash" `Quick test_audit_across_coordinator_crash;
        Alcotest.test_case "detects violations" `Quick test_audit_detects_violations;
      ] );
    ( "vs.sharedmem",
      [
        Alcotest.test_case "write then read" `Quick test_shm_write_read;
        Alcotest.test_case "read unwritten" `Quick test_shm_read_unwritten;
        Alcotest.test_case "two writers converge" `Quick test_shm_two_writers_converge;
        Alcotest.test_case "compare-and-set" `Quick test_shm_cas;
      ] );
    ( "vs.smr_facade",
      [
        Alcotest.test_case "at-most-once" `Quick test_smr_at_most_once;
        Alcotest.test_case "retry across coordinator crash" `Quick
          test_smr_retry_after_coordinator_crash;
      ] );
    ( "vs.corruption",
      List.init 10 (fun i ->
          let seed = i + 1 in
          Alcotest.test_case (Printf.sprintf "recovers, seed %d" seed) `Quick
            (test_recovers_from_total_corruption seed)) );
    ( "baseline",
      [
        Alcotest.test_case "works from coherent start" `Quick test_baseline_works_coherently;
        Alcotest.test_case "never recovers from transient fault" `Quick
          test_baseline_never_recovers;
        Alcotest.test_case "ssreconf recovers from same fault" `Quick
          test_ssreconf_recovers_from_same_fault;
      ] );
  ]
