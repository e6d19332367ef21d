(* Tests for the core reconfiguration scheme: notification/config values,
   recSA convergence (brute force + delicate replacement), recMA
   triggering, and the joining mechanism. *)

open Sim
open Reconfig

let qtest = QCheck_alcotest.to_alcotest
let set = Pid.set_of_list

(* --- Config_value and Notification unit tests --- *)

let test_config_value_basics () =
  let open Config_value in
  Alcotest.(check bool) "set eq" true (equal (Set (set [ 1; 2 ])) (Set (set [ 2; 1 ])));
  Alcotest.(check bool) "reset neq set" false (equal Reset (Set Pid.Set.empty));
  Alcotest.(check bool) "is_set" true (is_set (Set (set [ 1 ])));
  Alcotest.(check bool) "is_reset" true (is_reset Reset);
  Alcotest.(check bool) "not participant" true (is_not_participant Not_participant);
  Alcotest.(check (option (list int)))
    "to_set" (Some [ 1; 2 ])
    (Option.map Pid.Set.elements (to_set (Set (set [ 1; 2 ]))))

let test_notification_order () =
  let open Notification in
  let n1 = make P1 (set [ 1; 2 ]) in
  let n2 = make P1 (set [ 1; 3 ]) in
  let n3 = make P2 (set [ 1; 2 ]) in
  Alcotest.(check bool) "phase dominates" true (compare n1 n3 < 0);
  Alcotest.(check bool) "set breaks ties" true (compare n1 n2 < 0);
  Alcotest.(check bool) "default smallest" true (compare default n1 < 0);
  Alcotest.(check bool) "max picks largest" true
    (match max_of [ default; n1; n2 ] with Some m -> equal m n2 | None -> false);
  Alcotest.(check bool) "max of defaults is none" true (max_of [ default; default ] = None)

let test_notification_malformed () =
  let open Notification in
  Alcotest.(check bool) "default fine" false (malformed default);
  Alcotest.(check bool) "phase0 with set" true (malformed { phase = P0; set = Some (set [ 1 ]) });
  Alcotest.(check bool) "phase1 no set" true (malformed { phase = P1; set = None });
  Alcotest.(check bool) "phase1 empty set" true (malformed (make P1 Pid.Set.empty));
  Alcotest.(check bool) "phase2 ok" false (malformed (make P2 (set [ 1 ])))

let test_notification_degree () =
  let open Notification in
  Alcotest.(check int) "default, no all" 0 (degree default ~all:false);
  Alcotest.(check int) "phase1 + all" 3 (degree (make P1 (set [ 1 ])) ~all:true);
  Alcotest.(check int) "phase2" 4 (degree (make P2 (set [ 1 ])) ~all:false)

let prop_notification_max_is_upper_bound =
  QCheck.Test.make ~name:"maxNtf dominates every notification in the list"
    QCheck.(small_list (pair (int_range 0 2) (small_list (int_range 0 8))))
    (fun raw ->
      let ns =
        List.map
          (fun (ph, pids) ->
            let phase =
              match ph with 0 -> Notification.P0 | 1 -> Notification.P1 | _ -> Notification.P2
            in
            { Notification.phase; set = (if pids = [] then None else Some (set pids)) })
          raw
      in
      match Notification.max_of ns with
      | None -> List.for_all Notification.is_default ns
      | Some m ->
        List.for_all (fun n -> Notification.is_default n || Notification.compare n m <= 0) ns)

(* --- Stack-level integration --- *)

let make_system ?(seed = 42) ?(loss = 0.02) ?(n = 5) ?(hooks = Stack.unit_hooks) () =
  let members = List.init n (fun i -> i + 1) in
  Stack.of_scenario ~hooks (Scenario.make ~seed ~loss ~n_bound:16 ~members ())

let test_steady_state_quiescent () =
  let sys = make_system () in
  Stack.run_rounds sys 30;
  Alcotest.(check bool) "quiescent" true (Stack.quiescent sys);
  (match Stack.uniform_config sys with
  | Some c -> Alcotest.(check (list int)) "config = members" [ 1; 2; 3; 4; 5 ] (Pid.Set.elements c)
  | None -> Alcotest.fail "no uniform config");
  Alcotest.(check int) "no spurious resets" 0 (Stack.total_resets sys);
  Alcotest.(check int) "no spurious installs" 0 (Stack.total_installs sys)

let test_delicate_replacement () =
  let sys = make_system () in
  Stack.run_rounds sys 20;
  let target = set [ 1; 2; 3 ] in
  Alcotest.(check bool) "estab accepted" true (Stack.estab sys 1 target);
  let installed t =
    match Stack.uniform_config t with Some c -> Pid.Set.equal c target | None -> false
  in
  Alcotest.(check bool) "proposal installed everywhere" true
    (Stack.run_until sys ~max_steps:300_000 (fun t -> installed t && Stack.quiescent t));
  Alcotest.(check int) "no brute-force resets during delicate run" 0 (Stack.total_resets sys)

let test_concurrent_proposals_single_winner () =
  let sys = make_system ~seed:7 () in
  Stack.run_rounds sys 20;
  let a = set [ 1; 2; 3 ] and b = set [ 2; 3; 4 ] in
  let ok_a = Stack.estab sys 1 a in
  let ok_b = Stack.estab sys 4 b in
  Alcotest.(check bool) "both proposals accepted locally" true (ok_a && ok_b);
  let settled t =
    match Stack.uniform_config t with
    | Some c -> (Pid.Set.equal c a || Pid.Set.equal c b) && Stack.quiescent t
    | None -> false
  in
  Alcotest.(check bool) "exactly one proposal wins everywhere" true
    (Stack.run_until sys ~max_steps:400_000 settled)

let test_estab_rejected_mid_reconfiguration () =
  let sys = make_system ~seed:3 () in
  Stack.run_rounds sys 20;
  Alcotest.(check bool) "first accepted" true (Stack.estab sys 1 (set [ 1; 2; 3 ]));
  (* propagate the notification a bit, then a second proposal must bounce *)
  Stack.run_rounds sys 8;
  Alcotest.(check bool) "second rejected while reconfiguring" false
    (Stack.estab sys 2 (set [ 3; 4; 5 ]))

let test_estab_rejects_trivial () =
  let sys = make_system ~seed:4 () in
  Stack.run_rounds sys 20;
  Alcotest.(check bool) "same config rejected" false
    (Stack.estab sys 1 (set [ 1; 2; 3; 4; 5 ]));
  Alcotest.(check bool) "empty rejected" false (Stack.estab sys 1 Pid.Set.empty)

let test_brute_force_after_corruption () =
  let sys = make_system ~seed:11 () in
  Stack.run_rounds sys 20;
  let rng = Rng.create 123 in
  Stack.corrupt_everything sys ~rng;
  let rounds = Stack.run_until_quiescent sys ~max_rounds:400 in
  Alcotest.(check bool) "recovered to quiescence" true (rounds <> None);
  match Stack.uniform_config sys with
  | Some c ->
    Alcotest.(check bool) "config nonempty" false (Pid.Set.is_empty c);
    Alcotest.(check bool) "config only live processors" true
      (Pid.Set.subset c (set [ 1; 2; 3; 4; 5 ]))
  | None -> Alcotest.fail "no uniform config after recovery"

let prop_convergence_from_arbitrary_state =
  QCheck.Test.make ~name:"recSA converges from arbitrary states (Thm 3.15)" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let sys = make_system ~seed () in
      Stack.run_rounds sys 15;
      Stack.corrupt_everything sys ~rng:(Rng.create (seed + 1));
      Stack.run_until_quiescent sys ~max_rounds:500 <> None)

let test_recma_majority_collapse_triggers () =
  let sys = make_system ~seed:21 () in
  Stack.run_rounds sys 25;
  (* crash 3 of 5 members: the majority is gone; survivors must reconfigure
     to a configuration of live processors *)
  Stack.crash sys 1;
  Stack.crash sys 2;
  Stack.crash sys 3;
  let recovered t =
    match Stack.uniform_config t with
    | Some c -> Pid.Set.subset c (set [ 4; 5 ]) && Stack.quiescent t
    | None -> false
  in
  Alcotest.(check bool) "new live-only config installed" true
    (Stack.run_until sys ~max_steps:600_000 recovered);
  Alcotest.(check bool) "recMA triggered" true (Stack.total_triggers sys >= 1)

let test_recma_prediction_majority () =
  (* the paper's example predictor: ask for a reconfiguration once 1/4 of
     the members look failed. Crashing 2 of 5 members keeps the majority
     alive (so the collapse path stays silent) but trips the predictor at a
     majority of members, which must produce a delicate reconfiguration to
     a live configuration. *)
  let hooks = { Stack.unit_hooks with eval_conf = Stack.default_eval_conf () } in
  let sys = make_system ~seed:22 ~hooks () in
  Stack.run_rounds sys 25;
  Stack.crash sys 1;
  Stack.crash sys 2;
  let reconfigured t =
    match Stack.uniform_config t with
    | Some c -> Pid.Set.equal c (set [ 3; 4; 5 ]) && Stack.quiescent t
    | None -> false
  in
  Alcotest.(check bool) "prediction-driven reconfiguration" true
    (Stack.run_until sys ~max_steps:800_000 reconfigured);
  Alcotest.(check bool) "triggered via recMA" true (Stack.total_triggers sys >= 1)

(* The predictor's 1/4 threshold in isolation: it fires at exactly a
   quarter of the members untrusted, not below, and never on an empty
   member set (no division by zero, no spurious replacement). *)
let test_default_eval_conf_threshold () =
  let eval = Stack.default_eval_conf () ~self:1 in
  Alcotest.(check bool) "1 of 4 untrusted" true
    (eval ~trusted:(set [ 1; 2; 3; 9 ]) (set [ 1; 2; 3; 4 ]));
  Alcotest.(check bool) "1 of 5 untrusted" false
    (eval ~trusted:(set [ 1; 2; 3; 4 ]) (set [ 1; 2; 3; 4; 5 ]));
  Alcotest.(check bool) "all trusted" false
    (eval ~trusted:(set [ 1; 2; 3; 4 ]) (set [ 1; 2; 3; 4 ]));
  Alcotest.(check bool) "empty member set" false
    (eval ~trusted:(set [ 1; 2 ]) Pid.Set.empty)

let test_joiner_becomes_participant () =
  let sys = make_system ~seed:31 () in
  Stack.run_rounds sys 25;
  Stack.add_joiner sys 9;
  let joined t = Recsa.is_participant (Stack.node t 9).Stack.sa in
  Alcotest.(check bool) "joiner became participant" true
    (Stack.run_until sys ~max_steps:400_000 joined);
  (* the joiner adopted the agreed configuration, not a fresh one *)
  match Recsa.config (Stack.node sys 9).Stack.sa with
  | Config_value.Set c ->
    Alcotest.(check (list int)) "adopted config" [ 1; 2; 3; 4; 5 ] (Pid.Set.elements c)
  | _ -> Alcotest.fail "joiner has no set config"

let test_joiner_blocked_by_application () =
  let hooks =
    { Stack.unit_hooks with pass_query = (fun ~self:_ ~joiner -> joiner <> 9) }
  in
  let sys = make_system ~seed:32 ~hooks () in
  Stack.run_rounds sys 25;
  Stack.add_joiner sys 9;
  Stack.run_rounds sys 60;
  Alcotest.(check bool) "blocked joiner is not a participant" false
    (Recsa.is_participant (Stack.node sys 9).Stack.sa)

let test_joiner_runs_snap_handshake () =
  (* the snap-stabilizing cleaning handshake must complete on every
     joiner-member link before the join protocol proceeds *)
  let sys = make_system ~seed:34 () in
  Stack.run_rounds sys 25;
  Stack.add_joiner sys 9;
  Alcotest.(check bool) "joined" true
    (Stack.run_until sys ~max_steps:400_000 (fun t ->
         Recsa.is_participant (Stack.node t 9).Stack.sa));
  let tr = Engine.trace (Stack.engine sys) in
  (* the joiner completes a handshake with each of the 5 members, and each
     member completes the anti-parallel handshake with the joiner *)
  Alcotest.(check bool) "handshakes completed" true (Trace.count tr "snap.clean" >= 5);
  let joiner_node = Stack.node sys 9 in
  Alcotest.(check bool) "joiner's links all clean" true
    (Pid.Map.for_all
       (fun _ s -> Datalink.Snap_link.phase s = Datalink.Snap_link.Clean_done)
       joiner_node.Stack.snap)

let test_join_count_and_events () =
  let sys = make_system ~seed:33 () in
  Stack.run_rounds sys 25;
  Stack.add_joiner sys 7;
  Stack.add_joiner sys 8;
  let both t =
    Recsa.is_participant (Stack.node t 7).Stack.sa
    && Recsa.is_participant (Stack.node t 8).Stack.sa
  in
  Alcotest.(check bool) "both joined" true (Stack.run_until sys ~max_steps:600_000 both);
  let tr = Engine.trace (Stack.engine sys) in
  Alcotest.(check bool) "join events traced" true (Trace.count tr "join.participate" >= 2)

let test_figure2_automaton_trace () =
  (* The replacement automaton: a delicate replacement must produce a
     phase-2 transition and then a return to phase 0, with an install in
     between (Figure 2). *)
  let sys = make_system ~seed:41 () in
  Stack.run_rounds sys 20;
  ignore (Stack.estab sys 2 (set [ 1; 2; 3; 4 ]));
  Alcotest.(check bool) "completes" true
    (Stack.run_until sys ~max_steps:400_000 (fun t ->
         Stack.quiescent t && Stack.total_installs t > 0));
  let tr = Engine.trace (Stack.engine sys) in
  Alcotest.(check bool) "phase-2 transition observed" true (Trace.count tr "recsa.phase2" >= 1);
  Alcotest.(check bool) "install observed" true (Trace.count tr "recsa.install" >= 1);
  Alcotest.(check bool) "return to phase 0 observed" true (Trace.count tr "recsa.phase0" >= 1)

let test_get_config_during_steady_state () =
  let sys = make_system ~seed:51 () in
  Stack.run_rounds sys 30;
  List.iter
    (fun (p, n) ->
      let trusted = Stack.trusted_of sys p in
      match Recsa.get_config n.Stack.sa ~trusted with
      | Config_value.Set c ->
        Alcotest.(check (list int)) "getConfig agrees" [ 1; 2; 3; 4; 5 ] (Pid.Set.elements c)
      | _ -> Alcotest.fail "getConfig not a set in steady state")
    (Stack.live_nodes sys)

let test_replacement_exposes_only_old_or_new () =
  (* Safety during a delicate replacement: at no point does any participant
     hold a configuration other than the old one, the proposed one, or ⊥
     (and ⊥ never occurs on the delicate path). *)
  let sys = make_system ~seed:42 () in
  Stack.run_rounds sys 20;
  let old_config = set [ 1; 2; 3; 4; 5 ] in
  let target = set [ 1; 2; 3 ] in
  Alcotest.(check bool) "estab" true (Stack.estab sys 1 target);
  let ok = ref true in
  let rec sample k =
    if k = 0 then ()
    else begin
      Stack.run_rounds sys 1;
      List.iter
        (fun (_, n) ->
          match Recsa.config n.Stack.sa with
          | Config_value.Set c ->
            if not (Pid.Set.equal c old_config || Pid.Set.equal c target) then ok := false
          | Config_value.Reset -> ok := false
          | Config_value.Not_participant -> ())
        (Stack.live_nodes sys);
      if
        Stack.quiescent sys
        && Option.equal Pid.Set.equal (Stack.uniform_config sys) (Some target)
      then ()
      else sample (k - 1)
    end
  in
  sample 200;
  Alcotest.(check bool) "only old or new configurations ever visible" true !ok;
  Alcotest.(check bool) "replacement completed" true
    (Option.equal Pid.Set.equal (Stack.uniform_config sys) (Some target))

(* --- stale-information classification (Definition 3.1) --- *)

let test_stale_types_clean_state () =
  let sys = make_system ~seed:61 () in
  Stack.run_rounds sys 30;
  Alcotest.(check bool) "no stale info in steady state" true
    (Invariants.no_stale_information sys)

let test_stale_type1_detected () =
  let trusted = set [ 1; 2 ] in
  let sa = Recsa.create ~self:1 ~participant:true ~initial_config:trusted () in
  Recsa.corrupt sa ~prp:{ Notification.phase = Notification.P0; set = Some (set [ 1 ]) } ();
  Alcotest.(check bool) "type-1 present" true
    (List.mem Recsa.Type1 (Recsa.stale_types sa ~trusted))

let test_stale_type2_detected () =
  let trusted = set [ 1; 2 ] in
  let sa = Recsa.create ~self:1 ~participant:true ~initial_config:trusted () in
  Recsa.corrupt sa ~config:Config_value.Reset ();
  Alcotest.(check bool) "type-2 present" true
    (List.mem Recsa.Type2 (Recsa.stale_types sa ~trusted))

let test_stale_type3_detected () =
  let trusted = set [ 1; 2 ] in
  let sa = Recsa.create ~self:1 ~participant:true ~initial_config:trusted () in
  (* a peer reports a phase-2 notification for a different set than ours *)
  ignore
    (Recsa.receive sa ~from:2
       {
         Recsa.m_fd = trusted;
         m_part = trusted;
         m_config = Config_value.Set trusted;
         m_prp = Notification.make Notification.P2 (set [ 1; 2 ]);
         m_all = false;
         m_echo = None;
       });
  Recsa.corrupt sa ~prp:(Notification.make Notification.P2 (set [ 1 ])) ();
  Alcotest.(check bool) "type-3 present" true
    (List.mem Recsa.Type3 (Recsa.stale_types sa ~trusted))

(* Participant 1 holds a configuration whose members are all gone while its
   live peers agree on the failure-detector view: the tick must classify it
   as type-4 and recover by a brute-force reset to the trusted set. *)
let test_stale_type4_detected () =
  let trusted = set [ 1; 2; 3 ] in
  let dead = set [ 5; 6 ] in
  let sa = Recsa.create ~self:1 ~participant:true ~initial_config:dead () in
  List.iter
    (fun from ->
      ignore
        (Recsa.receive sa ~from
           {
             Recsa.m_fd = trusted;
             m_part = trusted;
             m_config = Config_value.Set dead;
             m_prp = Notification.default;
             m_all = false;
             m_echo = None;
           }))
    [ 2; 3 ];
  Alcotest.(check bool) "type-4 present" true
    (List.mem Recsa.Type4 (Recsa.stale_types sa ~trusted));
  let events = Recsa.tick sa ~trusted in
  Alcotest.(check (list string)) "stale, reset, brute force"
    [ "recsa.stale"; "recsa.reset"; "recsa.brute_force" ]
    (List.map fst events);
  Alcotest.(check string) "reported as type-4" "type-4" (List.assoc "recsa.stale" events);
  Alcotest.(check bool) "brute force adopts the trusted set" true
    (Config_value.equal (Recsa.config sa) (Config_value.Set trusted))

let test_stale_report_after_corruption () =
  let sys = make_system ~seed:62 () in
  Stack.run_rounds sys 30;
  Stack.corrupt_everything sys ~rng:(Rng.create 17);
  Alcotest.(check bool) "stale information detected somewhere" true
    (Invariants.stale_report sys <> []);
  Alcotest.(check bool) "recovers" true
    (Stack.run_until_quiescent sys ~max_rounds:500 <> None);
  Stack.run_rounds sys 5;
  Alcotest.(check bool) "stale information gone after recovery" true
    (Invariants.no_stale_information sys)

let test_closure_theorem () =
  (* Theorem 3.16(1): a steady config state persists — no resets, no
     installs, quiescence throughout. *)
  let sys = make_system ~seed:63 () in
  Stack.run_rounds sys 40;
  match Invariants.closure sys ~rounds:40 with
  | Ok () -> ()
  | Error reason -> Alcotest.fail reason

(* --- partitions --- *)

(* The data link across a cut: the stack keeps sending its heartbeat (the
   token) to the suspected peer, and once the cut heals every node trusts
   everyone again. *)
let test_partition_minority_and_heal () =
  let sys = make_system ~seed:64 () in
  Stack.run_rounds sys 30;
  let heartbeats () =
    Telemetry.counter_value
      (Engine.telemetry (Stack.engine sys))
      ~labels:[ ("kind", "heartbeat") ] "stack.sent"
  in
  (* isolate a minority; the majority side must keep the configuration *)
  Engine.partition (Stack.engine sys) (set [ 5 ]);
  let heartbeats_at_cut = heartbeats () in
  Stack.run_rounds sys 60;
  let majority_config =
    match Recsa.config (Stack.node sys 1).Stack.sa with
    | Config_value.Set c -> Pid.Set.elements c
    | _ -> []
  in
  Alcotest.(check (list int)) "majority side keeps the config" [ 1; 2; 3; 4; 5 ]
    majority_config;
  Alcotest.(check bool) "1 suspects 5 across the cut" false
    (Pid.Set.mem 5 (Stack.trusted_of sys 1));
  Alcotest.(check bool) "heartbeats go to the suspected peer" true
    (heartbeats () > heartbeats_at_cut);
  Engine.heal (Stack.engine sys);
  Alcotest.(check bool) "steady again after healing" true
    (Stack.run_until sys ~max_steps:600_000 Stack.quiescent);
  let all = set [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check bool) "every node trusts everyone after healing" true
    (Stack.run_until sys ~max_steps:600_000 (fun t ->
         List.for_all
           (fun p -> Pid.Set.subset all (Stack.trusted_of t p))
           [ 1; 2; 3; 4; 5 ]))

let test_partition_does_not_split_brain () =
  (* neither side of an even split can assemble a majority-backed delicate
     replacement while cut; after healing there is a single configuration *)
  let sys = make_system ~seed:65 ~n:6 () in
  Stack.run_rounds sys 30;
  Engine.partition (Stack.engine sys) (set [ 1; 2; 3 ]);
  Stack.run_rounds sys 80;
  Engine.heal (Stack.engine sys);
  Alcotest.(check bool) "single configuration after heal" true
    (Stack.run_until sys ~max_steps:900_000 (fun t ->
         Stack.quiescent t && Stack.uniform_config t <> None))

(* --- majority admission and collapse in one run --- *)

let test_join_then_majority_collapse () =
  (* steady state, a join admitted by a majority of passes, then a
     collapse-driven reconfiguration once most members crash *)
  let members = List.init 6 (fun i -> i + 1) in
  let sys =
    Stack.of_scenario ~hooks:Stack.unit_hooks
      (Scenario.make ~seed:77 ~n_bound:16 ~members ())
  in
  Stack.run_rounds sys 30;
  Alcotest.(check bool) "steady on six members" true (Stack.quiescent sys);
  Stack.add_joiner sys 9;
  Alcotest.(check bool) "join admitted by a majority of passes" true
    (Stack.run_until sys ~max_steps:600_000 (fun t ->
         Recsa.is_participant (Stack.node t 9).Stack.sa));
  (* crashing 1, 4, 5 and 6 leaves 2 of the 6 members: no majority, so
     recMA must reconfigure *)
  List.iter (fun v -> Stack.crash sys v) [ 1; 4; 5; 6 ];
  let recovered t =
    match Stack.uniform_config t with
    | Some c -> Pid.Set.subset c (set [ 2; 3; 9 ]) && Stack.quiescent t
    | None -> false
  in
  Alcotest.(check bool) "collapse path after the join" true
    (Stack.run_until sys ~max_steps:2_000_000 recovered)

(* --- pure two-node walkthrough (no engine): the unison handshake --- *)

let test_pure_two_node_replacement () =
  let members = set [ 1; 2 ] in
  let a = Recsa.create ~self:1 ~participant:true ~initial_config:members () in
  let b = Recsa.create ~self:2 ~participant:true ~initial_config:members () in
  (* lossless synchronous exchange: both tick, then both deliver *)
  let exchange () =
    ignore (Recsa.tick a ~trusted:members);
    ignore (Recsa.tick b ~trusted:members);
    let to_b = Recsa.message_to a ~trusted:members 2 in
    let to_a = Recsa.message_to b ~trusted:members 1 in
    Option.iter (fun m -> ignore (Recsa.receive b ~from:1 m)) to_b;
    Option.iter (fun m -> ignore (Recsa.receive a ~from:2 m)) to_a
  in
  for _ = 1 to 4 do
    exchange ()
  done;
  Alcotest.(check bool) "steady" true
    (Recsa.no_reco a ~trusted:members && Recsa.no_reco b ~trusted:members);
  let target = set [ 1 ] in
  Alcotest.(check bool) "estab accepted" true (Recsa.estab a ~trusted:members target);
  (* the synchronous unison handshake completes within a bounded number of
     exchanges: adopt, echo, all, allSeen, phase 2 (install), phase 0 *)
  let rec drive k =
    if k = 0 then Alcotest.fail "replacement did not complete in 40 exchanges"
    else if
      Config_value.equal (Recsa.config a) (Config_value.Set target)
      && Config_value.equal (Recsa.config b) (Config_value.Set target)
      && Notification.is_default (Recsa.prp a)
      && Notification.is_default (Recsa.prp b)
    then ()
    else begin
      exchange ();
      drive (k - 1)
    end
  in
  drive 40;
  Alcotest.(check int) "exactly one install at a" 1 (Recsa.install_count a);
  Alcotest.(check int) "exactly one install at b" 1 (Recsa.install_count b);
  Alcotest.(check int) "no resets" 0 (Recsa.reset_count a + Recsa.reset_count b)

let prop_channel_stats_conserved =
  QCheck.Test.make ~name:"channel accounting: sent = queued + dropped + delivered"
    QCheck.(pair (int_range 0 1000) (int_range 1 200))
    (fun (seed, ops) ->
      let rng = Rng.create seed in
      let ch = Channel.create ~capacity:5 in
      for i = 1 to ops do
        if Rng.bool rng then Channel.send ch rng i
        else if not (Channel.is_empty ch) then ignore (Channel.take_nonempty ch rng)
      done;
      let st = Channel.stats ch in
      st.Channel.sent
      = Channel.length ch + st.Channel.dropped + st.Channel.delivered)

(* --- chaos: random mixed fault schedules always converge --- *)

let prop_chaos_convergence =
  QCheck.Test.make ~name:"convergence under random crash/join/corrupt/partition mixes"
    ~count:6
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 4 + Rng.int rng 3 in
      let sys = make_system ~seed ~n () in
      let next_joiner = ref 100 in
      let crashes = ref 0 in
      Stack.run_rounds sys 25;
      (* a dozen random events interleaved with normal execution *)
      for _ = 1 to 12 do
        (match Rng.int rng 6 with
        | 0 ->
          (* crash, keeping at least two live nodes *)
          let live = Engine.live_pids (Stack.engine sys) in
          if List.length live > 2 && !crashes < n - 2 then begin
            Stack.crash sys (Rng.pick rng live);
            incr crashes
          end
        | 1 ->
          Stack.add_joiner sys !next_joiner;
          incr next_joiner
        | 2 ->
          let live = Engine.live_pids (Stack.engine sys) in
          Stack.corrupt_node sys (Rng.pick rng live) ~rng
        | 3 -> Stack.corrupt_everything sys ~rng
        | 4 ->
          let live = Engine.live_pids (Stack.engine sys) in
          let group = Pid.set_of_list (Rng.subset rng live) in
          Engine.partition (Stack.engine sys) group
        | _ ->
          let live = Engine.live_pids (Stack.engine sys) in
          ignore (Stack.estab sys (Rng.pick rng live) (set (Rng.subset rng live))));
        Stack.run_rounds sys (1 + Rng.int rng 8)
      done;
      (* faults cease: partitions heal, nothing else is injected. The
         system must reach a steady config state whose configuration has a
         live majority (the paper's serviceability condition — a dead
         minority inside the configuration is legal and recMA correctly
         leaves it alone; a dead majority must trigger a reconfiguration). *)
      Engine.heal (Stack.engine sys);
      let healthy t =
        Stack.quiescent t
        &&
        match Stack.uniform_config t with
        | Some c ->
          (not (Pid.Set.is_empty c))
          && Quorum.has_majority ~config:c
               (Pid.set_of_list (Engine.live_pids (Stack.engine t)))
        | None -> false
      in
      (* check once per five rounds; the predicate is too costly to
         evaluate after every atomic step *)
      let rec wait budget =
        if healthy sys then true
        else if budget = 0 then false
        else begin
          Stack.run_rounds sys 5;
          wait (budget - 1)
        end
      in
      wait 150)

(* --- descriptor interning --------------------------------------------- *)

(* Structurally equal descriptors intern to one physical object, so the
   Definition 3.1 conflict checks hit their pointer-equality fast paths;
   unequal descriptors must never be conflated. *)
let test_interning_physical_equality () =
  (* two structurally equal sets with different AVL shapes *)
  let asc = Pid.set_of_list [ 1; 2; 3; 4; 5; 6; 7 ] in
  let desc = List.fold_left (fun s p -> Pid.Set.add p s) Pid.Set.empty [ 7; 6; 5; 4; 3; 2; 1 ] in
  Alcotest.(check bool) "structurally equal" true (Pid.Set.equal asc desc);
  Alcotest.(check bool) "sets intern to one object" true
    (Reconfig.Intern.pid_set asc == Reconfig.Intern.pid_set desc);
  let c1 = Reconfig.Config_value.of_set asc in
  let c2 = Reconfig.Config_value.intern (Reconfig.Config_value.Set desc) in
  Alcotest.(check bool) "equal configs physically equal" true (c1 == c2);
  let other = Reconfig.Config_value.of_set (Pid.set_of_list [ 1; 2; 3 ]) in
  Alcotest.(check bool) "unequal configs stay distinct" false
    (Reconfig.Config_value.equal c1 other);
  Alcotest.(check bool) "unequal configs not conflated" true (c1 != other);
  let n1 = Reconfig.Notification.intern (Reconfig.Notification.make Reconfig.Notification.P2 asc) in
  let n2 = Reconfig.Notification.intern (Reconfig.Notification.make Reconfig.Notification.P2 desc) in
  Alcotest.(check bool) "equal notifications physically equal" true (n1 == n2);
  let n3 = Reconfig.Notification.intern (Reconfig.Notification.make Reconfig.Notification.P1 asc) in
  Alcotest.(check bool) "phase distinguishes notifications" true (n1 != n3)

(* --- recSA's memos are exact --- *)

type sa_op =
  | Receive of Pid.t * Recsa.message
  | Tick of Pid.Set.t
  | Messages of Pid.Set.t
  | Estab of Pid.Set.t * Pid.Set.t
  | Participate of Pid.Set.t
  | Corrupt of Config_value.t option * Notification.t option * bool option * Pid.Set.t option
  | Clear_peers

let sa_set_pool =
  [| set [ 1; 2; 3; 4 ]; set [ 1; 2; 3 ]; set [ 1; 2 ]; set [ 2; 3; 4 ]; set [ 1 ]; Pid.Set.empty |]

(* Small pools make repeated messages — and so memo hits — common; a
   trusted set is sometimes a fresh copy, equal but not physically equal. *)
let gen_sa_op rs ~sent =
  let pick a = a.(Random.State.int rs (Array.length a)) in
  let some_set () = pick sa_set_pool in
  let trusted () =
    let s = pick [| set [ 1; 2; 3; 4 ]; set [ 1; 2; 3 ]; set [ 1; 3; 4 ] |] in
    if Random.State.bool rs then s else set (Pid.Set.elements s)
  in
  let config () =
    match Random.State.int rs 6 with
    | 0 -> Config_value.Reset
    | 1 -> Config_value.Not_participant
    | _ -> Config_value.Set (some_set ())
  in
  let notification () =
    match Random.State.int rs 8 with
    | 0 -> Notification.make Notification.P1 (some_set ())
    | 1 -> Notification.make Notification.P2 (some_set ())
    | 2 -> { Notification.phase = Notification.P0; set = Some (some_set ()) }
    | _ -> Notification.default
  in
  match Random.State.int rs 14 with
  | 0 | 1 | 2 | 3 ->
    let m =
      match !sent with
      | (_ :: _ as l) when Random.State.int rs 3 > 0 ->
        List.nth l (Random.State.int rs (List.length l))
      | _ ->
        let m =
          {
            Recsa.m_fd = some_set ();
            m_part = some_set ();
            m_config = config ();
            m_prp = notification ();
            m_all = Random.State.bool rs;
            m_echo =
              (if Random.State.bool rs then None
               else
                 Some
                   {
                     Recsa.e_part = some_set ();
                     e_prp = notification ();
                     e_all = Random.State.bool rs;
                   });
          }
        in
        sent := m :: !sent;
        m
    in
    Receive (2 + Random.State.int rs 3, m)
  | 4 | 5 | 6 | 7 -> Tick (trusted ())
  | 8 | 9 -> Messages (trusted ())
  | 10 -> Estab (trusted (), some_set ())
  | 11 -> Participate (trusted ())
  | 12 ->
    let maybe f = if Random.State.bool rs then Some (f ()) else None in
    Corrupt
      ( maybe config,
        maybe notification,
        maybe (fun () -> Random.State.bool rs),
        maybe some_set )
  | _ -> Clear_peers

let echo_equal (a : Recsa.echo_view) (b : Recsa.echo_view) =
  Pid.Set.equal a.e_part b.e_part
  && Notification.equal a.e_prp b.e_prp
  && Bool.equal a.e_all b.e_all

let message_equal (p, (a : Recsa.message)) (q, (b : Recsa.message)) =
  Pid.equal p q
  && Pid.Set.equal a.m_fd b.m_fd
  && Pid.Set.equal a.m_part b.m_part
  && Config_value.equal a.m_config b.m_config
  && Notification.equal a.m_prp b.m_prp
  && Bool.equal a.m_all b.m_all
  && Option.equal echo_equal a.m_echo b.m_echo

(* what an operation returned, in comparable form *)
type sa_result =
  | Done
  | Events of (string * string) list
  | Sent of (Pid.t * Recsa.message) list
  | Accepted of bool

let sa_result_equal a b =
  match (a, b) with
  | Done, Done -> true
  | Events a, Events b -> a = b
  | Sent a, Sent b -> List.equal message_equal a b
  | Accepted a, Accepted b -> Bool.equal a b
  | (Done | Events _ | Sent _ | Accepted _), _ -> false

(* the line-29 messages to the trusted pids among 0..5, in descending pid
   order *)
let messages_to sa ~trusted =
  List.filter_map
    (fun p ->
      if Pid.Set.mem p trusted then Option.map (fun m -> (p, m)) (Recsa.message_to sa ~trusted p)
      else None)
    [ 5; 4; 3; 2; 1; 0 ]

let apply_sa_op sa = function
  | Receive (from, m) ->
    ignore (Recsa.receive sa ~from m);
    Done
  | Tick trusted -> Events (Recsa.tick sa ~trusted)
  | Messages trusted -> Sent (messages_to sa ~trusted)
  | Estab (trusted, s) -> Accepted (Recsa.estab sa ~trusted s)
  | Participate trusted -> Accepted (Recsa.participate sa ~trusted)
  | Corrupt (config, prp, all, allseen) ->
    Recsa.corrupt sa ?config ?prp ?all ?allseen ();
    Done
  | Clear_peers ->
    Recsa.clear_peers sa;
    Done

(* the interface, which changes no state *)
let sa_interface sa ~trusted =
  (Recsa.participants sa ~trusted, Recsa.no_reco sa ~trusted, Recsa.get_config sa ~trusted)

(* Writing an equal but physically new notification bumps the state's
   version without changing any value, so the next interface query, tick
   and message are necessarily memo misses, i.e. full recomputations. *)
let force_dirty sa =
  let n = Recsa.prp sa in
  Recsa.corrupt sa ~prp:{ n with Notification.phase = n.Notification.phase } ()

(* One instance is queried after every step, so its memos hit whenever
   the state did not change. The reference replays the same inputs into a
   fresh instance, forced dirty before every step and before the final
   queries; every operation's result and every query must agree. *)
let prop_recsa_memo_exact =
  qtest
    (QCheck.Test.make ~name:"memoized recSA interface, tick = fresh replay"
       ~count:150
       QCheck.(pair (int_range 0 100_000) bool)
       (fun (seed, participant) ->
         let rs = Random.State.make [| seed |] in
         let create () =
           Recsa.create ~self:1 ~participant
             ?initial_config:(if participant then Some (set [ 1; 2; 3; 4 ]) else None)
             ()
         in
         let sa = create () in
         let sent = ref [] in
         let pool = [| set [ 1; 2; 3; 4 ]; set [ 1; 2; 3 ]; set [ 1; 3; 4 ] |] in
         let query = ref pool.(0) in
         let rec steps k history =
           k = 0
           ||
           let op = gen_sa_op rs ~sent in
           (* mostly keep querying with the same set, so the memo can hit
              across steps *)
           if Random.State.int rs 4 = 0 then query := pool.(Random.State.int rs 3);
           let result = apply_sa_op sa op in
           let history = op :: history in
           let fresh = create () in
           let replayed =
             List.fold_left
               (fun _ op ->
                 force_dirty fresh;
                 apply_sa_op fresh op)
               Done (List.rev history)
           in
           let trusted = !query in
           let part, no_reco, config = sa_interface sa ~trusted in
           force_dirty fresh;
           let part', no_reco', config' = sa_interface fresh ~trusted in
           sa_result_equal result replayed
           && Pid.Set.equal part part' && Bool.equal no_reco no_reco'
           && Config_value.equal config config'
           && Config_value.equal (Recsa.config sa) (Recsa.config fresh)
           && Notification.equal (Recsa.prp sa) (Recsa.prp fresh)
           && steps (k - 1) history
         in
         steps 60 []))

(* [a]'s fields are physically [b]'s *)
let same_fields (a : Recsa.message) (b : Recsa.message) =
  a.m_fd == b.m_fd && a.m_part == b.m_part && a.m_config == b.m_config
  && a.m_prp == b.m_prp && Bool.equal a.m_all b.m_all
  &&
  match (a.m_echo, b.m_echo) with
  | None, None -> true
  | Some e, Some e' ->
    e.e_part == e'.e_part && e.e_prp == e'.e_prp && Bool.equal e.e_all e'.e_all
  | Some _, None | None, Some _ -> false

(* [message_to] as the stack calls it, handed back the last message it
   returned for the peer (sometimes another peer's, or none): after every
   step of a random run, and for a trusted set drawn from a pool (some
   without this node, some fresh copies) and every pid in it, it equals
   the message a fresh replay builds (forced dirty before every step, so
   nothing is reused), and it is the handed-back message itself exactly
   when that message's fields are physically those of a build from
   scratch *)
let prop_message_to_fresh_build =
  qtest
    (QCheck.Test.make ~name:"message_to = a fresh build; current handed-back message kept"
       ~count:200
       QCheck.(pair (int_range 0 100_000) bool)
       (fun (seed, participant) ->
         let rs = Random.State.make [| seed |] in
         let create () =
           Recsa.create ~self:1 ~participant
             ?initial_config:(if participant then Some (set [ 1; 2; 3; 4 ]) else None)
             ()
         in
         let sa = create () in
         let sent = ref [] in
         let last = Array.make 6 None in
         let rec steps k history =
           k = 0
           ||
           let op = gen_sa_op rs ~sent in
           ignore (apply_sa_op sa op);
           let history = op :: history in
           let fresh = create () in
           List.iter
             (fun op ->
               force_dirty fresh;
               ignore (apply_sa_op fresh op))
             (List.rev history);
           force_dirty fresh;
           let trusted =
             let s = sa_set_pool.(Random.State.int rs (Array.length sa_set_pool)) in
             if Random.State.bool rs then s else set (Pid.Set.elements s)
           in
           List.for_all
             (fun p ->
               let handed =
                 match Random.State.int rs 4 with
                 | 0 -> last.(Random.State.int rs 6)
                 | 1 -> None
                 | _ -> last.(p)
               in
               let m = Recsa.message_to sa ~trusted ?last:handed p in
               let built = Recsa.message_to sa ~trusted p in
               let reference = Recsa.message_to fresh ~trusted p in
               if Option.is_some m then last.(p) <- m;
               match (m, built, reference) with
               | None, None, None -> true
               | Some m, Some b, Some r ->
                 let kept, current =
                   match handed with
                   | Some h -> (m == h, same_fields h b)
                   | None -> (false, false)
                 in
                 message_equal (p, m) (p, r) && Bool.equal kept current
               | _ -> false)
             (List.filter (fun p -> Pid.Set.mem p trusted) [ 0; 1; 2; 3; 4; 5 ])
           && steps (k - 1) history
         in
         steps 60 []))

let stale_type_of_tag = function
  | "type-1" -> Some Recsa.Type1
  | "type-2" -> Some Recsa.Type2
  | "type-3" -> Some Recsa.Type3
  | "type-4" -> Some Recsa.Type4
  | _ -> None

(* The tick's resets and [stale_types] read one Definition 3.1: every
   stale-information event a tick emits names a type that [stale_types]
   reported for the state the tick started from. *)
let prop_tick_resets_on_stale_types =
  qtest
    (QCheck.Test.make ~name:"tick resets only on types stale_types reports" ~count:500
       QCheck.(pair (int_range 0 100_000) bool)
       (fun (seed, participant) ->
         let rs = Random.State.make [| seed |] in
         let sa =
           Recsa.create ~self:1 ~participant
             ?initial_config:(if participant then Some (set [ 1; 2; 3; 4 ]) else None)
             ()
         in
         let sent = ref [] in
         let rec steps k =
           k = 0
           ||
           (match gen_sa_op rs ~sent with
           | Tick trusted ->
             let present = Recsa.stale_types sa ~trusted in
             List.for_all
               (function
                 | "recsa.stale", tag -> (
                   match stale_type_of_tag tag with
                   | Some ty -> List.mem ty present
                   | None -> false)
                 | _ -> true)
               (Recsa.tick sa ~trusted)
           | op ->
             ignore (apply_sa_op sa op);
             true)
           && steps (k - 1)
         in
         steps 80))

(* Mid-replacement, a quiet tick waits for allSeen to cover the
   participants; a corrupted allSeen that does is a new input, so the next
   tick must run and advance to phase 2 rather than be skipped. *)
let test_quiet_tick_reads_allseen () =
  let trusted = set [ 1; 2 ] in
  let sa = Recsa.create ~self:1 ~participant:true ~initial_config:trusted () in
  let proposal = Notification.intern (Notification.make Notification.P1 (set [ 1 ])) in
  Recsa.corrupt sa ~prp:proposal ();
  ignore
    (Recsa.receive sa ~from:2
       {
         Recsa.m_fd = trusted;
         m_part = trusted;
         m_config = Config_value.Set trusted;
         m_prp = proposal;
         m_all = false;
         m_echo = Some { Recsa.e_part = trusted; e_prp = proposal; e_all = true };
       });
  ignore (Recsa.tick sa ~trusted);
  Alcotest.(check (list (pair string string))) "waiting: quiet" [] (Recsa.tick sa ~trusted);
  Alcotest.(check (list (pair string string))) "still quiet" [] (Recsa.tick sa ~trusted);
  Recsa.corrupt sa ~allseen:(set [ 2 ]) ();
  let events = Recsa.tick sa ~trusted in
  Alcotest.(check bool) "phase 2 reached" true (List.mem_assoc "recsa.phase2" events);
  Alcotest.(check bool) "in phase 2" true
    ((Recsa.prp sa).Notification.phase = Notification.P2)

(* --- the delicate replacement answers receipts in the same step --- *)

let sa_sent tele = Telemetry.counter_value tele ~labels:[ ("kind", "sa") ] "stack.sent"

(* [eager_system ~seed n] — members 1..n warmed up for 25 rounds, as the
   experiments build their clusters *)
let eager_system ~seed n =
  let sys =
    Stack.of_scenario ~hooks:Stack.unit_hooks
      (Scenario.make ~seed ~n_bound:(2 * n) ~members:(List.init n (fun i -> i + 1)) ())
  in
  Stack.run_rounds sys 25;
  sys

(* E2's single proposal: node 1 proposes to drop itself; the rounds until
   every participant installed it and the system is quiescent again *)
let single_replacement ~seed n =
  let sys = eager_system ~seed n in
  let target = Pid.Set.remove 1 (set (List.init n (fun i -> i + 1))) in
  Alcotest.(check bool) "estab accepted" true (Stack.estab sys 1 target);
  let eng = Stack.engine sys in
  let start = Engine.rounds eng in
  let settled t =
    Stack.quiescent t && Option.equal Pid.Set.equal (Stack.uniform_config t) (Some target)
  in
  Alcotest.(check bool) "replacement installed" true
    (Stack.run_until sys ~max_steps:2_000_000 settled);
  (sys, Engine.rounds eng - start)

let test_steady_sends_only_on_ticks () =
  (* no notification, so no receipt runs an iteration, and no view changes,
     so no receipt answers: after the warm-up recSA sends exactly N-1
     messages per timer step and none from a receipt *)
  let n = 8 in
  let members = set (List.init n (fun i -> i + 1)) in
  let b =
    Stack.driver ~capacity:8 ~n_bound:(2 * n) ~theta:4 ~hooks:Stack.unit_hooks
      ~members_set:members ~directory:(ref members)
  in
  let ticks = ref 0 and receipt_sends = ref 0 in
  let on_timer ctx st =
    incr ticks;
    b.on_timer ctx st
  in
  let on_message ctx from m st =
    let before = sa_sent (Step.telemetry ctx) in
    let st = b.on_message ctx from m st in
    receipt_sends := !receipt_sends + sa_sent (Step.telemetry ctx) - before;
    st
  in
  let eng =
    Engine.create ~seed:1 ~loss:0.0 ~behavior:{ b with on_timer; on_message }
      ~pids:(Pid.Set.elements members) ()
  in
  Engine.run_rounds eng 25;
  let sent0 = sa_sent (Engine.telemetry eng) and ticks0 = !ticks in
  receipt_sends := 0;
  Engine.run_rounds eng 20;
  let tele = Engine.telemetry eng in
  Alcotest.(check int) "no recSA message from a receipt" 0 !receipt_sends;
  Alcotest.(check int) "N-1 recSA messages per timer step"
    ((n - 1) * (!ticks - ticks0))
    (sa_sent tele - sent0);
  Alcotest.(check bool) "every node ticked every round" true (!ticks - ticks0 >= 20 * n)

let test_single_proposal_installs_fast () =
  (* a timer-paced automaton needs 25 rounds here; answering each receipt in
     its own step cuts that to 12-16 *)
  List.iter
    (fun seed ->
      let _, rounds = single_replacement ~seed 8 in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: installed in %d rounds, at most 18" seed rounds)
        true (rounds <= 18))
    [ 1; 2; 3 ]

let trace_text sys =
  Trace.fold (Engine.trace (Stack.engine sys)) ~init:[] (fun acc e ->
      Trace.entry_json e :: acc)
  |> List.rev |> String.concat "\n"

let test_replacement_independent_of_interning () =
  (* which values share a pointer depends on the interning tables' history;
     the run must not: refill every table past its cap (which resets it)
     and replay *)
  let first, _ = single_replacement ~seed:5 8 in
  for i = 0 to Intern.cap do
    let s = Pid.Set.singleton (1_000 + i) in
    ignore (Intern.pid_set s);
    ignore (Config_value.of_set s);
    ignore (Notification.intern (Notification.make Notification.P1 s))
  done;
  let second, _ = single_replacement ~seed:5 8 in
  Alcotest.(check string) "byte-identical traces" (trace_text first) (trace_text second)

let test_replacement_span_closes_in_step () =
  (* the replacement span is bookkept by every iteration, those run on a
     receipt included: after any step, a node back in phase 0 has no open
     span, and every node timed exactly one replacement *)
  let sys = eager_system ~seed:2 8 in
  let eng = Stack.engine sys in
  let tele = Engine.telemetry eng in
  let target = set [ 2; 3; 4; 5; 6; 7; 8 ] in
  Alcotest.(check bool) "estab accepted" true (Stack.estab sys 1 target);
  let name = "recsa.replacement_seconds" in
  let settled () =
    Stack.quiescent sys && Option.equal Pid.Set.equal (Stack.uniform_config sys) (Some target)
  in
  let rec go budget =
    if settled () then ()
    else if budget = 0 then Alcotest.fail "replacement did not settle"
    else begin
      ignore (Engine.step eng);
      List.iter
        (fun (p, n) ->
          if (Recsa.prp n.Stack.sa).Notification.phase = Notification.P0 then
            Alcotest.(check bool)
              (Printf.sprintf "p%d in phase 0 at %.3f: span closed" p (Engine.time eng))
              false
              (Telemetry.span_open tele ~name ~key:p))
        (Stack.live_nodes sys);
      go (budget - 1)
    end
  in
  go 2_000_000;
  let timed =
    match Telemetry.find_histogram tele name with
    | Some h -> Telemetry.Histogram.count h
    | None -> 0
  in
  Alcotest.(check int) "one replacement timed per node" 8 timed

let test_receipt_resends_only_changes () =
  (* node 1 of {1,2,3,4}: a receipt that moves the automaton sends the
     line-29 message to the peers whose message changed, and only to them *)
  let members = set [ 1; 2; 3; 4 ] in
  let b =
    Stack.driver ~capacity:8 ~n_bound:8 ~theta:4 ~hooks:Stack.unit_hooks
      ~members_set:members ~directory:(ref members)
  in
  let ctx = Step.create ~trace:(Trace.create ()) ~telemetry:(Telemetry.create ()) in
  let sent = ref [] in
  ctx.Step.ctx_send <-
    (fun dst m -> match m with Stack.Sa _ -> sent := dst :: !sent | _ -> ());
  ctx.Step.ctx_self <- 1;
  let n = b.init 1 in
  let sends f =
    sent := [];
    ignore (f ());
    List.sort compare !sent
  in
  let view prp =
    {
      Recsa.m_fd = members;
      m_part = members;
      m_config = Config_value.Set members;
      m_prp = prp;
      m_all = false;
      m_echo = None;
    }
  in
  let deliver from stamp prp () = b.on_message ctx from (Stack.Sa (stamp, view prp)) n in
  let proposal = Notification.make Notification.P1 (set [ 1; 2; 3 ]) in
  Alcotest.(check (list int)) "no notification: no send on receipt" []
    (sends (fun () ->
         List.iter (fun p -> ignore (deliver p 1 Notification.default ())) [ 2; 3; 4 ]));
  Alcotest.(check (list int)) "the tick broadcasts" [ 2; 3; 4 ] (sends (fun () -> b.on_timer ctx n));
  Alcotest.(check (list int)) "adopting a proposal changes every message" [ 2; 3; 4 ]
    (sends (deliver 2 2 proposal));
  Alcotest.(check (list int)) "a peer's new notification changes only its echo" [ 3 ]
    (sends (deliver 3 2 proposal));
  Alcotest.(check (list int)) "an unchanged view changes nothing" []
    (sends (deliver 3 3 proposal))

(* node 1 of {1,2,3,4} after every peer's first packet and one tick, with
   no notification anywhere: [deliver from stamp view] hands it a recSA
   packet and returns the (destination, stamp) of each [Sa] packet the
   receipt step sent *)
let answering_node () =
  let members = set [ 1; 2; 3; 4 ] in
  let b =
    Stack.driver ~capacity:8 ~n_bound:8 ~theta:4 ~hooks:Stack.unit_hooks
      ~members_set:members ~directory:(ref members)
  in
  let ctx = Step.create ~trace:(Trace.create ()) ~telemetry:(Telemetry.create ()) in
  let sent = ref [] in
  ctx.Step.ctx_send <-
    (fun dst m ->
      match m with Stack.Sa (stamp, _) -> sent := (dst, stamp) :: !sent | _ -> ());
  ctx.Step.ctx_self <- 1;
  let n = b.init 1 in
  let deliver from stamp view =
    sent := [];
    ignore (b.on_message ctx from (Stack.Sa (stamp, view)) n);
    List.rev !sent
  in
  let view ?(fd = members) ?(part = members) ?(prp = Notification.default) () =
    {
      Recsa.m_fd = fd;
      m_part = part;
      m_config = Config_value.Set members;
      m_prp = prp;
      m_all = false;
      m_echo = None;
    }
  in
  Alcotest.(check (list (pair int int))) "first contacts answer nothing" []
    (List.concat_map (fun p -> deliver p 1 (view ())) [ 2; 3; 4 ]);
  sent := [];
  ignore (b.on_timer ctx n);
  Alcotest.(check (list int)) "the tick broadcasts" [ 2; 3; 4 ]
    (List.sort compare (List.map fst !sent));
  (n, deliver, view, n.Stack.sa_stamp)

let test_changed_view_answers_sender () =
  let _, deliver, view, tick_stamp = answering_node () in
  (* peer 3 no longer counts 4 as a participant: its echo of our part
     changes, so our message to 3 does *)
  Alcotest.(check (list (pair int int))) "one packet, to 3, under a fresh stamp"
    [ (3, tick_stamp + 1) ]
    (deliver 3 2 (view ~part:(set [ 1; 2; 3 ]) ()))

let test_first_and_same_answer_nothing () =
  let n, deliver, view, _ = answering_node () in
  Alcotest.(check (list (pair int int))) "an unchanged packet answers nothing" []
    (deliver 3 2 (view ()));
  (* forgetting every view makes 3's next packet a first contact again;
     our message to it changes (only 3 and this node are participants
     now), but a first contact answers nothing *)
  Recsa.clear_peers n.Stack.sa;
  Alcotest.(check (list (pair int int))) "a first contact answers nothing" []
    (deliver 3 3 (view ()));
  Alcotest.(check (list (pair int int))) "the same packet again answers nothing" []
    (deliver 3 4 (view ()));
  Alcotest.(check (list int)) "a changed one answers" [ 3 ]
    (List.map fst (deliver 3 5 (view ~part:(set [ 1; 2; 3 ]) ())))

let test_change_keeping_message_answers_nothing () =
  let _, deliver, view, _ = answering_node () in
  (* 3's detector output is not echoed: the stored view changes, our
     message to 3 does not *)
  Alcotest.(check (list (pair int int))) "an equal message is not re-sent" []
    (deliver 3 2 (view ~fd:(set [ 1; 2; 3 ]) ()));
  Alcotest.(check (list int)) "a changed echo is" [ 3 ]
    (List.map fst (deliver 3 3 (view ~fd:(set [ 1; 2; 3 ]) ~part:(set [ 1; 2; 3 ]) ())))

let test_answer_is_recorded () =
  let _, deliver, view, _ = answering_node () in
  Alcotest.(check (list int)) "3's changed view is answered" [ 3 ]
    (List.map fst (deliver 3 2 (view ~part:(set [ 1; 2; 3 ]) ())));
  (* 2 reports a phase-2 notification of the installed set: the receipt
     runs an iteration that leaves this node's state alone, so only the
     echo to 2 changes, and the message to 3 equals the answer just sent *)
  let installed = Notification.make Notification.P2 (set [ 1; 2; 3; 4 ]) in
  Alcotest.(check (list int)) "the iteration sends nothing more to 3" [ 2 ]
    (List.map fst (deliver 2 2 (view ~prp:installed ())))

let test_joiner_first_contact_sends () =
  let _, deliver, view, tick_stamp = answering_node () in
  (* processor 5 joined: a participant outside the configuration, whose
     first packet puts it into this node's participant set and so changes
     the message to every peer *)
  let all = set [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check (list (pair int int)))
    "every trusted peer, under one fresh stamp"
    [ (5, tick_stamp + 1); (4, tick_stamp + 1); (3, tick_stamp + 1); (2, tick_stamp + 1) ]
    (deliver 5 1 (view ~fd:all ~part:all ()));
  Alcotest.(check (list (pair int int))) "the same packet again sends nothing" []
    (deliver 5 2 (view ~fd:all ~part:all ()))

let test_tick_resends_corrupted_record () =
  (* the outbound record is part of the arbitrary start: whatever
     [corrupt_state] writes there, the next tick sends every trusted peer
     (but this node) its current message and records it *)
  let members = set [ 1; 2; 3; 4 ] in
  let b =
    Stack.driver ~capacity:8 ~n_bound:8 ~theta:4 ~hooks:Stack.unit_hooks
      ~members_set:members ~directory:(ref members)
  in
  let ctx = Step.create ~trace:(Trace.create ()) ~telemetry:(Telemetry.create ()) in
  ctx.Step.ctx_self <- 1;
  List.iter
    (fun seed ->
      let n = b.init 1 in
      ctx.Step.ctx_send <- (fun _ _ -> ());
      List.iter
        (fun p ->
          ignore
            (b.on_message ctx p
               (Stack.Sa
                  ( 1,
                    {
                      Recsa.m_fd = members;
                      m_part = members;
                      m_config = Config_value.Set members;
                      m_prp = Notification.default;
                      m_all = false;
                      m_echo = None;
                    } ))
               n))
        [ 2; 3; 4 ];
      ignore (b.on_timer ctx n);
      Stack.corrupt_state ~hooks:Stack.unit_hooks ~pool:[ 1; 2; 3; 4; 5; 6 ]
        ~rng:(Rng.create seed) n;
      Alcotest.(check int) "a garbage message per pool member" 6
        (Pid.Map.cardinal n.Stack.sa_out);
      (* the first tick after the corruption, and the next one *)
      List.iter
        (fun tick ->
          let sent = ref [] in
          ctx.Step.ctx_send <-
            (fun dst m ->
              match m with
              | Stack.Sa (_, msg) ->
                let trusted = Detector.Theta_fd.trusted n.Stack.fd in
                Alcotest.(check bool)
                  (Printf.sprintf "seed %d, tick %d: the current message to %d" seed tick dst)
                  true
                  (match Recsa.message_to n.Stack.sa ~trusted dst with
                  | Some current -> Recsa.equal_message msg current
                  | None -> false);
                sent := (dst, msg) :: !sent
              | _ -> ());
          ignore (b.on_timer ctx n);
          let trusted = Detector.Theta_fd.trusted n.Stack.fd in
          let expected =
            if Recsa.is_participant n.Stack.sa then Pid.Set.elements (Pid.Set.remove 1 trusted)
            else []
          in
          Alcotest.(check (list int))
            (Printf.sprintf "seed %d, tick %d: every trusted peer, once" seed tick)
            expected
            (List.sort compare (List.map fst !sent));
          List.iter
            (fun (dst, msg) ->
              Alcotest.(check bool) "recorded as sent" true
                (Pid.Map.find dst n.Stack.sa_out == msg))
            !sent)
        [ 1; 2 ])
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* sim-seconds from the joiner's [join.participate] until every live
   participant of a steady N = 8 register cluster reports noReco again *)
let outage_after_join ~seed =
  let sys =
    Stack.of_scenario ~hooks:(Register.Register_service.hooks ())
      (Scenario.make ~seed ~nodes:8 ())
  in
  Stack.run_rounds sys 25;
  Stack.add_joiner sys 9;
  Alcotest.(check bool) "the joiner participates" true
    (Stack.run_until sys ~max_steps:2_000_000 (fun t ->
         Recsa.is_participant (Stack.node t 9).Stack.sa));
  let eng = Stack.engine sys in
  let start = Engine.time eng in
  let no_reco t =
    List.for_all
      (fun (p, n) ->
        (not (Recsa.is_participant n.Stack.sa))
        || Recsa.no_reco n.Stack.sa ~trusted:(Stack.trusted_of t p))
      (Stack.live_nodes t)
  in
  Alcotest.(check bool) "noReco again" true (Stack.run_until sys ~max_steps:2_000_000 no_reco);
  Engine.time eng -. start

let test_join_outage () =
  (* The new participant's part and echoes must reach every pair. Seeds
     1-3 take 7.41 / 7.62 / 7.64 sim-s when the echoes travel on ticks
     only, 6.80 / 6.07 / 7.93 when a changed view is answered in its
     receipt step, and 6.15 / 5.80 / 5.21 when a joiner's first contact
     also sends every member's changed message at once (over seeds
     1-1000, 20 % of the joins take 7.2 sim-s or more without that and
     3 % with it). Whole rounds (7 / 7 / 7 against 6 / 7 / 6, a timer
     period being U[0.8, 1.2] sim-s) are too coarse to tell them apart. *)
  List.iter
    (fun seed ->
      let outage = outage_after_join ~seed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: noReco %.2f sim-s after the join, under 7.2" seed outage)
        true (outage < 7.2))
    [ 1; 2; 3 ]

let test_message_equality_by_value () =
  let asc = set [ 1; 2; 3; 4; 5; 6; 7 ] in
  let desc = List.fold_left (fun s p -> Pid.Set.add p s) Pid.Set.empty [ 7; 6; 5; 4; 3; 2; 1 ] in
  let msg fd part =
    {
      Recsa.m_fd = fd;
      m_part = part;
      m_config = Config_value.Set part;
      m_prp = Notification.make Notification.P1 part;
      m_all = true;
      m_echo = Some { Recsa.e_part = part; e_prp = Notification.default; e_all = false };
    }
  in
  Alcotest.(check bool) "distinct copies of equal values" true
    (Recsa.equal_message (msg asc asc) (msg desc desc));
  Alcotest.(check bool) "a differing echo" false
    (Recsa.equal_message (msg asc asc) { (msg asc asc) with Recsa.m_echo = None });
  Alcotest.(check bool) "a differing set" false
    (Recsa.equal_message (msg asc asc) (msg asc (set [ 1; 2 ])))

let suites =
  [
    ( "reconfig.values",
      [
        Alcotest.test_case "config values" `Quick test_config_value_basics;
        Alcotest.test_case "notification order" `Quick test_notification_order;
        Alcotest.test_case "malformed notifications" `Quick test_notification_malformed;
        Alcotest.test_case "degree" `Quick test_notification_degree;
        qtest prop_notification_max_is_upper_bound;
      ] );
    ( "reconfig.recsa",
      [
        Alcotest.test_case "steady state quiescent" `Quick test_steady_state_quiescent;
        Alcotest.test_case "delicate replacement" `Quick test_delicate_replacement;
        Alcotest.test_case "concurrent proposals" `Quick test_concurrent_proposals_single_winner;
        Alcotest.test_case "estab rejected mid-reco" `Quick test_estab_rejected_mid_reconfiguration;
        Alcotest.test_case "estab rejects trivial" `Quick test_estab_rejects_trivial;
        Alcotest.test_case "brute force recovery" `Quick test_brute_force_after_corruption;
        Alcotest.test_case "only old or new visible" `Quick
          test_replacement_exposes_only_old_or_new;
        Alcotest.test_case "pure two-node walkthrough" `Quick test_pure_two_node_replacement;
        Alcotest.test_case "join then majority collapse" `Quick
          test_join_then_majority_collapse;
        qtest prop_channel_stats_conserved;
        Alcotest.test_case "figure-2 automaton" `Quick test_figure2_automaton_trace;
        Alcotest.test_case "getConfig steady" `Quick test_get_config_during_steady_state;
        qtest prop_convergence_from_arbitrary_state;
      ] );
    ( "reconfig.recma",
      [
        Alcotest.test_case "majority collapse" `Quick test_recma_majority_collapse_triggers;
        Alcotest.test_case "prediction majority" `Quick test_recma_prediction_majority;
        Alcotest.test_case "default_eval_conf threshold" `Quick
          test_default_eval_conf_threshold;
      ] );
    ( "reconfig.join",
      [
        Alcotest.test_case "joiner becomes participant" `Quick test_joiner_becomes_participant;
        Alcotest.test_case "application can block" `Quick test_joiner_blocked_by_application;
        Alcotest.test_case "multiple joiners" `Quick test_join_count_and_events;
        Alcotest.test_case "snap handshake on join" `Quick test_joiner_runs_snap_handshake;
      ] );
    ( "reconfig.invariants",
      [
        Alcotest.test_case "clean steady state" `Quick test_stale_types_clean_state;
        Alcotest.test_case "type-1 detected" `Quick test_stale_type1_detected;
        Alcotest.test_case "type-2 detected" `Quick test_stale_type2_detected;
        Alcotest.test_case "type-3 detected" `Quick test_stale_type3_detected;
        Alcotest.test_case "type-4 detected" `Quick test_stale_type4_detected;
        Alcotest.test_case "stale report + recovery" `Quick test_stale_report_after_corruption;
        Alcotest.test_case "closure (Thm 3.16)" `Quick test_closure_theorem;
        Alcotest.test_case "descriptor interning" `Quick test_interning_physical_equality;
        prop_recsa_memo_exact;
        prop_message_to_fresh_build;
        Alcotest.test_case "quiet tick reads allSeen" `Quick test_quiet_tick_reads_allseen;
        prop_tick_resets_on_stale_types;
      ] );
    ( "reconfig.partitions",
      [
        Alcotest.test_case "minority cut and heal" `Quick test_partition_minority_and_heal;
        Alcotest.test_case "no split brain" `Quick test_partition_does_not_split_brain;
      ] );
    ("reconfig.chaos", [ qtest prop_chaos_convergence ]);
    ( "reconfig.eager",
      [
        Alcotest.test_case "steady: recSA sends only on ticks" `Quick
          test_steady_sends_only_on_ticks;
        Alcotest.test_case "single proposal installs within 18 rounds" `Quick
          test_single_proposal_installs_fast;
        Alcotest.test_case "replacement independent of interning" `Quick
          test_replacement_independent_of_interning;
        Alcotest.test_case "replacement span closes in its step" `Quick
          test_replacement_span_closes_in_step;
        Alcotest.test_case "a receipt re-sends only changed messages" `Quick
          test_receipt_resends_only_changes;
        Alcotest.test_case "a changed view answers its sender alone" `Quick
          test_changed_view_answers_sender;
        Alcotest.test_case "first and unchanged packets answer nothing" `Quick
          test_first_and_same_answer_nothing;
        Alcotest.test_case "a change keeping the message answers nothing" `Quick
          test_change_keeping_message_answers_nothing;
        Alcotest.test_case "an answer is recorded as sent" `Quick test_answer_is_recorded;
        Alcotest.test_case "a tick resends a corrupted record" `Quick
          test_tick_resends_corrupted_record;
        Alcotest.test_case "a joiner's first contact sends every peer" `Quick
          test_joiner_first_contact_sends;
        Alcotest.test_case "a join's outage" `Quick test_join_outage;
        Alcotest.test_case "message equality by value" `Quick test_message_equality_by_value;
      ] );
  ]
