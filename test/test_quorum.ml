(* Tests for the quorum systems: majority and grid. *)

open Sim

let qtest = QCheck_alcotest.to_alcotest
let set = Pid.set_of_list

let test_majority_threshold () =
  Alcotest.(check int) "n=1" 1 (Quorum.majority_threshold 1);
  Alcotest.(check int) "n=2" 2 (Quorum.majority_threshold 2);
  Alcotest.(check int) "n=3" 2 (Quorum.majority_threshold 3);
  Alcotest.(check int) "n=4" 3 (Quorum.majority_threshold 4);
  Alcotest.(check int) "n=5" 3 (Quorum.majority_threshold 5)

let test_majority_is_quorum () =
  let config = set [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check bool) "3 of 5" true (Quorum.Majority.is_quorum ~config (set [ 1; 2; 3 ]));
  Alcotest.(check bool) "2 of 5" false (Quorum.Majority.is_quorum ~config (set [ 1; 2 ]));
  Alcotest.(check bool) "outsiders don't count" false
    (Quorum.Majority.is_quorum ~config (set [ 6; 7; 8; 9 ]));
  Alcotest.(check bool) "mixed" true
    (Quorum.Majority.is_quorum ~config (set [ 3; 4; 5; 9 ]))

let test_majority_empty_config () =
  Alcotest.(check bool) "empty config has no quorum... " false
    (Quorum.Majority.is_quorum ~config:Pid.Set.empty Pid.Set.empty |> not |> not
    |> fun b -> b && false);
  (* an empty set against an empty config: threshold is 1, present is 0 *)
  Alcotest.(check bool) "no quorum of empty config" false
    (Quorum.Majority.is_quorum ~config:Pid.Set.empty (set [ 1 ]))

let gen_config_and_subsets =
  QCheck.make
    ~print:(fun (c, a, b) ->
      Format.asprintf "config=%a a=%a b=%a" Pid.pp_set (set c) Pid.pp_set (set a)
        Pid.pp_set (set b))
    QCheck.Gen.(
      let* n = int_range 1 12 in
      let config = List.init n (fun i -> i) in
      let* a = flatten_l (List.map (fun p -> map (fun keep -> (p, keep)) bool) config) in
      let* b = flatten_l (List.map (fun p -> map (fun keep -> (p, keep)) bool) config) in
      let pick l = List.filter_map (fun (p, keep) -> if keep then Some p else None) l in
      return (config, pick a, pick b))

let prop_quorum_intersection (module Q : Quorum.SYSTEM) name =
  QCheck.Test.make ~name:(name ^ ": two quorums intersect") gen_config_and_subsets
    (fun (c, a, b) ->
      let config = set c and qa = set a and qb = set b in
      if Q.is_quorum ~config qa && Q.is_quorum ~config qb then
        Quorum.intersects (Pid.Set.inter qa config) (Pid.Set.inter qb config)
      else true)

let test_grid_basic () =
  (* 9 members in a 3x3 grid: a full row + one per row is a quorum *)
  let config = set [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ] in
  (* rows: [1;2;3] [4;5;6] [7;8;9] *)
  Alcotest.(check bool) "row+cover" true
    (Quorum.Grid.is_quorum ~config (set [ 1; 2; 3; 4; 7 ]));
  Alcotest.(check bool) "missing a row touch" false
    (Quorum.Grid.is_quorum ~config (set [ 1; 2; 3; 4 ]));
  Alcotest.(check bool) "no full row" false
    (Quorum.Grid.is_quorum ~config (set [ 1; 5; 9 ]));
  Alcotest.(check bool) "everything" true (Quorum.Grid.is_quorum ~config config)

let test_grid_small_configs () =
  Alcotest.(check bool) "singleton" true
    (Quorum.Grid.is_quorum ~config:(set [ 1 ]) (set [ 1 ]));
  Alcotest.(check bool) "pair needs both.. majority=2" true
    (Quorum.Grid.is_quorum ~config:(set [ 1; 2 ]) (set [ 1; 2 ]));
  Alcotest.(check bool) "pair single insufficient" false
    (Quorum.Grid.is_quorum ~config:(set [ 1; 2 ]) (set [ 1 ]))

let test_wall_basic () =
  (* 10 members -> rows [1] [2;3] [4;5;6] [7;8;9;10] *)
  let config = set [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  Alcotest.(check bool) "top row + reps below" true
    (Quorum.Wall.is_quorum ~config (set [ 1; 2; 4; 7 ]));
  Alcotest.(check bool) "full middle row + reps below" true
    (Quorum.Wall.is_quorum ~config (set [ 4; 5; 6; 8 ]));
  Alcotest.(check bool) "bottom row alone" true
    (Quorum.Wall.is_quorum ~config (set [ 7; 8; 9; 10 ]));
  Alcotest.(check bool) "no full row" false
    (Quorum.Wall.is_quorum ~config (set [ 2; 4; 7 ]));
  Alcotest.(check bool) "full row but a row below untouched" false
    (Quorum.Wall.is_quorum ~config (set [ 2; 3; 7 ]))

let test_wall_small_configs () =
  Alcotest.(check bool) "singleton" true
    (Quorum.Wall.is_quorum ~config:(set [ 1 ]) (set [ 1 ]));
  Alcotest.(check bool) "pair single insufficient" false
    (Quorum.Wall.is_quorum ~config:(set [ 1; 2 ]) (set [ 2 ]))

let test_has_majority_alias () =
  let config = set [ 1; 2; 3 ] in
  Alcotest.(check bool) "alias works" true (Quorum.has_majority ~config (set [ 1; 2 ]))

(* --- one quorum round (Quorum.Phase) --- *)

module Phase = Quorum.Phase

let test_phase_only_current_members_count () =
  let round = Phase.start ~id:7 ~conf:(set [ 1; 2; 3; 4; 5 ]) ~targets:(set [ 6; 7 ]) () in
  Alcotest.(check bool) "a joiner's reply is recorded" true
    (Phase.receive round ~from:6 (Phase.Reply { id = 7; rep = () }) = `Replied);
  ignore (Phase.receive round ~from:7 (Phase.Reply { id = 7; rep = () }));
  Alcotest.(check bool) "a stale reply is ignored" true
    (Phase.receive round ~from:1 (Phase.Reply { id = 6; rep = () }) = `Ignored);
  ignore (Phase.receive round ~from:2 (Phase.Reply { id = 6; rep = () }));
  Alcotest.(check (list int)) "only current replies are kept" [ 6; 7 ]
    (List.map fst (Pid.Map.bindings (Phase.replies round)));
  ignore (Phase.receive round ~from:1 (Phase.Reply { id = 7; rep = () }));
  ignore (Phase.receive round ~from:2 (Phase.Reply { id = 7; rep = () }));
  Alcotest.(check bool) "2 members + 2 outsiders: not done" false (Phase.complete round);
  ignore (Phase.receive round ~from:3 (Phase.Reply { id = 7; rep = () }));
  Alcotest.(check bool) "3 of 5 members: done" true (Phase.complete round)

let test_phase_completes_at_majority () =
  for n = 1 to 9 do
    let round = Phase.start ~id:0 ~conf:(set (List.init n (fun i -> i + 1))) () in
    for k = 1 to n do
      Phase.record round ~from:k ();
      Alcotest.(check bool)
        (Printf.sprintf "n=%d after %d replies" n k)
        (k >= (n / 2) + 1) (Phase.complete round)
    done
  done

let test_phase_retransmits_to_unanswered () =
  let round = Phase.start ~id:3 ~conf:(set [ 1; 2; 3 ]) ~targets:(set [ 4; 5 ]) "req" in
  let destinations () = List.sort compare (List.map fst (Phase.requests ~self:1 round)) in
  Alcotest.(check (list int)) "every target but self" [ 2; 3; 4; 5 ] (destinations ());
  Phase.record round ~from:1 "own";
  ignore (Phase.receive round ~from:2 (Phase.Reply { id = 3; rep = "ok" }));
  ignore (Phase.receive round ~from:4 (Phase.Reply { id = 3; rep = "ok" }));
  ignore (Phase.receive round ~from:5 (Phase.Reply { id = 2; rep = "stale" }));
  Alcotest.(check (list int)) "only the unanswered" [ 3; 5 ] (destinations ());
  Alcotest.(check bool) "requests carry the round" true
    (List.for_all
       (function _, Phase.Request { id = 3; req = "req" } -> true | _ -> false)
       (Phase.requests ~self:1 round))

let test_phase_refusal_current_only () =
  let round = Phase.start ~id:5 ~conf:(set [ 1; 2; 3 ]) () in
  Alcotest.(check bool) "stale refusal" true
    (Phase.receive round ~from:2 (Phase.Refuse { id = 4 }) = `Ignored);
  Alcotest.(check bool) "current refusal" true
    (Phase.receive round ~from:2 (Phase.Refuse { id = 5 }) = `Refused);
  Alcotest.(check bool) "a request is not an answer" true
    (Phase.receive round ~from:2 (Phase.Request { id = 5; req = () }) = `Ignored);
  Alcotest.(check int) "refusals record no reply" 0 (Pid.Map.cardinal (Phase.replies round))

let suites =
  [
    ( "quorum",
      [
        Alcotest.test_case "majority threshold" `Quick test_majority_threshold;
        Alcotest.test_case "majority membership" `Quick test_majority_is_quorum;
        Alcotest.test_case "empty config" `Quick test_majority_empty_config;
        Alcotest.test_case "grid basics" `Quick test_grid_basic;
        Alcotest.test_case "grid small configs" `Quick test_grid_small_configs;
        Alcotest.test_case "wall basics" `Quick test_wall_basic;
        Alcotest.test_case "wall small configs" `Quick test_wall_small_configs;
        Alcotest.test_case "has_majority alias" `Quick test_has_majority_alias;
        Alcotest.test_case "phase: only current members count" `Quick
          test_phase_only_current_members_count;
        Alcotest.test_case "phase: completes at a majority" `Quick
          test_phase_completes_at_majority;
        Alcotest.test_case "phase: retransmits to the unanswered" `Quick
          test_phase_retransmits_to_unanswered;
        Alcotest.test_case "phase: refusal of the current id only" `Quick
          test_phase_refusal_current_only;
        qtest (prop_quorum_intersection (module Quorum.Majority) "majority");
        qtest (prop_quorum_intersection (module Quorum.Grid) "grid");
        qtest (prop_quorum_intersection (module Quorum.Wall) "wall");
      ] );
  ]
