(* Tests for the majority quorum rule and one quorum round (Quorum.Phase). *)

open Sim

let qtest = QCheck_alcotest.to_alcotest
let set = Pid.set_of_list

let test_majority_boundary () =
  (* of n members, the first ⌊n/2⌋+1 are a majority and one fewer is not *)
  for n = 1 to 5 do
    let config = set (List.init n (fun i -> i + 1)) in
    let first k = set (List.init k (fun i -> i + 1)) in
    let t = (n / 2) + 1 in
    Alcotest.(check bool) (Printf.sprintf "%d of %d" t n) true
      (Quorum.has_majority ~config (first t));
    Alcotest.(check bool) (Printf.sprintf "%d of %d" (t - 1) n) false
      (Quorum.has_majority ~config (first (t - 1)))
  done

let test_majority_is_quorum () =
  let config = set [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check bool) "3 of 5" true (Quorum.has_majority ~config (set [ 1; 2; 3 ]));
  Alcotest.(check bool) "2 of 5" false (Quorum.has_majority ~config (set [ 1; 2 ]));
  Alcotest.(check bool) "outsiders don't count" false
    (Quorum.has_majority ~config (set [ 6; 7; 8; 9 ]));
  Alcotest.(check bool) "mixed" true (Quorum.has_majority ~config (set [ 3; 4; 5; 9 ]))

let test_majority_empty_config () =
  (* the threshold of an empty config is 1, and nothing in it is present *)
  Alcotest.(check bool) "empty config has no majority" false
    (Quorum.has_majority ~config:Pid.Set.empty Pid.Set.empty);
  Alcotest.(check bool) "outsiders make no majority of an empty config" false
    (Quorum.has_majority ~config:Pid.Set.empty (set [ 1 ]))

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

let prop_majority_intersection =
  QCheck.Test.make ~name:"majority: two quorums intersect" gen_config_and_subsets
    (fun (c, a, b) ->
      let config = set c and qa = set a and qb = set b in
      (not (Quorum.has_majority ~config qa && Quorum.has_majority ~config qb))
      || not (Pid.Set.is_empty (Pid.Set.inter (Pid.Set.inter qa qb) config)))

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
  let requests () =
    let sent = ref [] in
    Phase.send_requests ~self:1 round (fun dst m -> sent := (dst, m) :: !sent);
    List.rev !sent
  in
  let destinations () = List.map fst (requests ()) in
  Alcotest.(check (list int)) "every target but self, descending" [ 5; 4; 3; 2 ]
    (destinations ());
  Phase.record round ~from:1 "own";
  ignore (Phase.receive round ~from:2 (Phase.Reply { id = 3; rep = "ok" }));
  ignore (Phase.receive round ~from:4 (Phase.Reply { id = 3; rep = "ok" }));
  ignore (Phase.receive round ~from:5 (Phase.Reply { id = 2; rep = "stale" }));
  Alcotest.(check (list int)) "only the unanswered, descending" [ 5; 3 ] (destinations ());
  Alcotest.(check bool) "requests carry the round" true
    (List.for_all
       (function _, Phase.Request { id = 3; req = "req" } -> true | _ -> false)
       (requests ()))

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
        Alcotest.test_case "majority threshold" `Quick test_majority_boundary;
        Alcotest.test_case "majority membership" `Quick test_majority_is_quorum;
        Alcotest.test_case "empty config" `Quick test_majority_empty_config;
        Alcotest.test_case "phase: only current members count" `Quick
          test_phase_only_current_members_count;
        Alcotest.test_case "phase: completes at a majority" `Quick
          test_phase_completes_at_majority;
        Alcotest.test_case "phase: retransmits to the unanswered" `Quick
          test_phase_retransmits_to_unanswered;
        Alcotest.test_case "phase: refusal of the current id only" `Quick
          test_phase_refusal_current_only;
        qtest prop_majority_intersection;
      ] );
  ]
