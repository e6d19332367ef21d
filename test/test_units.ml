(* Unit tests for modules otherwise covered only through integration:
   recMA internals, the joining mechanism's gating, result tables. *)

open Sim
open Reconfig

let set = Pid.set_of_list

(* --- recMA --- *)

(* Build a recSA instance that believes a steady configuration: own config
   set plus consistent peer reports. *)
let steady_recsa ~self ~members =
  let sa = Recsa.create ~self ~participant:true ~initial_config:members () in
  Pid.Set.iter
    (fun p ->
      if not (Pid.equal p self) then
        Recsa.receive sa ~from:p
          {
            Recsa.m_fd = members;
            m_part = members;
            m_config = Config_value.Set members;
            m_prp = Notification.default;
            m_all = false;
            m_echo =
              Some
                {
                  Recsa.e_part = members;
                  e_prp = Notification.default;
                  e_all = false;
                };
          })
    members;
  sa

let test_recma_core_intersection () =
  let members = set [ 1; 2; 3 ] in
  let sa = steady_recsa ~self:1 ~members in
  let ma = Recma.create ~self:1 in
  let core = Recma.core ma ~trusted:members ~recsa:sa in
  Alcotest.(check (list int)) "core = intersection of all FDs" [ 1; 2; 3 ]
    (Pid.Set.elements core)

(* a send that records each [(dst, msg)], and the record in send order *)
let collecting_send () =
  let sent = ref [] in
  ((fun dst m -> sent := (dst, m) :: !sent), fun () -> List.rev !sent)

let no_send _ _ = ()

let test_recma_no_trigger_in_steady_state () =
  let members = set [ 1; 2; 3 ] in
  let sa = steady_recsa ~self:1 ~members in
  let ma = Recma.create ~self:1 in
  for _ = 1 to 5 do
    let events =
      Recma.tick ma ~trusted:members ~recsa:sa ~eval_conf:(fun _ -> false) ~send:no_send ()
    in
    Alcotest.(check (list (pair string string))) "no trigger events" [] events
  done;
  Alcotest.(check int) "no estab attempts" 0 (Recma.attempt_count ma)

let test_recma_messages_to_participants () =
  let members = set [ 1; 2; 3 ] in
  let sa = steady_recsa ~self:1 ~members in
  let ma = Recma.create ~self:1 in
  let send, sent = collecting_send () in
  ignore (Recma.tick ma ~trusted:members ~recsa:sa ~eval_conf:(fun _ -> false) ~send ());
  Alcotest.(check (list int)) "broadcast to other participants" [ 2; 3 ]
    (List.sort compare (List.map fst (sent ())))

let test_recma_prediction_needs_majority () =
  let members = set [ 1; 2; 3; 4; 5 ] in
  let sa = steady_recsa ~self:1 ~members in
  let ma = Recma.create ~self:1 in
  (* own vote only: 1 of 5 — no trigger *)
  let _ =
    Recma.tick ma ~trusted:members ~recsa:sa ~eval_conf:(fun _ -> true) ~send:no_send ()
  in
  Alcotest.(check int) "no trigger on own vote" 0 (Recma.attempt_count ma);
  (* two more supporters: 3 of 5 — majority, trigger *)
  Recma.receive ma ~from:2 ~participant:true
    { Recma.m_no_maj = false; m_need_reconf = true };
  Recma.receive ma ~from:3 ~participant:true
    { Recma.m_no_maj = false; m_need_reconf = true };
  let _ =
    Recma.tick ma ~trusted:members ~recsa:sa ~eval_conf:(fun _ -> true) ~send:no_send ()
  in
  Alcotest.(check bool) "trigger attempted with majority" true
    (Recma.attempt_count ma >= 1)

let test_recma_non_participant_ignores_messages () =
  let ma = Recma.create ~self:1 in
  Recma.receive ma ~from:2 ~participant:false
    { Recma.m_no_maj = true; m_need_reconf = true };
  (* nothing observable should have been stored: a tick as a non-participant
     produces nothing *)
  let sa = Recsa.create ~self:1 ~participant:false () in
  let send, sent = collecting_send () in
  let events =
    Recma.tick ma ~trusted:(set [ 1; 2 ]) ~recsa:sa ~eval_conf:(fun _ -> true) ~send ()
  in
  Alcotest.(check bool) "no output as non-participant" true (sent () = [] && events = [])

(* --- joining mechanism --- *)

let test_join_member_gates_on_pass_query () =
  let members = set [ 1; 2; 3 ] in
  let sa = steady_recsa ~self:1 ~members in
  let j = Join.create ~self:1 in
  (* member replies positively when the application allows *)
  (match
     Join.on_request j ~self_app:() ~from:9 ~trusted:members ~recsa:sa
       ~pass_query:(fun _ -> true)
   with
  | Some (Join.Join_reply { pass = true; _ }) -> ()
  | _ -> Alcotest.fail "expected a positive pass");
  (* ... and negatively when it does not *)
  match
    Join.on_request j ~self_app:() ~from:9 ~trusted:members ~recsa:sa
      ~pass_query:(fun _ -> false)
  with
  | Some (Join.Join_reply { pass = false; _ }) -> ()
  | _ -> Alcotest.fail "expected a negative pass"

let test_join_non_member_does_not_reply () =
  let members = set [ 2; 3; 4 ] in
  (* self=1 is a participant but NOT a configuration member *)
  let sa = Recsa.create ~self:1 ~participant:true ~initial_config:members () in
  let j = Join.create ~self:1 in
  match
    Join.on_request j ~self_app:() ~from:9 ~trusted:(set [ 1; 2; 3; 4 ])
      ~recsa:sa ~pass_query:(fun _ -> true)
  with
  | None -> ()
  | Some _ -> Alcotest.fail "non-members must not answer join requests"

let test_join_majority_required () =
  let members = set [ 1; 2; 3 ] in
  let sa = Recsa.create ~self:9 ~participant:false () in
  (* teach the joiner the configuration through received messages *)
  Pid.Set.iter
    (fun p ->
      Recsa.receive sa ~from:p
        {
          Recsa.m_fd = Pid.Set.add 9 members;
          m_part = members;
          m_config = Config_value.Set members;
          m_prp = Notification.default;
          m_all = false;
          m_echo = None;
        })
    members;
  let j = Join.create ~self:9 in
  let trusted = Pid.Set.add 9 members in
  (* one pass: not a majority of three members *)
  let tick () =
    Join.tick j ~trusted ~recsa:sa ~reset_vars:(fun () -> ())
      ~init_vars:(fun _ -> ())
      ~send:no_send ()
  in
  ignore (tick ());
  Join.on_reply j ~from:1 ~participant:false ~pass:true ~app:();
  ignore (tick ());
  Alcotest.(check bool) "one pass is not enough" false (Recsa.is_participant sa);
  Join.on_reply j ~from:2 ~participant:false ~pass:true ~app:();
  ignore (tick ());
  Alcotest.(check bool) "two passes of three admit" true (Recsa.is_participant sa);
  Alcotest.(check int) "join counted" 1 (Join.join_count j)

(* --- result tables --- *)

let test_table_csv () =
  let t =
    Harness.Table.make ~id:"T" ~title:"t" ~claim:"c" ~header:[ "a"; "b" ]
      [ [ "1"; "2" ]; [ "3"; "4" ] ]
  in
  Alcotest.(check string) "csv" "a,b\n1,2\n3,4" (Harness.Table.to_csv t)

let test_table_pp_alignment () =
  let t =
    Harness.Table.make ~id:"T" ~title:"widths" ~claim:"c"
      ~header:[ "col"; "x" ]
      [ [ "longvalue"; "1" ] ]
  in
  let s = Format.asprintf "%a" Harness.Table.pp t in
  let contains needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "renders values" true (contains "longvalue" s);
  Alcotest.(check bool) "renders claim" true (contains "claim: c" s)

let suites =
  [
    ( "recma.unit",
      [
        Alcotest.test_case "core intersection" `Quick test_recma_core_intersection;
        Alcotest.test_case "quiet in steady state" `Quick test_recma_no_trigger_in_steady_state;
        Alcotest.test_case "broadcast targets" `Quick test_recma_messages_to_participants;
        Alcotest.test_case "prediction needs majority" `Quick test_recma_prediction_needs_majority;
        Alcotest.test_case "non-participant inert" `Quick test_recma_non_participant_ignores_messages;
      ] );
    ( "join.unit",
      [
        Alcotest.test_case "pass_query gating" `Quick test_join_member_gates_on_pass_query;
        Alcotest.test_case "non-member silent" `Quick test_join_non_member_does_not_reply;
        Alcotest.test_case "majority required" `Quick test_join_majority_required;
      ] );
    ( "harness.table",
      [
        Alcotest.test_case "csv" `Quick test_table_csv;
        Alcotest.test_case "pp" `Quick test_table_pp_alignment;
      ] );
  ]
