(* Tests for the bounded label structure (Section 4.1); the label storage
   of Algorithm 4.2 is tested in test_counter.ml. *)

open Sim
open Labels

let qtest = QCheck_alcotest.to_alcotest

(* --- pure label structure --- *)

let test_label_order_cross_creator () =
  let l1 = Label.make ~creator:1 ~sting:0 ~antistings:[] in
  let l2 = Label.make ~creator:2 ~sting:0 ~antistings:[] in
  Alcotest.(check bool) "creator order" true (Label.precedes l1 l2);
  Alcotest.(check bool) "antisymmetric" false (Label.precedes l2 l1)

let test_label_order_same_creator () =
  let l1 = Label.make ~creator:1 ~sting:0 ~antistings:[ 5 ] in
  let l2 = Label.make ~creator:1 ~sting:7 ~antistings:[ 0 ] in
  (* l1.sting=0 ∈ l2.antistings, l2.sting=7 ∉ l1.antistings: l1 ≺ l2 *)
  Alcotest.(check bool) "sting relation" true (Label.precedes l1 l2);
  Alcotest.(check bool) "not both ways" false (Label.precedes l2 l1);
  let l3 = Label.make ~creator:1 ~sting:9 ~antistings:[ 11 ] in
  let l4 = Label.make ~creator:1 ~sting:12 ~antistings:[ 13 ] in
  Alcotest.(check bool) "incomparable pair" false (Label.comparable l3 l4)

let test_next_label_dominates () =
  let known =
    [
      Label.make ~creator:1 ~sting:3 ~antistings:[ 1; 2 ];
      Label.make ~creator:1 ~sting:5 ~antistings:[ 0; 3 ];
      Label.make ~creator:2 ~sting:0 ~antistings:[ 4 ];
    ]
  in
  let fresh = Label.next_label ~creator:1 ~known in
  List.iter
    (fun l ->
      if Pid.equal l.Label.creator 1 then
        Alcotest.(check bool) "dominates same-creator known" true (Label.precedes l fresh))
    known

let prop_next_label_always_dominates =
  QCheck.Test.make ~name:"nextLabel dominates all same-creator known labels" ~count:200
    QCheck.(small_list (pair (int_range 0 20) (small_list (int_range 0 20))))
    (fun raw ->
      let known =
        List.map (fun (s, a) -> Label.make ~creator:1 ~sting:s ~antistings:a) raw
      in
      let fresh = Label.next_label ~creator:1 ~known in
      List.for_all (fun l -> Label.precedes l fresh) known)

let suites =
  [
    ( "label.structure",
      [
        Alcotest.test_case "cross-creator order" `Quick test_label_order_cross_creator;
        Alcotest.test_case "same-creator order" `Quick test_label_order_same_creator;
        Alcotest.test_case "next label dominates" `Quick test_next_label_dominates;
        qtest prop_next_label_always_dominates;
      ] );
  ]
