(* Tests for the snap-stabilizing link cleaning of the data-link substrate. *)

open Sim
module SL = Datalink.Snap_link

let test_snap_link_completes () =
  let rng = Rng.create 8 in
  let cap = 3 in
  let a = SL.create ~capacity:cap ~self:1 ~peer:2 ~nonce:77 in
  let b = SL.create ~capacity:cap ~self:2 ~peer:1 ~nonce:88 in
  let ab = Channel.create ~capacity:cap and ba = Channel.create ~capacity:cap in
  (* stale garbage predating the handshake *)
  Channel.corrupt ab [ SL.Clean { src = 9; dst = 9; nonce = 0 } ];
  let rec go n =
    if n = 0 then ()
    else begin
      (match SL.on_tick a with Some m -> Channel.send ab rng m | None -> ());
      (match SL.on_tick b with Some m -> Channel.send ba rng m | None -> ());
      if not (Channel.is_empty ab) then begin
        match SL.on_msg b (Channel.take_nonempty ab rng) with
        | Some reply, _ -> Channel.send ba rng reply
        | None, _ -> ()
      end;
      if not (Channel.is_empty ba) then begin
        match SL.on_msg a (Channel.take_nonempty ba rng) with
        | Some reply, _ -> Channel.send ab rng reply
        | None, _ -> ()
      end;
      if SL.phase a = SL.Clean_done && SL.phase b = SL.Clean_done then ()
      else go (n - 1)
    end
  in
  go 10_000;
  Alcotest.(check bool) "a clean" true (SL.phase a = SL.Clean_done);
  Alcotest.(check bool) "b clean" true (SL.phase b = SL.Clean_done);
  Alcotest.(check bool) "acks exceeded round-trip capacity" true (SL.acks a > 2 * cap)

let test_snap_link_ignores_foreign_labels () =
  let a = SL.create ~capacity:2 ~self:1 ~peer:2 ~nonce:5 in
  (* a Clean packet whose labels do not match the link must be ignored *)
  let reply, _ = SL.on_msg a (SL.Clean { src = 3; dst = 1; nonce = 5 }) in
  Alcotest.(check bool) "no ack for foreign src" true (reply = None);
  let reply, _ = SL.on_msg a (SL.Clean { src = 2; dst = 9; nonce = 5 }) in
  Alcotest.(check bool) "no ack for foreign dst" true (reply = None);
  (* matching labels are acknowledged *)
  let reply, _ = SL.on_msg a (SL.Clean { src = 2; dst = 1; nonce = 5 }) in
  Alcotest.(check bool) "ack for matching" true (reply <> None)

let test_snap_link_wrong_nonce_acks_ignored () =
  let a = SL.create ~capacity:2 ~self:1 ~peer:2 ~nonce:5 in
  for _ = 1 to 100 do
    ignore (SL.on_msg a (SL.Clean_ack { src = 2; dst = 1; nonce = 999 }))
  done;
  Alcotest.(check bool) "still cleaning" true (SL.phase a = SL.Cleaning)

let suites =
  [
    ( "datalink.snap",
      [
        Alcotest.test_case "handshake completes" `Quick test_snap_link_completes;
        Alcotest.test_case "foreign labels ignored" `Quick test_snap_link_ignores_foreign_labels;
        Alcotest.test_case "wrong nonce ignored" `Quick test_snap_link_wrong_nonce_acks_ignored;
      ] );
  ]
