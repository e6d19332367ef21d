(* Tests for the (N,Θ)-failure detector. *)

open Sim
module FD = Detector.Theta_fd

let set = Pid.set_of_list

(* Simulate r rounds of heartbeats arriving at processor 0 from [live]
   processors (one heartbeat per live processor per round, in order). *)
let feed fd live rounds =
  for _ = 1 to rounds do
    List.iter (fun p -> FD.heartbeat fd p) live
  done

let test_trusts_live () =
  let fd = FD.create ~n_bound:10 ~theta:4 ~self:0 in
  feed fd [ 1; 2; 3 ] 5;
  Alcotest.(check bool) "all live trusted" true
    (Pid.Set.subset (set [ 0; 1; 2; 3 ]) (FD.trusted fd))

let test_suspects_silent () =
  let fd = FD.create ~n_bound:10 ~theta:4 ~self:0 in
  (* p3 heartbeats for a while, then goes silent *)
  feed fd [ 1; 2; 3 ] 5;
  feed fd [ 1; 2 ] 200;
  let trusted = FD.trusted fd in
  Alcotest.(check bool) "1 trusted" true (Pid.Set.mem 1 trusted);
  Alcotest.(check bool) "2 trusted" true (Pid.Set.mem 2 trusted);
  Alcotest.(check bool) "3 suspected" false (Pid.Set.mem 3 trusted)

let test_estimate_tracks_live_count () =
  let fd = FD.create ~n_bound:32 ~theta:4 ~self:0 in
  feed fd [ 1; 2; 3; 4; 5 ] 10;
  Alcotest.(check int) "estimate" 6 (FD.estimate fd)

let test_n_bound_cap () =
  let fd = FD.create ~n_bound:3 ~theta:4 ~self:0 in
  feed fd [ 1; 2; 3; 4; 5; 6; 7 ] 10;
  Alcotest.(check bool) "estimate capped at N" true (FD.estimate fd <= 3)

let test_self_always_trusted () =
  let fd = FD.create ~n_bound:4 ~theta:4 ~self:9 in
  Alcotest.(check bool) "self trusted initially" true (Pid.Set.mem 9 (FD.trusted fd));
  feed fd [ 1; 2 ] 50;
  Alcotest.(check bool) "self still trusted" true (Pid.Set.mem 9 (FD.trusted fd))

let test_recovers_from_corruption () =
  let fd = FD.create ~n_bound:10 ~theta:4 ~self:0 in
  (* arbitrary garbage counts: live processors appear crashed and vice
     versa *)
  FD.corrupt fd [ (1, 100_000); (2, 50_000); (42, 0) ];
  feed fd [ 1; 2; 3 ] 300;
  let trusted = FD.trusted fd in
  Alcotest.(check bool) "live re-trusted after corruption" true
    (Pid.Set.subset (set [ 0; 1; 2; 3 ]) trusted);
  Alcotest.(check bool) "ghost suspected eventually" false (Pid.Set.mem 42 trusted)

let test_rejoining_heartbeat_restores_trust () =
  let fd = FD.create ~n_bound:10 ~theta:4 ~self:0 in
  feed fd [ 1; 2; 3 ] 5;
  feed fd [ 1; 2 ] 200;
  Alcotest.(check bool) "suspected while silent" false (Pid.Set.mem 3 (FD.trusted fd));
  feed fd [ 1; 2; 3 ] 10;
  Alcotest.(check bool) "trusted again after heartbeats" true (Pid.Set.mem 3 (FD.trusted fd))

let test_known_and_forget () =
  let fd = FD.create ~n_bound:10 ~theta:4 ~self:0 in
  feed fd [ 4; 5 ] 1;
  Alcotest.(check bool) "known contains heard" true
    (Pid.Set.subset (set [ 0; 4; 5 ]) (FD.known fd));
  FD.forget fd 4;
  Alcotest.(check bool) "forgotten" false (Pid.Set.mem 4 (FD.known fd))

let prop_trusted_subset_of_known =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"trusted is always a subset of known + self"
       QCheck.(small_list (pair (int_range 1 20) (int_range 0 1000)))
       (fun events ->
         let fd = FD.create ~n_bound:8 ~theta:4 ~self:0 in
         List.iter
           (fun (p, reps) ->
             for _ = 1 to reps mod 7 do
               FD.heartbeat fd p
             done)
           events;
         Pid.Set.subset (FD.trusted fd) (Pid.Set.add 0 (FD.known fd))))

(* The detector as first written — an explicit last-heard map, sorted and
   walked on every query — kept here as the reference the incremental
   ordered list must match exactly. *)
module Sorted_fd = struct
  type t = {
    n_bound : int;
    theta : int;
    self : Pid.t;
    mutable epoch : int;
    mutable last : int Pid.Map.t;
  }

  let create ~n_bound ~theta ~self =
    { n_bound; theta; self; epoch = 0; last = Pid.Map.singleton self 0 }

  let heartbeat t p =
    t.epoch <- t.epoch + 1;
    t.last <- Pid.Map.add p t.epoch (Pid.Map.add t.self t.epoch t.last)

  let forget t p = t.last <- Pid.Map.remove p t.last

  let corrupt t assoc =
    t.last <-
      List.fold_left (fun m (p, c) -> Pid.Map.add p (t.epoch - c) m) Pid.Map.empty assoc;
    t.last <- Pid.Map.add t.self t.epoch t.last

  let trusted t =
    let ranked =
      Pid.Map.bindings t.last
      |> List.map (fun (p, l) -> (t.epoch - l, p))
      |> List.sort compare
    in
    let known_count = max 1 (Pid.Map.cardinal t.last) in
    let rec walk prev taken acc = function
      | [] -> acc
      | (c, p) :: rest ->
        if taken >= t.n_bound || c > t.theta * (prev + known_count) then acc
        else walk c (taken + 1) (p :: acc) rest
    in
    let prefix =
      match ranked with [] -> [ t.self ] | (c0, p0) :: rest -> walk c0 1 [ p0 ] rest
    in
    Pid.Set.add t.self (set prefix)
end

type fd_op = Beat of Pid.t | Forget of Pid.t | Corrupt of (Pid.t * int) list

let gen_fd_op rs =
  let pid () = Random.State.int rs 10 in
  match Random.State.int rs 20 with
  | 0 -> Forget (pid ())
  | 1 ->
    Corrupt
      (List.init (Random.State.int rs 6) (fun _ ->
           (pid (), Random.State.int rs 300 - 20)))
  | _ ->
    (* a skewed sender mix: a few chatty processors, occasional others *)
    Beat (if Random.State.bool rs then Random.State.int rs 4 else pid ())

(* After every heartbeat, forget and corruption, [trusted] equals the
   sort-and-walk reference, [count]/[known]/[estimate] agree with it, and
   an unchanged membership comes back as the physically same set. *)
let prop_trusted_matches_sort_and_walk =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"incremental trusted set = sort-and-walk reference"
       ~count:300
       QCheck.(triple (int_range 0 100_000) (int_range 1 10) (int_range 2 5))
       (fun (seed, n_bound, theta) ->
         let rs = Random.State.make [| seed |] in
         let fd = FD.create ~n_bound ~theta ~self:0 in
         let reference = Sorted_fd.create ~n_bound ~theta ~self:0 in
         let prev = ref (FD.trusted fd) in
         List.for_all
           (fun op ->
             (match op with
             | Beat p ->
               FD.heartbeat fd p;
               Sorted_fd.heartbeat reference p
             | Forget p ->
               FD.forget fd p;
               Sorted_fd.forget reference p
             | Corrupt assoc ->
               FD.corrupt fd assoc;
               Sorted_fd.corrupt reference assoc);
             let expected = Sorted_fd.trusted reference in
             let got = FD.trusted fd in
             let same_membership = Pid.Set.equal got !prev in
             let ok =
               Pid.Set.equal got expected
               && ((not same_membership) || got == !prev)
               && FD.trusted fd == got
               && FD.estimate fd = Pid.Set.cardinal expected
               && Pid.Set.equal (FD.known fd)
                    (Pid.Map.fold (fun p _ acc -> Pid.Set.add p acc) reference.last
                       Pid.Set.empty)
               && List.for_all
                    (fun p ->
                      FD.count fd p
                      = Option.map
                          (fun l -> reference.epoch - l)
                          (Pid.Map.find_opt p reference.last))
                    (List.init 10 Fun.id)
             in
             prev := got;
             ok)
           (List.init 400 (fun _ -> gen_fd_op rs))))

let test_trusted_physically_stable () =
  let fd = FD.create ~n_bound:10 ~theta:4 ~self:0 in
  feed fd [ 1; 2; 3 ] 20;
  let before = FD.trusted fd in
  feed fd [ 1; 2; 3 ] 20;
  Alcotest.(check bool) "same membership, same set" true (FD.trusted fd == before);
  feed fd [ 1; 2 ] 200;
  Alcotest.(check bool) "suspecting 3 yields a new set" true
    (Pid.Set.equal (FD.trusted fd) (set [ 0; 1; 2 ]))

let test_heartbeat_allocation_free () =
  (* a heartbeat from an already-known peer only relinks slots: it must
     allocate nothing, since one runs on every received packet *)
  let fd = FD.create ~n_bound:16 ~theta:4 ~self:0 in
  let peers = [| 1; 2; 3; 4; 5; 6; 7; 8 |] in
  Array.iter (FD.heartbeat fd) peers;
  let before = Gc.minor_words () in
  for k = 0 to 9_999 do
    FD.heartbeat fd peers.(k land 7)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words over 10 000 heartbeats" 0. words

let suites =
  [
    ( "detector",
      [
        Alcotest.test_case "trusts live" `Quick test_trusts_live;
        Alcotest.test_case "suspects silent" `Quick test_suspects_silent;
        Alcotest.test_case "estimate" `Quick test_estimate_tracks_live_count;
        Alcotest.test_case "n_bound cap" `Quick test_n_bound_cap;
        Alcotest.test_case "self always trusted" `Quick test_self_always_trusted;
        Alcotest.test_case "recovers from corruption" `Quick test_recovers_from_corruption;
        Alcotest.test_case "rejoin restores trust" `Quick test_rejoining_heartbeat_restores_trust;
        Alcotest.test_case "known and forget" `Quick test_known_and_forget;
        prop_trusted_subset_of_known;
        prop_trusted_matches_sort_and_walk;
        Alcotest.test_case "trusted set physically stable" `Quick
          test_trusted_physically_stable;
        Alcotest.test_case "heartbeat allocates nothing" `Quick
          test_heartbeat_allocation_free;
      ] );
  ]
