(* Tests for the simulation kernel: pids, rng, event queue, channel,
   trace, engine. *)

open Sim

let qtest = QCheck_alcotest.to_alcotest

(* --- Pid --- *)

let test_pid_set_lex () =
  let s = Pid.set_of_list in
  Alcotest.(check bool) "equal sets" true (Pid.compare_sets_lex (s [ 1; 2 ]) (s [ 2; 1 ]) = 0);
  Alcotest.(check bool) "prefix smaller" true (Pid.compare_sets_lex (s [ 1 ]) (s [ 1; 2 ]) < 0);
  Alcotest.(check bool) "pointwise" true (Pid.compare_sets_lex (s [ 1; 3 ]) (s [ 1; 4 ]) < 0);
  Alcotest.(check bool) "empty smallest" true (Pid.compare_sets_lex Pid.Set.empty (s [ 0 ]) < 0)

let prop_pid_lex_total_order =
  QCheck.Test.make ~name:"pid set lex order is antisymmetric"
    QCheck.(pair (small_list small_nat) (small_list small_nat))
    (fun (a, b) ->
      let sa = Pid.set_of_list a and sb = Pid.set_of_list b in
      let c1 = Pid.compare_sets_lex sa sb and c2 = Pid.compare_sets_lex sb sa in
      (c1 = 0 && c2 = 0 && Pid.Set.equal sa sb) || c1 * c2 < 0)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17);
    let f = Rng.float r in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 1.0)
  done

let test_rng_shuffle_permutes () =
  let r = Rng.create 11 in
  let l = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let s = Rng.shuffle r l in
  Alcotest.(check (list int)) "same elements" l (List.sort compare s)

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_chance_extremes () =
  let r = Rng.create 1 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=1 always" true (Rng.chance r 1.0);
    Alcotest.(check bool) "p=0 never" false (Rng.chance r 0.0)
  done

(* Every seeded run depends on these streams draw for draw; the goldens
   are in rng_golden.ml. *)
let rng_golden_draws = 64
let rng_golden_int_bounds = [| 2; 7; 1000; 1_000_003; max_int |]

let rng_golden_lines seed =
  let line name r draw =
    Printf.sprintf "seed %d %s:%s" seed name
      (String.concat "" (List.init rng_golden_draws (fun i -> " " ^ draw r i)))
  in
  let bits r _ = Printf.sprintf "%016Lx" (Rng.bits64 r) in
  let fresh () = Rng.create seed in
  let advanced = fresh () in
  for _ = 1 to rng_golden_draws do
    ignore (Rng.bits64 advanced)
  done;
  let parent = fresh () in
  let child = Rng.split parent in
  [
    line "bits64" (fresh ()) bits;
    line "int" (fresh ()) (fun r i ->
        string_of_int
          (Rng.int r rng_golden_int_bounds.(i mod Array.length rng_golden_int_bounds)));
    line "float" (fresh ()) (fun r _ -> Printf.sprintf "%h" (Rng.float r));
    line "bool" (fresh ()) (fun r _ -> if Rng.bool r then "1" else "0");
    line "copy" (Rng.copy advanced) bits;
    line "split-child" child bits;
    line "split-parent" parent bits;
  ]

let test_rng_golden_streams () =
  let expected = Rng_golden.lines in
  let actual = List.concat_map rng_golden_lines [ 0; 1; 42 ] in
  Alcotest.(check int) "stream count" (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "golden stream" e a) expected actual

let test_rng_copy_independent () =
  let a = Rng.create 9 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  let xs = List.init 16 (fun _ -> Rng.bits64 a) in
  let ys = List.init 16 (fun _ -> Rng.bits64 b) in
  Alcotest.(check (list int64)) "copy replays the stream" xs ys;
  (* drawing from the copy did not advance the original *)
  Alcotest.(check bool) "original moved on" true (Rng.bits64 a <> List.hd xs)

(* --- Event queue --- *)

let drain_kinds q =
  let rec go acc = if Event_queue.is_empty q then List.rev acc else go (Event_queue.pop q :: acc) in
  go []

let test_heap_sorts () =
  let q = Event_queue.create () in
  List.iter (fun v -> Event_queue.push q ~at:(float_of_int v) v) [ 5; 3; 8; 1; 9; 2; 7 ];
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (drain_kinds q)

let test_heap_empty_raises () =
  let q = Event_queue.create () in
  Alcotest.check_raises "pop empty" Not_found (fun () -> ignore (Event_queue.pop q));
  Alcotest.check_raises "min_at empty" Not_found (fun () -> ignore (Event_queue.min_at q))

let prop_heap_pop_order =
  QCheck.Test.make ~name:"heap pops in nondecreasing order"
    QCheck.(list small_int)
    (fun l ->
      let q = Event_queue.create () in
      List.iter (fun v -> Event_queue.push q ~at:(float_of_int v) v) l;
      drain_kinds q = List.sort Int.compare l)

(* Interleaved pushes and pops against a list sorted by (at, seq). Times
   come from a handful of values, so most comparisons are ties that only
   the insertion number breaks, and runs of pushes outgrow the initial
   capacity. A push is [Some at]; a pop is [None]. *)
let prop_event_queue_model =
  let op = QCheck.(option ~ratio:0.7 (map float_of_int (int_bound 3))) in
  QCheck.Test.make ~name:"event queue pops in (at, seq) order" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 600) op)
    (fun ops ->
      let q = Event_queue.create () in
      let model = ref [] and seq = ref 0 in
      let by_at_seq (a1, s1) (a2, s2) =
        let c = Float.compare a1 a2 in
        if c <> 0 then c else Int.compare s1 s2
      in
      List.for_all
        (fun op ->
          let ok =
            match (op, !model) with
            | Some at, _ ->
              Event_queue.push q ~at !seq;
              model := List.merge by_at_seq !model [ (at, !seq) ];
              incr seq;
              true
            | None, [] -> Event_queue.is_empty q
            | None, (at, s) :: rest ->
              model := rest;
              Event_queue.min_at q = at && Event_queue.pop q = s
          in
          ok && Event_queue.size q = List.length !model)
        ops
      && drain_kinds q = List.map snd !model)

(* --- Channel --- *)

let test_channel_capacity () =
  let rng = Rng.create 2 in
  let ch = Channel.create ~capacity:4 in
  for i = 1 to 20 do
    Channel.send ch rng i
  done;
  Alcotest.(check bool) "bounded" true (Channel.length ch <= 4);
  Alcotest.(check int) "sent counted" 20 (Channel.stats ch).Channel.sent;
  Alcotest.(check bool) "drops counted" true ((Channel.stats ch).Channel.dropped >= 16)

let test_channel_corrupt_and_clear () =
  let ch = Channel.create ~capacity:3 in
  Channel.corrupt ch [ 9; 8; 7; 6; 5 ];
  Alcotest.(check int) "truncated to capacity" 3 (Channel.length ch);
  Channel.clear ch;
  Alcotest.(check bool) "cleared" true (Channel.is_empty ch)

(* --- Trace --- *)

let test_trace_tags () =
  let tr = Trace.create () in
  Trace.record tr ~time:1.0 ~node:1 ~tag:"a" "x";
  Trace.record tr ~time:2.0 ~tag:"b" "y";
  Trace.record tr ~time:3.0 ~node:2 ~tag:"a" "z";
  Alcotest.(check int) "count a" 2 (Trace.count tr "a");
  Alcotest.(check int) "count b" 1 (Trace.count tr "b");
  match Trace.with_tag tr "a" with
  | [ e1; e2 ] ->
    Alcotest.(check string) "order" "x" e1.Trace.detail;
    Alcotest.(check string) "order" "z" e2.Trace.detail
  | _ -> Alcotest.fail "expected two entries"

(* --- Engine --- *)

(* A trivial gossip protocol: every node broadcasts its value; receivers
   keep the max. *)
type gossip = { mutable value : int; peers : Pid.t list }

let gossip_behavior pids =
  {
    Step.init = (fun p -> { value = p * 10; peers = List.filter (fun q -> q <> p) pids });
    on_timer =
      (fun ctx s ->
        List.iter (fun q -> Step.send ctx q s.value) s.peers;
        s);
    on_message =
      (fun _ctx _from v s ->
        if v > s.value then s.value <- v;
        s);
  }

let test_engine_gossip_converges () =
  let pids = [ 1; 2; 3; 4; 5 ] in
  let eng = Engine.create ~seed:1 ~behavior:(gossip_behavior pids) ~pids () in
  let converged t =
    List.for_all (fun p -> (Engine.state t p).value = 50) (Engine.live_pids t)
  in
  Alcotest.(check bool) "gossip converges" true (Engine.run_until eng ~max_steps:20_000 converged)

let test_engine_rounds_advance () =
  let pids = [ 1; 2; 3 ] in
  let eng = Engine.create ~seed:2 ~behavior:(gossip_behavior pids) ~pids () in
  Engine.run_rounds eng 10;
  Alcotest.(check bool) "rounds >= 10" true (Engine.rounds eng >= 10)

let test_engine_crash_stops_node () =
  let pids = [ 1; 2 ] in
  let eng = Engine.create ~seed:3 ~behavior:(gossip_behavior pids) ~pids () in
  Engine.run_rounds eng 2;
  Engine.crash eng 2;
  let v_before = (Engine.state eng 2).value in
  Engine.run_rounds eng 10;
  Alcotest.(check int) "crashed state frozen" v_before (Engine.state eng 2).value;
  Alcotest.(check (list int)) "live pids" [ 1 ] (Engine.live_pids eng)

let test_engine_add_node () =
  let pids = [ 1; 2 ] in
  (* the new node's peer list must include it for gossip; use a closure over
     all prospective pids *)
  let all = [ 1; 2; 3 ] in
  let eng = Engine.create ~seed:4 ~behavior:(gossip_behavior all) ~pids () in
  Engine.run_rounds eng 3;
  Engine.add_node eng 3;
  let converged t =
    List.for_all (fun p -> (Engine.state t p).value = 30) (Engine.live_pids t)
  in
  Alcotest.(check bool) "new node's value wins" true
    (Engine.run_until eng ~max_steps:50_000 converged)

let test_engine_partition_blocks_gossip () =
  let pids = [ 1; 2; 3; 4 ] in
  let eng = Engine.create ~seed:7 ~behavior:(gossip_behavior pids) ~pids () in
  (* cut {1,2} off from {3,4} before any gossip spreads *)
  Engine.partition eng (Pid.set_of_list [ 1; 2 ]);
  Engine.run_rounds eng 30;
  Alcotest.(check int) "max did not cross the cut" 20 (Engine.state eng 1).value;
  Alcotest.(check int) "other side kept its own max" 40 (Engine.state eng 3).value;
  (* healing lets the global max win *)
  Engine.heal eng;
  let converged t =
    List.for_all (fun p -> (Engine.state t p).value = 40) (Engine.live_pids t)
  in
  Alcotest.(check bool) "heals" true (Engine.run_until eng ~max_steps:50_000 converged)

let test_engine_timer_fairness () =
  (* every live node takes timer steps at roughly the same rate: after many
     steps no node lags the round count by more than a couple of ticks *)
  let pids = [ 1; 2; 3; 4; 5; 6 ] in
  let eng = Engine.create ~seed:9 ~behavior:(gossip_behavior pids) ~pids () in
  Engine.run eng ~steps:5_000;
  let rounds = Engine.rounds eng in
  Alcotest.(check bool) "rounds advanced" true (rounds > 10);
  (* the minimum (rounds) and the per-node tick counts cannot diverge much
     given the bounded timer jitter; re-running rounds still works *)
  Engine.run_rounds eng 5;
  Alcotest.(check bool) "still fair" true (Engine.rounds eng >= rounds + 5)

let test_trace_truncation () =
  let tr = Trace.create ~limit:10 () in
  for i = 1 to 100 do
    Trace.record tr ~time:(float_of_int i) ~tag:"t" (string_of_int i)
  done;
  let entries = Trace.entries tr in
  Alcotest.(check bool) "bounded" true (List.length entries <= 20);
  (* the newest entry always survives truncation *)
  match List.rev entries with
  | last :: _ -> Alcotest.(check string) "newest kept" "100" last.Trace.detail
  | [] -> Alcotest.fail "trace empty"

let test_engine_determinism () =
  let run () =
    let pids = [ 1; 2; 3; 4 ] in
    let eng = Engine.create ~seed:99 ~behavior:(gossip_behavior pids) ~pids () in
    Engine.run eng ~steps:500;
    List.map (fun p -> (Engine.state eng p).value) pids
  in
  Alcotest.(check (list int)) "same seed, same run" (run ()) (run ())

(* rounds is now maintained incrementally (a cached min over live nodes'
   tick counts); these pin its observable behavior across the membership
   events that mutate the cache *)

let test_engine_rounds_crash_laggard () =
  let pids = [ 1; 2; 3; 4 ] in
  let eng = Engine.create ~seed:11 ~behavior:(gossip_behavior pids) ~pids () in
  Engine.run_rounds eng 6;
  let before = Engine.rounds eng in
  (* crashing nodes removes them from the min; rounds must never go
     backwards and must keep advancing for the survivors *)
  Engine.crash eng 1;
  Alcotest.(check bool) "monotone after crash" true (Engine.rounds eng >= before);
  Engine.crash eng 2;
  let mid = Engine.rounds eng in
  Alcotest.(check bool) "monotone after second crash" true (mid >= before);
  Engine.run_rounds eng 5;
  Alcotest.(check bool) "still advances" true (Engine.rounds eng >= mid + 5)

let test_engine_rounds_all_crashed () =
  let pids = [ 1; 2 ] in
  let eng = Engine.create ~seed:12 ~behavior:(gossip_behavior pids) ~pids () in
  Engine.run_rounds eng 4;
  Engine.crash eng 1;
  Engine.crash eng 2;
  Alcotest.(check int) "no live nodes -> rounds 0" 0 (Engine.rounds eng);
  (* double crash is a no-op, not cache corruption *)
  Engine.crash eng 1;
  Alcotest.(check int) "idempotent crash" 0 (Engine.rounds eng)

let test_engine_rounds_add_node () =
  let all = [ 1; 2; 3 ] in
  let eng = Engine.create ~seed:13 ~behavior:(gossip_behavior all) ~pids:[ 1; 2 ] () in
  Engine.run_rounds eng 7;
  let before = Engine.rounds eng in
  (* a joiner starts at the current round, so the min is unchanged *)
  Engine.add_node eng 3;
  Alcotest.(check int) "join keeps rounds" before (Engine.rounds eng);
  Engine.run_rounds eng 5;
  Alcotest.(check bool) "advances with joiner" true (Engine.rounds eng >= before + 5)

let test_engine_run_rounds_unchanged () =
  (* same seed => same step count to reach the round target, same trace
     length, same final states — i.e. the O(1) rounds cache did not change
     what run_rounds does *)
  let run () =
    let pids = [ 1; 2; 3; 4; 5 ] in
    let eng = Engine.create ~seed:21 ~behavior:(gossip_behavior pids) ~pids () in
    Engine.run_rounds eng 12;
    ( Engine.rounds eng,
      Engine.steps eng,
      List.length (Trace.entries (Engine.trace eng)),
      List.map (fun p -> (Engine.state eng p).value) pids )
  in
  let r1, s1, t1, v1 = run () in
  let r2, s2, t2, v2 = run () in
  Alcotest.(check bool) "round target reached" true (r1 >= 12);
  Alcotest.(check int) "same rounds" r1 r2;
  Alcotest.(check int) "same steps" s1 s2;
  Alcotest.(check int) "same trace length" t1 t2;
  Alcotest.(check (list int)) "same final states" v1 v2

(* --- Channel ring buffer vs the list reference model --- *)

(* The previous Channel implementation: a plain list with the same RNG
   draw discipline. The ring buffer must agree with it op for op — seeded
   runs depend on that equivalence. *)
module Ref_channel = struct
  type 'a t = {
    cap : int;
    mutable q : 'a list;
    mutable sent : int;
    mutable dropped : int;
    mutable delivered : int;
    mutable duplicated : int;
  }

  let create ~capacity =
    { cap = capacity; q = []; sent = 0; dropped = 0; delivered = 0; duplicated = 0 }

  let remove_nth l n =
    let rec go i acc = function
      | [] -> assert false
      | x :: rest ->
        if i = n then (x, List.rev_append acc rest) else go (i + 1) (x :: acc) rest
    in
    go 0 [] l

  let replace_nth l n v = List.mapi (fun i x -> if i = n then v else x) l

  let send t rng pkt =
    t.sent <- t.sent + 1;
    let len = List.length t.q in
    if len < t.cap then t.q <- t.q @ [ pkt ]
    else begin
      t.dropped <- t.dropped + 1;
      if Rng.bool rng then t.q <- replace_nth t.q (Rng.int rng len) pkt
    end

  let take t rng =
    match t.q with
    | [] -> None
    | _ ->
      let pkt, rest = remove_nth t.q (Rng.int rng (List.length t.q)) in
      t.q <- rest;
      t.delivered <- t.delivered + 1;
      Some pkt

  let duplicate_head t =
    match t.q with
    | hd :: _ when List.length t.q < t.cap ->
      t.q <- t.q @ [ hd ];
      t.duplicated <- t.duplicated + 1
    | _ -> ()

  let drop_one t rng =
    match t.q with
    | [] -> ()
    | _ ->
      let _, rest = remove_nth t.q (Rng.int rng (List.length t.q)) in
      t.q <- rest;
      t.dropped <- t.dropped + 1

  let corrupt t pkts =
    let rec take_n n = function
      | x :: rest when n > 0 -> x :: take_n (n - 1) rest
      | _ -> []
    in
    t.q <- take_n t.cap pkts
end

(* [take_nonempty] is the reference model's random [take] without the
   option: on the same stream it removes the same packet with the same draw,
   and it raises on an empty channel instead of returning [None]. *)
let test_channel_take_nonempty_matches_take () =
  List.iter
    (fun seed ->
      let rng_a = Rng.create seed and rng_b = Rng.create seed in
      let ops = Rng.create (seed + 1) in
      let a = Channel.create ~capacity:5 and b = Ref_channel.create ~capacity:5 in
      for i = 1 to 2_000 do
        if Rng.bool ops then begin
          Channel.send a rng_a i;
          Ref_channel.send b rng_b i
        end
        else if Channel.is_empty a then
          Alcotest.check_raises "empty" (Invalid_argument "Channel.take_nonempty: empty channel")
            (fun () -> ignore (Channel.take_nonempty a rng_a))
        else
          Alcotest.(check (option int)) "same packet" (Ref_channel.take b rng_b)
            (Some (Channel.take_nonempty a rng_a));
        Alcotest.(check (list int)) "same contents" b.Ref_channel.q (Channel.contents a)
      done;
      Alcotest.(check int64) "same draws" (Rng.bits64 rng_b) (Rng.bits64 rng_a);
      Alcotest.(check int) "delivered counted" b.Ref_channel.delivered
        (Channel.stats a).Channel.delivered)
    [ 3; 77 ]

let test_channel_matches_list_model () =
  List.iter
    (fun seed ->
      let rng_ring = Rng.create seed and rng_ref = Rng.create seed in
      let ops = Rng.create (seed * 31) in
      let ring = Channel.create ~capacity:4 in
      let refc = Ref_channel.create ~capacity:4 in
      for i = 1 to 2_000 do
        (match Rng.int ops 7 with
        | 0 | 1 | 2 | 3 ->
          Channel.send ring rng_ring i;
          Ref_channel.send refc rng_ref i
        | 4 -> (
          match Ref_channel.take refc rng_ref with
          | None ->
            Alcotest.check_raises "take on empty"
              (Invalid_argument "Channel.take_nonempty: empty channel") (fun () ->
                ignore (Channel.take_nonempty ring rng_ring))
          | b -> Alcotest.(check (option int)) "take" b (Some (Channel.take_nonempty ring rng_ring)))
        | 5 ->
          Channel.duplicate_head ring;
          Ref_channel.duplicate_head refc
        | _ ->
          Channel.drop_one ring rng_ring;
          Ref_channel.drop_one refc rng_ref);
        Alcotest.(check (list int)) "contents agree" refc.Ref_channel.q
          (Channel.contents ring)
      done;
      (* corruption resets contents through a different path *)
      Channel.corrupt ring [ 7; 8; 9; 10; 11 ];
      Ref_channel.corrupt refc [ 7; 8; 9; 10; 11 ];
      Alcotest.(check (list int)) "contents after corrupt" refc.Ref_channel.q
        (Channel.contents ring);
      let st = Channel.stats ring in
      Alcotest.(check int) "sent" refc.Ref_channel.sent st.Channel.sent;
      Alcotest.(check int) "dropped" refc.Ref_channel.dropped st.Channel.dropped;
      Alcotest.(check int) "delivered" refc.Ref_channel.delivered st.Channel.delivered;
      Alcotest.(check int) "duplicated" refc.Ref_channel.duplicated st.Channel.duplicated;
      Alcotest.(check int64) "same draws" (Rng.bits64 rng_ref) (Rng.bits64 rng_ring))
    [ 1; 17; 4242 ]

(* --- Event queue vs a sorted-list model, interleaved pushes and pops --- *)

let test_heap_matches_sorted_model () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let q = Event_queue.create () in
      let model = ref [] in
      for _ = 1 to 3_000 do
        if Rng.int rng 3 < 2 || !model = [] then begin
          let v = Rng.int rng 1_000 in
          Event_queue.push q ~at:(float_of_int v) v;
          model := List.merge Int.compare [ v ] !model
        end
        else begin
          match !model with
          | m :: rest ->
            Alcotest.(check (float 0.0)) "peek is min" (float_of_int m) (Event_queue.min_at q);
            Alcotest.(check int) "pop is min" m (Event_queue.pop q);
            model := rest
          | [] -> assert false
        end;
        Alcotest.(check int) "size agrees" (List.length !model) (Event_queue.size q)
      done)
    [ 2; 23 ]

(* --- pids/live_pids caches survive membership changes --- *)

let test_engine_pids_cache_invalidation () =
  let all = [ 1; 2; 3; 4 ] in
  let eng = Engine.create ~seed:31 ~behavior:(gossip_behavior all) ~pids:[ 3; 1; 2 ] () in
  Alcotest.(check (list int)) "pids sorted" [ 1; 2; 3 ] (Engine.pids eng);
  (* hit the cache once, then mutate membership *)
  Alcotest.(check (list int)) "live = pids" (Engine.pids eng) (Engine.live_pids eng);
  Engine.add_node eng 4;
  Alcotest.(check (list int)) "pids after join" [ 1; 2; 3; 4 ] (Engine.pids eng);
  Alcotest.(check (list int)) "live after join" [ 1; 2; 3; 4 ] (Engine.live_pids eng);
  Engine.crash eng 2;
  Alcotest.(check (list int)) "pids keep crashed node" [ 1; 2; 3; 4 ] (Engine.pids eng);
  Alcotest.(check (list int)) "live drop crashed node" [ 1; 3; 4 ] (Engine.live_pids eng);
  (* crash is idempotent on the cache *)
  Engine.crash eng 2;
  Alcotest.(check (list int)) "idempotent crash" [ 1; 3; 4 ] (Engine.live_pids eng)

let suites =
  [
    ( "sim.pid",
      [
        Alcotest.test_case "set lex order" `Quick test_pid_set_lex;
        qtest prop_pid_lex_total_order;
      ] );
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "bounds" `Quick test_rng_bounds;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
        Alcotest.test_case "golden streams" `Quick test_rng_golden_streams;
        Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
      ] );
    ( "sim.heap",
      [
        Alcotest.test_case "sorts" `Quick test_heap_sorts;
        Alcotest.test_case "empty raises" `Quick test_heap_empty_raises;
        Alcotest.test_case "matches sorted-list model" `Quick test_heap_matches_sorted_model;
        qtest prop_heap_pop_order;
        qtest prop_event_queue_model;
      ] );
    ( "sim.channel",
      [
        Alcotest.test_case "capacity bound" `Quick test_channel_capacity;
        Alcotest.test_case "corrupt and clear" `Quick test_channel_corrupt_and_clear;
        Alcotest.test_case "take_nonempty matches take" `Quick
          test_channel_take_nonempty_matches_take;
        Alcotest.test_case "matches list reference model" `Quick
          test_channel_matches_list_model;
      ] );
    ( "sim.trace",
      [
        Alcotest.test_case "tags" `Quick test_trace_tags;
        Alcotest.test_case "truncation" `Quick test_trace_truncation;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "gossip converges" `Quick test_engine_gossip_converges;
        Alcotest.test_case "rounds advance" `Quick test_engine_rounds_advance;
        Alcotest.test_case "crash stops node" `Quick test_engine_crash_stops_node;
        Alcotest.test_case "add node" `Quick test_engine_add_node;
        Alcotest.test_case "partition blocks gossip" `Quick test_engine_partition_blocks_gossip;
        Alcotest.test_case "timer fairness" `Quick test_engine_timer_fairness;
        Alcotest.test_case "determinism" `Quick test_engine_determinism;
        Alcotest.test_case "rounds: crash laggard" `Quick test_engine_rounds_crash_laggard;
        Alcotest.test_case "rounds: all crashed" `Quick test_engine_rounds_all_crashed;
        Alcotest.test_case "rounds: add node" `Quick test_engine_rounds_add_node;
        Alcotest.test_case "run_rounds unchanged" `Quick test_engine_run_rounds_unchanged;
        Alcotest.test_case "pids cache invalidation" `Quick
          test_engine_pids_cache_invalidation;
      ] );
  ]
