(* Tests for the counter increment scheme (Algorithms 4.3-4.5). *)

open Sim
open Labels
open Counters

let qtest = QCheck_alcotest.to_alcotest
let set = Pid.set_of_list
let lbl c = Label.make ~creator:c ~sting:0 ~antistings:[]

(* --- pure counter order --- *)

let test_counter_order () =
  let l = lbl 1 in
  let c1 = Counter.make ~lbl:l ~seqn:3 ~wid:1 in
  let c2 = Counter.make ~lbl:l ~seqn:4 ~wid:1 in
  let c3 = Counter.make ~lbl:l ~seqn:4 ~wid:2 in
  Alcotest.(check bool) "seqn order" true (Counter.precedes c1 c2);
  Alcotest.(check bool) "wid breaks ties" true (Counter.precedes c2 c3);
  Alcotest.(check bool) "label dominates" true
    (Counter.precedes (Counter.make ~lbl:(lbl 1) ~seqn:99 ~wid:9)
       (Counter.make ~lbl:(lbl 2) ~seqn:0 ~wid:0))

let test_counter_exhaustion () =
  let c = Counter.make ~lbl:(lbl 1) ~seqn:16 ~wid:1 in
  Alcotest.(check bool) "exhausted at bound" true (Counter.exhausted ~bound:16 c);
  Alcotest.(check bool) "not before" false (Counter.exhausted ~bound:17 c)

let prop_counter_total_order_same_label =
  QCheck.Test.make ~name:"counters with one label are totally ordered"
    QCheck.(pair (pair small_nat small_nat) (pair small_nat small_nat))
    (fun ((s1, w1), (s2, w2)) ->
      let c1 = Counter.make ~lbl:(lbl 1) ~seqn:s1 ~wid:w1 in
      let c2 = Counter.make ~lbl:(lbl 1) ~seqn:s2 ~wid:w2 in
      Counter.equal c1 c2 || Counter.precedes c1 c2 || Counter.precedes c2 c1)

let test_pair_cancellation () =
  let p = Counter.pair_of (Counter.make ~lbl:(lbl 1) ~seqn:0 ~wid:1) in
  Alcotest.(check bool) "fresh pair legit" true (Counter.legit p);
  let p' = Counter.cancel p in
  Alcotest.(check bool) "canceled" false (Counter.legit p');
  Alcotest.(check bool) "canceled by its own counter" true
    (Option.equal Counter.equal p'.Counter.cct (Some p.Counter.mct))

(* max_of as first written: the compare_total-largest of the counters no
   other counter follows (all counters when each is followed) *)
let reference_max_of counters =
  match counters with
  | [] -> None
  | _ ->
    let maximal =
      List.filter
        (fun c -> not (List.exists (fun c' -> Counter.precedes c c') counters))
        counters
    in
    let pool = match maximal with [] -> counters | _ -> maximal in
    Some
      (List.fold_left
         (fun best c -> if Counter.compare_total c best > 0 then c else best)
         (List.hd pool) (List.tl pool))

let prop_max_of_matches_reference =
  QCheck.Test.make ~name:"max_of = quadratic maximal-then-tiebreak reference" ~count:500
    QCheck.(
      small_list
        (quad (int_range 1 3) (int_range 0 3) (small_list (int_range 0 3))
           (pair (int_range 0 4) (int_range 1 3))))
    (fun specs ->
      let counters =
        List.map
          (fun (creator, sting, antistings, (seqn, wid)) ->
            Counter.make ~lbl:(Label.make ~creator ~sting ~antistings) ~seqn ~wid)
          specs
      in
      (* the physically same counter, not just an equal one *)
      match (Counter.max_of counters, reference_max_of counters) with
      | None, None -> true
      | Some a, Some b -> a == b
      | Some _, None | None, Some _ -> false)

(* --- Counter_algo --- *)

let mk_algo self =
  Counter_algo.create ~self ~members:(set [ 1; 2; 3 ]) ~in_transit_bound:4
    ~exhaust_bound:1000

let test_algo_initial_counter () =
  let a = mk_algo 1 in
  let c = Counter_algo.find_max_counter a in
  Alcotest.(check int) "starts at 0" 0 c.Counter.seqn;
  Alcotest.(check int) "own label" 1 c.Counter.lbl.Label.creator

(* The first findMaxCounter creates the node's first label: one legit pair
   of its own, and one creation. *)
let test_algo_creates_initial_label () =
  let a = mk_algo 1 in
  let c = Counter_algo.find_max_counter a in
  (match Counter_algo.local_max a with
  | Some p ->
    Alcotest.(check bool) "legit" true (Counter.legit p);
    Alcotest.(check int) "own creator" 1 p.Counter.mct.Counter.lbl.Label.creator;
    Alcotest.(check bool) "local max is the new counter" true (Counter.equal p.Counter.mct c)
  | None -> Alcotest.fail "no local max");
  Alcotest.(check int) "one creation" 1 (Counter_algo.label_creations a)

let pair_by creator =
  Counter.pair_of (Counter.make ~lbl:(lbl creator) ~seqn:0 ~wid:creator)

let test_algo_adopts_greater_label () =
  let a = mk_algo 1 in
  ignore (Counter_algo.find_max_counter a);
  Counter_algo.receipt_action a ~sent_max:(Some (pair_by 3)) ~last_sent:None ~from:3;
  match Counter_algo.local_max a with
  | Some p ->
    Alcotest.(check bool) "legit" true (Counter.legit p);
    Alcotest.(check int) "adopted creator-3 label" 3 p.Counter.mct.Counter.lbl.Label.creator
  | None -> Alcotest.fail "no local max"

(* A peer echoing our maximum back canceled makes us drop it and settle on
   a fresh label. *)
let test_algo_cancellation_echo () =
  let a = mk_algo 3 in
  ignore (Counter_algo.find_max_counter a);
  let mine = Option.get (Counter_algo.local_max a) in
  Counter_algo.receipt_action a ~sent_max:None ~last_sent:(Some (Counter.cancel mine))
    ~from:2;
  (match Counter_algo.local_max a with
  | Some p ->
    Alcotest.(check bool) "new max legit" true (Counter.legit p);
    Alcotest.(check bool) "new max has another label" false
      (Label.equal p.Counter.mct.Counter.lbl mine.Counter.mct.Counter.lbl)
  | None -> Alcotest.fail "no local max");
  Alcotest.(check int) "created a replacement" 2 (Counter_algo.label_creations a)

let test_algo_voids_non_member_labels () =
  let a = mk_algo 1 in
  Alcotest.(check bool) "cleanLP voids foreigners" true
    (Counter_algo.clean a (Some (pair_by 9)) = None);
  let kept = Some (pair_by 2) in
  Alcotest.(check bool) "cleanLP keeps members, allocating nothing" true
    (Counter_algo.clean a kept == kept)

let test_algo_merge_keeps_greatest () =
  let a = mk_algo 1 in
  let l = lbl 2 in
  Counter_algo.merge a ~from:2 (Counter.pair_of (Counter.make ~lbl:l ~seqn:5 ~wid:2));
  Counter_algo.merge a ~from:2 (Counter.pair_of (Counter.make ~lbl:l ~seqn:9 ~wid:3));
  Counter_algo.merge a ~from:2 (Counter.pair_of (Counter.make ~lbl:l ~seqn:7 ~wid:1));
  let c = Counter_algo.find_max_counter a in
  Alcotest.(check int) "greatest seqn survives" 9 c.Counter.seqn

let test_algo_exhaustion_forces_new_epoch () =
  let a =
    Counter_algo.create ~self:1 ~members:(set [ 1; 2 ]) ~in_transit_bound:2
      ~exhaust_bound:10
  in
  Counter_algo.merge a ~from:2
    (Counter.pair_of (Counter.make ~lbl:(lbl 2) ~seqn:10 ~wid:2));
  let c = Counter_algo.find_max_counter a in
  Alcotest.(check bool) "fresh epoch not exhausted" false
    (Counter.exhausted ~bound:10 c);
  Alcotest.(check bool) "label creation counted" true (Counter_algo.label_creations a >= 1)

let test_algo_rebuild_voids_non_members () =
  let a = mk_algo 1 in
  Counter_algo.merge a ~from:3
    (Counter.pair_of (Counter.make ~lbl:(lbl 3) ~seqn:4 ~wid:3));
  Counter_algo.rebuild a ~members:(set [ 1; 2 ]);
  let c = Counter_algo.find_max_counter a in
  Alcotest.(check bool) "label by member" true (c.Counter.lbl.Label.creator <> 3)

(* A member that leaves takes its labels along: after the rebuild neither
   the local maximum nor any queue holds one of them. *)
let test_algo_rebuild_drops_departed () =
  let a = mk_algo 1 in
  ignore (Counter_algo.find_max_counter a);
  Counter_algo.receipt_action a ~sent_max:(Some (pair_by 3)) ~last_sent:None ~from:3;
  Alcotest.(check int) "own max by member 3" 3
    (Counter_algo.find_max_counter a).Counter.lbl.Label.creator;
  (* reconfigure: 3 leaves the configuration *)
  Counter_algo.rebuild a ~members:(set [ 1; 2 ]);
  ignore (Counter_algo.find_max_counter a);
  (match Counter_algo.local_max a with
  | Some p ->
    Alcotest.(check bool) "max not by departed member" true
      (p.Counter.mct.Counter.lbl.Label.creator <> 3)
  | None -> Alcotest.fail "no local max after rebuild");
  Alcotest.(check int) "queue of departed emptied" 0
    (List.length (Counter_algo.stored a 3))

(* Queues hold v + m pairs of another member's labels and v(v^2 + m) + v of
   our own (v = 3 members, m = 4 in transit). *)
let test_algo_bounded_queues () =
  let a = mk_algo 1 in
  let distinct creator i =
    Counter.pair_of
      (Counter.make
         ~lbl:(Label.make ~creator ~sting:(i * 2) ~antistings:[ (i * 2) + 1 ])
         ~seqn:0 ~wid:creator)
  in
  for i = 0 to 99 do
    Counter_algo.receipt_action a ~sent_max:(Some (distinct 2 i)) ~last_sent:None ~from:2;
    Counter_algo.receipt_action a ~sent_max:(Some (distinct 1 i)) ~last_sent:None ~from:3
  done;
  Alcotest.(check int) "other queue at v + m" 7 (List.length (Counter_algo.stored a 2));
  Alcotest.(check int) "own queue at v(v^2 + m) + v" 42
    (List.length (Counter_algo.stored a 1))

(* Two members exchanging their maxima converge to one legit maximal
   counter, from any interleaving of exchanges. *)
let prop_algo_two_party_agreement =
  QCheck.Test.make ~name:"two-member label agreement" ~count:50
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.create seed in
      let members = set [ 1; 2 ] in
      let mk self =
        Counter_algo.create ~self ~members ~in_transit_bound:2 ~exhaust_bound:1000
      in
      let a = mk 1 and b = mk 2 in
      ignore (Counter_algo.find_max_counter a);
      ignore (Counter_algo.find_max_counter b);
      let a_to_b () =
        Counter_algo.receipt_action b ~sent_max:(Counter_algo.local_max a)
          ~last_sent:(Counter_algo.max_of a 2) ~from:1
      and b_to_a () =
        Counter_algo.receipt_action a ~sent_max:(Counter_algo.local_max b)
          ~last_sent:(Counter_algo.max_of b 1) ~from:2
      in
      for _ = 1 to 40 do
        if Rng.bool rng then a_to_b () else b_to_a ()
      done;
      (* a final full round trip settles both *)
      a_to_b ();
      b_to_a ();
      match (Counter_algo.local_max a, Counter_algo.local_max b) with
      | Some pa, Some pb ->
        Counter.legit pa && Counter.legit pb && Counter.equal pa.Counter.mct pb.Counter.mct
      | _ -> false)

(* --- full-stack increments --- *)

let make_counter_system ?(seed = 42) ?(n = 4) ?(exhaust_bound = 1 lsl 30) () =
  let members = List.init n (fun i -> i + 1) in
  Reconfig.Stack.of_scenario
    ~hooks:(Counter_service.hooks ~in_transit_bound:8 ~exhaust_bound)
    (Reconfig.Scenario.make ~seed ~n_bound:16 ~members ())

let app sys p = (Reconfig.Stack.node sys p).Reconfig.Stack.app

(* [probed plugin] — [plugin], instrumented: per node, the timer steps it
   took and the service messages it sent in receipt steps (in its receipt
   and in the start pass the driver runs after it). *)
type probe = {
  ticks : (Pid.t, int) Hashtbl.t;
  receipt_sends : (Pid.t, int) Hashtbl.t;
}

let count tbl p = Option.value ~default:0 (Hashtbl.find_opt tbl p)
let bump tbl p = Hashtbl.replace tbl p (count tbl p + 1)

let probed (plugin : ('app, 'msg) Reconfig.Stack.plugin) =
  let pr = { ticks = Hashtbl.create 8; receipt_sends = Hashtbl.create 8 } in
  let counted (v : 'msg Reconfig.Stack.scheme_view) =
    {
      v with
      Reconfig.Stack.v_send =
        (fun dst m ->
          bump pr.receipt_sends v.Reconfig.Stack.v_self;
          v.Reconfig.Stack.v_send dst m);
    }
  in
  ( pr,
    {
      plugin with
      Reconfig.Stack.p_tick =
        (fun v st ->
          bump pr.ticks v.Reconfig.Stack.v_self;
          plugin.Reconfig.Stack.p_tick v st);
      p_recv = (fun v ~from m st -> plugin.Reconfig.Stack.p_recv (counted v) ~from m st);
    } )

(* Step [sys] through node [p]'s next timer step. *)
let through_tick pr sys p =
  let ticks = count pr.ticks p in
  let rec go k =
    if k = 0 then Alcotest.failf "node %d never ticked" p;
    ignore (Engine.step (Reconfig.Stack.engine sys));
    if count pr.ticks p = ticks then go (k - 1)
  in
  go 100_000

(* [sent_between_ticks pr sys p submit] — run [submit] right after node
   [p]'s tick; the messages [p] sent in receipt steps before its next tick
   (that tick included). *)
let sent_between_ticks pr sys p submit =
  through_tick pr sys p;
  let before = count pr.receipt_sends p in
  submit ();
  through_tick pr sys p;
  count pr.receipt_sends p - before

let test_member_increment () =
  let sys = make_counter_system () in
  Reconfig.Stack.run_rounds sys 15;
  Counter_service.request_increment (app sys 1);
  Alcotest.(check bool) "increment completes" true
    (Reconfig.Stack.run_until sys ~max_steps:400_000 (fun t ->
         Counter_service.increment_result (app t 1) <> None));
  match Counter_service.increment_result (app sys 1) with
  | Some c -> Alcotest.(check int) "writer id" 1 c.Counter.wid
  | None -> Alcotest.fail "expected a result"

(* A bare increment (E7's and virtual synchrony's path) starts in the
   first receipt step after it was requested, not at the next tick: the
   majRead leaves twice to the 3 other members before node 1 ticks again,
   and an idle node sends nothing from a receipt. *)
let test_increment_starts_on_receipt () =
  let pr, plugin =
    probed (Counter_service.plugin ~in_transit_bound:8 ~exhaust_bound:(1 lsl 30))
  in
  let sys =
    Reconfig.Stack.of_scenario
      ~hooks:{ Reconfig.Stack.unit_hooks with plugin }
      (Reconfig.Scenario.make ~seed:6 ~n_bound:16 ~members:[ 1; 2; 3; 4 ] ())
  in
  Reconfig.Stack.run_rounds sys 15;
  Alcotest.(check int) "an idle node sends nothing from receipts" 0
    (sent_between_ticks pr sys 1 ignore);
  Alcotest.(check int) "the majRead leaves from a receipt, twice to 3 members" 6
    (sent_between_ticks pr sys 1 (fun () -> Counter_service.request_increment (app sys 1)));
  Alcotest.(check bool) "increment completes" true
    (Reconfig.Stack.run_until sys ~max_steps:400_000 (fun t ->
         Counter_service.increment_result (app t 1) <> None))

let test_sequential_increments_monotone () =
  let sys = make_counter_system ~seed:2 () in
  Reconfig.Stack.run_rounds sys 15;
  let rec go n acc =
    if n = 0 then List.rev acc
    else begin
      Counter_service.request_increment (app sys 2);
      let done_ t = Counter_service.increment_result (app t 2) <> None in
      Alcotest.(check bool) "increment completes" true
        (Reconfig.Stack.run_until sys ~max_steps:400_000 done_);
      go (n - 1) (Option.get (Counter_service.increment_result (app sys 2)) :: acc)
    end
  in
  let results = go 5 [] in
  Alcotest.(check int) "five results" 5 (List.length results);
  let rec monotone = function
    | a :: (b :: _ as rest) -> Counter.precedes a b && monotone rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "strictly increasing" true (monotone results)

let test_concurrent_increments_ordered () =
  let sys = make_counter_system ~seed:3 () in
  Reconfig.Stack.run_rounds sys 15;
  Counter_service.request_increment (app sys 1);
  Counter_service.request_increment (app sys 3);
  let both t =
    Counter_service.increment_result (app t 1) <> None
    && Counter_service.increment_result (app t 3) <> None
  in
  Alcotest.(check bool) "both complete" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 both);
  let c1 = Option.get (Counter_service.increment_result (app sys 1)) in
  let c3 = Option.get (Counter_service.increment_result (app sys 3)) in
  Alcotest.(check bool) "results are ordered (never equal)" true
    (Counter.precedes c1 c3 || Counter.precedes c3 c1)

let test_non_member_increment () =
  let sys = make_counter_system ~seed:4 () in
  Reconfig.Stack.run_rounds sys 15;
  (* a joiner that is a participant but not a configuration member *)
  Reconfig.Stack.add_joiner sys 9;
  Alcotest.(check bool) "joined" true
    (Reconfig.Stack.run_until sys ~max_steps:400_000 (fun t ->
         Reconfig.Recsa.is_participant (Reconfig.Stack.node t 9).Reconfig.Stack.sa));
  (* the member counter must exist before a non-member can read it *)
  Counter_service.request_increment (app sys 1);
  Alcotest.(check bool) "member increment first" true
    (Reconfig.Stack.run_until sys ~max_steps:400_000 (fun t ->
         Counter_service.increment_result (app t 1) <> None));
  Counter_service.request_increment (app sys 9);
  Alcotest.(check bool) "non-member increment completes" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Counter_service.increment_result (app t 9) <> None));
  let c9 = Option.get (Counter_service.increment_result (app sys 9)) in
  Alcotest.(check int) "writer is the non-member" 9 c9.Counter.wid

let test_exhaustion_rollover_in_system () =
  (* tiny exhaustion bound: repeated increments must roll to a new epoch
     label rather than wrapping *)
  let sys = make_counter_system ~seed:5 ~exhaust_bound:3 () in
  Reconfig.Stack.run_rounds sys 15;
  let rec go n acc =
    if n = 0 then List.rev acc
    else begin
      Counter_service.request_increment (app sys 1);
      Alcotest.(check bool) "increment completes" true
        (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
             Counter_service.increment_result (app t 1) <> None));
      go (n - 1) (Option.get (Counter_service.increment_result (app sys 1)) :: acc)
    end
  in
  let results = go 8 [] in
  Alcotest.(check int) "eight results" 8 (List.length results);
  let distinct_labels =
    List.fold_left
      (fun acc (c : Counter.t) ->
        if List.exists (Label.equal c.Counter.lbl) acc then acc else c.Counter.lbl :: acc)
      [] results
  in
  Alcotest.(check bool) "rolled to new epoch labels" true
    (List.length distinct_labels >= 2);
  Alcotest.(check bool) "no seqn beyond the bound + 1" true
    (List.for_all (fun (c : Counter.t) -> c.Counter.seqn <= 4) results)

(* --- the fixed-point skip in find_max_counter is exact --- *)

type cnt_op =
  | Merge of Pid.t * Counter.pair
  | Receipt of Pid.t * Counter.pair option * Counter.pair option
  | Corrupt of (Pid.t * Counter.pair) list * (Pid.t * Counter.pair list) list
  | Find

let pair_equal (a : Counter.pair) (b : Counter.pair) =
  Counter.equal a.Counter.mct b.Counter.mct
  && Option.equal Counter.equal a.Counter.cct b.Counter.cct

let algo_state_equal a b =
  Counter_algo.label_creations a = Counter_algo.label_creations b
  && List.for_all
       (fun j ->
         Option.equal pair_equal (Counter_algo.max_of a j) (Counter_algo.max_of b j)
         && List.equal pair_equal (Counter_algo.stored a j) (Counter_algo.stored b j))
       [ 1; 2; 3 ]

(* Pairs come from a small per-run pool over four labels (same-creator
   labels that dominate, are dominated by or are incomparable with each
   other; seqns across the exhaustion bound; some canceled), so pairs often
   share a label and receipts often repeat what is already stored — the
   case the skip serves. *)
let gen_cnt_ops rs n =
  let gen_label () =
    Label.make ~creator:(1 + Random.State.int rs 3) ~sting:(Random.State.int rs 4)
      ~antistings:(List.filter (fun _ -> Random.State.bool rs) [ 0; 1; 2; 3 ])
  in
  let labels = Array.init 4 (fun _ -> gen_label ()) in
  let gen_pair () =
    let lbl =
      if Random.State.int rs 4 = 0 then gen_label () else labels.(Random.State.int rs 4)
    in
    let p =
      Counter.pair_of
        (Counter.make ~lbl ~seqn:(Random.State.int rs 6) ~wid:(1 + Random.State.int rs 3))
    in
    if Random.State.int rs 4 = 0 then Counter.cancel p else p
  in
  let pool = Array.init 8 (fun _ -> gen_pair ()) in
  let pair () =
    if Random.State.int rs 5 = 0 then gen_pair () else pool.(Random.State.int rs 8)
  in
  let opt () = if Random.State.int rs 4 = 0 then None else Some (pair ()) in
  let member () = 1 + Random.State.int rs 3 in
  List.init n (fun _ ->
      match Random.State.int rs 10 with
      | 0 | 1 -> Merge (member (), pair ())
      | 2 ->
        (* stored entries are mostly misfiled, so the staleInfo flush runs *)
        let queue () = List.init (1 + Random.State.int rs 2) (fun _ -> pair ()) in
        let max_entries = List.init (Random.State.int rs 3) (fun _ -> (member (), pair ())) in
        Corrupt (max_entries, List.init (Random.State.int rs 2) (fun _ -> (member (), queue ())))
      | 3 -> Find
      | _ -> Receipt (member (), opt (), opt ()))

let mk_fixed_algo () =
  Counter_algo.create ~self:1 ~members:(set [ 1; 2; 3 ]) ~in_transit_bound:2
    ~exhaust_bound:4

(* [corrupt] with no entries changes nothing but forgets the fixed point,
   so the reference runs the full findMaxCounter on every call. *)
let force_dirty b = Counter_algo.corrupt b ~max_entries:[] ~stored_entries:[]

let prop_fixed_point_skip_exact =
  qtest
    (QCheck.Test.make ~name:"fixed-point findMaxCounter = always-dirty reference"
       ~count:300 QCheck.(int_range 0 100_000)
       (fun seed ->
         let rs = Random.State.make [| seed |] in
         let a = mk_fixed_algo () and b = mk_fixed_algo () in
         List.for_all
           (fun op ->
             (match op with
             | Merge (from, p) ->
               Counter_algo.merge a ~from p;
               Counter_algo.merge b ~from p
             | Receipt (from, sent_max, last_sent) ->
               Counter_algo.receipt_action a ~sent_max ~last_sent ~from;
               force_dirty b;
               Counter_algo.receipt_action b ~sent_max ~last_sent ~from
             | Corrupt (max_entries, stored_entries) ->
               Counter_algo.corrupt a ~max_entries ~stored_entries;
               Counter_algo.corrupt b ~max_entries ~stored_entries
             | Find -> ());
             let ca = Counter_algo.find_max_counter a in
             force_dirty b;
             let cb = Counter_algo.find_max_counter b in
             Counter.equal ca cb && algo_state_equal a b)
           (gen_cnt_ops rs 80)))

(* --- the incremental receipt action is exact --- *)

(* A receipt-heavy run over members {1..4}: gossip of pool pairs, raises
   (member [j] sends one past what we store from it, the gossip after an
   increment), repeats (the stored max[j] sent again, physically), echoed
   cancellations, majWrite merges, corruption, rebuilds and findMaxCounter
   calls. [a] takes [receipt_action] and [merge]; [b] forgets its fixed
   point before every step and takes [receipt_action_full], so it runs
   every step in full. After every step the two storages must agree on
   max[], the queues and the label count, and every findMaxCounter on its
   result. Labels come from a small per-run pool, most of one creator's
   chain, so runs settle and the constant-time paths are often taken. *)
let prop_incremental_receipt_exact =
  qtest
    (QCheck.Test.make ~name:"incremental receipt = full findMaxCounter path" ~count:300
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let rs = Random.State.make [| seed |] in
         let int n = Random.State.int rs n in
         let mk () =
           Counter_algo.create ~self:1 ~members:(set [ 1; 2; 3 ]) ~in_transit_bound:2
             ~exhaust_bound:12
         in
         let a = mk () and b = mk () in
         let labels =
           Array.init 4 (fun i ->
               if i < 3 then Label.make ~creator:2 ~sting:i ~antistings:(List.init i Fun.id)
               else
                 Label.make ~creator:(1 + int 4) ~sting:(int 4)
                   ~antistings:(List.filter (fun _ -> Random.State.bool rs) [ 0; 1; 2; 3 ]))
         in
         let member () = 1 + int 4 in
         let gen_pair () =
           let p =
             Counter.pair_of
               (Counter.make ~lbl:labels.(int 4) ~seqn:(int 6) ~wid:(member ()))
           in
           if int 6 = 0 then Counter.cancel p else p
         in
         let pool = Array.init 6 (fun _ -> gen_pair ()) in
         let pair () = if int 4 = 0 then gen_pair () else pool.(int 6) in
         (* one past what we store from [j], or past our own max, whatever
            label [j]'s stored pair carries *)
         let raised j =
           let base =
             match (Counter_algo.max_of a j, Counter_algo.local_max a) with
             | Some p, Some mine -> if Random.State.bool rs then mine else p
             | Some p, None | None, Some p -> p
             | None, None -> pair ()
           in
           let c = base.Counter.mct in
           Counter.pair_of
             (Counter.make ~lbl:c.Counter.lbl ~seqn:(c.Counter.seqn + int 3) ~wid:j)
         in
         (* what the sender last stored from us: usually our max, legit *)
         let last_sent () =
           match (int 8, Counter_algo.local_max a) with
           | 0, _ -> None
           | 1, Some mine -> Some (Counter.cancel mine)
           | 2, _ -> Some (pair ())
           | _, mine -> mine
         in
         let receipt from sent_max last_sent =
           Counter_algo.receipt_action a ~sent_max ~last_sent ~from;
           Counter_algo.receipt_action_full b ~sent_max ~last_sent ~from;
           true
         in
         let merge from p =
           Counter_algo.merge a ~from p;
           Counter_algo.merge b ~from p;
           true
         in
         let step () =
           force_dirty b;
           match int 22 with
           | 0 -> merge (member ()) (pair ())
           | 1 ->
             let max_entries = List.init (int 3) (fun _ -> (member (), pair ())) in
             let stored_entries =
               List.init (int 2) (fun _ -> (member (), List.init (1 + int 2) (fun _ -> pair ())))
             in
             Counter_algo.corrupt a ~max_entries ~stored_entries;
             Counter_algo.corrupt b ~max_entries ~stored_entries;
             true
           | 2 ->
             let members = set (1 :: List.filter (fun _ -> Random.State.bool rs) [ 2; 3; 4 ]) in
             Counter_algo.rebuild a ~members;
             Counter_algo.rebuild b ~members;
             true
           | 3 ->
             Counter.equal (Counter_algo.find_max_counter a) (Counter_algo.find_max_counter b)
           | 4 ->
             (* a majWrite of the raised pair, or our own next counter *)
             let from = 1 + int 4 in
             merge from (raised from)
           | 5 | 6 ->
             let from = member () in
             receipt from (if int 5 = 0 then None else Some (pair ())) (last_sent ())
           | 7 | 8 | 9 | 10 | 11 ->
             let from = 2 + int 3 in
             receipt from (Counter_algo.max_of a from) (last_sent ())
           | _ ->
             let from = 2 + int 3 in
             receipt from (Some (raised from)) (last_sent ())
         in
         List.for_all
           (fun () ->
             step ()
             && Counter_algo.label_creations a = Counter_algo.label_creations b
             && List.for_all
                  (fun j ->
                    Option.equal pair_equal (Counter_algo.max_of a j) (Counter_algo.max_of b j)
                    && List.equal pair_equal (Counter_algo.stored a j)
                         (Counter_algo.stored b j))
                  [ 1; 2; 3; 4 ])
           (List.init 150 (fun _ -> ()))))

(* The same-label raise needs the raised label to be the maximum's own. Here
   three same-creator labels form a ≺ cycle (a ≺ b ≺ c ≺ a), none is
   maximal, and the total tiebreak settles on c. A raise of a, which c
   precedes, keeps c: the full path's tiebreak never looks at seqns of a. *)
let test_raise_outside_max_label () =
  let a =
    Counter_algo.create ~self:1 ~members:(set [ 1; 2; 3; 4 ]) ~in_transit_bound:2
      ~exhaust_bound:64
  in
  let la = Label.make ~creator:2 ~sting:0 ~antistings:[ 2 ] in
  let lb = Label.make ~creator:2 ~sting:1 ~antistings:[ 0 ] in
  let lc = Label.make ~creator:2 ~sting:2 ~antistings:[ 1 ] in
  let pair lbl seqn = Counter.pair_of (Counter.make ~lbl ~seqn ~wid:2) in
  Counter_algo.merge a ~from:2 (pair la 1);
  Counter_algo.corrupt a ~max_entries:[ (3, pair lb 0); (4, pair lc 0) ] ~stored_entries:[];
  ignore (Counter_algo.find_max_counter a);
  let settled = Counter_algo.find_max_counter a in
  Alcotest.(check bool) "settled on c" true (Label.equal settled.Counter.lbl lc);
  Alcotest.(check bool) "c precedes the raise" true
    (Counter.precedes settled (pair la 2).Counter.mct);
  Counter_algo.receipt_action a ~sent_max:(Some (pair la 2)) ~last_sent:None ~from:2;
  Alcotest.(check bool) "still c" true
    (match Counter_algo.local_max a with
    | Some p -> Counter.equal p.Counter.mct settled
    | None -> false)

(* storedCnts as first written: partition out the pair's label, merge
   (a canceled copy wins, else the greater <seqn, wid>), push to the front,
   truncate to the queue bound. [merge] must keep exactly these queues even
   where it skips an add that would rebuild the same queue. *)
let reference_store_add ~bound store (p : Counter.pair) =
  let creator = p.Counter.mct.Counter.lbl.Label.creator in
  let same (a : Counter.pair) = Label.equal a.Counter.mct.Counter.lbl p.Counter.mct.Counter.lbl in
  let merge_pair (a : Counter.pair) (b : Counter.pair) =
    match (Counter.legit a, Counter.legit b) with
    | false, true -> a
    | true, false -> b
    | _ -> if Counter.precedes a.Counter.mct b.Counter.mct then b else a
  in
  let q = Option.value ~default:[] (Pid.Map.find_opt creator store) in
  let dups, rest = List.partition same q in
  let q' = List.fold_left merge_pair p dups :: rest in
  Pid.Map.add creator (List.filteri (fun i _ -> i < bound) q') store

let prop_merge_store_matches_reference =
  qtest
    (QCheck.Test.make ~name:"merge keeps the partition-and-merge store queues"
       ~count:300 QCheck.(int_range 0 100_000)
       (fun seed ->
         let rs = Random.State.make [| seed |] in
         let a = mk_fixed_algo () in
         (* three members, in-transit bound 2: other creators keep 3 + 2 *)
         let bound j = if j = 1 then (3 * ((3 * 3) + 2)) + 3 else 3 + 2 in
         let store = ref Pid.Map.empty in
         List.for_all
           (function
             | Merge (from, p) ->
               Counter_algo.merge a ~from p;
               let creator = p.Counter.mct.Counter.lbl.Label.creator in
               store := reference_store_add ~bound:(bound creator) !store p;
               List.for_all
                 (fun j ->
                   List.equal pair_equal (Counter_algo.stored a j)
                     (Option.value ~default:[] (Pid.Map.find_opt j !store)))
                 [ 1; 2; 3 ]
             | Receipt _ | Corrupt _ | Find -> true)
           (gen_cnt_ops rs 120)))

(* A corrupted state on which findMaxCounter is not idempotent: the first
   run settles on a stored legit pair whose label a canceled max entry of
   the same creator dominates; only the second run cancels that pair, swaps
   the just-settled max for its canceled twin and opens a fresh epoch. A
   receipt that changes nothing must therefore not skip the second run. *)
let test_not_idempotent_after_corruption () =
  let a = mk_fixed_algo () in
  let l1 = Label.make ~creator:2 ~sting:1 ~antistings:[] in
  let l2 = Label.make ~creator:2 ~sting:2 ~antistings:[ 1 ] in
  (* the store holds the legit l1 pair; max holds only the canceled l2 *)
  Counter_algo.merge a ~from:3 (Counter.pair_of (Counter.make ~lbl:l1 ~seqn:1 ~wid:2));
  Counter_algo.corrupt a
    ~max_entries:
      [ (3, Counter.cancel (Counter.pair_of (Counter.make ~lbl:l2 ~seqn:0 ~wid:2))) ]
    ~stored_entries:[];
  let first = Counter_algo.find_max_counter a in
  Alcotest.(check bool) "first run settles on the dominated label" true
    (Label.equal first.Counter.lbl l1);
  Alcotest.(check int) "no fresh epoch yet" 0 (Counter_algo.label_creations a);
  (* a receipt from a processor without an entry: nothing changes *)
  Counter_algo.receipt_action a ~sent_max:None ~last_sent:None ~from:2;
  Alcotest.(check int) "the receipt's run opened a fresh epoch" 1
    (Counter_algo.label_creations a);
  let second = Counter_algo.find_max_counter a in
  Alcotest.(check int) "own fresh label" 1 second.Counter.lbl.Label.creator;
  Alcotest.(check bool) "settled max is legit" true
    (match Counter_algo.local_max a with
    | Some p -> Counter.legit p && Counter.equal p.Counter.mct second
    | None -> false)

(* staleInfo (Algorithm 4.2 line 20): a legit creator-3 counter filed under
   queue 2 escapes the cancellation its canceled copy in queue 3 carries,
   and without the flush findMaxCounter serves the canceled label on every
   call. A receipt flushes the queues, so a fresh label replaces it. *)
let test_stale_info_flushes_queues () =
  let a = mk_algo 1 in
  let c3 = Counter.make ~lbl:(lbl 3) ~seqn:0 ~wid:3 in
  Counter_algo.corrupt a ~max_entries:[]
    ~stored_entries:
      [ (2, [ Counter.pair_of c3 ]); (3, [ Counter.cancel (Counter.pair_of c3) ]) ];
  Counter_algo.receipt_action a ~sent_max:None ~last_sent:None ~from:2;
  for _ = 1 to 3 do
    let c = Counter_algo.find_max_counter a in
    Alcotest.(check bool) "canceled label not served" false
      (Label.equal c.Counter.lbl c3.Counter.lbl)
  done;
  Alcotest.(check int) "one fresh label" 1 (Counter_algo.label_creations a);
  Alcotest.(check int) "misfiled queues flushed" 0
    (List.length (Counter_algo.stored a 2) + List.length (Counter_algo.stored a 3))

(* --- the label storage over the full stack, no increments --- *)

let test_service_label_agreement () =
  let sys = make_counter_system () in
  Reconfig.Stack.run_rounds sys 10;
  Alcotest.(check bool) "members agree on a maximal label" true
    (Reconfig.Stack.run_until sys ~max_steps:400_000 (fun t ->
         Counter_service.agreed_label t <> None))

let test_service_label_agreement_after_reconfig () =
  let sys = make_counter_system ~seed:5 () in
  Reconfig.Stack.run_rounds sys 10;
  Alcotest.(check bool) "initial agreement" true
    (Reconfig.Stack.run_until sys ~max_steps:400_000 (fun t ->
         Counter_service.agreed_label t <> None));
  (* delicate reconfiguration to a smaller member set (retry until the
     scheme is momentarily quiet enough to accept the proposal) *)
  let rec propose n =
    if n = 0 then Alcotest.fail "estab never accepted"
    else if not (Reconfig.Stack.estab sys 1 (set [ 1; 2; 3 ])) then begin
      Reconfig.Stack.run_rounds sys 2;
      propose (n - 1)
    end
  in
  propose 50;
  let settled t =
    match Reconfig.Stack.uniform_config t with
    | Some c -> Pid.Set.equal c (set [ 1; 2; 3 ]) && Counter_service.agreed_label t <> None
    | None -> false
  in
  Alcotest.(check bool) "agreement in the new configuration" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 settled)

(* Every member's max[j] and queue j hold labels of j that are pairwise
   incomparable, so all of them must be canceled and replaced. *)
let test_service_recovers_from_corrupt_labels () =
  let sys = make_counter_system ~seed:6 () in
  Reconfig.Stack.run_rounds sys 10;
  Alcotest.(check bool) "initial agreement" true
    (Reconfig.Stack.run_until sys ~max_steps:400_000 (fun t ->
         Counter_service.agreed_label t <> None));
  let garbage j ~sting ~antisting =
    Counter.pair_of
      (Counter.make ~lbl:(Label.make ~creator:j ~sting ~antistings:[ antisting ]) ~seqn:0
         ~wid:j)
  in
  List.iter
    (fun (p, n) ->
      match Counter_service.algo n.Reconfig.Stack.app with
      | Some algo ->
        let first j = garbage j ~sting:(1000 + p) ~antisting:(2000 + p) in
        let second j = garbage j ~sting:(3000 + p) ~antisting:(4000 + p) in
        let members = [ 1; 2; 3; 4 ] in
        Counter_algo.corrupt algo
          ~max_entries:(List.map (fun j -> (j, first j)) members)
          ~stored_entries:(List.map (fun j -> (j, [ first j; second j ])) members)
      | None -> ())
    (Reconfig.Stack.live_nodes sys);
  let before = Counter_service.label_creations sys in
  Alcotest.(check bool) "re-agreement after corruption" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Counter_service.agreed_label t <> None));
  Alcotest.(check bool) "fresh labels created" true
    (Counter_service.label_creations sys > before);
  match Counter_service.agreed_label sys with
  | Some l ->
    (* every planted sting is at least 1000 *)
    Alcotest.(check bool) "agreed label is a fresh one" true (l.Label.sting < 1000)
  | None -> Alcotest.fail "no agreed label"

(* The plugin's own corruption (what [corrupt_everything] and the fault
   plans inject) reaches the queues, not only max[]: some queue holds a
   pair it did not hold before, and the members agree on a label again. *)
let test_service_corruption_reaches_queues () =
  let sys = make_counter_system ~seed:7 () in
  Alcotest.(check bool) "initial agreement" true
    (Reconfig.Stack.run_until sys ~max_steps:400_000 (fun t ->
         Counter_service.agreed_label t <> None));
  let algo_of p = Option.get (Counter_service.algo (app sys p)) in
  let members = [ 1; 2; 3; 4 ] in
  let queues p = List.map (Counter_algo.stored (algo_of p)) members in
  let before = List.map (fun p -> (p, queues p)) members in
  List.iter (fun p -> Reconfig.Stack.corrupt_node sys p ~rng:(Rng.create p)) members;
  let new_pair =
    List.exists
      (fun (p, qs) ->
        List.exists2
          (fun old now ->
            List.exists (fun x -> not (List.exists (pair_equal x) old)) now)
          qs (queues p))
      before
  in
  Alcotest.(check bool) "a queue holds a new pair" true new_pair;
  Alcotest.(check bool) "re-agreement after corruption" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Counter_service.agreed_label t <> None))

let suites =
  [
    ( "counter.structure",
      [
        Alcotest.test_case "order" `Quick test_counter_order;
        Alcotest.test_case "exhaustion" `Quick test_counter_exhaustion;
        Alcotest.test_case "pair cancellation" `Quick test_pair_cancellation;
        qtest prop_counter_total_order_same_label;
        qtest prop_max_of_matches_reference;
      ] );
    ( "counter.algo",
      [
        Alcotest.test_case "initial counter" `Quick test_algo_initial_counter;
        Alcotest.test_case "adopts greater label" `Quick test_algo_adopts_greater_label;
        Alcotest.test_case "cancellation echo" `Quick test_algo_cancellation_echo;
        Alcotest.test_case "voids non-members" `Quick test_algo_voids_non_member_labels;
        Alcotest.test_case "merge keeps greatest" `Quick test_algo_merge_keeps_greatest;
        Alcotest.test_case "exhaustion forces epoch" `Quick test_algo_exhaustion_forces_new_epoch;
        Alcotest.test_case "rebuild voids non-members" `Quick test_algo_rebuild_voids_non_members;
        Alcotest.test_case "bounded queues" `Quick test_algo_bounded_queues;
        qtest prop_algo_two_party_agreement;
        Alcotest.test_case "staleInfo flushes misfiled queues" `Quick
          test_stale_info_flushes_queues;
        prop_fixed_point_skip_exact;
        prop_incremental_receipt_exact;
        Alcotest.test_case "raise outside the maximum's label" `Quick
          test_raise_outside_max_label;
        prop_merge_store_matches_reference;
        Alcotest.test_case "findMaxCounter not idempotent after corruption" `Quick
          test_not_idempotent_after_corruption;
      ] );
    (* the label storage of Algorithm 4.2, which the counter storage holds *)
    ( "label.algo",
      [
        Alcotest.test_case "creates initial label" `Quick test_algo_creates_initial_label;
        Alcotest.test_case "rebuild drops departed" `Quick test_algo_rebuild_drops_departed;
      ] );
    ( "counter.service",
      [
        Alcotest.test_case "member increment" `Quick test_member_increment;
        Alcotest.test_case "an increment starts on a receipt" `Quick
          test_increment_starts_on_receipt;
        Alcotest.test_case "sequential monotone" `Quick test_sequential_increments_monotone;
        Alcotest.test_case "concurrent ordered" `Quick test_concurrent_increments_ordered;
        Alcotest.test_case "non-member increment" `Quick test_non_member_increment;
        Alcotest.test_case "exhaustion rollover" `Quick test_exhaustion_rollover_in_system;
        Alcotest.test_case "label agreement" `Quick test_service_label_agreement;
        Alcotest.test_case "label agreement after reconfig" `Quick
          test_service_label_agreement_after_reconfig;
        Alcotest.test_case "recovery from corrupt labels" `Quick
          test_service_recovers_from_corrupt_labels;
        Alcotest.test_case "corruption reaches the queues" `Quick
          test_service_corruption_reaches_queues;
      ] );
  ]
