(* Tests for the runtime-agnostic layer: the snap-nonce packing, the
   plugin stacking combinator, the real-time loop runtime, a synchronous
   runner built on Sim.Step alone, and the sim-vs-loop equivalence of the
   full stack. *)

open Sim
open Reconfig

let set = Pid.set_of_list

(* ------------------------------------------------------------------ *)
(* snap_nonce                                                          *)
(* ------------------------------------------------------------------ *)

let test_snap_nonce_regression () =
  (* the old [self * 1_000_003 + peer] scheme collided exactly here *)
  let n1 = Stack.snap_nonce ~self:1 ~peer:0 in
  let n2 = Stack.snap_nonce ~self:0 ~peer:1_000_003 in
  Alcotest.(check bool) "old colliding pair now distinct" true (n1 <> n2)

let test_snap_nonce_injective () =
  let pids = [ 0; 1; 2; 3; 17; 999; 1_000_002; 1_000_003; (1 lsl 20) + 5 ] in
  let tbl = Hashtbl.create 128 in
  List.iter
    (fun s ->
      List.iter
        (fun p ->
          let n = Stack.snap_nonce ~self:s ~peer:p in
          (match Hashtbl.find_opt tbl n with
          | Some (s', p') ->
            Alcotest.failf "nonce collision: (%d,%d) and (%d,%d) -> %d" s p s' p' n
          | None -> ());
          Hashtbl.add tbl n (s, p))
        pids)
    pids

(* ------------------------------------------------------------------ *)
(* Plugin combinators                                                  *)
(* ------------------------------------------------------------------ *)

let dummy_view ?(self = 1) ?(send = fun _ _ -> ()) () =
  {
    Stack.v_self = self;
    v_trusted = set [ 1; 2; 3 ];
    v_recsa = Recsa.create ~self ~participant:true ();
    v_send = send;
    v_emit = (fun _ _ -> ());
    v_now = 0.0;
    v_telemetry = Telemetry.create ();
  }

(* A plugin whose state is a newest-first log of everything that happened
   to it, and whose tick always sends two tagged messages. Its merge logs
   the first entry of each other state it was handed. *)
let probe tag =
  let note log event = log := event :: !log in
  {
    Stack.p_init = (fun pid -> ref [ Printf.sprintf "%s.init.%d" tag pid ]);
    p_tick =
      (fun v log ->
        note log (tag ^ ".tick");
        v.Stack.v_send 2 (tag ^ ".m1");
        v.Stack.v_send 3 (tag ^ ".m2"));
    p_recv = (fun _v ~from m log -> note log (Printf.sprintf "%s.recv.%d.%s" tag from m));
    (* something to start: the upper layer asked and nothing happened since *)
    p_pending = (fun log -> match !log with "hi.asks" :: _ -> true | _ -> false);
    p_start =
      (fun v log ->
        note log (tag ^ ".start");
        v.Stack.v_send 2 (tag ^ ".s"));
    p_merge =
      (fun ~self:_ log others ->
        let heads =
          List.map
            (fun (p, other) -> Printf.sprintf "%d:%s" p (List.hd !other))
            (Pid.Map.bindings others)
        in
        note log (Printf.sprintf "%s.merge(%s)" tag (String.concat "," heads)));
    p_corrupt = (fun _ log -> note log (tag ^ ".corrupt"));
  }

let lo_hi_msg =
  let pp fmt = function
    | `Lo m -> Format.fprintf fmt "Lo %s" m
    | `Hi m -> Format.fprintf fmt "Hi %s" m
  in
  Alcotest.testable pp ( = )

(* upper state = (lower log, upper log); the upper's tick, receipt, merge
   and corrupt record how many lower events they observed, so the order
   of the two layers is observable. The upper's tick also asks something
   of the lower layer by writing into its state, as the register asks the
   counter for a tag. *)
let stacked () =
  let lower = probe "lo" in
  let saw what lo = Printf.sprintf "hi.%s(saw %d lo events)" what (List.length !lo) in
  let queued hi = match !hi with "hi.queued" :: _ -> true | _ -> false in
  let upper =
    {
      Stack.p_init = (fun pid -> (lower.Stack.p_init pid, ref [ Printf.sprintf "hi.init.%d" pid ]));
      p_tick =
        (fun v (lo, hi) ->
          hi := saw "tick" lo :: !hi;
          lo := "hi.asks" :: !lo;
          v.Stack.v_send 9 (`Hi "h1"));
      p_recv =
        (fun _v ~from m (lo, hi) ->
          match m with
          | `Hi s -> hi := Printf.sprintf "hi.recv.%d.%s" from s :: !hi
          | `Lo s -> hi := saw (Printf.sprintf "recv.%d.lo.%s" from s) lo :: !hi);
      (* an upper layer reports the lower's waiting work too *)
      p_pending = (fun (lo, hi) -> queued hi || lower.Stack.p_pending lo);
      p_start =
        (fun v (lo, hi) ->
          if queued hi then begin
            hi := saw "start" lo :: !hi;
            lo := "hi.asks" :: !lo;
            v.Stack.v_send 9 (`Hi "h2")
          end);
      p_merge = (fun ~self:_ (lo, hi) _ -> hi := saw "merge" lo :: !hi);
      p_corrupt = (fun _ (lo, hi) -> hi := saw "corrupt" lo :: !hi);
    }
  in
  Stack.Plugin.stack ~lower
    ~get:(fun (lo, _) -> lo)
    ~wrap:(fun m -> `Lo m)
    ~unwrap:(function `Lo m -> Some m | `Hi _ -> None)
    upper

(* a view recording every send, oldest first *)
let recording_view () =
  let sent = ref [] in
  (dummy_view ~send:(fun dst m -> sent := (dst, m) :: !sent) (), fun () -> List.rev !sent)

let test_stack_ordering () =
  let p = stacked () in
  let v, sent = recording_view () in
  let ((lo, hi) as st) = p.Stack.p_init 1 in
  Alcotest.(check (list string)) "lower initialised" [ "lo.init.1" ] !lo;
  p.Stack.p_tick v st;
  Alcotest.(check (list (pair int lo_hi_msg)))
    "the upper's messages precede the wrapped lower messages"
    [ (9, `Hi "h1"); (2, `Lo "lo.m1"); (3, `Lo "lo.m2") ]
    (sent ());
  (* 1 event: the upper ticked before the lower *)
  Alcotest.(check (list string))
    "upper ticked first" [ "hi.tick(saw 1 lo events)"; "hi.init.1" ] !hi;
  Alcotest.(check (list string))
    "lower ticked on the upper's post-tick state"
    [ "lo.tick"; "hi.asks"; "lo.init.1" ]
    !lo

let test_stack_routing () =
  let p = stacked () in
  let v, sent = recording_view () in
  let ((lo, hi) as st) = p.Stack.p_init 1 in
  p.Stack.p_recv v ~from:4 (`Lo "ping") st;
  Alcotest.(check (list string))
    "Lo handled by the lower" [ "lo.recv.4.ping"; "lo.init.1" ] !lo;
  (* 2 events: the upper got the receipt after the lower handled it *)
  Alcotest.(check (list string))
    "then passed, still wrapped, to the upper"
    [ "hi.recv.4.lo.ping(saw 2 lo events)"; "hi.init.1" ]
    !hi;
  Alcotest.(check (list (pair int lo_hi_msg))) "no sends" [] (sent ());
  let ((lo, hi) as st) = p.Stack.p_init 1 in
  p.Stack.p_recv v ~from:4 (`Hi "yo") st;
  Alcotest.(check (list string)) "lower untouched" [ "lo.init.1" ] !lo;
  Alcotest.(check (list string)) "Hi routed to the upper alone" [ "hi.recv.4.yo"; "hi.init.1" ] !hi

let test_stack_start_pass () =
  let p = stacked () in
  let v, sent = recording_view () in
  let ((lo, hi) as st) = p.Stack.p_init 1 in
  Alcotest.(check bool) "nothing pending at init" false (p.Stack.p_pending st);
  hi := "hi.queued" :: !hi;
  Alcotest.(check bool) "the upper's queue makes the stack pending" true (p.Stack.p_pending st);
  p.Stack.p_start v st;
  Alcotest.(check (list (pair int lo_hi_msg)))
    "the upper starts first, then the lower, in the same pass"
    [ (9, `Hi "h2"); (2, `Lo "lo.s") ]
    (sent ());
  Alcotest.(check (list string))
    "upper started before the lower" [ "hi.start(saw 1 lo events)"; "hi.queued"; "hi.init.1" ]
    !hi;
  Alcotest.(check (list string))
    "lower started on what the upper asked" [ "lo.start"; "hi.asks"; "lo.init.1" ] !lo;
  Alcotest.(check bool) "nothing pending after the pass" false (p.Stack.p_pending st);
  (* a lower layer with work alone: the upper starts nothing *)
  let ((lo, hi) as st) = p.Stack.p_init 1 in
  lo := "hi.asks" :: !lo;
  Alcotest.(check bool) "the lower's work makes the stack pending" true (p.Stack.p_pending st);
  p.Stack.p_start v st;
  Alcotest.(check (list string)) "upper started nothing" [ "hi.init.1" ] !hi;
  Alcotest.(check (list string)) "lower started" [ "lo.start"; "hi.asks"; "lo.init.1" ] !lo

let test_stack_merge_corrupt () =
  let p = stacked () in
  let ((lo, hi) as st) = p.Stack.p_init 1 in
  let others = Pid.Map.of_seq (List.to_seq [ (2, p.Stack.p_init 2); (3, p.Stack.p_init 3) ]) in
  p.Stack.p_merge ~self:1 st others;
  Alcotest.(check (list string))
    "lower merged the others' lower states"
    [ "lo.merge(2:lo.init.2,3:lo.init.3)"; "lo.init.1" ]
    !lo;
  Alcotest.(check (list string))
    "upper merged after the lower" [ "hi.merge(saw 2 lo events)"; "hi.init.1" ] !hi;
  p.Stack.p_corrupt (Rng.create 1) st;
  Alcotest.(check (list string))
    "lower corrupted"
    [ "lo.corrupt"; "lo.merge(2:lo.init.2,3:lo.init.3)"; "lo.init.1" ]
    !lo;
  Alcotest.(check (list string))
    "upper corrupted after the lower"
    [ "hi.corrupt(saw 3 lo events)"; "hi.merge(saw 2 lo events)"; "hi.init.1" ]
    !hi

(* ------------------------------------------------------------------ *)
(* The loop runtime                                                    *)
(* ------------------------------------------------------------------ *)

type ping_state = { mutable got : (Pid.t * string) list; mutable pinged : bool }

let ping : (ping_state, string) Step.behavior =
  {
    Step.init = (fun _ -> { got = []; pinged = false });
    on_timer =
      (fun ctx st ->
        if Pid.equal (Step.self ctx) 1 && not st.pinged then begin
          Step.send ctx 2 "ping";
          st.pinged <- true
        end;
        st);
    on_message =
      (fun ctx from m st ->
        st.got <- (from, m) :: st.got;
        if String.equal m "ping" then Step.send ctx from "pong";
        st);
  }

let test_loop_delivery () =
  let t = Runtime.Loop.create ~behavior:ping ~pids:[ 1; 2 ] () in
  Runtime.Loop.run_round t;
  Alcotest.(check (list (pair int string)))
    "ping delivered in its round" [ (1, "ping") ]
    (Runtime.Loop.state t 2).got;
  Runtime.Loop.run_round t;
  Alcotest.(check (list (pair int string)))
    "pong delivered next round" [ (2, "pong") ]
    (Runtime.Loop.state t 1).got;
  Alcotest.(check int) "rounds counted" 2 (Runtime.Loop.rounds t);
  Alcotest.(check int) "no stragglers" 0 (Runtime.Loop.pending t)

let test_loop_clock_monotone () =
  (* an adversarial injected clock that jumps backwards *)
  let samples = ref [ 0.0; 1.0; 0.5; 2.0; 1.5; 3.0 ] in
  let clock () =
    match !samples with
    | [] -> 99.0
    | s :: rest ->
      samples := rest;
      s
  in
  let t = Runtime.Loop.create ~clock ~behavior:ping ~pids:[ 1; 2 ] () in
  let prev = ref (Runtime.Loop.now t) in
  for _ = 1 to 4 do
    Runtime.Loop.run_round t;
    let n = Runtime.Loop.now t in
    Alcotest.(check bool) "clock never regresses" true (n >= !prev);
    prev := n
  done

let test_loop_crash () =
  let t = Runtime.Loop.create ~behavior:ping ~pids:[ 1; 2 ] () in
  Runtime.Loop.crash t 2;
  Runtime.Loop.run_rounds t 3;
  Alcotest.(check (list int)) "crashed node dropped" [ 1 ] (Runtime.Loop.live_pids t);
  Alcotest.(check (list (pair int string)))
    "no pong from a crashed node" [] (Runtime.Loop.state t 1).got

(* ------------------------------------------------------------------ *)
(* A runtime on Sim.Step alone                                         *)
(* ------------------------------------------------------------------ *)

(* A synchronous runtime in the fewest lines: each round every node takes
   one timer step, then every message in flight when the delivery phase
   begins is delivered (replies wait for the next round). Adding a runtime
   is exactly this — install a send in a Step.ctx, fill it, call on_timer /
   on_message — whatever moves the messages. *)
let sync_run ?(telemetry = Telemetry.create ()) (b : ('s, 'm) Step.behavior) pids
    ~max_rounds until =
  let ctx = Step.create ~trace:(Trace.create ()) ~telemetry in
  let states = Hashtbl.create 8 in
  List.iter (fun p -> Hashtbl.replace states p (b.init p)) pids;
  let in_flight = ref [] in
  ctx.Step.ctx_send <-
    (fun dst m -> in_flight := (ctx.Step.ctx_self, dst, m) :: !in_flight);
  let run_step round p f =
    ctx.Step.ctx_self <- p;
    ctx.ctx_time <- float_of_int round;
    Hashtbl.replace states p (f ctx (Hashtbl.find states p))
  in
  let view () = List.map (fun p -> (p, Hashtbl.find states p)) pids in
  let rec go round =
    if until (view ()) then Some round
    else if round >= max_rounds then None
    else begin
      List.iter (fun p -> run_step round p b.on_timer) pids;
      let batch = List.rev !in_flight in
      in_flight := [];
      List.iter
        (fun (src, dst, m) ->
          if Hashtbl.mem states dst then run_step round dst (fun c -> b.on_message c src m))
        batch;
      go (round + 1)
    end
  in
  go 0

let test_sync_runner_drives_stack () =
  (* every node starts from a corrupted state: the runner has to carry the
     scheme through brute-force recovery to agreement on the members *)
  let members = [ 1; 2; 3; 4 ] in
  let rng = Rng.create 17 in
  let b =
    Stack.driver ~capacity:8 ~n_bound:8 ~theta:4
      ~hooks:Stack.unit_hooks ~members_set:(set members) ~directory:(ref (set members))
  in
  let corrupted p =
    let n = b.init p in
    Stack.corrupt_state ~hooks:Stack.unit_hooks ~pool:members ~rng n;
    n
  in
  let agreed nodes =
    Stack.quiescent_of nodes
    && Option.equal Pid.Set.equal (Stack.uniform_config_of nodes) (Some (set members))
  in
  match sync_run { b with init = corrupted } members ~max_rounds:200 agreed with
  | Some rounds -> Alcotest.(check bool) "corrupted start is not agreed" true (rounds > 0)
  | None -> Alcotest.fail "no agreement on the members within 200 synchronous rounds"

let test_joiner_app_waits_for_handshake () =
  (* a plugin sending to every seed on each tick: a joiner's [v_send] must
     hold that traffic back on every link whose cleaning handshake has not
     completed *)
  let seeds = [ 1; 2; 3 ] in
  let plugin =
    {
      Stack.p_init = (fun _ -> ());
      p_tick = (fun v () -> List.iter (fun p -> v.Stack.v_send p "hello") seeds);
      p_recv = (fun _ ~from:_ _ () -> ());
      p_pending = (fun () -> false);
      p_start = (fun _ () -> ());
      p_merge = (fun ~self:_ () _ -> ());
      p_corrupt = (fun _ () -> ());
    }
  in
  let b =
    Stack.driver ~capacity:8 ~n_bound:8 ~theta:4
      ~hooks:{ Stack.unit_hooks with plugin } ~members_set:(set seeds)
      ~directory:(ref (set seeds))
  in
  let ctx = Step.create ~trace:(Trace.create ()) ~telemetry:(Telemetry.create ()) in
  let sent = ref [] in
  ctx.Step.ctx_send <- (fun dst m -> sent := (dst, m) :: !sent);
  (* one synchronous step; its sends, oldest first *)
  let step self f =
    ctx.Step.ctx_self <- self;
    sent := [];
    ignore (f ctx);
    List.rev !sent
  in
  let joiner = b.init 9 and member = b.init 1 in
  let app_to out =
    List.filter_map (function dst, Stack.App _ -> Some dst | _, _ -> None) out
  in
  let clean peer =
    match Pid.Map.find_opt peer joiner.Stack.snap with
    | Some s -> Datalink.Snap_link.phase s = Datalink.Snap_link.Clean_done
    | None -> false
  in
  let first = step 9 (fun c -> b.on_timer c joiner) in
  Alcotest.(check bool) "first tick floods the handshake" true
    (List.exists (function _, Stack.Snap _ -> true | _ -> false) first);
  Alcotest.(check (list int)) "no app traffic over an uncleaned link" []
    (List.filter (fun dst -> not (clean dst)) (app_to first));
  Alcotest.(check (list int)) "member sends app traffic ungated" seeds
    (app_to (step 1 (fun c -> b.on_timer c member)));
  (* clean the link to seed 1 alone: shuttle the joiner's flood to seed 1
     and its acknowledgments back *)
  let rec handshake rounds out =
    if clean 1 then ()
    else if rounds = 0 then Alcotest.fail "handshake with seed 1 never completed"
    else begin
      List.iter
        (fun (dst, m) ->
          if Pid.equal dst 1 then
            List.iter
              (fun (back, r) ->
                if Pid.equal back 9 then ignore (step 9 (fun c -> b.on_message c 1 r joiner)))
              (step 1 (fun c -> b.on_message c 9 m member)))
        out;
      handshake (rounds - 1) (step 9 (fun c -> b.on_timer c joiner))
    end
  in
  handshake 50 first;
  Alcotest.(check (list int)) "app traffic flows over the cleaned link only" [ 1 ]
    (app_to (step 9 (fun c -> b.on_timer c joiner)))

(* A node that sends to itself from both kinds of step; each message carries
   the number of the step that sent it. A runtime that re-entered the
   behavior from a send would find it [busy]; one that delivered a message
   within the step that sent it would hand over a stamp that is not older
   than the receiving step. *)
type self_state = {
  mutable steps : int;
  mutable busy : bool;
  mutable received : int;
  mutable violations : int;
}

let self_sender : (self_state, int) Step.behavior =
  let enter st =
    if st.busy then st.violations <- st.violations + 1;
    st.busy <- true;
    st.steps <- st.steps + 1
  in
  let leave st =
    st.busy <- false;
    st
  in
  {
    Step.init = (fun _ -> { steps = 0; busy = false; received = 0; violations = 0 });
    on_timer =
      (fun ctx st ->
        enter st;
        Step.send ctx (Step.self ctx) st.steps;
        leave st);
    on_message =
      (fun ctx from stamp st ->
        enter st;
        if stamp >= st.steps || not (Pid.equal from (Step.self ctx)) then
          st.violations <- st.violations + 1;
        st.received <- st.received + 1;
        Step.send ctx (Step.self ctx) st.steps;
        leave st);
  }

let check_self_sends state pids =
  List.iter
    (fun p ->
      let st = state p in
      Alcotest.(check int) (Printf.sprintf "p%d: never re-entered, stamps older" p) 0
        st.violations;
      Alcotest.(check bool) (Printf.sprintf "p%d: self-sends arrive" p) true
        (st.received > 0))
    pids

let test_engine_self_send_later_step () =
  let t = Engine.create ~seed:3 ~behavior:self_sender ~pids:[ 1; 2 ] () in
  Engine.run_rounds t 20;
  check_self_sends (Engine.state t) [ 1; 2 ]

let test_loop_self_send_later_step () =
  let t = Runtime.Loop.create ~behavior:self_sender ~pids:[ 1; 2 ] () in
  Runtime.Loop.run_rounds t 5;
  check_self_sends (Runtime.Loop.state t) [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Newest-state recSA delivery on the stack's link                     *)
(* ------------------------------------------------------------------ *)

let stale_dropped tele =
  Telemetry.counter_value tele ~labels:[ ("kind", "sa") ] "stack.stale_dropped"

let sa_view fd =
  {
    Recsa.m_fd = fd;
    m_part = set [ 1; 2; 3 ];
    m_config = Config_value.Set (set [ 1; 2; 3 ]);
    m_prp = Notification.default;
    m_all = false;
    m_echo = None;
  }

let test_link_drops_stale_sa () =
  let b =
    Stack.driver ~capacity:8 ~n_bound:8 ~theta:4
      ~hooks:Stack.unit_hooks ~members_set:(set [ 1; 2; 3 ])
      ~directory:(ref (set [ 1; 2; 3 ]))
  in
  let tele = Telemetry.create () in
  let ctx = Step.create ~trace:(Trace.create ()) ~telemetry:tele in
  ctx.Step.ctx_send <- (fun _ _ -> ());
  ctx.Step.ctx_self <- 1;
  let n = b.init 1 in
  let deliver stamp fd = ignore (b.on_message ctx 2 (Stack.Sa (stamp, sa_view fd)) n) in
  let stored () = Recsa.peer_fd n.Stack.sa 2 in
  let fd = Alcotest.testable (Fmt.option Pid.pp_set) (Option.equal Pid.Set.equal) in
  deliver 5 (set [ 1; 2; 3 ]);
  Alcotest.check fd "newer packet stored" (Some (set [ 1; 2; 3 ])) (stored ());
  deliver 4 (set [ 2 ]);
  Alcotest.check fd "older packet leaves the view unchanged" (Some (set [ 1; 2; 3 ]))
    (stored ());
  Alcotest.(check int) "one stale_dropped" 1 (stale_dropped tele);
  deliver 6 (set [ 2; 3 ]);
  Alcotest.check fd "the next newer packet is stored" (Some (set [ 2; 3 ])) (stored ());
  Alcotest.(check int) "no further drop" 1 (stale_dropped tele)

(* Every node starts from a corrupted state, and [poison] then wrecks its
   link stamps. The synchronous runner delivers each link's packets in send
   order, so every rejection is the corruption's: gossip must resume after
   at most [capacity] of them per link, and the scheme must still reach
   agreement on the members. *)
let link_recovers ~poison () =
  let members = [ 1; 2; 3; 4 ] and capacity = 4 in
  let rng = Rng.create 23 in
  let b =
    Stack.driver ~capacity ~n_bound:8 ~theta:4
      ~hooks:Stack.unit_hooks ~members_set:(set members) ~directory:(ref (set members))
  in
  let init p =
    let n = b.init p in
    Stack.corrupt_state ~hooks:Stack.unit_hooks ~pool:members ~rng n;
    poison n;
    n
  in
  let agreed nodes =
    Stack.quiescent_of nodes
    && Option.equal Pid.Set.equal (Stack.uniform_config_of nodes) (Some (set members))
    && List.for_all
         (fun (p, n) ->
           List.for_all
             (fun q -> Pid.equal p q || Recsa.peer_fd n.Stack.sa q <> None)
             members)
         nodes
  in
  let telemetry = Telemetry.create () in
  (match sync_run ~telemetry { b with init } members ~max_rounds:200 agreed with
  | Some _ -> ()
  | None -> Alcotest.fail "no agreement on the members within 200 synchronous rounds");
  let links = List.length members * (List.length members - 1) in
  let dropped = stale_dropped telemetry in
  Alcotest.(check bool)
    (Printf.sprintf "%d drops, at most %d per link" dropped capacity)
    true
    (dropped > 0 && dropped <= capacity * links)

let test_link_recovers_from_max_tables () =
  link_recovers
    ~poison:(fun n ->
      n.Stack.sa_in <-
        List.fold_left
          (fun links q ->
            Pid.Map.add q { Stack.sa_newest = max_int; sa_rejects = 0 } links)
          Pid.Map.empty [ 1; 2; 3; 4 ])
    ()

let test_link_recovers_from_wrapping_stamp () =
  (* reset tables, so the first packet of every link is accepted; the
     sender's counter then wraps to [min_int] two broadcasts later *)
  link_recovers
    ~poison:(fun n ->
      n.Stack.sa_in <- Pid.Map.empty;
      n.Stack.sa_stamp <- max_int - 1)
    ()

let test_link_engine_replacement () =
  (* on the engine, with every newest-stamp table at [max_int], a delicate
     replacement still completes *)
  let sys =
    Stack.of_scenario ~hooks:Stack.unit_hooks
      (Scenario.make ~seed:3 ~n_bound:16 ~members:[ 1; 2; 3; 4; 5 ] ())
  in
  Stack.run_rounds sys 20;
  List.iter
    (fun (_, n) -> Pid.Map.iter (fun _ l -> l.Stack.sa_newest <- max_int) n.Stack.sa_in)
    (Stack.live_nodes sys);
  let target = set [ 1; 2; 3; 4 ] in
  Alcotest.(check bool) "replacement requested" true (Stack.estab sys 1 target);
  Alcotest.(check bool) "replacement completes" true
    (Stack.run_until sys ~max_steps:400_000 (fun t ->
         Stack.quiescent t && Option.equal Pid.Set.equal (Stack.uniform_config t) (Some target)));
  List.iter
    (fun (p, n) ->
      Pid.Map.iter
        (fun q l ->
          Alcotest.(check bool)
            (Printf.sprintf "%d accepts from %d again" p q)
            true (l.Stack.sa_newest < max_int))
        n.Stack.sa_in)
    (Stack.live_nodes sys)

let test_link_corruption () =
  let pool = [ 1; 2; 3; 4 ] in
  let b =
    Stack.driver ~capacity:8 ~n_bound:8 ~theta:4
      ~hooks:Stack.unit_hooks ~members_set:(set pool) ~directory:(ref (set pool))
  in
  let rng = Rng.create 5 in
  let stamps =
    List.concat_map
      (fun _ ->
        let n = b.init 1 in
        Stack.corrupt_state ~hooks:Stack.unit_hooks ~pool ~rng n;
        Alcotest.(check (list int)) "a record for every pid of the pool" pool
          (List.map fst (Pid.Map.bindings n.Stack.sa_in));
        n.Stack.sa_stamp
        :: List.concat_map
             (fun (_, l) -> [ l.Stack.sa_newest; l.Stack.sa_rejects ])
             (Pid.Map.bindings n.Stack.sa_in))
      (List.init 16 Fun.id)
  in
  let packets =
    List.init 64 (fun _ ->
        match Stack.stale_sa rng pool with
        | Stack.Sa (stamp, _) -> stamp
        | _ -> Alcotest.fail "stale_sa is not an Sa packet")
  in
  (* arbitrary: spread over the whole int range, both signs and far beyond
     any count a run reaches *)
  List.iter
    (fun (what, l) ->
      Alcotest.(check bool) (what ^ ": negative values") true (List.exists (fun x -> x < 0) l);
      Alcotest.(check bool) (what ^ ": huge values") true
        (List.exists (fun x -> x > 1 lsl 40) l);
      Alcotest.(check int) (what ^ ": distinct") (List.length l)
        (List.length (List.sort_uniq compare l)))
    [ ("corrupt_state", stamps); ("stale_sa", packets) ]

(* ------------------------------------------------------------------ *)
(* Sim-vs-loop equivalence of the full stack                           *)
(* ------------------------------------------------------------------ *)

let test_stack_on_both_runtimes () =
  let members = [ 1; 2; 3 ] in
  let sim =
    Stack.of_scenario ~hooks:Stack.unit_hooks
      (Scenario.make ~seed:11 ~n_bound:16 ~members ())
  in
  Alcotest.(check bool) "sim quiescent" true
    (Stack.run_until sim ~max_steps:400_000 (fun t -> Stack.quiescent t));
  let lp =
    Stack_loop.of_scenario ~hooks:Stack.unit_hooks
      (Scenario.make ~seed:11 ~n_bound:16 ~members ())
  in
  (match Stack_loop.run_until_quiescent lp ~max_rounds:300 with
  | Some _ -> ()
  | None -> Alcotest.fail "loop runtime never quiescent");
  let expect = Some (set members) in
  let pp_conf fmt = function
    | Some c -> Pid.pp_set fmt c
    | None -> Format.fprintf fmt "<none>"
  in
  (* compare with set equality, not polymorphic [=]: equal sets may have
     different internal tree shapes (interning canonicalizes across
     construction paths) *)
  let conf = Alcotest.testable pp_conf (Option.equal Pid.Set.equal) in
  Alcotest.check conf "sim agrees on the bootstrap configuration" expect
    (Stack.uniform_config sim);
  Alcotest.check conf "loop agrees on the same configuration" expect
    (Stack_loop.uniform_config lp)

let test_loop_stack_joiner () =
  let lp =
    Stack_loop.of_scenario ~hooks:Stack.unit_hooks
      (Scenario.make ~seed:5 ~n_bound:16 ~members:[ 1; 2; 3 ] ())
  in
  (match Stack_loop.run_until_quiescent lp ~max_rounds:300 with
  | Some _ -> ()
  | None -> Alcotest.fail "never quiescent");
  Stack_loop.add_joiner lp 9;
  Stack_loop.run_rounds lp 200;
  Alcotest.(check bool) "joiner converges to trusting the members" true
    (Pid.Set.subset (set [ 1; 2; 3 ]) (Stack_loop.trusted_of lp 9))

let test_loop_seed_independent () =
  (* the loop draws no randomness: scenarios that differ only in their
     seed record the same events and end in the same configuration *)
  let run seed =
    let lp =
      Stack_loop.of_scenario ~hooks:Stack.unit_hooks
        (Scenario.make ~seed ~n_bound:16 ~members:[ 1; 2; 3; 4 ] ())
    in
    Stack_loop.run_rounds lp 40;
    Stack_loop.add_joiner lp 9;
    Stack_loop.run_rounds lp 100;
    Stack_loop.crash lp 2;
    Stack_loop.run_rounds lp 200;
    let events =
      Trace.fold (Runtime.Loop.trace (Stack_loop.loop lp)) ~init:[] (fun acc e ->
          (e.Trace.tag, e.Trace.node, e.Trace.detail) :: acc)
    in
    (List.rev events, Stack_loop.uniform_config lp)
  in
  let events_a, config_a = run 1 and events_b, config_b = run 977 in
  Alcotest.(check bool) "the run records protocol events" true
    (List.exists (fun (tag, _, _) -> tag <> "join" && tag <> "crash") events_a);
  Alcotest.(check (list (triple string (option int) string)))
    "same (tag, node, detail) sequence" events_a events_b;
  Alcotest.(check bool) "an agreed configuration" true (config_a <> None);
  Alcotest.(check bool) "same configuration" true
    (Option.equal Pid.Set.equal config_a config_b)

(* ------------------------------------------------------------------ *)
(* Scenario validation                                                  *)
(* ------------------------------------------------------------------ *)

let test_scenario_rejects_empty_members () =
  let empty = Invalid_argument "Scenario.make: empty member list" in
  Alcotest.check_raises "nodes 0" empty (fun () -> ignore (Scenario.make ~nodes:0 ()));
  Alcotest.check_raises "members []" empty (fun () ->
      ignore (Scenario.make ~members:[] ()))

let test_scenario_rejects_bad_loss () =
  let bad = Invalid_argument "Scenario.make: loss must be in [0,1]" in
  List.iter
    (fun loss ->
      Alcotest.check_raises (Printf.sprintf "loss %g" loss) bad (fun () ->
          ignore (Scenario.make ~nodes:3 ~loss ())))
    [ 1.5; -0.1; Float.nan ];
  List.iter
    (fun loss ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "loss %g accepted" loss)
        loss
        (Scenario.make ~nodes:3 ~loss ()).Scenario.sc_loss)
    [ 0.0; 1.0 ]

let test_scenario_rejects_bad_capacity () =
  let bad = Invalid_argument "Scenario.make: capacity must be positive" in
  List.iter
    (fun capacity ->
      Alcotest.check_raises (Printf.sprintf "capacity %d" capacity) bad (fun () ->
          ignore (Scenario.make ~nodes:4 ~capacity ())))
    [ 0; -1 ];
  Alcotest.(check int) "capacity 1 accepted" 1
    (Scenario.make ~nodes:4 ~capacity:1 ()).Scenario.sc_capacity

let test_scenario_rejects_bad_shape () =
  Alcotest.check_raises "theta 1" (Invalid_argument "Scenario.make: theta must be >= 2")
    (fun () -> ignore (Scenario.make ~nodes:4 ~theta:1 ()));
  Alcotest.(check int) "theta 2 accepted" 2
    (Scenario.make ~nodes:4 ~theta:2 ()).Scenario.sc_theta;
  Alcotest.check_raises "members [1;1;2]"
    (Invalid_argument "Scenario.make: duplicate member") (fun () -> ignore (Scenario.make ~members:[ 1; 1; 2 ] ()));
  Alcotest.check_raises "nodes -3"
    (Invalid_argument "Scenario.make: nodes must not be negative") (fun () ->
      ignore (Scenario.make ~nodes:(-3) ()))

let suites =
  [
    ( "runtime.nonce",
      [
        Alcotest.test_case "regression" `Quick test_snap_nonce_regression;
        Alcotest.test_case "injective" `Quick test_snap_nonce_injective;
      ] );
    ( "runtime.plugin",
      [
        Alcotest.test_case "stack ordering" `Quick test_stack_ordering;
        Alcotest.test_case "stack routing" `Quick test_stack_routing;
        Alcotest.test_case "stack start pass" `Quick test_stack_start_pass;
        Alcotest.test_case "stack merge and corrupt" `Quick test_stack_merge_corrupt;
      ] );
    ( "runtime.loop",
      [
        Alcotest.test_case "delivery" `Quick test_loop_delivery;
        Alcotest.test_case "monotone clock" `Quick test_loop_clock_monotone;
        Alcotest.test_case "crash" `Quick test_loop_crash;
      ] );
    ( "runtime.step",
      [
        Alcotest.test_case "synchronous runner drives the stack" `Quick test_sync_runner_drives_stack;
        Alcotest.test_case "joiner app traffic waits for the handshake" `Quick
          test_joiner_app_waits_for_handshake;
        Alcotest.test_case "engine: a self-send arrives in a later step" `Quick
          test_engine_self_send_later_step;
        Alcotest.test_case "loop: a self-send arrives in a later step" `Quick
          test_loop_self_send_later_step;
      ] );
    ( "runtime.link",
      [
        Alcotest.test_case "a stale Sa after a newer one is dropped" `Quick
          test_link_drops_stale_sa;
        Alcotest.test_case "gossip resumes after max_int tables" `Quick
          test_link_recovers_from_max_tables;
        Alcotest.test_case "gossip resumes after a wrapping stamp" `Quick
          test_link_recovers_from_wrapping_stamp;
        Alcotest.test_case "engine: replacement with max_int tables" `Quick
          test_link_engine_replacement;
        Alcotest.test_case "corruption scrambles stamps and tables" `Quick
          test_link_corruption;
      ] );
    ( "runtime.equivalence",
      [
        Alcotest.test_case "stack on both runtimes" `Quick test_stack_on_both_runtimes;
        Alcotest.test_case "loop joiner" `Quick test_loop_stack_joiner;
        Alcotest.test_case "loop runs are seed-independent" `Quick
          test_loop_seed_independent;
      ] );
    ( "runtime.scenario",
      [
        Alcotest.test_case "rejects empty members" `Quick
          test_scenario_rejects_empty_members;
        Alcotest.test_case "rejects loss outside [0,1]" `Quick
          test_scenario_rejects_bad_loss;
        Alcotest.test_case "rejects non-positive capacity" `Quick
          test_scenario_rejects_bad_capacity;
        Alcotest.test_case "rejects theta below 2, duplicates, negative nodes" `Quick
          test_scenario_rejects_bad_shape;
      ] );
  ]
