(* Every pid the engine ever sees (as a node or as a channel endpoint) is
   assigned a dense slot index; the per-link state (channels, blocks) lives
   in slot-indexed matrices and events carry packed slot indices, so the
   per-event hot path is pure array indexing — no hashing, no tuple or
   variant allocation per event. *)

let slot_bits = 15
let slot_mask = (1 lsl slot_bits) - 1
let max_slots = 1 lsl slot_bits

(* Pids up to this bound resolve to their slot through a direct-mapped
   array; larger pids (legal up to 2^key_bits) fall back to a hashtable. *)
let slot_fast_limit = 1 lsl 16

(* An event's kind packs into one int: bit 0 tags timer (0) vs delivery
   (1); a timer carries the node's slot, a delivery both endpoint slots. *)
let timer_kind slot = slot lsl 1
let deliver_kind ~src_slot ~dst_slot = (((src_slot lsl slot_bits) lor dst_slot) lsl 1) lor 1

type ('s, 'm) node = {
  n_pid : Pid.t;
  n_slot : int;
  mutable n_state : 's;
  mutable n_crashed : bool;
  mutable n_ticks : int;
}

let key_bits = Pid.key_bits
let key_mask = (1 lsl key_bits) - 1

let check_pids ~src ~dst =
  if (src lor dst) land lnot key_mask <> 0 then
    invalid_arg
      (Printf.sprintf "Engine: pid out of range (src=%d dst=%d, must be in [0, 2^%d))"
         src dst key_bits)

type link_profile = { lp_drop : float; lp_dup : float; lp_flip : float }

(* The fixed network and scheduling model (see [create] in engine.mli):
   per-send duplication probability, message delay and timer period
   bounds. Channels always deliver out of order. *)
let dup_rate = 0.02
let min_delay = 0.5
let max_delay = 2.0
let timer_min = 0.8
let timer_max = 1.2

type ('s, 'm) t = {
  behavior : ('s, 'm) Step.behavior;
  e_rng : Rng.t;
  capacity : int;
  loss : float;
  (* slot directory *)
  slot_tbl : (Pid.t, int) Hashtbl.t; (* pids >= slot_fast_limit *)
  mutable slot_fast : int array; (* pid -> slot, -1 when unassigned *)
  mutable pid_of_slot : Pid.t array;
  mutable node_of_slot : ('s, 'm) node option array;
  mutable n_slots : int;
  (* dense per-link state: both matrices are square over the slot space,
     rows allocated when their source slot is created *)
  mutable out : 'm Channel.t option array array; (* out.(src).(dst) *)
  mutable blocked : bool array array;
  (* adversarial per-link fault-rate overrides; [None] everywhere by
     default, in which case the global loss/dup model applies and the RNG
     draw sequence is exactly the profile-free one *)
  mutable profiles : link_profile option array array;
  mutable mangler : (Rng.t -> 'm -> 'm) option;
  queue : Event_queue.t;
  mutable e_time : float;
  mutable e_steps : int;
  (* cached view of [rounds]: the minimum tick count over live nodes and how
     many live nodes sit at that minimum, so [rounds] is O(1) and the O(n)
     rescan only happens when the minimum actually advances (amortized O(1)
     per step). *)
  mutable e_live : int;
  mutable e_min_ticks : int;
  mutable e_min_count : int;
  (* cached sorted pid lists, invalidated by [add_node] / [crash] *)
  mutable cached_pids : Pid.t list option;
  mutable cached_live : Pid.t list option;
  (* one scratch step context per engine, reused across every step (steps
     run strictly sequentially), so the hot path allocates no context; its
     send goes out from [e_slot], the stepping node's slot *)
  scratch : 'm Step.ctx;
  mutable e_slot : int;
  e_trace : Trace.t;
  e_telemetry : Telemetry.t;
}

(* [Event_queue.push] and [Rng.float] inline here, so the event's time
   never leaves a float register *)
let[@inline] schedule t ~lo ~hi kind =
  Event_queue.push t.queue ~at:(t.e_time +. (lo +. (Rng.float t.e_rng *. (hi -. lo)))) kind

let schedule_timer t slot = schedule t ~lo:timer_min ~hi:timer_max (timer_kind slot)

let schedule_delivery t ~src_slot ~dst_slot =
  schedule t ~lo:min_delay ~hi:max_delay (deliver_kind ~src_slot ~dst_slot)

let find_slot t p =
  if p >= 0 && p < Array.length t.slot_fast then t.slot_fast.(p)
  else match Hashtbl.find_opt t.slot_tbl p with Some s -> s | None -> -1

let ensure_slot t p =
  let s = find_slot t p in
  if s >= 0 then s
  else begin
    check_pids ~src:p ~dst:p;
    let s = t.n_slots in
    let cap = Array.length t.pid_of_slot in
    if s = cap then begin
      let ncap = min max_slots (max 16 (2 * cap)) in
      if ncap = cap then invalid_arg "Engine: too many distinct endpoints";
      let np = Array.make ncap (-1) in
      Array.blit t.pid_of_slot 0 np 0 cap;
      t.pid_of_slot <- np;
      let nn = Array.make ncap None in
      Array.blit t.node_of_slot 0 nn 0 cap;
      t.node_of_slot <- nn;
      let nout = Array.make ncap [||] in
      let nbl = Array.make ncap [||] in
      let npr = Array.make ncap [||] in
      for i = 0 to s - 1 do
        let row = Array.make ncap None in
        Array.blit t.out.(i) 0 row 0 cap;
        nout.(i) <- row;
        let brow = Array.make ncap false in
        Array.blit t.blocked.(i) 0 brow 0 cap;
        nbl.(i) <- brow;
        let prow = Array.make ncap None in
        Array.blit t.profiles.(i) 0 prow 0 cap;
        npr.(i) <- prow
      done;
      t.out <- nout;
      t.blocked <- nbl;
      t.profiles <- npr
    end;
    let cap = Array.length t.pid_of_slot in
    t.pid_of_slot.(s) <- p;
    t.out.(s) <- Array.make cap None;
    t.blocked.(s) <- Array.make cap false;
    t.profiles.(s) <- Array.make cap None;
    (if p < slot_fast_limit then begin
       (if p >= Array.length t.slot_fast then begin
          let n = ref (max 64 (2 * Array.length t.slot_fast)) in
          while p >= !n do
            n := 2 * !n
          done;
          let nf = Array.make !n (-1) in
          Array.blit t.slot_fast 0 nf 0 (Array.length t.slot_fast);
          t.slot_fast <- nf
        end);
       t.slot_fast.(p) <- s
     end
     else Hashtbl.replace t.slot_tbl p s);
    t.n_slots <- s + 1;
    s
  end

let channel_of_slots t src_slot dst_slot =
  let row = t.out.(src_slot) in
  match row.(dst_slot) with
  | Some ch -> ch
  | None ->
    let ch = Channel.create ~capacity:t.capacity in
    row.(dst_slot) <- Some ch;
    ch

let node_opt t p =
  let s = find_slot t p in
  if s < 0 then None else t.node_of_slot.(s)

let node t p =
  match node_opt t p with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Engine: unknown node %d" p)

let send_one t ~src_slot dst msg =
  let dst_slot = ensure_slot t dst in
  let ch = channel_of_slots t src_slot dst_slot in
  if t.blocked.(src_slot).(dst_slot) then begin
    let st = Channel.stats ch in
    st.Channel.dropped <- st.Channel.dropped + 1
  end
  else begin
    Channel.send ch t.e_rng msg;
    (* duplication: occasionally re-enqueue a copy of the channel's oldest
       packet, which may not be [msg]; no event is scheduled for the copy,
       which waits for a later delivery attempt. A link profile overrides
       the rate but spends the same single draw *)
    let dup =
      match t.profiles.(src_slot).(dst_slot) with
      | None -> dup_rate
      | Some p -> p.lp_dup
    in
    if Rng.chance t.e_rng dup then Channel.duplicate_head ch;
    schedule_delivery t ~src_slot ~dst_slot
  end

let create ?(seed = 42) ?(capacity = 8) ?(loss = 0.02) ~behavior ~pids () =
  let e_rng = Rng.create seed in
  let e_trace = Trace.create () in
  let e_telemetry = Telemetry.create () in
  let t =
    {
      behavior;
      e_rng;
      capacity;
      loss;
      slot_tbl = Hashtbl.create 16;
      slot_fast = Array.make 64 (-1);
      pid_of_slot = Array.make 16 (-1);
      node_of_slot = Array.make 16 None;
      n_slots = 0;
      out = Array.make 16 [||];
      blocked = Array.make 16 [||];
      profiles = Array.make 16 [||];
      mangler = None;
      queue = Event_queue.create ();
      e_time = 0.0;
      e_steps = 0;
      e_live = 0;
      e_min_ticks = 0;
      e_min_count = 0;
      cached_pids = None;
      cached_live = None;
      scratch = Step.create ~trace:e_trace ~telemetry:e_telemetry;
      e_slot = 0;
      e_trace;
      e_telemetry;
    }
  in
  t.scratch.Step.ctx_send <- (fun dst msg -> send_one t ~src_slot:t.e_slot dst msg);
  List.iter
    (fun p ->
      let s = ensure_slot t p in
      if t.node_of_slot.(s) <> None then invalid_arg "Engine.create: duplicate pid";
      t.node_of_slot.(s) <-
        Some { n_pid = p; n_slot = s; n_state = behavior.Step.init p; n_crashed = false; n_ticks = 0 };
      t.e_live <- t.e_live + 1;
      t.e_min_count <- t.e_min_count + 1;
      schedule_timer t s)
    pids;
  t

let time t = t.e_time
let trace t = t.e_trace
let telemetry t = t.e_telemetry

let fold_nodes t f acc =
  let acc = ref acc in
  for s = 0 to t.n_slots - 1 do
    match t.node_of_slot.(s) with Some n -> acc := f !acc n | None -> ()
  done;
  !acc

let pids t =
  match t.cached_pids with
  | Some l -> l
  | None ->
    let l =
      fold_nodes t (fun acc n -> n.n_pid :: acc) [] |> List.sort Pid.compare
    in
    t.cached_pids <- Some l;
    l

let live_pids t =
  match t.cached_live with
  | Some l -> l
  | None ->
    let l =
      fold_nodes t (fun acc n -> if n.n_crashed then acc else n.n_pid :: acc) []
      |> List.sort Pid.compare
    in
    t.cached_live <- Some l;
    l

let state t p = (node t p).n_state

let rounds t = if t.e_live = 0 then 0 else t.e_min_ticks

(* Rescan the node table to re-establish the min-tick cache; called only
   when the last node at the current minimum ticked, crashed, or the live
   set emptied — i.e. when the minimum may have moved. *)
let recompute_rounds t =
  let mn = ref max_int and cnt = ref 0 and live = ref 0 in
  for s = 0 to t.n_slots - 1 do
    match t.node_of_slot.(s) with
    | Some n when not n.n_crashed ->
      incr live;
      if n.n_ticks < !mn then begin
        mn := n.n_ticks;
        cnt := 1
      end
      else if n.n_ticks = !mn then incr cnt
    | Some _ | None -> ()
  done;
  t.e_live <- !live;
  t.e_min_ticks <- (if !live = 0 then 0 else !mn);
  t.e_min_count <- !cnt

(* [n] (live) is about to go from [n_ticks] to [n_ticks + 1]. *)
let note_tick t n =
  let old = n.n_ticks in
  n.n_ticks <- old + 1;
  if old = t.e_min_ticks then begin
    t.e_min_count <- t.e_min_count - 1;
    if t.e_min_count = 0 then recompute_rounds t
  end

let steps t = t.e_steps
let corrupt_channel t ~src ~dst pkts =
  let ss = ensure_slot t src in
  let ds = ensure_slot t dst in
  Channel.corrupt (channel_of_slots t ss ds) pkts

let crash t p =
  let n = node t p in
  if not n.n_crashed then begin
    n.n_crashed <- true;
    t.cached_live <- None;
    t.e_live <- t.e_live - 1;
    if n.n_ticks = t.e_min_ticks then begin
      t.e_min_count <- t.e_min_count - 1;
      if t.e_min_count = 0 && t.e_live > 0 then recompute_rounds t
    end
  end;
  Trace.record t.e_trace ~time:t.e_time ~node:p ~tag:"crash" ""

let add_node t p =
  let s = ensure_slot t p in
  if t.node_of_slot.(s) <> None then invalid_arg "Engine.add_node: pid exists";
  let r = rounds t in
  t.node_of_slot.(s) <-
    Some { n_pid = p; n_slot = s; n_state = t.behavior.Step.init p; n_crashed = false; n_ticks = r };
  t.cached_pids <- None;
  t.cached_live <- None;
  (* the fresh node starts at the current round count, so it joins the set
     of nodes sitting at the cached minimum *)
  if t.e_live = 0 then begin
    t.e_min_ticks <- r;
    t.e_min_count <- 1
  end
  else t.e_min_count <- t.e_min_count + 1;
  t.e_live <- t.e_live + 1;
  (* snap-stabilizing link establishment: links of a fresh connection are
     cleaned of stale packets before use (Section 2) — exactly the links in
     row [s] (p as sender) and column [s] (p as receiver), no full scan *)
  Array.iter (function Some ch -> Channel.clear ch | None -> ()) t.out.(s);
  for i = 0 to t.n_slots - 1 do
    let row = t.out.(i) in
    match row.(s) with Some ch -> Channel.clear ch | None -> ()
  done;
  schedule_timer t s;
  Trace.record t.e_trace ~time:t.e_time ~node:p ~tag:"join" ""

let block_link t ~src ~dst =
  let ss = ensure_slot t src in
  let ds = ensure_slot t dst in
  t.blocked.(ss).(ds) <- true

let partition t group =
  let all = pids t in
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          if Pid.Set.mem p group <> Pid.Set.mem q group then begin
            block_link t ~src:p ~dst:q;
            block_link t ~src:q ~dst:p
          end)
        all)
    all;
  Trace.record t.e_trace ~time:t.e_time ~tag:"partition"
    (Format.asprintf "%a" Pid.pp_set group)

let heal t =
  Array.iter (fun row -> Array.fill row 0 (Array.length row) false) t.blocked;
  Trace.record t.e_trace ~time:t.e_time ~tag:"heal" ""

let set_link_profile t ~src ~dst profile =
  let ss = ensure_slot t src in
  let ds = ensure_slot t dst in
  t.profiles.(ss).(ds) <- profile

let clear_link_profiles t =
  Array.iter (fun row -> Array.fill row 0 (Array.length row) None) t.profiles

let set_mangler t f = t.mangler <- f

(* Point the scratch context at node [n] for one step. *)
let start_step t n =
  let ctx = t.scratch in
  ctx.Step.ctx_self <- n.n_pid;
  ctx.ctx_time <- t.e_time;
  t.e_slot <- n.n_slot;
  ctx

(* Hand [msg] from [src_slot] to node [n]. The behavior's sends may grow
   the slot matrices, so the caller reads no per-link array it fetched
   before this call. *)
let deliver t n ~src_slot msg =
  let ctx = start_step t n in
  n.n_state <- t.behavior.Step.on_message ctx t.pid_of_slot.(src_slot) msg n.n_state

let exec_step t kind =
  if kind land 1 = 0 then begin
    (* timer *)
    let slot = kind lsr 1 in
    match t.node_of_slot.(slot) with
    | None -> ()
    | Some n ->
      if not n.n_crashed then begin
        n.n_state <- t.behavior.Step.on_timer (start_step t n) n.n_state;
        note_tick t n;
        schedule_timer t slot
      end
  end
  else begin
    (* delivery *)
    let packed = kind lsr 1 in
    let src_slot = packed lsr slot_bits in
    let dst_slot = packed land slot_mask in
    match t.node_of_slot.(dst_slot) with
    | None -> ()
    | Some n ->
      if not n.n_crashed then begin
        let ch = channel_of_slots t src_slot dst_slot in
        let profile = t.profiles.(src_slot).(dst_slot) in
        let loss = match profile with None -> t.loss | Some p -> p.lp_drop in
        if t.blocked.(src_slot).(dst_slot) then Channel.drop_one ch t.e_rng
        else if Rng.chance t.e_rng loss then Channel.drop_one ch t.e_rng
        else if not (Channel.is_empty ch) then begin
          let msg = Channel.take_nonempty ch t.e_rng in
          (* "bit flips": a profiled link occasionally mangles the packet
             through the installed mangler; without a mangler a flipped
             packet is unparseable and counts as dropped. Profile-free
             links spend no extra draw here. *)
          match profile with
          | Some p when p.lp_flip > 0.0 && Rng.chance t.e_rng p.lp_flip -> (
            match t.mangler with
            | Some f -> deliver t n ~src_slot (f t.e_rng msg)
            | None ->
              let st = Channel.stats ch in
              st.Channel.dropped <- st.Channel.dropped + 1)
          | _ -> deliver t n ~src_slot msg
        end
      end
  end

let step t =
  let q = t.queue in
  if Event_queue.is_empty q then false
  else begin
    let at = Event_queue.min_at q in
    let kind = Event_queue.pop q in
    (* no event is scheduled before the clock, so this equals
       [Float.max t.e_time at]; it compares unboxed and boxes only a time
       that advances the clock *)
    if at > t.e_time then t.e_time <- at;
    t.e_steps <- t.e_steps + 1;
    exec_step t kind;
    true
  end

let run t ~steps =
  let rec go n = if n > 0 && step t then go (n - 1) in
  go steps

let run_rounds t n =
  let target = rounds t + n in
  let rec go () = if rounds t < target && step t then go () in
  go ()

let run_until t ~max_steps pred =
  let rec go n =
    if pred t then true
    else if n <= 0 then false
    else if step t then go (n - 1)
    else false
  in
  go max_steps
