open Sim

type 'm ctx = {
  c_self : Pid.t;
  c_now : float;
  c_rng : Rng.t;
  mutable c_out : (Pid.t * 'm) list; (* reversed *)
  c_trace : Trace.t;
  c_telemetry : Telemetry.t;
}

module Ctx = struct
  type nonrec 'm ctx = 'm ctx

  let self c = c.c_self
  let now c = c.c_now
  let rng c = c.c_rng
  let send c dst msg = c.c_out <- (dst, msg) :: c.c_out

  let emit c tag detail =
    Trace.record c.c_trace ~time:c.c_now ~node:c.c_self ~tag detail

  let telemetry c = c.c_telemetry
end

type ('s, 'm) node = {
  mutable n_state : 's;
  mutable n_crashed : bool;
  n_mailbox : (Pid.t * 'm) Queue.t;
}

type ('s, 'm) t = {
  driver : ('s, 'm, 'm ctx) Runtime_intf.driver;
  l_rng : Rng.t;
  clock : unit -> float;
  nodes : (Pid.t, ('s, 'm) node) Hashtbl.t;
  l_trace : Trace.t;
  l_telemetry : Telemetry.t;
  mutable l_rounds : int;
  (* adversarial link state (fault plans): a blocked directed link drops
     every message; an installed profile drops/duplicates probabilistically.
     Both tables are empty by default, and the profile-free path draws no
     randomness — existing runs are unaffected. *)
  l_blocked : (Pid.t * Pid.t, unit) Hashtbl.t;
  l_profiles : (Pid.t * Pid.t, Engine.link_profile) Hashtbl.t;
}

let monotonic_clock () =
  (* gettimeofday can step backwards under clock adjustment; clamping makes
     the runtime's notion of time monotone regardless *)
  let start = Unix.gettimeofday () in
  let high = ref 0.0 in
  fun () ->
    let d = Unix.gettimeofday () -. start in
    if d > !high then high := d;
    !high

let create ?(seed = 42) ?clock ~driver ~pids () =
  let clock = match clock with Some c -> c | None -> monotonic_clock () in
  let t =
    {
      driver;
      l_rng = Rng.create seed;
      clock;
      nodes = Hashtbl.create 16;
      l_trace = Trace.create ();
      l_telemetry = Telemetry.create ();
      l_rounds = 0;
      l_blocked = Hashtbl.create 16;
      l_profiles = Hashtbl.create 16;
    }
  in
  List.iter
    (fun p ->
      if Hashtbl.mem t.nodes p then invalid_arg "Loop.create: duplicate pid";
      Hashtbl.add t.nodes p
        { n_state = driver.Runtime_intf.d_init p; n_crashed = false; n_mailbox = Queue.create () })
    pids;
  t

let now t = t.clock ()
let trace t = t.l_trace
let telemetry t = t.l_telemetry

let pids t =
  Hashtbl.fold (fun p _ acc -> p :: acc) t.nodes [] |> List.sort Pid.compare

let live_pids t =
  Hashtbl.fold (fun p n acc -> if n.n_crashed then acc else p :: acc) t.nodes []
  |> List.sort Pid.compare

let node t p =
  match Hashtbl.find_opt t.nodes p with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Loop: unknown node %d" p)

let state t p = (node t p).n_state
let rounds t = t.l_rounds

let pending t =
  Hashtbl.fold (fun _ n acc -> acc + Queue.length n.n_mailbox) t.nodes 0

let add_node t p =
  if Hashtbl.mem t.nodes p then invalid_arg "Loop.add_node: pid exists";
  Hashtbl.add t.nodes p
    { n_state = t.driver.Runtime_intf.d_init p; n_crashed = false; n_mailbox = Queue.create () };
  Trace.record t.l_trace ~time:(t.clock ()) ~node:p ~tag:"join" ""

let crash t p =
  let n = node t p in
  n.n_crashed <- true;
  Queue.clear n.n_mailbox;
  Trace.record t.l_trace ~time:(t.clock ()) ~node:p ~tag:"crash" ""

(* --- adversarial link state (fault plans) --- *)

let block_link t ~src ~dst = Hashtbl.replace t.l_blocked (src, dst) ()
let unblock_link t ~src ~dst = Hashtbl.remove t.l_blocked (src, dst)
let link_blocked t ~src ~dst = Hashtbl.mem t.l_blocked (src, dst)

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
  Trace.record t.l_trace ~time:(t.clock ()) ~tag:"partition"
    (Format.asprintf "%a" Pid.pp_set group)

let heal t =
  Hashtbl.reset t.l_blocked;
  Trace.record t.l_trace ~time:(t.clock ()) ~tag:"heal" ""

let set_link_profile t ~src ~dst = function
  | Some p -> Hashtbl.replace t.l_profiles (src, dst) p
  | None -> Hashtbl.remove t.l_profiles (src, dst)

let clear_link_profiles t = Hashtbl.reset t.l_profiles

let make_ctx t p =
  {
    c_self = p;
    c_now = t.clock ();
    c_rng = t.l_rng;
    c_out = [];
    c_trace = t.l_trace;
    c_telemetry = t.l_telemetry;
  }

let flush t ctx =
  List.iter
    (fun (dst, msg) ->
      match Hashtbl.find_opt t.nodes dst with
      | Some n when not n.n_crashed ->
        let src = ctx.c_self in
        if not (Hashtbl.mem t.l_blocked (src, dst)) then begin
          match Hashtbl.find_opt t.l_profiles (src, dst) with
          | None -> Queue.add (src, msg) n.n_mailbox
          | Some p ->
            (* mailboxes have no bit representation to flip, so a "flipped"
               message is unparseable, i.e. lost *)
            if
              (not (Rng.chance t.l_rng p.Engine.lp_drop))
              && not (p.Engine.lp_flip > 0.0 && Rng.chance t.l_rng p.Engine.lp_flip)
            then begin
              Queue.add (src, msg) n.n_mailbox;
              if Rng.chance t.l_rng p.Engine.lp_dup then Queue.add (src, msg) n.n_mailbox
            end
        end
      | Some _ | None -> ())
    (List.rev ctx.c_out);
  ctx.c_out <- []

let run_round t =
  let order = live_pids t in
  (* timer phase: one do-forever iteration per live node *)
  List.iter
    (fun p ->
      let n = node t p in
      if not n.n_crashed then begin
        let ctx = make_ctx t p in
        n.n_state <- t.driver.Runtime_intf.d_timer ctx n.n_state;
        flush t ctx
      end)
    order;
  (* delivery phase: only the messages already enqueued when each node's
     drain starts; replies land in the next phase *)
  List.iter
    (fun p ->
      let n = node t p in
      if not n.n_crashed then begin
        let budget = Queue.length n.n_mailbox in
        for _ = 1 to budget do
          if not n.n_crashed then begin
            let src, msg = Queue.pop n.n_mailbox in
            let ctx = make_ctx t p in
            n.n_state <- t.driver.Runtime_intf.d_recv ctx src msg n.n_state;
            flush t ctx
          end
        done
      end)
    order;
  t.l_rounds <- t.l_rounds + 1

let run_rounds t n =
  for _ = 1 to n do
    run_round t
  done

let run_until t ~max_rounds pred =
  let rec go budget =
    if pred t then true
    else if budget <= 0 then false
    else begin
      run_round t;
      go (budget - 1)
    end
  in
  go max_rounds
