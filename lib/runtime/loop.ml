open Sim

type ('s, 'm) node = {
  mutable n_state : 's;
  mutable n_crashed : bool;
  n_mailbox : (Pid.t * 'm) Queue.t;
}

type ('s, 'm) t = {
  behavior : ('s, 'm) Step.behavior;
  clock : unit -> float;
  nodes : (Pid.t, ('s, 'm) node) Hashtbl.t;
  l_trace : Trace.t;
  l_telemetry : Telemetry.t;
  mutable l_rounds : int;
  (* one scratch step context, reused across every (sequential) step *)
  scratch : 'm Step.ctx;
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

(* [src]'s send: straight into [dst]'s mailbox, which the delivery phase
   drains only as far as it was filled when [dst]'s drain began *)
let send t src dst msg =
  match Hashtbl.find_opt t.nodes dst with
  | Some n when not n.n_crashed -> Queue.add (src, msg) n.n_mailbox
  | Some _ | None -> ()

let create ?clock ~behavior ~pids () =
  let clock = match clock with Some c -> c | None -> monotonic_clock () in
  let l_trace = Trace.create () in
  let l_telemetry = Telemetry.create () in
  let t =
    {
      behavior;
      clock;
      nodes = Hashtbl.create 16;
      l_trace;
      l_telemetry;
      l_rounds = 0;
      scratch = Step.create ~trace:l_trace ~telemetry:l_telemetry;
    }
  in
  t.scratch.Step.ctx_send <- (fun dst msg -> send t t.scratch.Step.ctx_self dst msg);
  List.iter
    (fun p ->
      if Hashtbl.mem t.nodes p then invalid_arg "Loop.create: duplicate pid";
      Hashtbl.add t.nodes p
        { n_state = behavior.Step.init p; n_crashed = false; n_mailbox = Queue.create () })
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
    { n_state = t.behavior.Step.init p; n_crashed = false; n_mailbox = Queue.create () };
  Trace.record t.l_trace ~time:(t.clock ()) ~node:p ~tag:"join" ""

let crash t p =
  let n = node t p in
  n.n_crashed <- true;
  Queue.clear n.n_mailbox;
  Trace.record t.l_trace ~time:(t.clock ()) ~node:p ~tag:"crash" ""

(* begin a step of [p] on the scratch context *)
let start_step t p =
  let ctx = t.scratch in
  ctx.Step.ctx_self <- p;
  ctx.ctx_time <- t.clock ();
  ctx

let run_round t =
  let order = live_pids t in
  (* timer phase: one do-forever iteration per live node *)
  List.iter
    (fun p ->
      let n = node t p in
      if not n.n_crashed then
        n.n_state <- t.behavior.Step.on_timer (start_step t p) n.n_state)
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
            n.n_state <- t.behavior.Step.on_message (start_step t p) src msg n.n_state
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
