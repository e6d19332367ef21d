open Sim

type 'a node_state = {
  link : 'a Fifo_link.t;
  peer : Pid.t;
  is_sender : bool;
}

type 'a t = {
  eng : ('a node_state, 'a Fifo_link.wire) Engine.t;
  sender : Pid.t;
  receiver : Pid.t;
}

let behavior ~capacity ~sender ~receiver =
  let init p =
    {
      link = Fifo_link.create ~capacity;
      peer = (if Pid.equal p sender then receiver else sender);
      is_sender = Pid.equal p sender;
    }
  in
  let on_timer ctx n =
    (* the sender retransmits its current packet every timer step *)
    if n.is_sender then Step.send ctx n.peer (Fifo_link.sender_tick n.link);
    n
  in
  let on_message ctx _from m n =
    if n.is_sender then Fifo_link.sender_on_msg n.link m
    else begin
      let _, ack = Fifo_link.receiver_on_msg n.link m in
      match ack with Some a -> Step.send ctx n.peer a | None -> ()
    end;
    n
  in
  { Step.init; on_timer; on_message }

let create ?(seed = 42) ?(capacity = 4) ?(loss = 0.05) ~sender ~receiver () =
  if Pid.equal sender receiver then invalid_arg "Link_runner.create: same endpoint";
  let eng =
    Engine.create ~seed ~capacity ~loss
      ~behavior:(behavior ~capacity ~sender ~receiver)
      ~pids:[ sender; receiver ] ()
  in
  { eng; sender; receiver }

let engine t = t.eng
let send t x = Fifo_link.enqueue (Engine.state t.eng t.sender).link x
let received t = Fifo_link.received (Engine.state t.eng t.receiver).link
let tokens t = Fifo_link.tokens (Engine.state t.eng t.sender).link
let backlog t = Fifo_link.backlog (Engine.state t.eng t.sender).link
let run_rounds t n = Engine.run_rounds t.eng n
let run_until t ~max_steps pred = Engine.run_until t.eng ~max_steps (fun _ -> pred t)
