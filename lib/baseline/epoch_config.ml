open Sim

type node = { mutable epoch : int; mutable config : Pid.Set.t }
type msg = { m_epoch : int; m_config : Pid.Set.t }
type t = { eng : (node, msg) Engine.t }

let behavior members_set peers =
  {
    Step.init = (fun _ -> { epoch = 0; config = members_set });
    on_timer =
      (fun ctx n ->
        List.iter
          (fun q ->
            if not (Pid.equal q (Step.self ctx)) then
              Step.send ctx q { m_epoch = n.epoch; m_config = n.config })
          peers;
        n);
    on_message =
      (fun _ctx _from m n ->
        if m.m_epoch > n.epoch then begin
          n.epoch <- m.m_epoch;
          n.config <- m.m_config
        end;
        n);
  }

let create ?(seed = 42) ?(capacity = 8) ?(loss = 0.02) ~members () =
  let members_set = Pid.set_of_list members in
  let eng =
    Engine.create ~seed ~capacity ~loss
      ~behavior:(behavior members_set members)
      ~pids:members ()
  in
  { eng }

let engine t = t.eng

let reconfigure t p set =
  let n = Engine.state t.eng p in
  n.epoch <- n.epoch + 1;
  n.config <- set

let corrupt t p ~epoch ~config =
  let n = Engine.state t.eng p in
  n.epoch <- epoch;
  n.config <- config

let config_of t p = (Engine.state t.eng p).config

let healthy t =
  let live = Pid.set_of_list (Engine.live_pids t.eng) in
  match Engine.live_pids t.eng with
  | [] -> false
  | first :: _ ->
    let c0 = config_of t first in
    (not (Pid.Set.is_empty c0))
    && Pid.Set.subset c0 live
    && List.for_all
         (fun p -> Pid.Set.equal (config_of t p) c0)
         (Engine.live_pids t.eng)

let run_rounds t n = Engine.run_rounds t.eng n
let crash t p = Engine.crash t.eng p
