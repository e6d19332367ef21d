open Sim

module type S = sig
  type 'm ctx

  val self : 'm ctx -> Pid.t
  val now : 'm ctx -> float
  val rng : 'm ctx -> Rng.t
  val send : 'm ctx -> Pid.t -> 'm -> unit
  val emit : 'm ctx -> string -> string -> unit
  val telemetry : 'm ctx -> Telemetry.t
end

type ('s, 'm, 'ctx) driver = {
  d_init : Pid.t -> 's;
  d_timer : 'ctx -> 's -> 's;
  d_recv : 'ctx -> Pid.t -> 'm -> 's -> 's;
}

module Sim_engine = struct
  type 'm ctx = 'm Engine.ctx

  let self = Engine.self
  let now = Engine.now
  let rng = Engine.rng_of_ctx
  let send = Engine.send
  let emit = Engine.emit
  let telemetry = Engine.telemetry_of_ctx
end

let sim_behavior d =
  { Engine.init = d.d_init; on_timer = d.d_timer; on_message = d.d_recv }
