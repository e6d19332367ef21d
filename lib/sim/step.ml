type 'm ctx = {
  mutable ctx_self : Pid.t;
  mutable ctx_time : float;
  ctx_rng : Rng.t;
  mutable ctx_outbox : (Pid.t * 'm) list; (* reversed *)
  ctx_trace : Trace.t;
  ctx_telemetry : Telemetry.t;
}

let create ~rng ~trace ~telemetry =
  {
    ctx_self = 0;
    ctx_time = 0.0;
    ctx_rng = rng;
    ctx_outbox = [];
    ctx_trace = trace;
    ctx_telemetry = telemetry;
  }

let self c = c.ctx_self
let now c = c.ctx_time
let rng c = c.ctx_rng
let send c dst msg = c.ctx_outbox <- (dst, msg) :: c.ctx_outbox

let emit c tag detail =
  Trace.record c.ctx_trace ~time:c.ctx_time ~node:c.ctx_self ~tag detail

let telemetry c = c.ctx_telemetry

type ('s, 'm) behavior = {
  init : Pid.t -> 's;
  on_timer : 'm ctx -> 's -> 's;
  on_message : 'm ctx -> Pid.t -> 'm -> 's -> 's;
}
