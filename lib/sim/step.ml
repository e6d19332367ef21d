type 'm ctx = {
  mutable ctx_self : Pid.t;
  mutable ctx_time : float;
  mutable ctx_send : Pid.t -> 'm -> unit;
  ctx_trace : Trace.t;
  ctx_telemetry : Telemetry.t;
}

let create ~trace ~telemetry =
  {
    ctx_self = 0;
    ctx_time = 0.0;
    ctx_send = (fun _ _ -> invalid_arg "Step.send: no send installed");
    ctx_trace = trace;
    ctx_telemetry = telemetry;
  }

let self c = c.ctx_self
let now c = c.ctx_time
let send c dst msg = c.ctx_send dst msg

let emit c tag detail =
  Trace.record c.ctx_trace ~time:c.ctx_time ~node:c.ctx_self ~tag detail

let telemetry c = c.ctx_telemetry

type ('s, 'm) behavior = {
  init : Pid.t -> 's;
  on_timer : 'm ctx -> 's -> 's;
  on_message : 'm ctx -> Pid.t -> 'm -> 's -> 's;
}
