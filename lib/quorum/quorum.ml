open Sim

let has_majority ~config alive =
  Pid.Set.cardinal (Pid.Set.inter config alive) >= (Pid.Set.cardinal config / 2) + 1

module Phase = struct
  type ('req, 'rep) msg =
    | Request of { id : int; req : 'req }
    | Reply of { id : int; rep : 'rep }
    | Refuse of { id : int }

  type ('req, 'rep) t = {
    id : int;
    conf : Pid.Set.t;
    targets : Pid.Set.t;
    req : 'req;
    mutable replies : 'rep Pid.Map.t;
  }

  let start ~id ~conf ?(targets = conf) req =
    { id; conf; targets = Pid.Set.union conf targets; req; replies = Pid.Map.empty }

  let request t = t.req
  let conf t = t.conf
  let replies t = t.replies
  let record t ~from rep = t.replies <- Pid.Map.add from rep t.replies

  let receive t ~from = function
    | Reply { id; rep } when id = t.id ->
      record t ~from rep;
      `Replied
    | Refuse { id } when id = t.id -> `Refused
    | Request _ | Reply _ | Refuse _ -> `Ignored

  let complete t =
    has_majority ~config:t.conf
      (Pid.Map.fold (fun p _ acc -> Pid.Set.add p acc) t.replies Pid.Set.empty)

  let send_requests ~self t send =
    let m = Request { id = t.id; req = t.req } in
    Pid.iter_desc
      (fun p -> if not (Pid.equal p self || Pid.Map.mem p t.replies) then send p m)
      t.targets
end
