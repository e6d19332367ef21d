open Sim

let majority config = (Pid.Set.cardinal config / 2) + 1
let has_majority ~config alive = Pid.inter_cardinal config alive >= majority config

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

  let id t = t.id
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

  (* the members among the repliers, counted in place *)
  let complete t =
    let conf = t.conf in
    Pid.Map.fold (fun p _ n -> if Pid.Set.mem p conf then n + 1 else n) t.replies 0
    >= majority conf

  let send_requests ~self t send =
    let m = Request { id = t.id; req = t.req } in
    Pid.iter_desc
      (fun p -> if not (Pid.equal p self || Pid.Map.mem p t.replies) then send p m)
      t.targets
end
