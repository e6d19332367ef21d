open Sim

type message = { m_no_maj : bool; m_need_reconf : bool }

type t = {
  ma_self : Pid.t;
  mutable no_maj : bool Pid.Map.t; (* noMaj[] *)
  mutable need_reconf : bool Pid.Map.t; (* needReconf[] *)
  mutable prev_config : Config_value.t option;
  mutable triggers : int;
  mutable attempts : int;
}

let create ~self =
  {
    ma_self = self;
    no_maj = Pid.Map.empty;
    need_reconf = Pid.Map.empty;
    prev_config = None;
    triggers = 0;
    attempts = 0;
  }

let flush_flags t =
  t.no_maj <- Pid.Map.empty;
  t.need_reconf <- Pid.Map.empty

let flag m p = match Pid.Map.find_opt p m with Some b -> b | None -> false

let core t ~trusted ~recsa =
  let part = Recsa.participants recsa ~trusted in
  Pid.Set.fold
    (fun p acc ->
      let fd_p =
        if Pid.equal p t.ma_self then Some trusted else Recsa.peer_fd recsa p
      in
      match fd_p with
      (* interning makes the common steady-state case — every participant's
         fd is the same canonical set — a pointer comparison *)
      | Some s when s == acc -> acc
      | Some s -> Pid.Set.inter acc s
      | None -> Pid.Set.empty)
    part
    (* start from the participant set itself; the intersection can only
       shrink *)
    part

let trigger t ~trusted ~recsa reason events =
  t.attempts <- t.attempts + 1;
  (* the proposed set is FD[i].part — the trusted participants (line 13) *)
  let proposal = Recsa.participants recsa ~trusted in
  if Recsa.estab recsa ~trusted proposal then begin
    t.triggers <- t.triggers + 1;
    events := ("recma.trigger", reason) :: !events
  end;
  flush_flags t

let tick t ?(quorum = (module Quorum.Majority : Quorum.SYSTEM)) ~trusted ~recsa
    ~eval_conf ~send () =
  let module Q = (val quorum : Quorum.SYSTEM) in
  let events = ref [] in
  let part = Recsa.participants recsa ~trusted in
  if not (Pid.Set.mem t.ma_self part) then []
  else begin
    let cur_conf = Recsa.get_config recsa ~trusted in
    (* line 8: own flags restart every iteration *)
    t.no_maj <- Pid.Map.add t.ma_self false t.no_maj;
    t.need_reconf <- Pid.Map.add t.ma_self false t.need_reconf;
    (* line 9: flags are stale after a configuration change *)
    (match t.prev_config with
    | Some prev
      when (not (Config_value.equal prev cur_conf))
           && not (Config_value.is_reset prev) ->
      flush_flags t
    | Some _ | None -> ());
    (if Recsa.no_reco recsa ~trusted then begin
       t.prev_config <- Some cur_conf;
       match Config_value.to_set cur_conf with
       | None -> ()
       | Some members ->
         (* line 12: do we see a quorum of configuration members? (the
            paper uses majorities; any intersecting quorum system works) *)
         if not (Q.is_quorum ~config:members trusted) then
           t.no_maj <- Pid.Map.add t.ma_self true t.no_maj;
         (* [core] and the supporters are pure, so each is built only
            under the guard that reads it *)
         if
           flag t.no_maj t.ma_self
           &&
           let co = core t ~trusted ~recsa in
           Pid.Set.cardinal co > 1 && Pid.Set.for_all (fun p -> flag t.no_maj p) co
         then trigger t ~trusted ~recsa "majority collapse" events
         else begin
           (* line 16: prediction-function path *)
           let wants = eval_conf members in
           t.need_reconf <- Pid.Map.add t.ma_self wants t.need_reconf;
           if
             wants
             && Q.is_quorum ~config:members
                  (Pid.Set.filter
                     (fun p -> flag t.need_reconf p)
                     (Pid.Set.inter members trusted))
           then trigger t ~trusted ~recsa "majority prediction" events
         end
     end);
    let msg =
      {
        m_no_maj = flag t.no_maj t.ma_self;
        m_need_reconf = flag t.need_reconf t.ma_self;
      }
    in
    Pid.iter_desc (fun p -> if not (Pid.equal p t.ma_self) then send p msg) part;
    List.rev !events
  end

let receive t ~from ~participant m =
  (* line 20: only participants consume recMA exchanges *)
  if participant then begin
    t.no_maj <- Pid.Map.add from m.m_no_maj t.no_maj;
    t.need_reconf <- Pid.Map.add from m.m_need_reconf t.need_reconf
  end

let trigger_count t = t.triggers
let attempt_count t = t.attempts

let corrupt t ~no_maj ~need_reconf =
  List.iter (fun (p, b) -> t.no_maj <- Pid.Map.add p b t.no_maj) no_maj;
  List.iter (fun (p, b) -> t.need_reconf <- Pid.Map.add p b t.need_reconf) need_reconf

let pp fmt t =
  let pp_flags fmt m =
    Pid.Map.iter (fun p b -> Format.fprintf fmt "p%a:%b " Pid.pp p b) m
  in
  Format.fprintf fmt "recMA(p%a) noMaj=[%a] needReconf=[%a]" Pid.pp t.ma_self
    pp_flags t.no_maj pp_flags t.need_reconf
