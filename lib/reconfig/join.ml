open Sim

type 'app message =
  | Join_request
  | Join_reply of { pass : bool; app : 'app }

type 'app t = {
  j_self : Pid.t;
  mutable passes : bool Pid.Map.t;
  mutable states : 'app Pid.Map.t;
  mutable fresh : bool; (* resetVars pending for the current join attempt *)
  mutable joins : int;
}

let create ~self =
  { j_self = self; passes = Pid.Map.empty; states = Pid.Map.empty; fresh = true; joins = 0 }

let granted t members trusted =
  Pid.Set.filter
    (fun p -> match Pid.Map.find_opt p t.passes with Some b -> b | None -> false)
    (Pid.Set.inter members trusted)

let tick t ?(quorum = (module Quorum.Majority : Quorum.SYSTEM)) ~trusted ~recsa
    ~reset_vars ~init_vars ~send () =
  let module Q = (val quorum : Quorum.SYSTEM) in
  if Recsa.is_participant recsa then begin
    (* participants run none of the joiner loop; arm resetVars for a
       hypothetical later rejoin-as-transient-fault *)
    t.fresh <- true;
    []
  end
  else begin
    let events = ref [] in
    if t.fresh then begin
      (* line 5/7: clear passes, reset application variables to defaults *)
      t.passes <- Pid.Map.empty;
      t.states <- Pid.Map.empty;
      reset_vars ();
      t.fresh <- false;
      events := ("join.start", "") :: !events
    end;
    (match Config_value.to_set (Recsa.get_config recsa ~trusted) with
    | Some members
      when Recsa.no_reco recsa ~trusted
           && Q.is_quorum ~config:members (granted t members trusted) ->
      (* line 10–12: a quorum of passes and no reconfiguration *)
      init_vars t.states;
      if Recsa.participate recsa ~trusted then begin
        t.joins <- t.joins + 1;
        t.fresh <- true;
        events := ("join.participate", "") :: !events
      end
    | Some _ | None -> ());
    if not (Recsa.is_participant recsa) then
      Pid.iter_desc
        (fun p -> if not (Pid.equal p t.j_self) then send p Join_request)
        trusted;
    List.rev !events
  end

let on_request t ~self_app ~from ~trusted ~recsa ~pass_query =
  ignore from;
  (* line 16: only configuration members reply, and only outside
     reconfigurations *)
  let is_member =
    match Config_value.to_set (Recsa.config recsa) with
    | Some members -> Pid.Set.mem t.j_self members
    | None -> false
  in
  if is_member && Recsa.no_reco recsa ~trusted then
    Some (Join_reply { pass = pass_query from; app = self_app })
  else None

let on_reply t ~from ~participant ~pass ~app =
  (* line 18: participants ignore replies *)
  if not participant then begin
    t.passes <- Pid.Map.add from pass t.passes;
    t.states <- Pid.Map.add from app t.states
  end

let corrupt t ~rng ~pool =
  t.passes <-
    List.fold_left (fun m q -> Pid.Map.add q (Rng.bool rng) m) Pid.Map.empty pool;
  t.states <- Pid.Map.empty;
  t.fresh <- Rng.bool rng

let join_count t = t.joins

let pp fmt t =
  Format.fprintf fmt "join(p%a) passes=%d joins=%d" Pid.pp t.j_self
    (Pid.Map.cardinal (Pid.Map.filter (fun _ b -> b) t.passes))
    t.joins
