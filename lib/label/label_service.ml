open Sim
open Reconfig

type state = { mutable algo : Label_algo.t option }

type msg = {
  lm_sent_max : Label.pair option;
  lm_last_sent : Label.pair option;
}

let ensure_algo ~in_transit_bound (view : Stack.scheme_view) st members =
  match st.algo with
  | Some algo when Pid.Set.equal (Label_algo.members algo) members -> Some algo
  | Some algo ->
    (* confChange: reconfiguration completed — rebuild structures *)
    Label_algo.rebuild algo ~members;
    view.Stack.v_emit "label.rebuild" (Format.asprintf "%a" Pid.pp_set members);
    Some algo
  | None ->
    let algo =
      Label_algo.create ~self:view.Stack.v_self ~members ~in_transit_bound
    in
    st.algo <- Some algo;
    Some algo

let tick ~in_transit_bound (view : Stack.scheme_view) st =
  match Stack.View.current_members view with
  | None -> (st, []) (* reconfiguration taking place: no label traffic *)
  | Some members when not (Pid.Set.mem view.Stack.v_self members) -> (st, [])
  | Some members -> (
    match ensure_algo ~in_transit_bound view st members with
    | None -> (st, [])
    | Some algo ->
      (* make sure a maximal label exists to gossip *)
      if Label_algo.local_max algo = None then
        Label_algo.receipt_action algo ~sent_max:None ~last_sent:None
          ~from:view.Stack.v_self;
      let clean p = Option.bind p (Label_algo.clean_pair algo) in
      let out =
        Pid.Set.fold
          (fun pk acc ->
            if Pid.equal pk view.Stack.v_self then acc
            else
              ( pk,
                {
                  lm_sent_max = clean (Label_algo.local_max algo);
                  lm_last_sent = clean (Label_algo.max_of algo pk);
                } )
              :: acc)
          members []
      in
      (st, out))

let recv ~in_transit_bound (view : Stack.scheme_view) ~from m st =
  match Stack.View.current_members view with
  | None -> (st, [])
  | Some members
    when (not (Pid.Set.mem view.Stack.v_self members))
         || not (Pid.Set.mem from members) ->
    (st, [])
  | Some members -> (
    match ensure_algo ~in_transit_bound view st members with
    | None -> (st, [])
    | Some algo ->
      let clean p = Option.bind p (Label_algo.clean_pair algo) in
      Label_algo.receipt_action algo ~sent_max:(clean m.lm_sent_max)
        ~last_sent:(clean m.lm_last_sent) ~from;
      (st, []))

(* Arbitrary-state injection: conflicting same-creator labels in both the
   max array and the stored queues (the situation Algorithm 4.2's
   cancellation machinery resolves). *)
let corrupt rng st =
  (match st.algo with
  | Some algo ->
    let members = Pid.Set.elements (Label_algo.members algo) in
    let garbage j =
      Label.pair_of
        (Label.make ~creator:j ~sting:(Rng.int rng 1024)
           ~antistings:[ Rng.int rng 1024 ])
    in
    Label_algo.corrupt algo
      ~max_entries:(List.map (fun j -> (j, garbage j)) members)
      ~stored_entries:
        (List.map (fun j -> (j, [ garbage j ])) (Rng.subset rng members))
  | None -> ());
  st

let plugin ~in_transit_bound =
  {
    Stack.p_init = (fun _ -> { algo = None });
    p_tick = (fun view st -> tick ~in_transit_bound view st);
    p_recv = (fun view ~from m st -> recv ~in_transit_bound view ~from m st);
    (* label state is member-local; joiners start fresh *)
    p_merge = (fun ~self:_ st _ -> st);
    p_corrupt = corrupt;
  }

let hooks ~in_transit_bound =
  {
    Stack.eval_conf = (fun ~self:_ ~trusted:_ _ -> false);
    pass_query = (fun ~self:_ ~joiner:_ -> true);
    plugin = plugin ~in_transit_bound;
  }

let local_max st =
  Option.bind st.algo (fun algo ->
      match Label_algo.local_max algo with
      | Some p when Label.legit p -> Some p.Label.ml
      | Some _ | None -> None)

let creations st =
  match st.algo with Some algo -> Label_algo.creations algo | None -> 0

let agreed_max sys =
  let members =
    match Stack.uniform_config sys with Some s -> s | None -> Pid.Set.empty
  in
  let maxes =
    List.filter_map
      (fun (p, n) ->
        if Pid.Set.mem p members then Some (local_max n.Stack.app) else None)
      (Stack.live_nodes sys)
  in
  match maxes with
  | [] -> None
  | first :: rest ->
    if
      List.for_all
        (fun m ->
          match (m, first) with
          | Some a, Some b -> Label.equal a b
          | None, None -> true
          | Some _, None | None, Some _ -> false)
        rest
    then first
    else None

let total_creations sys =
  List.fold_left (fun acc (_, n) -> acc + creations n.Stack.app) 0 (Stack.live_nodes sys)
