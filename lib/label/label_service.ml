open Sim
open Reconfig

type state = { mutable algo : Label_algo.t option }

type msg = {
  lm_sent_max : Label.pair option;
  lm_last_sent : Label.pair option;
}

let ensure_algo ~in_transit_bound (view : msg Stack.scheme_view) st members =
  match st.algo with
  | Some algo when Pid.Set.equal (Label_algo.members algo) members -> algo
  | Some algo ->
    (* confChange: reconfiguration completed — rebuild structures *)
    Label_algo.rebuild algo ~members;
    view.Stack.v_emit "label.rebuild" (Format.asprintf "%a" Pid.pp_set members);
    algo
  | None ->
    let algo =
      Label_algo.create ~self:view.Stack.v_self ~members ~in_transit_bound
    in
    st.algo <- Some algo;
    algo

let tick ~in_transit_bound (view : msg Stack.scheme_view) st =
  match Stack.View.current_members view with
  | None -> () (* reconfiguration taking place: no label traffic *)
  | Some members when not (Pid.Set.mem view.Stack.v_self members) -> ()
  | Some members ->
    let algo = ensure_algo ~in_transit_bound view st members in
    (* make sure a maximal label exists to gossip *)
    if Label_algo.local_max algo = None then
      Label_algo.receipt_action algo ~sent_max:None ~last_sent:None
        ~from:view.Stack.v_self;
    let clean p = Option.bind p (Label_algo.clean_pair algo) in
    let lm_sent_max = clean (Label_algo.local_max algo) in
    (* members in descending pid order, the order seeded runs rely on *)
    Seq.iter
      (fun pk ->
        if not (Pid.equal pk view.Stack.v_self) then
          view.Stack.v_send pk
            { lm_sent_max; lm_last_sent = clean (Label_algo.max_of algo pk) })
      (Pid.Set.to_rev_seq members)

let recv ~in_transit_bound (view : msg Stack.scheme_view) ~from m st =
  match Stack.View.current_members view with
  | Some members
    when Pid.Set.mem view.Stack.v_self members && Pid.Set.mem from members ->
    let algo = ensure_algo ~in_transit_bound view st members in
    let clean p = Option.bind p (Label_algo.clean_pair algo) in
    Label_algo.receipt_action algo ~sent_max:(clean m.lm_sent_max)
      ~last_sent:(clean m.lm_last_sent) ~from
  | Some _ | None -> ()

(* Arbitrary-state injection: conflicting same-creator labels in both the
   max array and the stored queues (the situation Algorithm 4.2's
   cancellation machinery resolves). *)
let corrupt rng st =
  match st.algo with
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
  | None -> ()

let plugin ~in_transit_bound =
  {
    Stack.p_init = (fun _ -> { algo = None });
    p_tick = tick ~in_transit_bound;
    p_recv = recv ~in_transit_bound;
    (* label state is member-local; joiners start fresh *)
    p_merge = (fun ~self:_ _ _ -> ());
    p_corrupt = corrupt;
  }

let hooks ~in_transit_bound =
  { Stack.unit_hooks with plugin = plugin ~in_transit_bound }

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
