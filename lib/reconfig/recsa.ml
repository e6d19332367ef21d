open Sim

type echo_view = { e_part : Pid.Set.t; e_prp : Notification.t; e_all : bool }

type message = {
  m_fd : Pid.Set.t;
  m_part : Pid.Set.t;
  m_config : Config_value.t;
  m_prp : Notification.t;
  m_all : bool;
  m_echo : echo_view option;
}

type t = {
  sa_self : Pid.t;
  mutable sa_config : Config_value.t;
  mutable sa_prp : Notification.t;
  mutable sa_all : bool;
  mutable sa_allseen : Pid.Set.t;
  mutable peers : message Pid.Map.t; (* the last message from each peer *)
  mutable resets : int;
  mutable installs : int;
  (* Figure 1's interface — participants, noReco() and getConfig() — and
     the tick are functions of (config, prp, all, allSeen, peers, trusted)
     alone. [version] is bumped by every change to the first five (through
     the [set_*] functions only), so both are memoized per (version,
     trusted): a service reading the interface per delivered message pays a
     comparison, not a recomputation, and a tick that emitted nothing and
     changed nothing is a fixed point, skipped until the key changes. *)
  mutable version : int;
  mutable memo_version : int;
  mutable memo_trusted : Pid.Set.t;
  mutable memo_part : Pid.Set.t option;
  mutable memo_no_reco : bool option;
  mutable memo_config : Config_value.t option;
  mutable memo_quiet : bool; (* a tick at this key changed nothing *)
  (* [peer_views] at (views_version, views_part): one tick reads the views
     in several tests, most often at one version and one participant set *)
  mutable views_version : int;
  mutable views_part : Pid.Set.t;
  mutable views : (Pid.t * message) list;
}

let create ~self ~participant ?initial_config () =
  let config =
    if not participant then Config_value.Not_participant
    else
      match initial_config with
      | Some s -> Config_value.of_set s
      | None -> Config_value.Reset
  in
  {
    sa_self = self;
    sa_config = config;
    sa_prp = Notification.default;
    sa_all = false;
    sa_allseen = Pid.Set.empty;
    peers = Pid.Map.empty;
    resets = 0;
    installs = 0;
    version = 0;
    memo_version = -1;
    memo_trusted = Pid.Set.empty;
    memo_part = None;
    memo_no_reco = None;
    memo_config = None;
    memo_quiet = false;
    views_version = -1;
    views_part = Pid.Set.empty;
    views = [];
  }

let set_config t v =
  if v != t.sa_config then begin
    t.sa_config <- v;
    t.version <- t.version + 1
  end

let set_prp t n =
  if n != t.sa_prp then begin
    t.sa_prp <- n;
    t.version <- t.version + 1
  end

let set_peers t m =
  if m != t.peers then begin
    t.peers <- m;
    t.version <- t.version + 1
  end

let set_all t a =
  if not (Bool.equal a t.sa_all) then begin
    t.sa_all <- a;
    t.version <- t.version + 1
  end

(* [Pid.Set.add] of a present pid returns the very same set *)
let set_allseen t s =
  if s != t.sa_allseen then begin
    t.sa_allseen <- s;
    t.version <- t.version + 1
  end

(* Start a fresh memo unless it is already keyed by the current state and
   an equal trusted set. *)
let memo_for t ~trusted =
  if t.memo_version <> t.version || not (Pid.equal_sets t.memo_trusted trusted)
  then begin
    t.memo_version <- t.version;
    t.memo_trusted <- trusted;
    t.memo_part <- None;
    t.memo_no_reco <- None;
    t.memo_config <- None;
    t.memo_quiet <- false
  end

let self t = t.sa_self
let config t = t.sa_config
let prp t = t.sa_prp
let is_participant t = not (Config_value.is_not_participant t.sa_config)
let reset_count t = t.resets
let install_count t = t.installs

(* FD[i].part = {pj in FD[i] : config[j] <> #}; our own entry counts iff we
   are a participant. *)
let participants t ~trusted =
  memo_for t ~trusted;
  match t.memo_part with
  | Some part -> part
  | None ->
    (* interned: the result is compared against gossiped [part] descriptors
       on every message, and interning makes those comparisons
       pointer-equality *)
    let part =
      Intern.pid_set
        (Pid.Set.filter
           (fun p ->
             if Pid.equal p t.sa_self then is_participant t
             else
               match Pid.Map.find_opt p t.peers with
               | Some pv -> not (Config_value.is_not_participant pv.m_config)
               | None -> false)
           trusted)
    in
    t.memo_part <- Some part;
    part

(* Every (non-#) configuration value visible locally: own + received from
   trusted processors. *)
let visible_configs t ~trusted =
  let received =
    Pid.Map.fold
      (fun p pv acc -> if Pid.Set.mem p trusted then pv.m_config :: acc else acc)
      t.peers []
  in
  t.sa_config :: received

let distinct_sets values =
  List.fold_left
    (fun acc v ->
      match v with
      | Config_value.Set s ->
        if List.exists (Pid.equal_sets s) acc then acc else s :: acc
      | Config_value.Not_participant | Config_value.Reset -> acc)
    [] values

let exists_reset values = List.exists Config_value.is_reset values

(* choose({config[k]} \ {#}): deterministically prefer the lexicographically
   smallest proper set; fall back to bot when only resets (or nothing) are
   visible. *)
let chs_config t ~trusted =
  let values = visible_configs t ~trusted in
  match distinct_sets values with
  | [] -> Config_value.Reset
  | sets ->
    let smallest =
      List.fold_left
        (fun acc s ->
          match acc with
          | None -> Some s
          | Some best -> if Pid.compare_sets_lex s best < 0 then Some s else acc)
        None sets
    in
    (match smallest with Some s -> Config_value.Set s | None -> Config_value.Reset)

let peer_views t ~part =
  if t.views_version = t.version && t.views_part == part then t.views
  else begin
    let views =
      Pid.Set.fold
        (fun p acc ->
          if Pid.equal p t.sa_self then acc
          else
            match Pid.Map.find_opt p t.peers with
            | Some pv -> (p, pv) :: acc
            | None -> acc)
        part []
    in
    t.views_version <- t.version;
    t.views_part <- part;
    t.views <- views;
    views
  end

(* same(k): pk's most recently received (part, prp) match ours. *)
let same t ~part pv =
  Pid.equal_sets pv.m_part part && Notification.equal pv.m_prp t.sa_prp

(* echoNoAll: pk echoed our (part, prp). *)
let echo_no_all t ~part pv =
  match pv.m_echo with
  | None -> false
  | Some e -> Pid.equal_sets e.e_part part && Notification.equal e.e_prp t.sa_prp

(* echo(): pk echoed our full (part, prp, all) triple. *)
let echo_full t ~part pv =
  match pv.m_echo with
  | None -> false
  | Some e ->
    Pid.equal_sets e.e_part part
    && Notification.equal e.e_prp t.sa_prp
    && Bool.equal e.e_all t.sa_all

(* Definition 3.1's stale-information tests, read both by the tick's resets
   and by [stale_types]. *)

(* type-2: an empty configuration set is never legal *)
let empty_config = function
  | Config_value.Set s -> Pid.Set.is_empty s
  | Config_value.Not_participant | Config_value.Reset -> false

(* type-2: two distinct configuration sets are visible *)
let config_conflict values = List.length (distinct_sets values) > 1

(* type-3: two phase-2 notifications with distinct sets *)
let phase2_conflict t views =
  let collect acc (n : Notification.t) =
    match (n.phase, n.set) with
    | Notification.P2, Some s ->
      if List.exists (Pid.equal_sets s) acc then acc else s :: acc
    | _ -> acc
  in
  List.length
    (List.fold_left (fun acc (_, pv) -> collect acc pv.m_prp) (collect [] t.sa_prp) views)
  > 1

(* type-4: a stable view, but the configuration has no live participant *)
let dead_config t ~trusted ~part views =
  match t.sa_config with
  | Config_value.Set s ->
    Pid.Set.cardinal part > 1
    && List.length views = Pid.Set.cardinal (Pid.Set.remove t.sa_self part)
    && List.for_all
         (fun (_, pv) ->
           Pid.equal_sets pv.m_fd trusted && Pid.equal_sets pv.m_part part)
         views
    && Pid.Set.is_empty (Pid.Set.inter s part)
  | Config_value.Not_participant | Config_value.Reset -> false

let compute_no_reco t ~trusted =
  let part = participants t ~trusted in
  let views = peer_views t ~part in
  (* all participants have reported (they are in part only if their config
     was received, so views covers part \ {self}) *)
  let recognized = List.for_all (fun (_, pv) -> Pid.Set.mem t.sa_self pv.m_fd) views in
  let values = visible_configs t ~trusted in
  let no_conflict = not (config_conflict values) in
  let no_reset = not (exists_reset values) in
  let parts_stable =
    List.for_all (fun (_, pv) -> Pid.equal_sets pv.m_part part) views
    (* peers can only echo our values if we broadcast, i.e. participate *)
    && ((not (is_participant t))
       || List.for_all
            (fun (_, pv) ->
              match pv.m_echo with
              | Some e -> Pid.equal_sets e.e_part part
              | None -> false)
            views)
  in
  let no_notification =
    Notification.is_default t.sa_prp
    && List.for_all (fun (_, pv) -> Notification.is_default pv.m_prp) views
  in
  recognized && no_conflict && no_reset && parts_stable && no_notification

let no_reco t ~trusted =
  memo_for t ~trusted;
  match t.memo_no_reco with
  | Some r -> r
  | None ->
    let r = compute_no_reco t ~trusted in
    t.memo_no_reco <- Some r;
    r

let get_config t ~trusted =
  memo_for t ~trusted;
  match t.memo_config with
  | Some c -> c
  | None ->
    let c = if no_reco t ~trusted then chs_config t ~trusted else t.sa_config in
    t.memo_config <- Some c;
    c

(* configSet(val): wrapper for the whole local config array; also clears all
   local notifications (line 21 of the pseudocode). *)
let config_set t value =
  let value = Config_value.intern value in
  set_config t value;
  set_prp t Notification.default;
  set_all t false;
  set_allseen t Pid.Set.empty;
  set_peers t
    (Pid.Map.map
       (fun pv -> { pv with m_config = value; m_prp = Notification.default })
       t.peers)

let start_reset t reason events =
  if not (Config_value.is_reset t.sa_config) then begin
    t.resets <- t.resets + 1;
    events := ("recsa.reset", reason) :: !events
  end;
  config_set t Config_value.Reset

(* Entering a notification state: installing happens on entry to phase 2,
   whether by own increment or by adopting a phase-2 notification. *)
let advance_to t (n : Notification.t) events =
  let n = Notification.intern n in
  (match (n.Notification.phase, n.Notification.set) with
  | Notification.P2, Some s ->
    if not (Config_value.equal t.sa_config (Config_value.Set s)) then begin
      t.installs <- t.installs + 1;
      events :=
        ("recsa.install", Format.asprintf "%a" Pid.pp_set s) :: !events
    end;
    set_config t (Config_value.of_set s)
  | _ -> ());
  set_prp t n;
  set_all t false;
  set_allseen t Pid.Set.empty

let finish_replacement t events =
  events := ("recsa.phase0", "replacement complete") :: !events;
  set_prp t Notification.default;
  set_all t false;
  set_allseen t Pid.Set.empty

let stale t events ty reason =
  events := ("recsa.stale", ty) :: !events;
  start_reset t reason events

(* The tests valid in every state (configuration disagreement, by contrast,
   is normal while a replacement is mid-flight, so the conflict test lives
   in the no-notification branch, as in line 26 of the pseudocode). *)
let stale_check_always t ~part events =
  if empty_config t.sa_config then stale t events "type-2" "empty config"
  else if phase2_conflict t (peer_views t ~part) then
    stale t events "type-3" "conflicting phase-2 notifications"

(* The tests that only apply outside replacements. *)
let stale_check_quiet t ~trusted ~part events =
  if config_conflict (visible_configs t ~trusted) then
    stale t events "type-2" "config conflict"
  else if dead_config t ~trusted ~part (peer_views t ~part) then
    stale t events "type-4" "config has no live participant"

let max_notification t ~part =
  let own = if Pid.Set.mem t.sa_self part then [ t.sa_prp ] else [] in
  let received = List.map (fun (_, pv) -> pv.m_prp) (peer_views t ~part) in
  Notification.max_of (own @ received)

(* Brute-force stabilization (line 26): during a reset, wait until every
   trusted processor reports the same failure-detector set, then adopt that
   set as the configuration. *)
let brute_force t ~trusted events =
  if Config_value.is_reset t.sa_config then begin
    let others = Pid.Set.remove t.sa_self trusted in
    let agreement =
      Pid.Set.for_all
        (fun p ->
          match Pid.Map.find_opt p t.peers with
          | Some pv -> Pid.equal_sets pv.m_fd trusted
          | None -> false)
        others
    in
    if agreement then begin
      config_set t (Config_value.Set trusted);
      events :=
        ("recsa.brute_force", Format.asprintf "config <- %a" Pid.pp_set trusted)
        :: !events
    end
  end

(* One unison step of the delicate-replacement automaton (line 28). *)
let delicate t ~part max_ntf events =
  (* A lingering phase-2 notification whose set we already installed is the
     tail of a completed replacement, not a new one. *)
  let already_installed =
    Notification.is_default t.sa_prp
    && max_ntf.Notification.phase = Notification.P2
    &&
    match max_ntf.Notification.set with
    | Some s -> Config_value.equal t.sa_config (Config_value.Set s)
    | None -> false
  in
  if already_installed then ()
  else begin
  (* Converge on the lexicographically maximal notification. *)
  if Notification.compare t.sa_prp max_ntf < 0 then begin
    events :=
      ("recsa.adopt", Format.asprintf "%a" Notification.pp max_ntf) :: !events;
    advance_to t max_ntf events
  end;
  (* Follow a completed cycle: a peer already returned to phase 0 with our
     proposed set installed. *)
  (match (t.sa_prp.Notification.phase, t.sa_prp.Notification.set) with
  | (Notification.P1 | Notification.P2), Some s ->
    let completed =
      List.exists
        (fun (_, pv) ->
          Notification.is_default pv.m_prp
          && Config_value.equal pv.m_config (Config_value.Set s))
        (peer_views t ~part)
    in
    if completed then begin
      if not (Config_value.equal t.sa_config (Config_value.Set s)) then begin
        t.installs <- t.installs + 1;
        events := ("recsa.install", Format.asprintf "%a" Pid.pp_set s) :: !events
      end;
      set_config t (Config_value.of_set s);
      finish_replacement t events
    end
  | _ -> ());
  if not (Notification.is_default t.sa_prp) then begin
    let views = peer_views t ~part in
    (* all[i] <- every participant reports and echoes our (part, prp) *)
    let complete_views = List.length views = Pid.Set.cardinal (Pid.Set.remove t.sa_self part) in
    set_all t
      (complete_views
      && List.for_all (fun (_, pv) -> echo_no_all t ~part pv && same t ~part pv) views);
    (* accumulate allSeen: peers that reported all[k] for our notification *)
    List.iter
      (fun (p, pv) ->
        if same t ~part pv && pv.m_all then set_allseen t (Pid.Set.add p t.sa_allseen))
      views;
    let echo_ok = complete_views && List.for_all (fun (_, pv) -> echo_full t ~part pv) views in
    let allseen_ok =
      let seen = if t.sa_all then Pid.Set.add t.sa_self t.sa_allseen else t.sa_allseen in
      Pid.Set.subset part seen
    in
    if echo_ok && allseen_ok then begin
      match t.sa_prp.Notification.phase with
      | Notification.P1 ->
        (match t.sa_prp.Notification.set with
        | Some s ->
          events := ("recsa.phase2", Format.asprintf "%a" Pid.pp_set s) :: !events;
          advance_to t { Notification.phase = Notification.P2; set = Some s } events
        | None -> set_prp t Notification.default)
      | Notification.P2 -> finish_replacement t events
      | Notification.P0 -> set_prp t Notification.default
    end
  end
  end

let tick_once t ~trusted =
  let events = ref [] in
  (* line 25 prologue: clean state about processors we no longer trust *)
  (* (both cleanings leave [peers] physically unchanged when they drop or
     normalize nothing, so the memo survives a quiet round) *)
  set_peers t (Pid.Map.filter (fun p _ -> Pid.Set.mem p trusted) t.peers);
  (* type-1 cleaning: malformed notifications are normalized, never kept *)
  if Notification.malformed t.sa_prp then begin
    events := ("recsa.stale", "type-1") :: !events;
    set_prp t Notification.default
  end;
  if Pid.Map.exists (fun _ pv -> Notification.malformed pv.m_prp) t.peers then
    set_peers t
      (Pid.Map.map
         (fun pv ->
           if Notification.malformed pv.m_prp then begin
             events := ("recsa.stale", "type-1") :: !events;
             { pv with m_prp = Notification.default }
           end
           else pv)
         t.peers);
  (* a non-participant observing a reset joins it (brute force includes all
     active processors) *)
  (if Config_value.is_not_participant t.sa_config then
     let reset_visible =
       Pid.Map.exists
         (fun p pv -> Pid.Set.mem p trusted && Config_value.is_reset pv.m_config)
         t.peers
     in
     if reset_visible then begin
       set_config t Config_value.Reset;
       events := ("recsa.join_reset", "") :: !events
     end);
  let part = participants t ~trusted in
  stale_check_always t ~part events;
  let part = participants t ~trusted in
  (match max_notification t ~part with
  | None ->
    stale_check_quiet t ~trusted ~part events;
    brute_force t ~trusted events
  | Some max_ntf -> if is_participant t then delicate t ~part max_ntf events);
  List.rev !events

let tick t ~trusted =
  memo_for t ~trusted;
  if t.memo_quiet then []
  else begin
    let version = t.version in
    let events = tick_once t ~trusted in
    memo_for t ~trusted;
    t.memo_quiet <- events = [] && t.version = version;
    events
  end

let echo_of t p =
  match Pid.Map.find p t.peers with
  | pv -> Some { e_part = pv.m_part; e_prp = pv.m_prp; e_all = pv.m_all }
  | exception Not_found -> None

(* [echo] is physically [echo_of t p]'s fields *)
let echo_current t p echo =
  match (Pid.Map.find p t.peers, echo) with
  | pv, Some e -> e.e_part == pv.m_part && e.e_prp == pv.m_prp && Bool.equal e.e_all pv.m_all
  | _, None -> false
  | exception Not_found -> Option.is_none echo

(* [p]'s line-29 message, our state and our echo of [p]'s view, or [last]
   itself while all of its fields are physically the current ones; the
   caller picks [p] from [trusted] *)
let message_to t ~trusted ?last p =
  if (not (is_participant t)) || Pid.equal p t.sa_self then None
  else begin
    let part = participants t ~trusted in
    match last with
    | Some m
      when m.m_fd == trusted && m.m_part == part && m.m_config == t.sa_config
           && m.m_prp == t.sa_prp && Bool.equal m.m_all t.sa_all
           && echo_current t p m.m_echo ->
      last
    | Some _ | None ->
      Some
        {
          m_fd = trusted;
          m_part = part;
          m_config = t.sa_config;
          m_prp = t.sa_prp;
          m_all = t.sa_all;
          m_echo = echo_of t p;
        }
  end

(* Value equality, whichever copies carry the fields. Interned descriptors
   usually decide in one pointer compare each; which values share a
   pointer depends on [Intern]'s table history, which no decision may
   depend on. *)
let equal_message a b =
  a == b
  || Pid.equal_sets a.m_fd b.m_fd
     && Pid.equal_sets a.m_part b.m_part
     && Config_value.equal a.m_config b.m_config
     && Notification.equal a.m_prp b.m_prp
     && Bool.equal a.m_all b.m_all
     &&
     match (a.m_echo, b.m_echo) with
     | None, None -> true
     | Some e, Some e' ->
       Pid.equal_sets e.e_part e'.e_part
       && Notification.equal e.e_prp e'.e_prp
       && Bool.equal e.e_all e'.e_all
     | Some _, None | None, Some _ -> false

(* Intern every descriptor as it comes off the wire: this is the single
   choke point that makes all downstream Definition 3.1 comparisons
   pointer-equality in the steady state. *)
let intern_view m =
  let fd = Intern.pid_set m.m_fd in
  let part = Intern.pid_set m.m_part in
  let config = Config_value.intern m.m_config in
  let prp = Notification.intern m.m_prp in
  let echo =
    Option.map
      (fun e ->
        {
          e_part = Intern.pid_set e.e_part;
          e_prp = Notification.intern e.e_prp;
          e_all = e.e_all;
        })
      m.m_echo
  in
  { m_fd = fd; m_part = part; m_config = config; m_prp = prp; m_all = m.m_all;
    m_echo = echo }

(* The stored view is the message itself, its notification normalized if
   malformed and its descriptors interned. In the simulator a message
   carries the sender's own (interned) descriptors, so a repeated message
   usually equals the stored view field by field under [==]. An unchanged
   view is not interned again and leaves [peers], and so the memo, alone. *)
let receive t ~from m =
  let m =
    if Notification.malformed m.m_prp then { m with m_prp = Notification.default } else m
  in
  match Pid.Map.find_opt from t.peers with
  | Some pv when equal_message pv m -> `Same
  | held ->
    set_peers t (Pid.Map.add from (intern_view m) t.peers);
    if Option.is_some held then `Changed else `First

(* A notification is active (the sender's or ours) and no reset is in sight:
   brute-force stabilization stays with the timer, whose one iteration per
   tick bounds how often a node can restart a reset. *)
let iterate_on_receipt t m =
  Config_value.is_set m.m_config
  && Config_value.is_set t.sa_config
  && not (Notification.is_default m.m_prp && Notification.is_default t.sa_prp)

let estab t ~trusted set =
  if
    no_reco t ~trusted
    && (not (Pid.Set.is_empty set))
    && not (Config_value.equal t.sa_config (Config_value.Set set))
  then begin
    set_prp t (Notification.intern (Notification.make Notification.P1 set));
    set_all t false;
    set_allseen t Pid.Set.empty;
    true
  end
  else false

let participate t ~trusted =
  if is_participant t then true
  else if no_reco t ~trusted then begin
    set_config t (Config_value.intern (chs_config t ~trusted));
    is_participant t
  end
  else false

type stale_type = Type1 | Type2 | Type3 | Type4

(* Definition 3.1, as a pure classification of the current local state. *)
let stale_types t ~trusted =
  let part = participants t ~trusted in
  let views = peer_views t ~part in
  let values = visible_configs t ~trusted in
  List.filter_map
    (fun (present, ty) -> if present then Some ty else None)
    [
      ( Notification.malformed t.sa_prp
        || List.exists (fun (_, pv) -> Notification.malformed pv.m_prp) views,
        Type1 );
      ( exists_reset values || config_conflict values || List.exists empty_config values,
        Type2 );
      (phase2_conflict t views, Type3);
      (dead_config t ~trusted ~part views, Type4);
    ]

let peer_fd t p = Option.map (fun pv -> pv.m_fd) (Pid.Map.find_opt p t.peers)

let corrupt t ?config ?prp ?all ?allseen () =
  (match config with Some c -> set_config t c | None -> ());
  (match prp with Some n -> set_prp t n | None -> ());
  (match all with Some a -> set_all t a | None -> ());
  match allseen with Some s -> set_allseen t s | None -> ()

let clear_peers t = set_peers t Pid.Map.empty

let pp fmt t =
  Format.fprintf fmt "recSA(p%a) config=%a prp=%a all=%b allSeen=%a" Pid.pp
    t.sa_self Config_value.pp t.sa_config Notification.pp t.sa_prp t.sa_all
    Pid.pp_set t.sa_allseen
