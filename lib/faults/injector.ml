open Sim

type ops = {
  o_live : unit -> Pid.t list;
  o_pids : unit -> Pid.t list;
  o_rounds : unit -> int;
  o_crash : Pid.t -> unit;
  o_join : Pid.t -> unit;
  o_corrupt_node : Rng.t -> Pid.t -> unit;
  o_corrupt_link : Rng.t -> src:Pid.t -> dst:Pid.t -> unit;
  o_set_link_profile : src:Pid.t -> dst:Pid.t -> Fault_plan.link_profile option -> unit;
  o_partition : Pid.Set.t -> unit;
  o_heal : unit -> unit;
  o_telemetry : Telemetry.t;
  o_emit : tag:string -> detail:string -> unit;
}

type t = {
  ops : ops;
  rng : Rng.t;
  mutable pending : Fault_plan.entry list;  (* sorted by round *)
  mutable heals : int list;  (* scheduled partition heals, sorted *)
}

let declare_metrics tele =
  List.iter
    (fun k -> Telemetry.declare_counter tele ~labels:[ ("kind", k) ] "fault.injected")
    Fault_plan.kinds

let create ~plan ~ops =
  declare_metrics ops.o_telemetry;
  {
    ops;
    rng = Rng.create plan.Fault_plan.seed;
    pending = plan.Fault_plan.entries;
    heals = [];
  }

let finished t = t.pending = [] && t.heals = []

let pid_list_to_string pids =
  String.concat "," (List.map Pid.to_string pids)

(* [Sample k] resolves against the live set through the plan RNG; the live
   set itself is fully determined by the plan (crashes and joins are plan
   events), so the same plan picks the same victims on every replay. *)
let resolve t target =
  match target with
  | Fault_plan.All -> t.ops.o_live ()
  | Fault_plan.Pids l -> l
  | Fault_plan.Sample k ->
    let live = t.ops.o_live () in
    let shuffled = Rng.shuffle t.rng live in
    List.filteri (fun i _ -> i < k) shuffled |> List.sort Pid.compare

let note t kind detail =
  Telemetry.inc t.ops.o_telemetry ~labels:[ ("kind", kind) ] "fault.injected";
  t.ops.o_emit ~tag:("fault." ^ kind) ~detail

let live_filter t pids =
  let live = Pid.set_of_list (t.ops.o_live ()) in
  List.filter (fun p -> Pid.Set.mem p live) pids

let directed_pairs srcs dsts =
  List.concat_map
    (fun s -> List.filter_map (fun d -> if Pid.equal s d then None else Some (s, d)) dsts)
    srcs

let apply t (e : Fault_plan.entry) =
  let kind = Fault_plan.kind e.event in
  match e.event with
  | Fault_plan.Corrupt_nodes tg ->
    let victims = live_filter t (resolve t tg) in
    List.iter (fun p -> t.ops.o_corrupt_node t.rng p) victims;
    note t kind (pid_list_to_string victims)
  | Fault_plan.Corrupt_channels tg ->
    let victims = live_filter t (resolve t tg) in
    List.iter
      (fun (src, dst) -> t.ops.o_corrupt_link t.rng ~src ~dst)
      (directed_pairs victims victims);
    note t kind (pid_list_to_string victims)
  | Fault_plan.Degrade_links { src; dst; profile } ->
    let srcs = resolve t src and dsts = resolve t dst in
    List.iter
      (fun (src, dst) -> t.ops.o_set_link_profile ~src ~dst (Some profile))
      (directed_pairs srcs dsts);
    note t kind
      (Printf.sprintf "%s->%s drop=%g dup=%g flip=%g" (pid_list_to_string srcs)
         (pid_list_to_string dsts) profile.Fault_plan.lp_drop profile.Fault_plan.lp_dup
         profile.Fault_plan.lp_flip)
  | Fault_plan.Restore_links { src; dst } ->
    let srcs = resolve t src and dsts = resolve t dst in
    List.iter
      (fun (src, dst) -> t.ops.o_set_link_profile ~src ~dst None)
      (directed_pairs srcs dsts);
    note t kind (Printf.sprintf "%s->%s" (pid_list_to_string srcs) (pid_list_to_string dsts))
  | Fault_plan.Partition { group; heal_after } ->
    let group_set = Pid.set_of_list (resolve t group) in
    t.ops.o_partition group_set;
    t.heals <- List.sort Int.compare ((e.at + heal_after) :: t.heals);
    note t kind (Format.asprintf "%a heal_after=%d" Pid.pp_set group_set heal_after)
  | Fault_plan.Heal ->
    t.ops.o_heal ();
    note t kind ""
  | Fault_plan.Crash tg ->
    let victims = live_filter t (resolve t tg) in
    List.iter t.ops.o_crash victims;
    note t kind (pid_list_to_string victims)
  | Fault_plan.Join pids ->
    let known = Pid.set_of_list (t.ops.o_pids ()) in
    let fresh = List.filter (fun p -> not (Pid.Set.mem p known)) pids in
    List.iter t.ops.o_join fresh;
    note t kind (pid_list_to_string fresh)

let step t =
  let r = t.ops.o_rounds () in
  let rec entries () =
    match t.pending with
    | e :: rest when e.Fault_plan.at <= r ->
      t.pending <- rest;
      apply t e;
      entries ()
    | _ -> ()
  in
  entries ();
  let rec heals () =
    match t.heals with
    | h :: rest when h <= r ->
      t.heals <- rest;
      t.ops.o_heal ();
      note t "heal" "partition healed";
      heals ()
    | _ -> ()
  in
  heals ()

let run ~plan ~ops ~round =
  let t = create ~plan ~ops in
  step t;
  while not (finished t) do
    round ();
    step t
  done
