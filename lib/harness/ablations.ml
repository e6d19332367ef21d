open Sim
open Reconfig

let n_of (p : Experiments.params) =
  match List.rev p.Experiments.sizes with last :: _ -> last | [] -> 8

(* Like the experiment tables, each (variant x seed) sweep cell is an
   independent simulation scheduled by [Experiments.per_seed]; see
   Experiments for the determinism contract. *)

(* ------------------------------------------------------------------ *)
(* A1: failure-detector gap factor.                                     *)
(* ------------------------------------------------------------------ *)

let a1_theta_sweep ?(jobs = 1) p =
  Pool.with_pool ~jobs @@ fun pool ->
  let n = n_of p in
  let run theta seed =
    let sys =
      Stack.of_scenario ~hooks:Stack.unit_hooks
        (Scenario.make ~seed ~theta ~n_bound:(2 * n)
           ~members:(Experiments.members_of n) ())
    in
    Stack.run_rounds sys 60;
    let spurious = Stack.total_resets sys in
    (* crash one member; how long until every survivor's detector
       suspects it? *)
    Stack.crash sys 1;
    let start = Engine.rounds (Stack.engine sys) in
    let suspected t =
      List.for_all
        (fun (_, node) ->
          not (Pid.Set.mem 1 (Detector.Theta_fd.trusted node.Stack.fd)))
        (Stack.live_nodes t)
    in
    let ok = Stack.run_until sys ~max_steps:2_000_000 suspected in
    let detection =
      if ok then float_of_int (Engine.rounds (Stack.engine sys) - start)
      else nan
    in
    (float_of_int spurious, detection)
  in
  let thetas = [ 2; 3; 4; 8; 16 ] in
  let rows =
    List.map2
      (fun theta results ->
        [
          Table.cell_int theta;
          Table.cell_float (Experiments.mean (List.map fst results));
          Table.cell_float (Experiments.mean (List.map snd results));
        ])
      thetas
      (Experiments.per_seed pool p run thetas)
  in
  Table.make ~id:"A1" ~title:"failure-detector gap factor Θ"
    ~claim:
      "design choice: Θ trades false suspicion (spurious resets in a \
       fault-free run) against crash-detection latency"
    ~header:[ "theta"; "spurious resets (60 fault-free rounds)"; "crash detection rounds" ]
    rows

(* ------------------------------------------------------------------ *)
(* A2: packet loss vs delicate replacement latency.                     *)
(* ------------------------------------------------------------------ *)

let a2_loss_sweep ?(jobs = 1) p =
  Pool.with_pool ~jobs @@ fun pool ->
  let n = n_of p in
  let target = Pid.set_of_list (Experiments.members_of (n - 1)) in
  let run loss seed =
    let sys =
      Stack.of_scenario ~hooks:Stack.unit_hooks
        (Scenario.make ~seed ~loss ~n_bound:(2 * n)
           ~members:(Experiments.members_of n) ())
    in
    Stack.run_rounds sys 30;
    let rec propose k =
      if k = 0 then false
      else if Stack.estab sys 1 target then true
      else begin
        Stack.run_rounds sys 2;
        propose (k - 1)
      end
    in
    if not (propose 100) then None
    else begin
      let start = Engine.rounds (Stack.engine sys) in
      let done_ t =
        Stack.quiescent t
        &&
        match Stack.uniform_config t with
        | Some c -> Pid.Set.equal c target
        | None -> false
      in
      if Stack.run_until sys ~max_steps:4_000_000 done_ then
        Some (float_of_int (Engine.rounds (Stack.engine sys) - start))
      else None
    end
  in
  let losses = [ 0.0; 0.02; 0.10; 0.25 ] in
  let rows =
    List.map2
      (fun loss results ->
        let completed = List.filter_map Fun.id results in
        [
          Printf.sprintf "%.0f%%" (loss *. 100.0);
          Table.cell_int (List.length completed);
          Table.cell_float (Experiments.mean completed);
        ])
      losses
      (Experiments.per_seed pool p run losses)
  in
  Table.make ~id:"A2" ~title:"packet loss vs delicate replacement latency"
    ~claim:
      "design choice: the unison echo/allSeen handshake retransmits state \
       every step, so replacement latency should degrade gracefully with \
       loss"
    ~header:[ "loss"; "completed"; "rounds(mean)" ]
    rows

(* ------------------------------------------------------------------ *)
(* A3: channel capacity vs recovery cost.                               *)
(* ------------------------------------------------------------------ *)

let a3_capacity_sweep ?(jobs = 1) p =
  Pool.with_pool ~jobs @@ fun pool ->
  let n = n_of p in
  let run capacity seed =
    let sys =
      Stack.of_scenario ~hooks:Stack.unit_hooks
        (Scenario.make ~seed ~capacity ~n_bound:(2 * n)
           ~members:(Experiments.members_of n) ())
    in
    Stack.run_rounds sys 25;
    Stack.corrupt_everything sys ~rng:(Rng.create (seed * 31));
    Option.map float_of_int
      (Stack.run_until_quiescent sys ~max_rounds:p.Experiments.max_rounds)
  in
  let caps = [ 2; 4; 8; 16; 32 ] in
  let rows =
    List.map2
      (fun capacity results ->
        let recovered = List.filter_map Fun.id results in
        [
          Table.cell_int capacity;
          Table.cell_int (List.length recovered);
          Table.cell_float (Experiments.mean recovered);
        ])
      caps
      (Experiments.per_seed pool p run caps)
  in
  Table.make ~id:"A3" ~title:"channel capacity vs recovery from arbitrary state"
    ~claim:
      "design choice: bigger channels can carry more stale packets after a \
       transient fault; recovery cost should grow only mildly with cap"
    ~header:[ "cap"; "recovered"; "rounds(mean)" ]
    rows

(* ------------------------------------------------------------------ *)
(* A4: brute force vs delicate replacement.                             *)
(* ------------------------------------------------------------------ *)

let a4_brute_vs_delicate ?(jobs = 1) p =
  Pool.with_pool ~jobs @@ fun pool ->
  let run (n, technique) seed =
    match technique with
    | `Delicate ->
      let sys =
        Stack.of_scenario ~hooks:Stack.unit_hooks
          (Scenario.make ~seed ~n_bound:(2 * n) ~members:(Experiments.members_of n) ())
      in
      Stack.run_rounds sys 30;
      let target = Pid.set_of_list (Experiments.members_of (n - 1)) in
      let rec propose k =
        if k = 0 then false
        else if Stack.estab sys 1 target then true
        else (Stack.run_rounds sys 2; propose (k - 1))
      in
      if not (propose 100) then None
      else begin
        let start = Engine.rounds (Stack.engine sys) in
        if
          Stack.run_until sys ~max_steps:4_000_000 (fun t ->
              Stack.quiescent t
              && Option.equal Pid.Set.equal (Stack.uniform_config t) (Some target))
        then Some (float_of_int (Engine.rounds (Stack.engine sys) - start))
        else None
      end
    | `Brute ->
      let sys =
        Stack.of_scenario ~hooks:Stack.unit_hooks
          (Scenario.make ~seed ~n_bound:(2 * n) ~members:(Experiments.members_of n) ())
      in
      Stack.run_rounds sys 30;
      (* force a reset by planting a conflicting configuration *)
      (match Stack.live_nodes sys with
      | (_, node) :: _ ->
        Recsa.corrupt node.Stack.sa
          ~config:(Config_value.Set (Pid.set_of_list [ 1; 2 ]))
          ()
      | [] -> ());
      Option.map float_of_int
        (Stack.run_until_quiescent sys ~max_rounds:p.Experiments.max_rounds)
  in
  let keys = Experiments.product p.Experiments.sizes [ `Delicate; `Brute ] in
  let rows =
    List.map2
      (fun (n, technique) results ->
        let completed = List.filter_map Fun.id results in
        [
          Table.cell_int n;
          (match technique with
          | `Delicate -> "delicate (estab)"
          | `Brute -> "brute force (conflict reset)");
          Table.cell_int (List.length completed);
          Table.cell_float (Experiments.mean completed);
        ])
      keys
      (Experiments.per_seed pool p run keys)
  in
  Table.make ~id:"A4" ~title:"brute-force reset vs delicate replacement"
    ~claim:
      "design choice: the paper keeps both techniques; delicate replacement \
       avoids resetting application state but needs the three-phase unison \
       handshake, so it is slower in rounds than a conflict-driven reset"
    ~header:[ "N"; "technique"; "completed"; "rounds(mean)" ]
    rows

let registry =
  [
    ("A1", a1_theta_sweep);
    ("A2", a2_loss_sweep);
    ("A3", a3_capacity_sweep);
    ("A4", a4_brute_vs_delicate);
  ]

let all ?jobs p = List.map (fun (_, f) -> f ?jobs p) registry
