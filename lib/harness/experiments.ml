open Sim
open Reconfig

type params = { sizes : int list; seeds : int list; max_rounds : int }

let default_params = { sizes = [ 4; 6; 8; 12 ]; seeds = [ 1; 2; 3 ]; max_rounds = 600 }
let quick_params = { sizes = [ 4; 6 ]; seeds = [ 1 ]; max_rounds = 400 }

let members_of n = List.init n (fun i -> i + 1)

let mean l =
  match l with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let fmax l = List.fold_left Float.max neg_infinity l
let fmin l = List.fold_left Float.min infinity l

(* Exact nearest-rank percentile over a (small) sample list. *)
let percentile l p =
  match l with
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* The channel capacity used throughout (the paper's cap). *)
let cap = 8

let warm_system_with ~hooks ~seed n =
  let sys =
    Stack.of_scenario ~hooks
      (Scenario.make ~seed ~capacity:cap ~n_bound:(2 * n) ~members:(members_of n) ())
  in
  Stack.run_rounds sys 25;
  sys

let warm_system ?hooks ~seed n =
  let hooks = match hooks with Some h -> h | None -> Stack.unit_hooks in
  warm_system_with ~hooks ~seed n

(* ------------------------------------------------------------------ *)
(* Cell scheduling.                                                    *)
(*                                                                     *)
(* Every table is computed as a flat list of independent               *)
(* (variant x seed) simulation cells; each cell is a closure submitted *)
(* to a domain pool and the results are reassembled in submission      *)
(* order, so the rendered table is byte-identical for any job count.   *)
(* Cells must not share mutable state: each builds its own engine,     *)
(* RNG, trace and metrics.                                             *)
(* ------------------------------------------------------------------ *)

let product xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

let chunk k xs =
  if k <= 0 then invalid_arg "Experiments.chunk: group size must be positive";
  let rec split i acc rest =
    if i = 0 then (List.rev acc, rest)
    else
      match rest with
      | [] -> (List.rev acc, [])
      | x :: tl -> split (i - 1) (x :: acc) tl
  in
  let rec go = function
    | [] -> []
    | xs ->
      let g, rest = split k [] xs in
      g :: go rest
  in
  go xs

(* [per_seed pool p f keys] runs [f key seed] for every (key, seed) cell on
   the pool and returns one result group per key, seeds in order. *)
let per_seed pool p f keys =
  Pool.map pool (fun (key, seed) -> f key seed) (product keys p.seeds)
  |> chunk (List.length p.seeds)

(* ------------------------------------------------------------------ *)
(* E1 — Theorem 3.15: convergence from arbitrary states.               *)
(* ------------------------------------------------------------------ *)

let e1_convergence ?(jobs = 1) p =
  Pool.with_pool ~jobs @@ fun pool ->
  let run n seed =
    let sys = warm_system ~seed n in
    Stack.corrupt_everything sys ~rng:(Rng.create (seed * 7919));
    match Stack.run_until_quiescent sys ~max_rounds:p.max_rounds with
    | Some rounds -> (true, float_of_int rounds, Stack.total_resets sys)
    | None -> (false, float_of_int p.max_rounds, Stack.total_resets sys)
  in
  let rows =
    List.map2
      (fun n results ->
        let rounds = List.map (fun (_, r, _) -> r) results in
        let recovered = List.for_all (fun (ok, _, _) -> ok) results in
        let resets = List.fold_left (fun a (_, _, r) -> a + r) 0 results in
        [
          Table.cell_int n;
          Table.cell_bool recovered;
          Table.cell_float (mean rounds);
          Table.cell_float (percentile rounds 0.5);
          Table.cell_float (percentile rounds 0.95);
          Table.cell_float (fmin rounds);
          Table.cell_float (fmax rounds);
          Table.cell_int resets;
        ])
      p.sizes
      (per_seed pool p run p.sizes)
  in
  Table.make ~id:"E1" ~title:"recSA convergence from arbitrary states"
    ~claim:
      "Theorem 3.15: from any state (corrupted nodes AND channels), the \
       system reaches a conflict-free uniform configuration"
    ~header:
      [
        "N";
        "recovered";
        "rounds(mean)";
        "rounds(p50)";
        "rounds(p95)";
        "rounds(min)";
        "rounds(max)";
        "resets";
      ]
    ~notes:
      [
        "every node state and every channel is overwritten with random garbage \
         before measuring";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E2 — Theorem 3.16 / Figure 2: delicate replacement.                 *)
(* ------------------------------------------------------------------ *)

let e2_delicate_replacement ?(jobs = 1) p =
  Pool.with_pool ~jobs @@ fun pool ->
  let n = match List.rev p.sizes with last :: _ -> last | [] -> 8 in
  let members = Pid.set_of_list (members_of n) in
  let cells =
    List.concat_map
      (fun k ->
        List.filter_map
          (fun seed ->
            if seed <> List.hd p.seeds && k > 1 then None else Some (k, seed))
          p.seeds)
      [ 1; 2; n / 2; n - 1 ]
  in
  let cell (k, seed) =
    let sys = warm_system ~seed n in
    (* k concurrent proposals, each dropping a different member *)
    let proposals = List.init k (fun i -> Pid.Set.remove (i + 1) members) in
    let accepted = List.mapi (fun i set -> Stack.estab sys (i + 1) set) proposals in
    let start = Engine.rounds (Stack.engine sys) in
    let settled t =
      Stack.quiescent t
      &&
      match Stack.uniform_config t with
      | Some c -> List.exists (Pid.Set.equal c) proposals
      | None -> false
    in
    let ok = Stack.run_until sys ~max_steps:2_000_000 settled in
    let rounds = Engine.rounds (Stack.engine sys) - start in
    let tr = Engine.trace (Stack.engine sys) in
    [
      Table.cell_int k;
      Table.cell_int (List.length (List.filter (fun x -> x) accepted));
      Table.cell_bool ok;
      Table.cell_int rounds;
      Table.cell_int (Trace.count tr "recsa.phase2");
      Table.cell_int (Trace.count tr "recsa.phase0");
      Table.cell_int (Stack.total_resets sys);
    ]
  in
  let rows = Pool.map pool cell cells in
  Table.make ~id:"E2" ~title:"delicate replacement selects exactly one proposal"
    ~claim:
      "Theorem 3.16 / Figure 2: concurrent estab() proposals resolve to a \
       single installed configuration via phases 0->1->2->0, with no \
       brute-force reset"
    ~header:
      [ "proposals"; "accepted"; "one winner installed"; "rounds"; "phase2 events"; "phase0 events"; "resets" ]
    rows

(* ------------------------------------------------------------------ *)
(* E3 — Lemma 3.18: bounded spurious recMA triggerings.                *)
(* ------------------------------------------------------------------ *)

let e3_recma_trigger_bound ?(jobs = 1) p =
  Pool.with_pool ~jobs @@ fun pool ->
  let run n seed =
    let sys = warm_system ~seed n in
    (* corrupt only the recMA flags: every node believes everyone
       reported noMaj and needReconf *)
    let all = members_of n in
    List.iter
      (fun (_, node) ->
        let flags = List.map (fun q -> (q, true)) all in
        Recma.corrupt node.Stack.ma ~no_maj:flags ~need_reconf:flags)
      (Stack.live_nodes sys);
    Stack.run_rounds sys 100;
    float_of_int
      (List.fold_left
         (fun acc (_, node) -> acc + Recma.attempt_count node.Stack.ma)
         0 (Stack.live_nodes sys))
  in
  let rows =
    List.map2
      (fun n attempts ->
        let bound = n * n * cap in
        [
          Table.cell_int n;
          Table.cell_float (mean attempts);
          Table.cell_float (fmax attempts);
          Table.cell_int bound;
          Table.cell_bool (fmax attempts <= float_of_int bound);
        ])
      p.sizes
      (per_seed pool p run p.sizes)
  in
  Table.make ~id:"E3" ~title:"spurious recMA triggerings are bounded"
    ~claim:
      "Lemma 3.18: stale noMaj/needReconf information causes at most \
       O(N^2 * cap) reconfiguration triggerings"
    ~header:[ "N"; "attempts(mean)"; "attempts(max)"; "bound N^2*cap"; "within bound" ]
    ~notes:[ "all flags at every node are forced to true before measuring" ]
    rows

(* ------------------------------------------------------------------ *)
(* E4 — Lemma 3.20: recMA liveness on collapse / prediction.           *)
(* ------------------------------------------------------------------ *)

let e4_recma_liveness ?(jobs = 1) p =
  Pool.with_pool ~jobs @@ fun pool ->
  let run_case (n, kind) seed =
    let hooks =
      match kind with
      | `Collapse -> Stack.unit_hooks
      | `Prediction ->
        { Stack.unit_hooks with eval_conf = Stack.default_eval_conf () }
    in
    let sys = warm_system_with ~hooks ~seed n in
    let victims =
      match kind with
      | `Collapse ->
        (* destroy the majority but leave at least two survivors: the core
           condition |core()| > 1 (line 12) needs a second witness *)
        min (n - 2) ((n / 2) + 1)
      | `Prediction ->
        (* kill ⌈n/4⌉ so the example predictor (reconfigure when 1/4 of the
           members look failed) fires while the majority survives *)
        (n + 3) / 4
    in
    List.iter (fun p -> Stack.crash sys p) (List.init victims (fun i -> i + 1));
    let survivors =
      Pid.set_of_list (List.init (n - victims) (fun i -> victims + i + 1))
    in
    let start = Engine.rounds (Stack.engine sys) in
    let ok =
      Stack.run_until sys ~max_steps:3_000_000 (fun t ->
          match Stack.uniform_config t with
          | Some c -> Pid.Set.subset c survivors && Stack.quiescent t
          | None -> false)
    in
    (ok, Engine.rounds (Stack.engine sys) - start, Stack.total_triggers sys)
  in
  let keys = product p.sizes [ `Collapse; `Prediction ] in
  let rows =
    List.map2
      (fun (n, kind) results ->
        let label =
          match kind with
          | `Collapse -> "majority collapse"
          | `Prediction -> "prediction (1/4 crash)"
        in
        [
          Table.cell_int n;
          label;
          Table.cell_bool (List.for_all (fun (ok, _, _) -> ok) results);
          Table.cell_float (mean (List.map (fun (_, r, _) -> float_of_int r) results));
          Table.cell_int (List.fold_left (fun a (_, _, t) -> a + t) 0 results);
        ])
      keys
      (per_seed pool p run_case keys)
  in
  Table.make ~id:"E4" ~title:"recMA reconfigures on collapse and on prediction"
    ~claim:
      "Lemma 3.20: if a majority of members collapses, or a majority's \
       prediction function asks for it, a reconfiguration to a live \
       configuration takes place"
    ~header:[ "N"; "scenario"; "reconfigured"; "rounds(mean)"; "triggers" ]
    rows

(* ------------------------------------------------------------------ *)
(* E5 — Theorem 3.26: joining.                                         *)
(* ------------------------------------------------------------------ *)

let e5_joining ?(jobs = 1) p =
  Pool.with_pool ~jobs @@ fun pool ->
  let run (n, joiners) seed =
    let sys = warm_system ~seed n in
    let ids = List.init joiners (fun i -> 100 + i) in
    List.iter (fun j -> Stack.add_joiner sys j) ids;
    let start = Engine.rounds (Stack.engine sys) in
    let ok =
      Stack.run_until sys ~max_steps:2_000_000 (fun t ->
          List.for_all
            (fun j -> Recsa.is_participant (Stack.node t j).Stack.sa)
            ids)
    in
    (ok, float_of_int (Engine.rounds (Stack.engine sys) - start))
  in
  let keys = product p.sizes [ 1; 3 ] in
  let rows =
    List.map2
      (fun (n, joiners) results ->
        [
          Table.cell_int n;
          Table.cell_int joiners;
          Table.cell_bool (List.for_all fst results);
          Table.cell_float (mean (List.map snd results));
        ])
      keys
      (per_seed pool p run keys)
  in
  Table.make ~id:"E5" ~title:"joining latency"
    ~claim:
      "Theorem 3.26: joiners gathering passes from a majority of members \
       become participants; they cannot join mid-reconfiguration"
    ~header:[ "N"; "joiners"; "all joined"; "rounds(mean)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E6 — Theorem 4.4: label creations.                                  *)
(* ------------------------------------------------------------------ *)

let e6_label_creations ?(jobs = 1) p =
  Pool.with_pool ~jobs @@ fun pool ->
  let open Counters in
  let m_bound = 8 in
  let run n seed =
    (* the counter service with no increment requests: members gossip and
       settle their label storage only *)
    let hooks =
      Counter_service.hooks ~in_transit_bound:m_bound ~exhaust_bound:(1 lsl 30)
    in
    let sys = warm_system_with ~hooks ~seed n in
    let agreed t = Counter_service.agreed_label t <> None in
    ignore (Stack.run_until sys ~max_steps:2_000_000 agreed);
    (* (a) arbitrary label state: at every member, max[j] holds a label of
       j and queue j two labels of j incomparable with each other *)
    let garbage j ~sting ~antisting =
      let lbl = Labels.Label.make ~creator:j ~sting ~antistings:[ antisting ] in
      Counter.pair_of (Counter.make ~lbl ~seqn:0 ~wid:j)
    in
    List.iter
      (fun (pid, node) ->
        match Counter_service.algo node.Stack.app with
        | Some algo ->
          let first j = garbage j ~sting:(1000 + pid) ~antisting:(2000 + pid) in
          let second j = garbage j ~sting:(3000 + pid) ~antisting:(4000 + pid) in
          Counter_algo.corrupt algo
            ~max_entries:(List.map (fun j -> (j, first j)) (members_of n))
            ~stored_entries:
              (List.map (fun j -> (j, [ first j; second j ])) (members_of n))
        | None -> ())
      (Stack.live_nodes sys);
    let before = Counter_service.label_creations sys in
    ignore (Stack.run_until sys ~max_steps:2_000_000 agreed);
    let corrupt_creations = Counter_service.label_creations sys - before in
    (* (b) after a delicate reconfiguration *)
    let rec propose tries =
      if tries = 0 then ()
      else if not (Stack.estab sys 1 (Pid.set_of_list (members_of (n - 1)))) then begin
        Stack.run_rounds sys 2;
        propose (tries - 1)
      end
    in
    propose 100;
    let before = Counter_service.label_creations sys in
    ignore
      (Stack.run_until sys ~max_steps:2_000_000 (fun t ->
           (match Stack.uniform_config t with
           | Some c -> Pid.Set.cardinal c = n - 1
           | None -> false)
           && agreed t));
    let reconfig_creations = Counter_service.label_creations sys - before in
    (float_of_int corrupt_creations, float_of_int reconfig_creations)
  in
  let rows =
    List.map2
      (fun n per_seed_results ->
        let corrupt_bound = n * ((n * n) + m_bound) in
        let reconfig_bound = n * n in
        [
          Table.cell_int n;
          Table.cell_float (mean (List.map fst per_seed_results));
          Table.cell_int corrupt_bound;
          Table.cell_float (mean (List.map snd per_seed_results));
          Table.cell_int reconfig_bound;
          Table.cell_bool
            (fmax (List.map fst per_seed_results) <= float_of_int corrupt_bound
            && fmax (List.map snd per_seed_results) <= float_of_int reconfig_bound);
        ])
      p.sizes
      (per_seed pool p run p.sizes)
  in
  Table.make ~id:"E6" ~title:"label creations until a maximal label"
    ~claim:
      "Theorem 4.4: at most O(N(N^2+m)) creations from an arbitrary state; \
       at most O(N^2) after a reconfiguration"
    ~header:
      [
        "N";
        "creations(corrupt)";
        "bound N(N^2+m)";
        "creations(reconfig)";
        "bound N^2";
        "within bounds";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E7 — Theorem 4.6: counter increments.                               *)
(* ------------------------------------------------------------------ *)

let e7_counter_increments ?(jobs = 1) p =
  Pool.with_pool ~jobs @@ fun pool ->
  let open Counters in
  let run (n, clients) seed =
    let hooks =
      Counter_service.hooks ~in_transit_bound:8 ~exhaust_bound:(1 lsl 30)
    in
    let sys = warm_system_with ~hooks ~seed n in
    let ids = List.init clients (fun i -> i + 1) in
    let app t pid = (Stack.node t pid).Stack.app in
    List.iter (fun pid -> Counter_service.request_increment (app sys pid)) ids;
    let all_done t =
      List.for_all (fun pid -> Counter_service.increment_result (app t pid) <> None) ids
    in
    let ok = Stack.run_until sys ~max_steps:2_000_000 all_done in
    let counters =
      List.filter_map (fun pid -> Counter_service.increment_result (app sys pid)) ids
    in
    let distinct =
      List.for_all
        (fun c -> List.length (List.filter (Counter.equal c) counters) = 1)
        counters
    in
    let ordered =
      List.for_all
        (fun c ->
          List.for_all
            (fun c' -> Counter.equal c c' || Counter.comparable c c')
            counters)
        counters
    in
    let aborts =
      List.fold_left (fun a pid -> a + Counter_service.aborts (app sys pid)) 0 ids
    in
    (ok, distinct && ordered, aborts)
  in
  let keys =
    List.concat_map (fun n -> List.map (fun c -> (n, c)) [ 1; n / 2; n ]) p.sizes
  in
  let rows =
    List.map2
      (fun (n, clients) results ->
        [
          Table.cell_int n;
          Table.cell_int clients;
          Table.cell_bool (List.for_all (fun (ok, _, _) -> ok) results);
          Table.cell_bool (List.for_all (fun (_, o, _) -> o) results);
          Table.cell_int (List.fold_left (fun a (_, _, x) -> a + x) 0 results);
        ])
      keys
      (per_seed pool p run keys)
  in
  Table.make ~id:"E7" ~title:"concurrent counter increments are totally ordered"
    ~claim:
      "Theorem 4.6: increments return monotonically increasing, pairwise \
       distinct and comparable counters, even under concurrency"
    ~header:[ "N"; "clients"; "all completed"; "distinct+ordered"; "aborts" ]
    rows

(* ------------------------------------------------------------------ *)
(* E8 — Theorem 4.13: VS SMR throughput and crash tolerance.           *)
(* ------------------------------------------------------------------ *)

let e8_vs_smr ?(jobs = 1) p =
  Pool.with_pool ~jobs @@ fun pool ->
  let open Vs in
  let machine = { Vs_service.initial = 0; apply = (fun s c -> s + c) } in
  let commands_per_node = 5 in
  let run (n, crash_coordinator) seed =
    let hooks = Vs_service.hooks ~machine () in
    let sys = warm_system_with ~hooks ~seed n in
    let in_view t =
      List.for_all
        (fun (_, node) ->
          Vs_service.status_of node.Stack.app = Vs_service.Multicast
          && (Vs_service.current_view node.Stack.app).Vs_service.vid <> None)
        (Stack.live_nodes t)
    in
    if not (Stack.run_until sys ~max_steps:2_000_000 in_view) then None
    else begin
      let start = Engine.rounds (Stack.engine sys) in
      (* crashing the coordinator first exercises re-election; commands are
         then submitted at survivors (a command pending at a crashed client
         is lost by definition) *)
      (if crash_coordinator then
         match
           List.find_opt
             (fun (_, node) -> Vs_service.is_coordinator node.Stack.app)
             (Stack.live_nodes sys)
         with
         | Some (pid, _) -> Stack.crash sys pid
         | None -> ());
      let total = ref 0 in
      List.iter
        (fun (pid, node) ->
          ignore pid;
          for c = 1 to commands_per_node do
            Vs_service.submit node.Stack.app c;
            total := !total + c
          done)
        (Stack.live_nodes sys);
      let expected = !total in
      let done_ t =
        List.for_all
          (fun (_, node) -> Vs_service.replica node.Stack.app = expected)
          (Stack.live_nodes t)
      in
      let ok = Stack.run_until sys ~max_steps:3_000_000 done_ in
      let rounds = Engine.rounds (Stack.engine sys) - start in
      Some (ok, rounds, List.length (Stack.live_nodes sys) * commands_per_node)
    end
  in
  let keys = product p.sizes [ false; true ] in
  let rows =
    List.map2
      (fun (n, crash) per_seed_results ->
        let results = List.filter_map Fun.id per_seed_results in
        let all_ok = results <> [] && List.for_all (fun (ok, _, _) -> ok) results in
        let rounds = List.map (fun (_, r, _) -> float_of_int r) results in
        let cmds = match results with (_, _, c) :: _ -> c | [] -> 0 in
        [
          Table.cell_int n;
          (if crash then "coordinator crash mid-run" else "steady");
          Table.cell_bool all_ok;
          Table.cell_int cmds;
          Table.cell_float (mean rounds);
          Table.cell_float
            (if mean rounds > 0.0 then float_of_int cmds /. mean rounds else 0.0);
        ])
      keys
      (per_seed pool p run keys)
  in
  Table.make ~id:"E8" ~title:"virtually synchronous SMR"
    ~claim:
      "Theorem 4.13: the SMR delivers all multicast commands to every \
       replica in the same order, preserving state across coordinator \
       crashes"
    ~header:[ "N"; "scenario"; "all delivered"; "commands"; "rounds(mean)"; "cmds/round" ]
    rows

(* ------------------------------------------------------------------ *)
(* E9 — baseline comparison: self-stabilization matters.               *)
(* ------------------------------------------------------------------ *)

let e9_baseline_comparison ?(jobs = 1) p =
  Pool.with_pool ~jobs @@ fun pool ->
  let n = match p.sizes with first :: _ -> first | [] -> 4 in
  let trials = List.length p.seeds in
  let dead_config = Pid.set_of_list [ 1777; 1888 ] in
  let baseline_recoveries =
    Pool.map pool
      (fun seed ->
        let b = Baseline.Epoch_config.create ~seed ~members:(members_of n) () in
        Baseline.Epoch_config.run_rounds b 10;
        Baseline.Epoch_config.corrupt b 1 ~epoch:1_000_000 ~config:dead_config;
        Baseline.Epoch_config.run_rounds b p.max_rounds;
        Baseline.Epoch_config.healthy b)
      p.seeds
    |> List.filter (fun ok -> ok)
    |> List.length
  in
  let ours =
    Pool.map pool
      (fun seed ->
        let sys = warm_system ~seed n in
        List.iter
          (fun (_, node) ->
            Recsa.corrupt node.Stack.sa ~config:(Config_value.Set dead_config) ())
          (Stack.live_nodes sys);
        Stack.run_until_quiescent sys ~max_rounds:p.max_rounds)
      p.seeds
    |> List.filter_map Fun.id
  in
  let rows =
    [
      [
        "epoch baseline (non-stabilizing)";
        Table.cell_int trials;
        Table.cell_int baseline_recoveries;
        "-";
      ];
      [
        "ssreconf (this paper)";
        Table.cell_int trials;
        Table.cell_int (List.length ours);
        Table.cell_float (mean (List.map float_of_int ours));
      ];
    ]
  in
  Table.make ~id:"E9" ~title:"recovery from a transient fault: baseline vs ssreconf"
    ~claim:
      "Section 1 / Related work: prior reconfiguration schemes assume a \
       coherent start and never recover from a planted dead configuration; \
       the self-stabilizing scheme always does"
    ~header:[ "system"; "trials"; "recovered"; "recovery rounds(mean)" ]
    ~notes:
      [
        Format.asprintf
          "fault: one node (baseline) / all nodes (ssreconf) get config=%a with a huge epoch"
          Pid.pp_set dead_config;
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E10 — Figure 1: the module interfaces compose as depicted.          *)
(* ------------------------------------------------------------------ *)

let e10_interface_contract ?jobs:_ p =
  let seed = match p.seeds with s :: _ -> s | [] -> 1 in
  let n = match p.sizes with s :: _ -> s | [] -> 4 in
  let blocked = ref true in
  let hooks =
    { Stack.unit_hooks with pass_query = (fun ~self:_ ~joiner -> joiner <> 200 || not !blocked) }
  in
  let sys = warm_system_with ~hooks ~seed n in
  let checks = ref [] in
  let check name ok = checks := (name, ok) :: !checks in
  (* getConfig: uniform in steady state *)
  let configs =
    List.map
      (fun (pid, node) -> Recsa.get_config node.Stack.sa ~trusted:(Stack.trusted_of sys pid))
      (Stack.live_nodes sys)
  in
  check "getConfig() uniform across participants"
    (match configs with
    | first :: rest -> List.for_all (Config_value.equal first) rest
    | [] -> false);
  (* noReco: true in steady state *)
  check "noReco() true in steady state"
    (List.for_all
       (fun (pid, node) -> Recsa.no_reco node.Stack.sa ~trusted:(Stack.trusted_of sys pid))
       (Stack.live_nodes sys));
  (* estab honored *)
  let target = Pid.set_of_list (members_of (n - 1)) in
  let accepted = Stack.estab sys 1 target in
  let installed =
    Stack.run_until sys ~max_steps:2_000_000 (fun t ->
        match Stack.uniform_config t with
        | Some c -> Pid.Set.equal c target && Stack.quiescent t
        | None -> false)
  in
  check "estab(set) installs the proposal" (accepted && installed);
  (* passQuery gating *)
  Stack.add_joiner sys 200;
  Stack.run_rounds sys 60;
  check "passQuery()=false blocks participate()"
    (not (Recsa.is_participant (Stack.node sys 200).Stack.sa));
  blocked := false;
  let joined =
    Stack.run_until sys ~max_steps:2_000_000 (fun t ->
        Recsa.is_participant (Stack.node t 200).Stack.sa)
  in
  check "passQuery()=true admits participate()" joined;
  let rows =
    List.rev_map (fun (name, ok) -> [ name; Table.cell_bool ok ]) !checks
  in
  Table.make ~id:"E10" ~title:"module interface contract (Figure 1)"
    ~claim:
      "Figure 1: getConfig/noReco/estab/participate/passQuery compose \
       across recSA, recMA, the joining mechanism and the application"
    ~header:[ "property"; "holds" ]
    rows

(* ------------------------------------------------------------------ *)
(* E11 — shared memory emulation.                                      *)
(* ------------------------------------------------------------------ *)

let e11_shared_memory ?(jobs = 1) p =
  Pool.with_pool ~jobs @@ fun pool ->
  let open Vs in
  let run n seed =
    let sys = warm_system_with ~hooks:(Shared_memory.hooks ()) ~seed n in
    let app pid = (Stack.node sys pid).Stack.app in
    let in_view t =
      List.for_all
        (fun (_, node) ->
          Vs_service.status_of node.Stack.app = Vs_service.Multicast
          && (Vs_service.current_view node.Stack.app).Vs_service.vid <> None)
        (Stack.live_nodes t)
    in
    if not (Stack.run_until sys ~max_steps:2_000_000 in_view) then (false, false)
    else begin
      (* writers write distinct values; readers read after *)
      List.iteri
        (fun i pid -> Shared_memory.write (app pid) ~writer:pid "r" (100 + i))
        (members_of n);
      let writes_done t =
        List.for_all
          (fun (_, node) -> Shared_memory.peek node.Stack.app "r" <> None)
          (Stack.live_nodes t)
      in
      let w_ok = Stack.run_until sys ~max_steps:2_000_000 writes_done in
      List.iter
        (fun pid -> Shared_memory.read (app pid) ~reader:pid ~rid:1 "r")
        (members_of n);
      let reads_done _t =
        List.for_all
          (fun pid ->
            match Shared_memory.read_result (app pid) ~reader:pid ~rid:1 with
            | Some (Some v) -> v >= 100 && v < 100 + n
            | Some None | None -> false)
          (members_of n)
      in
      let r_ok = Stack.run_until sys ~max_steps:2_000_000 reads_done in
      (* atomicity: every node sees the same final value *)
      let finals =
        List.map (fun (_, node) -> Shared_memory.peek node.Stack.app "r")
          (Stack.live_nodes sys)
      in
      let agree =
        match finals with
        | first :: rest -> List.for_all (( = ) first) rest
        | [] -> false
      in
      (w_ok && r_ok, agree)
    end
  in
  let rows =
    List.map2
      (fun n results ->
        [
          Table.cell_int n;
          Table.cell_bool (List.for_all fst results);
          Table.cell_bool (List.for_all snd results);
        ])
      p.sizes
      (per_seed pool p run p.sizes)
  in
  Table.make ~id:"E11" ~title:"MWMR shared memory emulation"
    ~claim:
      "Section 4.3: reads and writes over the virtually synchronous SMR \
       form an atomic multi-writer multi-reader register between delicate \
       reconfigurations"
    ~header:[ "N"; "ops completed"; "replicas agree" ]
    rows

(* ------------------------------------------------------------------ *)
(* E12 — churn: sustained joins and leaves.                             *)
(* ------------------------------------------------------------------ *)

let e12_churn ?(jobs = 1) p =
  Pool.with_pool ~jobs @@ fun pool ->
  let n = match p.sizes with first :: _ -> first | [] -> 4 in
  let cell (churn_period, seed) =
    let hooks =
      { Stack.unit_hooks with eval_conf = Stack.default_eval_conf () }
    in
    let sys = warm_system_with ~hooks ~seed (2 * n) in
    (* alternate joins and crashes every [churn_period] rounds *)
    let next_id = ref 1000 in
    let crashed = ref 0 in
    let events = 6 in
    for i = 1 to events do
      if i mod 2 = 0 && !crashed < n then begin
        Stack.crash sys (!crashed + 1);
        incr crashed
      end
      else begin
        Stack.add_joiner sys !next_id;
        incr next_id
      end;
      Stack.run_rounds sys churn_period
    done;
    (* churn stops; the system must settle on a configuration with
       a live majority *)
    let healthy t =
      Stack.quiescent t
      &&
      match Stack.uniform_config t with
      | Some c ->
        Quorum.has_majority ~config:c
          (Pid.set_of_list (Engine.live_pids (Stack.engine t)))
      | None -> false
    in
    let rec wait budget =
      if healthy sys then Some (Engine.rounds (Stack.engine sys))
      else if budget = 0 then None
      else begin
        Stack.run_rounds sys 5;
        wait (budget - 1)
      end
    in
    let start = Engine.rounds (Stack.engine sys) in
    let settled = wait 120 in
    [
      Table.cell_int churn_period;
      Table.cell_int seed;
      Table.cell_bool (settled <> None);
      (match settled with
      | Some r -> Table.cell_int (r - start)
      | None -> "-");
      Table.cell_int (Stack.total_triggers sys);
    ]
  in
  let rows = Pool.map pool cell (product [ 5; 15; 40 ] p.seeds) in
  Table.make ~id:"E12" ~title:"sustained churn"
    ~claim:
      "Section 1: the scheme tolerates ongoing joins and crashes; once the \
       churn rate assumption holds again, a steady majority-live \
       configuration is re-established"
    ~header:[ "rounds between churn events"; "seed"; "settled"; "settle rounds"; "recMA triggers" ]
    rows

(* ------------------------------------------------------------------ *)
(* E13 — (N,Θ)-failure-detector estimate accuracy (Section 2).          *)
(* ------------------------------------------------------------------ *)

let e13_fd_estimate ?(jobs = 1) p =
  Pool.with_pool ~jobs @@ fun pool ->
  let run (n, crashed) seed =
    let sys = warm_system ~seed n in
    List.iter (fun v -> Stack.crash sys v) (List.init crashed (fun i -> i + 1));
    Stack.run_rounds sys 60;
    let estimates =
      List.map
        (fun (_, node) ->
          float_of_int (Detector.Theta_fd.estimate node.Stack.fd))
        (Stack.live_nodes sys)
    in
    mean estimates
  in
  let keys =
    List.concat_map
      (fun n -> List.map (fun c -> (n, c)) [ 0; max 1 (n / 4) ])
      p.sizes
  in
  let rows =
    List.map2
      (fun (n, crashed) per_seed_means ->
        [
          Table.cell_int n;
          Table.cell_int crashed;
          Table.cell_int (n - crashed);
          Table.cell_float (mean per_seed_means);
        ])
      keys
      (per_seed pool p run keys)
  in
  Table.make ~id:"E13" ~title:"failure-detector live-count estimate"
    ~claim:
      "Section 2: the heartbeat-gap estimation converges to the number of \
       active processors (n_i <= N)"
    ~header:[ "N"; "crashed"; "actual live"; "estimate(mean)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E14 — partitions: temporary connectivity violations.                 *)
(* ------------------------------------------------------------------ *)

let e14_partitions ?(jobs = 1) p =
  Pool.with_pool ~jobs @@ fun pool ->
  let n = match List.rev p.sizes with last :: _ -> last | [] -> 8 in
  let cell (cut_rounds, seed) =
    let sys = warm_system ~seed n in
    let minority = Pid.set_of_list (List.init (n / 2) (fun i -> i + 1)) in
    Engine.partition (Stack.engine sys) minority;
    Stack.run_rounds sys cut_rounds;
    Engine.heal (Stack.engine sys);
    let start = Engine.rounds (Stack.engine sys) in
    let ok =
      Stack.run_until sys ~max_steps:3_000_000 (fun t ->
          Stack.quiescent t && Stack.uniform_config t <> None)
    in
    [
      Table.cell_int cut_rounds;
      Table.cell_int seed;
      Table.cell_bool ok;
      Table.cell_int (Engine.rounds (Stack.engine sys) - start);
      Table.cell_int (Stack.total_resets sys);
    ]
  in
  let rows = Pool.map pool cell (product [ 10; 40; 120 ] p.seeds) in
  Table.make ~id:"E14" ~title:"temporary partitions"
    ~claim:
      "Section 1: a temporary violation of connectivity is a transient \
       fault; after healing, a single steady configuration holds (no split \
       brain)"
    ~header:[ "cut rounds"; "seed"; "steady after heal"; "rounds to steady"; "resets" ]
    rows

(* ------------------------------------------------------------------ *)
(* E15 — message overhead per protocol layer.                           *)
(* ------------------------------------------------------------------ *)

let e15_message_overhead ?(jobs = 1) p =
  Pool.with_pool ~jobs @@ fun pool ->
  let cell n =
    let seed = match p.seeds with s :: _ -> s | [] -> 1 in
    let sys = warm_system ~seed n in
    let tele = Engine.telemetry (Stack.engine sys) in
    let sent kind = Telemetry.counter_value tele ~labels:[ ("kind", kind) ] "stack.sent" in
    let sa0 = sent "sa" and ma0 = sent "ma" and hb0 = sent "heartbeat" in
    let rounds = 50 in
    Stack.run_rounds sys rounds;
    let per_round v0 kind =
      float_of_int (sent kind - v0) /. float_of_int rounds
    in
    [
      Table.cell_int n;
      Table.cell_float (per_round sa0 "sa");
      Table.cell_float (per_round ma0 "ma");
      Table.cell_float (per_round hb0 "heartbeat");
      Table.cell_float
        (per_round sa0 "sa" +. per_round ma0 "ma" +. per_round hb0 "heartbeat");
    ]
  in
  let rows = Pool.map pool cell p.sizes in
  Table.make ~id:"E15" ~title:"message overhead per layer (steady state)"
    ~claim:
      "bounded message complexity: every layer broadcasts O(N) messages per \
       node per round (O(N^2) system-wide), with bounded message size"
    ~header:
      [ "N"; "recSA msgs/round"; "recMA msgs/round"; "heartbeats/round"; "total/round" ]
    rows

(* ------------------------------------------------------------------ *)
(* E16 — the two shared-memory emulations compared.                     *)
(* ------------------------------------------------------------------ *)

let e16_register_comparison ?(jobs = 1) p =
  Pool.with_pool ~jobs @@ fun pool ->
  let seed = match p.seeds with s :: _ -> s | [] -> 1 in
  let ops = 5 in
  let run_smr n =
    let sys = warm_system_with ~hooks:(Vs.Shared_memory.hooks ()) ~seed n in
    let app pid = (Stack.node sys pid).Stack.app in
    let in_view t =
      List.for_all
        (fun (_, node) ->
          Vs.Vs_service.status_of node.Stack.app = Vs.Vs_service.Multicast
          && (Vs.Vs_service.current_view node.Stack.app).Vs.Vs_service.vid <> None)
        (Stack.live_nodes t)
    in
    if not (Stack.run_until sys ~max_steps:2_000_000 in_view) then None
    else begin
      let start = Engine.rounds (Stack.engine sys) in
      let rec do_ops i =
        if i > ops then true
        else begin
          Vs.Shared_memory.write (app 1) ~writer:1 "r" i;
          let written t =
            Vs.Shared_memory.peek (Stack.node t 2).Stack.app "r" = Some i
          in
          if not (Stack.run_until sys ~max_steps:1_000_000 written) then false
          else begin
            Vs.Shared_memory.read (app 3) ~reader:3 ~rid:i "r";
            if
              Stack.run_until sys ~max_steps:1_000_000 (fun t ->
                  Vs.Shared_memory.read_result ((Stack.node t 3).Stack.app) ~reader:3 ~rid:i
                  = Some (Some i))
            then do_ops (i + 1)
            else false
          end
        end
      in
      if do_ops 1 then
        Some (float_of_int (Engine.rounds (Stack.engine sys) - start) /. float_of_int (2 * ops))
      else None
    end
  in
  let run_reg n =
    let sys = warm_system_with ~hooks:(Register.Register_service.hooks ()) ~seed n in
    let app t pid = (Stack.node t pid).Stack.app in
    let start = Engine.rounds (Stack.engine sys) in
    let rec do_ops i =
      if i > ops then true
      else begin
        Register.Register_service.write (app sys 1) ~rid:i "r" i;
        if
          not
            (Stack.run_until sys ~max_steps:1_000_000 (fun t ->
                 Register.Register_service.write_done (app t 1) ~rid:i))
        then false
        else begin
          Register.Register_service.read (app sys 3) ~rid:i "r";
          if
            Stack.run_until sys ~max_steps:1_000_000 (fun t ->
                Register.Register_service.find_read (app t 3) ~rid:i = Some (Some i))
          then do_ops (i + 1)
          else false
        end
      end
    in
    if do_ops 1 then
      Some (float_of_int (Engine.rounds (Stack.engine sys) - start) /. float_of_int (2 * ops))
    else None
  in
  let cell (n, kind) =
    let cell_of = function Some r -> Table.cell_float r | None -> "-" in
    match kind with
    | `Smr -> [ Table.cell_int n; "SMR-based (Vs.Shared_memory)"; cell_of (run_smr n) ]
    | `Reg -> [ Table.cell_int n; "quorum-based (Register_service)"; cell_of (run_reg n) ]
  in
  let rows = Pool.map pool cell (product p.sizes [ `Smr; `Reg ]) in
  Table.make ~id:"E16" ~title:"shared-memory emulations: SMR vs quorum register"
    ~claim:
      "Section 4.3: both emulation routes provide atomic MWMR registers; \
       the quorum route pays two majority round trips per write (the \
       counter's majRead for the tag, then the update, which also stores \
       the tag as the counter's majWrite and starts in the step that \
       delivers the tag) and one per read \
       when every replier already holds the newest value (two otherwise: \
       query, then write-back), each operation leaving in its node's first \
       receipt or tick after it was queued, while the SMR route pays a \
       multicast round and suspends during reconfigurations"
    ~header:[ "N"; "emulation"; "rounds per op (mean)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E17 — scale tier: the data plane at N in {16, 32, 64}.              *)
(* ------------------------------------------------------------------ *)

let scale_sizes = [ 16; 32; 64 ]

let e17_scale ?(jobs = 1) p =
  Pool.with_pool ~jobs @@ fun pool ->
  let steady_rounds = 20 in
  let run n seed =
    (* recovery from a fully corrupted state, timed *)
    let sys = warm_system ~seed n in
    Stack.corrupt_everything sys ~rng:(Rng.create (seed * 7919));
    let eng = Stack.engine sys in
    let steps0 = Engine.steps eng in
    let t0 = Unix.gettimeofday () in
    let recovery = Stack.run_until_quiescent sys ~max_rounds:p.max_rounds in
    let rec_wall = Unix.gettimeofday () -. t0 in
    let rec_steps = Engine.steps eng - steps0 in
    (* steady-state throughput on the recovered system *)
    let steps1 = Engine.steps eng in
    let t1 = Unix.gettimeofday () in
    Stack.run_rounds sys steady_rounds;
    let steady_wall = Unix.gettimeofday () -. t1 in
    let steady_steps = Engine.steps eng - steps1 in
    ( recovery,
      rec_steps,
      rec_wall,
      float_of_int steady_steps /. steady_wall,
      float_of_int steady_rounds /. steady_wall )
  in
  let rows =
    List.map2
      (fun n results ->
        let recovered =
          List.for_all (fun (r, _, _, _, _) -> Option.is_some r) results
        in
        let rec_rounds =
          List.map
            (fun (r, _, _, _, _) ->
              match r with
              | Some rounds -> float_of_int rounds
              | None -> float_of_int p.max_rounds)
            results
        in
        let rec_ev_s =
          List.map (fun (_, steps, wall, _, _) -> float_of_int steps /. wall) results
        in
        let rec_wall = List.map (fun (_, _, w, _, _) -> w) results in
        let steady_ev = List.map (fun (_, _, _, ev, _) -> ev) results in
        let steady_r = List.map (fun (_, _, _, _, r) -> r) results in
        [
          Table.cell_int n;
          Table.cell_bool recovered;
          Table.cell_float (mean rec_rounds);
          Printf.sprintf "%.2f" (mean rec_wall);
          Printf.sprintf "%.0fk" (mean rec_ev_s /. 1e3);
          Printf.sprintf "%.0fk" (mean steady_ev /. 1e3);
          Table.cell_float (mean steady_r);
        ])
      scale_sizes
      (per_seed pool p run scale_sizes)
  in
  Table.make ~id:"E17" ~title:"scale tier: recovery and throughput at N in {16, 32, 64}"
    ~claim:
      "north star: the allocation-light data plane (ring channels, dense \
       link tables, interned descriptors) sustains full recovery and \
       steady-state gossip well beyond the N<=12 grid"
    ~header:
      [
        "N";
        "recovered";
        "recovery rounds(mean)";
        "recovery s(mean)";
        "recovery events/s";
        "steady events/s";
        "steady rounds/s";
      ]
    ~notes:
      [
        "recovered and rounds are deterministic per seed; the wall-clock \
         columns (s, events/s, rounds/s) vary run to run and are excluded \
         from byte-identity checks";
        "sizes are fixed at {16, 32, 64}; seeds and the round budget follow \
         the main grid's params";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E18 — fault plans: stabilization time vs. fault intensity.          *)
(* ------------------------------------------------------------------ *)

let fault_sizes = [ 8; 16; 32 ]

(* Composite intensity levels: corruption-storm rate x partition duration
   x join/crash churn. Each cell replays one declarative fault plan
   through [Stack.run_plan], so the adversary is identical across sizes
   and seeds up to the plan's own RNG. *)
let fault_levels =
  [
    ("calm", 0.0, 0, false);
    ("low", 0.15, 5, false);
    ("medium", 0.4, 10, true);
    ("high", 0.7, 20, true);
  ]

let e18_faults ?(jobs = 1) p =
  Pool.with_pool ~jobs @@ fun pool ->
  let module Fp = Faults.Fault_plan in
  let warm = 25 in
  let storm_rounds = 20 in
  let plan_for n (rate, part, churn) seed =
    let storm =
      if rate > 0.0 then
        Fp.storm ~seed:((seed * 131) + n) ~start:warm ~rounds:storm_rounds ~rate
      else []
    in
    let partition =
      if part > 0 then
        [
          Fp.at (warm + 5)
            (Fp.Partition { group = Fp.Sample ((n / 2) + 1); heal_after = part });
        ]
      else []
    in
    let churn_events =
      if churn then
        [
          Fp.at (warm + 10) (Fp.Join [ n + 1; n + 2 ]);
          Fp.at (warm + 12) (Fp.Crash (Fp.Sample 1));
        ]
      else []
    in
    Fp.make ~seed:((seed * 977) + n) (storm @ partition @ churn_events)
  in
  let run (n, (_, rate, part, churn)) seed =
    let sys =
      Stack.of_scenario ~hooks:Stack.unit_hooks
        (Scenario.make ~seed ~capacity:cap ~n_bound:(2 * n)
           ~members:(members_of n) ())
    in
    let plan = plan_for n (rate, part, churn) seed in
    let recovery = Stack.run_plan sys ~plan ~max_rounds:(4 * p.max_rounds) in
    let tele = Engine.telemetry (Stack.engine sys) in
    (* reset-to-recovery latency quantiles; an intensity too mild to cause
       any reset reports 0 (finite by construction) *)
    let q pr =
      match Telemetry.find_histogram tele "recsa.reset_recovery_seconds" with
      | Some h -> Option.value ~default:0.0 (Telemetry.Histogram.quantile h pr)
      | None -> 0.0
    in
    (recovery, q 0.5, q 0.95)
  in
  let keys = product fault_sizes fault_levels in
  let rows =
    List.map2
      (fun (n, (label, rate, part, churn)) results ->
        let recovered =
          List.for_all (fun (r, _, _) -> Option.is_some r) results
        in
        let rec_rounds =
          List.map
            (fun (r, _, _) ->
              match r with
              | Some rounds -> float_of_int rounds
              | None -> float_of_int (4 * p.max_rounds))
            results
        in
        let p50s = List.map (fun (_, a, _) -> a) results in
        let p95s = List.map (fun (_, _, b) -> b) results in
        [
          Table.cell_int n;
          label;
          Printf.sprintf "%.2f/%d/%s" rate part (if churn then "yes" else "no");
          Table.cell_bool recovered;
          Table.cell_float (mean rec_rounds);
          Table.cell_float (mean p50s);
          Table.cell_float (mean p95s);
        ])
      keys
      (per_seed pool p run keys)
  in
  Table.make ~id:"E18"
    ~title:"fault plans: stabilization time vs. fault intensity"
    ~claim:
      "Theorem 3.15 under a systematic adversary: for every swept fault \
       intensity (corruption-storm rate x partition duration x churn) the \
       system returns to a quiescent legal configuration within a bounded \
       number of rounds after the last fault, with finite reset-recovery \
       quantiles"
    ~header:
      [
        "N";
        "intensity";
        "rate/part/churn";
        "recovered";
        "rounds after last fault(mean)";
        "reset recovery p50(s)";
        "reset recovery p95(s)";
      ]
    ~notes:
      [
        "each cell replays one declarative Faults.Fault_plan (seeded storm \
         + timed-heal partition + join/crash churn) via Stack.run_plan";
        "recovery quantiles come from the recsa.reset_recovery_seconds \
         histogram; 0 means the intensity caused no reset";
      ]
    rows

let registry =
  [
    ("E1", e1_convergence);
    ("E2", e2_delicate_replacement);
    ("E3", e3_recma_trigger_bound);
    ("E4", e4_recma_liveness);
    ("E5", e5_joining);
    ("E6", e6_label_creations);
    ("E7", e7_counter_increments);
    ("E8", e8_vs_smr);
    ("E9", e9_baseline_comparison);
    ("E10", e10_interface_contract);
    ("E11", e11_shared_memory);
    ("E12", e12_churn);
    ("E13", e13_fd_estimate);
    ("E14", e14_partitions);
    ("E15", e15_message_overhead);
    ("E16", e16_register_comparison);
    ("E17", e17_scale);
    ("E18", e18_faults);
  ]

let all ?jobs p = List.map (fun (_, f) -> f ?jobs p) registry
let by_id id = List.assoc_opt (String.uppercase_ascii id) registry
let ids = List.map fst registry
