open Sim

type t = {
  sc_members : Pid.t list;
  sc_seed : int;
  sc_capacity : int;
  sc_loss : float;
  sc_theta : int;
  sc_n_bound : int;
}

let default_members n = List.init n (fun i -> i + 1)

let make ?members ?(seed = 42) ?(capacity = 8) ?(loss = 0.02) ?(theta = 4) ?n_bound
    ?nodes () =
  let members =
    match (members, nodes) with
    | Some l, _ -> l
    | None, Some n when n < 0 -> invalid_arg "Scenario.make: nodes must not be negative"
    | None, Some n -> default_members n
    | None, None -> invalid_arg "Scenario.make: pass ~nodes or ~members"
  in
  if members = [] then invalid_arg "Scenario.make: empty member list";
  if List.length (List.sort_uniq Pid.compare members) <> List.length members then
    invalid_arg "Scenario.make: duplicate member";
  if capacity <= 0 then invalid_arg "Scenario.make: capacity must be positive";
  (* written so that NaN fails too *)
  if not (loss >= 0.0 && loss <= 1.0) then
    invalid_arg "Scenario.make: loss must be in [0,1]";
  if theta < 2 then invalid_arg "Scenario.make: theta must be >= 2";
  let n_bound = match n_bound with Some b -> b | None -> 2 * List.length members in
  if n_bound <= 0 then invalid_arg "Scenario.make: n_bound must be positive";
  {
    sc_members = members;
    sc_seed = seed;
    sc_capacity = capacity;
    sc_loss = loss;
    sc_theta = theta;
    sc_n_bound = n_bound;
  }

let nodes t = List.length t.sc_members

let with_n_bound t n_bound =
  if n_bound <= 0 then invalid_arg "Scenario.with_n_bound: must be positive";
  { t with sc_n_bound = n_bound }
