(** The experiment suite (EXPERIMENTS.md / DESIGN.md Section 5).

    The paper is a theory paper: its evaluation is a set of theorems and
    asymptotic bounds plus two structural figures. Each experiment here
    regenerates the measurable content of one claim on the simulation
    substrate. Every experiment is deterministic given its seeds.

    Each (experiment x size x seed) cell is an independent simulation; the
    [?jobs] argument runs the cells on a {!Pool} of that many domains.
    Results are reassembled in deterministic order, so the rendered tables
    are byte-identical for every job count (default: sequential). *)

(** Default parameters; callers (bench, CLI) can shrink for quick runs. *)
type params = {
  sizes : int list;  (** configuration sizes N *)
  seeds : int list;  (** one run per (size, seed) *)
  max_rounds : int;  (** convergence budget per run *)
}

val default_params : params
val quick_params : params

(** {2 Cell scheduling}

    Every table is computed as a flat list of independent (variant x seed)
    simulation cells run on a {!Pool}; the ablations share this scheduling. *)

(** [members_of n] is the configuration [1..n]. *)
val members_of : int -> int list

(** Arithmetic mean; [0.0] for the empty list. *)
val mean : float list -> float

(** [product xs ys] — every [(x, y)] pair, [xs]-major. *)
val product : 'a list -> 'b list -> ('a * 'b) list

(** [per_seed pool p f keys] runs [f key seed] for every (key, seed) cell on
    [pool] and returns one result group per key, seeds in order. *)
val per_seed : Pool.t -> params -> ('k -> int -> 'r) -> 'k list -> 'r list list

(** {2 Tables}

    E1..E16 regenerate one paper claim each. E17 is the scale tier:
    recovery and steady-state throughput at N ∈ {16, 32, 64}; its
    recovered/rounds columns are deterministic per seed, its wall-clock
    throughput columns are not — the one exception to table byte-identity.
    E18 sweeps stabilization time against fault intensity at
    N ∈ {8, 16, 32}, each cell replaying one {!Faults.Fault_plan} through
    [Stack.run_plan]. *)

(** The (id, experiment) pairs, in order. *)
val registry : (string * (?jobs:int -> params -> Table.t)) list

(** All experiments in {!registry} order. *)
val all : ?jobs:int -> params -> Table.t list

(** [by_id id] — lookup an experiment by its "E<n>" identifier. *)
val by_id : string -> (?jobs:int -> params -> Table.t) option

val ids : string list
