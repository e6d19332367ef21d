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

val e1_convergence : ?jobs:int -> params -> Table.t
val e2_delicate_replacement : ?jobs:int -> params -> Table.t
val e3_recma_trigger_bound : ?jobs:int -> params -> Table.t
val e4_recma_liveness : ?jobs:int -> params -> Table.t
val e5_joining : ?jobs:int -> params -> Table.t
val e6_label_creations : ?jobs:int -> params -> Table.t
val e7_counter_increments : ?jobs:int -> params -> Table.t
val e8_vs_smr : ?jobs:int -> params -> Table.t
val e9_baseline_comparison : ?jobs:int -> params -> Table.t
val e10_interface_contract : ?jobs:int -> params -> Table.t
val e11_shared_memory : ?jobs:int -> params -> Table.t
val e12_churn : ?jobs:int -> params -> Table.t
val e13_fd_estimate : ?jobs:int -> params -> Table.t
val e14_partitions : ?jobs:int -> params -> Table.t
val e15_message_overhead : ?jobs:int -> params -> Table.t
val e16_register_comparison : ?jobs:int -> params -> Table.t

(** The scale tier (E17): recovery and steady-state throughput at
    N ∈ {16, 32, 64}. The recovered/rounds columns are deterministic per
    seed; the wall-clock throughput columns are not — they are the one
    exception to table byte-identity. *)
val e17_scale : ?jobs:int -> params -> Table.t

(** The sizes the scale tier measures (16, 32, 64). *)
val scale_sizes : int list

(** Fault-plan sweep (E18): stabilization time vs. fault intensity
    (corruption-storm rate x partition duration x churn) at N ∈ {8, 16, 32},
    with p50/p95 reset-recovery latencies from the telemetry histogram.
    Every cell replays one declarative {!Faults.Fault_plan} through
    [Stack.run_plan]. *)
val e18_faults : ?jobs:int -> params -> Table.t

(** The sizes (8, 16, 32) and composite intensity levels E18 sweeps. *)
val fault_sizes : int list

val fault_levels : (string * float * int * bool) list

(** All experiments in order. *)
val all : ?jobs:int -> params -> Table.t list

(** The (id, experiment) pairs behind {!all}, in order — for callers that
    need per-experiment timing or selection. *)
val registry : (string * (?jobs:int -> params -> Table.t)) list

(** [by_id id] — lookup an experiment by its "E<n>" identifier. *)
val by_id : string -> (?jobs:int -> params -> Table.t) option

val ids : string list
