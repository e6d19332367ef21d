(** A small fixed-size domain pool for embarrassingly parallel experiment
    cells.

    Every (experiment x size x seed) cell of the harness is an independent,
    deterministically-seeded simulation, so the only coordination needed is
    a work queue and order-preserving reassembly of results. The pool is
    hand-rolled on [Domain] + [Mutex]/[Condition] — no dependencies beyond
    the OCaml 5 standard library.

    Determinism contract: [map pool f xs] returns results in the order of
    [xs] regardless of how many domains executed the closures, so table
    output is byte-identical for any job count (provided [f] itself is
    deterministic and shares no mutable state across calls). *)

type t

(** [default_jobs ()] is [Domain.recommended_domain_count ()] — the
    CLI-facing default for [--jobs]. *)
val default_jobs : unit -> int

(** [with_pool ~jobs f] runs [f] with a fresh pool of [max 1 jobs] worker
    domains ([jobs <= 1] spawns none; [map] then runs inline on the
    caller), then drains its queue and joins its workers, on return or
    exception. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a

(** [map t f xs] applies [f] to every element of [xs] on the pool's
    workers and returns the results in input order. If any application
    raised, the first (in input order) exception is re-raised after all
    tasks finished. Must be called from a single client at a time, and
    never from within a task running on [t] (the nested map would starve
    the queue). *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list
